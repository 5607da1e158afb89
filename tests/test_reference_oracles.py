"""The linear-time sparse path and the batched window search against the
straightforward implementations they replace.

The reference functions below are the simple forms: a stable argsort for
Top-Q, `np.unique` + `np.add.at` for the sparse merge, a dense subtraction
for the error-feedback residual, and one bisection per edge for visibility
windows. The fast code must agree with them byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leofl.orbital import (
    GroundStation,
    OrbitPlane,
    VisibilityWindow,
    _gs_los_mask,
    visibility_windows,
)
from leofl.protocol import WindowCache
from leofl.sparsify import (
    ErrorState,
    SparseGradient,
    clsia_step,
    sia_step,
    sparse_add,
    top_q,
)

# -- reference implementations ---------------------------------------------


def reference_top_q(v, q_count):
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    if q_count >= n:
        return SparseGradient.from_dense(v)
    # stable sort on descending magnitude preserves index order among ties
    order = np.argsort(-np.abs(v), kind="stable")[:q_count]
    keep = np.sort(order)
    vals = v[keep]
    nz = vals != 0.0
    return SparseGradient(n, keep[nz].astype(np.int64), vals[nz])


def reference_sparse_add(a, b):
    idx = np.concatenate([a.indices, b.indices])
    val = np.concatenate([a.values, b.values])
    uniq, inv = np.unique(idx, return_inverse=True)
    summed = np.zeros(len(uniq))
    np.add.at(summed, inv, val)
    return SparseGradient(a.dim, uniq, summed)


def reference_sia_step(g, data_size, err, incoming, q_count):
    compensated = data_size * np.asarray(g, dtype=np.float64) + err.residual
    own = reference_top_q(compensated, q_count)
    return reference_sparse_add(incoming, own), ErrorState(compensated - own.densify())


def reference_clsia_step(g, data_size, err, incoming, q_count):
    compensated = data_size * np.asarray(g, dtype=np.float64) + err.residual
    merged = incoming.densify() + compensated
    outgoing = reference_top_q(merged, q_count)
    return outgoing, ErrorState(merged - outgoing.densify())


def _bisect_edge(plane, sat_index, gs, t_lo, t_hi, rising, tol_s=1.0):
    while t_hi - t_lo > tol_s:
        mid = 0.5 * (t_lo + t_hi)
        if bool(_gs_los_mask(plane, sat_index, gs, np.asarray([mid]))[0]) == rising:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi if rising else t_lo


def reference_visibility_windows(plane, sat_index, gs, t_start, t_end, step_s=5.0):
    if t_start >= t_end:
        return []
    times = np.arange(t_start, t_end + step_s, step_s)
    times[-1] = min(times[-1], t_end)
    mask = _gs_los_mask(plane, sat_index, gs, times)
    windows = []
    i, n = 0, len(times)
    while i < n:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and mask[j + 1]:
            j += 1
        start = times[i]
        if i > 0:
            start = _bisect_edge(plane, sat_index, gs, times[i - 1], times[i], rising=True)
        end = times[j]
        if j + 1 < n:
            end = _bisect_edge(plane, sat_index, gs, times[j], times[j + 1], rising=False)
        start = max(start, t_start)
        end = min(end, t_end)
        if start < end:
            windows.append(VisibilityWindow(sat_index, float(start), float(end)))
        i = j + 1
    return windows


# -- comparison helpers ----------------------------------------------------


def assert_same_sparse(got, want):
    assert got.dim == want.dim
    assert got.indices.dtype == want.indices.dtype
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


# magnitudes from a small set give heavy ties; ±0.0 tests the zero rules
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0])
tied_vectors = hnp.arrays(np.float64, st.integers(1, 80), elements=TIED)
wide_vectors = hnp.arrays(
    np.float64, st.integers(1, 80),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True, width=64),
)
vectors = st.one_of(tied_vectors, wide_vectors)


def mostly_zero(dim, seed, nnz):
    rng = np.random.default_rng(seed)
    v = np.zeros(dim)
    v[rng.choice(dim, size=nnz, replace=False)] = rng.normal(size=nnz)
    return v


class TestTopQAgainstReference:
    @given(vectors, st.integers(0, 90))
    def test_byte_identical(self, v, q):
        assert_same_sparse(top_q(v, q), reference_top_q(v, q))

    @pytest.mark.parametrize("q", [0, 1, 5, 79, 7849, 7850, 9000])
    def test_model_sized_vectors(self, q):
        rng = np.random.default_rng(q)
        for v in (rng.normal(size=7850), np.round(rng.normal(size=7850), 1),
                  mostly_zero(7850, q, 40), np.zeros(7850), -np.zeros(7850)):
            assert_same_sparse(top_q(v, q), reference_top_q(v, q))

    def test_all_zero_keeps_nothing(self):
        for v in (np.zeros(10), -np.zeros(10)):
            assert top_q(v, 3).nnz == 0 and top_q(v, 10).nnz == 0


class TestSparseAddAgainstReference:
    @given(vectors, st.data())
    def test_byte_identical(self, v, data):
        w = data.draw(hnp.arrays(np.float64, len(v), elements=TIED))
        a = SparseGradient.from_dense(v)
        b = SparseGradient.from_dense(w)
        assert_same_sparse(sparse_add(a, b), reference_sparse_add(a, b))

    @given(vectors)
    def test_cancelling_entries_stay_in_support(self, v):
        a = SparseGradient.from_dense(v)
        b = SparseGradient(a.dim, a.indices, -a.values)
        merged = sparse_add(a, b)
        assert_same_sparse(merged, reference_sparse_add(a, b))
        assert merged.nnz == a.nnz and not np.any(merged.values)

    def test_empty_operands(self):
        a = SparseGradient.from_dense(np.array([0.0, 1.5, 0.0, -2.0]))
        e = SparseGradient.empty(4)
        for x, y in ((a, e), (e, a), (e, e)):
            assert_same_sparse(sparse_add(x, y), reference_sparse_add(x, y))


class TestStepsAgainstReference:
    @given(vectors, st.data())
    def test_sia_and_clsia_byte_identical(self, g, data):
        dim = len(g)
        q = data.draw(st.integers(0, dim + 2))
        residual = data.draw(hnp.arrays(np.float64, dim, elements=TIED))
        incoming = SparseGradient.from_dense(data.draw(hnp.arrays(np.float64, dim, elements=TIED)))
        size = data.draw(st.sampled_from([1.0, 3.0, 100.0]))
        for fast, reference in ((sia_step, reference_sia_step), (clsia_step, reference_clsia_step)):
            err = ErrorState(residual.copy())
            out, new_err = fast(g, size, err, incoming, q)
            want_out, want_err = reference(g, size, ErrorState(residual.copy()), incoming, q)
            assert_same_sparse(out, want_out)
            assert new_err.residual.tobytes() == want_err.residual.tobytes()
            assert err.residual.tobytes() == residual.tobytes()  # input state untouched


# three geometries: the default Bremen ring, a low inclined shell and a
# sun-synchronous plane over a southern station
GEOMETRIES = [
    (OrbitPlane(2000e3, math.radians(85.0), 0.0, 8),
     GroundStation(math.radians(53.08), math.radians(8.80), math.radians(10.0))),
    (OrbitPlane(500e3, math.radians(53.0), 1.1, 20),
     GroundStation(math.radians(40.0), math.radians(-75.0), math.radians(5.0))),
    (OrbitPlane(1200e3, math.radians(97.6), 2.3, 12),
     GroundStation(math.radians(-33.9), math.radians(18.4), math.radians(15.0))),
]
TEN_DAYS = 10 * 86400.0


class TestWindowsAgainstReference:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_ten_days_identical(self, geometry):
        plane, gs = GEOMETRIES[geometry]
        for sat in range(0, plane.num_sats, 3):
            want = reference_visibility_windows(plane, sat, gs, 0.0, TEN_DAYS)
            assert want
            assert visibility_windows(plane, sat, gs, 0.0, TEN_DAYS) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(GEOMETRIES) - 1), st.integers(0, 19),
           st.floats(0.0, 86400.0), st.floats(0.5, 20000.0), st.sampled_from([2.5, 5.0, 7.0]))
    def test_random_spans_identical(self, geometry, sat, t_start, span, step):
        # spans that start or end inside a window, and clipped last samples
        plane, gs = GEOMETRIES[geometry]
        sat %= plane.num_sats
        t_end = t_start + span
        assert (visibility_windows(plane, sat, gs, t_start, t_end, step)
                == reference_visibility_windows(plane, sat, gs, t_start, t_end, step))

    def test_window_cache_matches_linear_scan(self):
        plane, gs = GEOMETRIES[0]
        cache = WindowCache(plane, gs, plane.num_sats)
        for t in np.linspace(0.0, 3 * 86400.0, 400):
            for sat in range(plane.num_sats):
                got = cache.next_window(sat, float(t))
                want = next(w for w in cache._windows[sat] if w.end_s > t)
                assert got is want
