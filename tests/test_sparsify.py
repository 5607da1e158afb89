from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leofl.sparsify import (
    ErrorState,
    SizeModel,
    SparseGradient,
    clsia_step,
    message_bits,
    q_to_count,
    sia_step,
    sparse_add,
    top_q,
)

dense_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


def vec_with_support(dim, support, values):
    v = np.zeros(dim)
    v[list(support)] = values
    return v


def message(dim, indices, values):
    """The message that sends `values` at `indices`."""
    sent = np.zeros(dim, dtype=bool)
    sent[list(indices)] = True
    return SparseGradient(vec_with_support(dim, indices, values), sent)


def sent_as_is(v):
    """The message that sends every non-zero entry of `v`."""
    nonzero = np.flatnonzero(v)
    return message(len(v), nonzero, v[nonzero])


def support(s):
    return list(np.flatnonzero(s.sent))


class TestTopQ:
    def test_figure_support(self):
        # 12 entries, largest magnitudes at positions 3, 7, 9 (0-based)
        v = np.full(12, 0.1)
        v[[3, 7, 9]] = [5.0, -4.0, 3.0]
        assert support(top_q(v, 3)) == [3, 7, 9]

    def test_q_at_least_dim_is_identity(self):
        v = np.array([1.0, -2.0, 0.0, 3.0])
        s = top_q(v, 10)
        np.testing.assert_array_equal(s.values, v)
        assert not s.sent[2]  # zeros never sent

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=100)
        expected = set(np.argsort(-np.abs(v))[:7])
        assert set(support(top_q(v, 7))) == expected

    def test_tie_break_lower_index(self):
        v = np.array([2.0, -2.0, 2.0, 1.0])
        assert support(top_q(v, 2)) == [0, 1]

    @given(dense_vectors, st.integers(0, 70))
    def test_residual_zero_on_kept_support(self, v, q):
        s = top_q(v, q)
        residual = v - s.values
        assert np.all(residual[s.sent] == 0.0)

    @given(dense_vectors, st.integers(0, 70))
    def test_optimality(self, v, q):
        s = top_q(v, q)
        dropped = ~s.sent
        if s.nnz and dropped.any():
            assert np.abs(v[dropped]).max() <= np.abs(s.values[s.sent]).min()

    @given(dense_vectors, st.integers(0, 70))
    def test_decomposition_identity(self, v, q):
        s = top_q(v, q)
        np.testing.assert_array_equal(s.values + (v - s.values), v)


class TestSparseAdd:
    def test_figure_merge(self):
        a = message(12, [3, 7, 9], [1.0, 2.0, 3.0])
        b = message(12, [1, 3, 11], [4.0, 5.0, 6.0])
        merged = sparse_add(a, b)
        assert support(merged) == [1, 3, 7, 9, 11]
        assert merged.values[3] == 6.0  # only the common index is summed

    def test_additive_identity(self):
        a = message(5, [1, 4], [2.0, -1.0])
        merged = sparse_add(a, SparseGradient.empty(5))
        np.testing.assert_array_equal(merged.values, a.values)
        np.testing.assert_array_equal(merged.sent, a.sent)

    @given(dense_vectors.flatmap(lambda v: st.tuples(st.just(v), dense_vectors.filter(lambda w: True))))
    def test_matches_dense_addition(self, pair):
        v, w = pair
        n = min(len(v), len(w))
        a = sent_as_is(v[:n])
        b = sent_as_is(w[:n])
        np.testing.assert_allclose(
            sparse_add(a, b).values, v[:n] + w[:n], rtol=0, atol=0
        )


def fig2_gradients():
    """Three 12-dim vectors whose error-compensated Top-3 supports are the
    0-based index sets {3,7,9}, {1,3,11}, {1,3,10}."""
    g1 = vec_with_support(12, [3, 7, 9], [5.0, -4.0, 3.0])
    g2 = vec_with_support(12, [1, 3, 11], [6.0, 2.0, -7.0])
    g3 = vec_with_support(12, [1, 3, 10], [1.5, 2.5, -3.5])
    return g1, g2, g3


class TestErrorState:
    def test_residual_cannot_be_rebound(self):
        err = ErrorState.zeros(4)
        with pytest.raises(FrozenInstanceError):
            err.residual = np.ones(4)

    @pytest.mark.parametrize("step", [sia_step, clsia_step])
    def test_steps_leave_a_read_only_state_as_it_was(self, step):
        # a build starts every node from one such state
        start = ErrorState.zeros(12)
        start.residual.flags.writeable = False
        g1, _, _ = fig2_gradients()
        out, err = step(g1, 1.0, start, SparseGradient.empty(12), 3)
        assert err is not start and err.residual.flags.writeable
        np.testing.assert_array_equal(out.values + err.residual, g1)
        assert not start.residual.any()


class TestSiaStep:
    def test_figure_trace_satellite2(self):
        g1, g2, _ = fig2_gradients()
        e1, e2 = ErrorState.zeros(12), ErrorState.zeros(12)
        out1, e1 = sia_step(g1, 1.0, e1, SparseGradient.empty(12), 3)
        assert support(out1) == [3, 7, 9]
        out2, e2 = sia_step(g2, 1.0, e2, out1, 3)
        assert support(out2) == [1, 3, 7, 9, 11]
        assert out2.nnz == 5
        assert out2.values[3] == g1[3] + g2[3]

    def test_chain_start_has_exactly_q_entries(self):
        g = np.arange(1.0, 13.0)
        out, _ = sia_step(g, 2.0, ErrorState.zeros(12), SparseGradient.empty(12), 3)
        assert out.nnz == 3

    @given(dense_vectors, st.integers(1, 20))
    def test_decomposition(self, g, q):
        dim = len(g)
        err = ErrorState(np.linspace(-1, 1, dim))
        before = 3.0 * g + err.residual
        out, err2 = sia_step(g, 3.0, err, SparseGradient.empty(dim), q)
        np.testing.assert_array_equal(out.values + err2.residual, before)

    def test_outgoing_size_bound(self):
        rng = np.random.default_rng(0)
        dim, q = 50, 5
        incoming = top_q(rng.normal(size=dim), 12)
        out, _ = sia_step(rng.normal(size=dim), 1.0, ErrorState.zeros(dim), incoming, q)
        assert out.nnz <= min(dim, incoming.nnz + q)


class TestClsiaStep:
    def test_figure_trace_satellite2(self):
        g1, g2, g3 = fig2_gradients()
        errs = [ErrorState.zeros(12) for _ in range(3)]
        out1, errs[0] = clsia_step(g1, 1.0, errs[0], SparseGradient.empty(12), 3)
        assert support(out1) == [3, 7, 9]
        out2, errs[1] = clsia_step(g2, 1.0, errs[1], out1, 3)
        assert out2.nnz == 3
        assert support(out2) == [1, 3, 11]
        out3, errs[2] = clsia_step(g3, 1.0, errs[2], out2, 3)
        assert out3.nnz == 3

    @given(dense_vectors, st.integers(1, 20))
    def test_constant_length(self, g, q):
        dim = len(g)
        incoming = top_q(np.linspace(-1, 1, dim), q)
        out, _ = clsia_step(g, 1.0, ErrorState.zeros(dim), incoming, q)
        merged = incoming.values + g
        assert out.nnz == min(q, int(np.count_nonzero(top_q(merged, q).values)))
        assert out.nnz <= q

    @given(dense_vectors, st.integers(1, 20))
    def test_telescoping(self, g, q):
        dim = len(g)
        err = ErrorState(np.linspace(0.5, -0.5, dim))
        incoming = top_q(np.linspace(-1, 1, dim), q)
        before = incoming.values + (2.0 * g + err.residual)
        out, err2 = clsia_step(g, 2.0, err, incoming, q)
        np.testing.assert_array_equal(out.values + err2.residual, before)


class TestSchemesCollapseAtQ1:
    def test_identical_to_dense_sum(self):
        rng = np.random.default_rng(3)
        dim = 40
        gs = [rng.normal(size=dim) for _ in range(4)]
        sizes = [2.0, 3.0, 1.0, 4.0]
        q = dim

        expected = np.zeros(dim)
        agg_sia = SparseGradient.empty(dim)
        agg_cl = SparseGradient.empty(dim)
        for g, d in zip(gs, sizes):
            expected += d * g
            agg_sia, err = sia_step(g, d, ErrorState.zeros(dim), agg_sia, q)
            assert np.all(err.residual == 0)
            agg_cl, err = clsia_step(g, d, ErrorState.zeros(dim), agg_cl, q)
            assert np.all(err.residual == 0)
        np.testing.assert_allclose(agg_sia.values, expected, rtol=1e-12)
        np.testing.assert_allclose(agg_cl.values, expected, rtol=1e-12)


class TestSizeAccounting:
    def test_reference_message(self):
        m = SizeModel(7850)
        assert m.index_bits == 13
        s = message(7850, range(79), np.ones(79))
        assert message_bits(s, m) == 3555

    def test_empty_message(self):
        m = SizeModel(7850)
        assert message_bits(SparseGradient.empty(7850), m) == 0

    def test_dense_plane_budget(self):
        m = SizeModel(7850)
        assert m.dense_bits() == 251_200
        assert 8 * m.dense_bits() == 2_009_600

    def test_index_bits_definition(self):
        for dim in (2, 3, 4, 1024, 1025, 7850):
            bits = SizeModel(dim).index_bits
            assert 2**bits >= dim
            assert bits == 0 or 2 ** (bits - 1) < dim


class TestRatioMapping:
    def test_reference_counts(self):
        assert q_to_count(0.01, 7850) == 79
        assert q_to_count(0.1, 7850) == 785
        assert q_to_count(1.0, 7850) == 7850

    def test_never_zero(self):
        assert q_to_count(1e-9, 10) == 1
