"""Top-Q sparsification, error feedback, and incremental-aggregation steps.

Two in-network schemes operate on sparse index/value messages:
  - sparse incremental aggregation (SIA): each satellite Top-Q-compresses its
    own error-compensated gradient and merges it into the incoming aggregate,
    so message support can grow hop by hop;
  - constant-length SIA (CL-SIA): Top-Q is applied after merging, pinning every
    outgoing message at Q entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseGradient:
    """Immutable index/value view of a sparse vector of dimension `dim`.

    Only `top_q`, `sparse_add`, `empty` and `from_dense` build one, and each
    gives 1-d int64 indices, strictly increasing and in [0, dim), with float64
    values of the same length; the message bit count relies on it.
    """

    dim: int
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def densify(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @classmethod
    def empty(cls, dim: int) -> "SparseGradient":
        return cls(dim, np.empty(0, dtype=np.int64), np.empty(0))

    @classmethod
    def from_dense(cls, v: np.ndarray) -> "SparseGradient":
        idx = np.nonzero(v)[0]
        return cls(len(v), idx.astype(np.int64), np.asarray(v, dtype=np.float64)[idx])


@dataclass
class ErrorState:
    """Per-satellite sparsification residual carried across rounds."""

    residual: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "ErrorState":
        return cls(np.zeros(dim))


# bits per transmitted value, the paper's count for a 32-bit float
VALUE_BITS = 32


@dataclass(frozen=True)
class SizeModel:
    """Wire-size accounting: each entry costs value bits plus index bits."""

    dim: int

    @property
    def index_bits(self) -> int:
        # smallest b with 2**b >= dim
        return (self.dim - 1).bit_length()

    @property
    def entry_bits(self) -> int:
        return VALUE_BITS + self.index_bits

    def dense_bits(self) -> int:
        return self.dim * VALUE_BITS


def top_q(v: np.ndarray, q_count: int) -> SparseGradient:
    """Keep the q_count largest-magnitude entries; ties go to the lower index.

    Explicit zeros are never stored, so the result can hold fewer entries.
    Linear time: a partial sort finds the q_count-th largest magnitude, every
    entry above it is kept and the remaining slots go to the lowest-index
    entries equal to it.
    """
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    if q_count >= n:
        return SparseGradient.from_dense(v)
    if q_count == 0:
        return SparseGradient.empty(n)
    mag = np.abs(v)
    thr = np.partition(mag, n - q_count)[n - q_count]
    keep = mag > thr
    if thr > 0.0:  # a zero threshold ties only zeros, which are never stored
        ties = np.flatnonzero(mag == thr)
        keep[ties[: q_count - np.count_nonzero(keep)]] = True
    idx = np.flatnonzero(keep)
    return SparseGradient(n, idx, v[idx])


def sparse_add(a: SparseGradient, b: SparseGradient) -> SparseGradient:
    """Union of supports, summing values on common indices.

    Entries that sum to exactly 0.0 stay in the support: they were sent.
    """
    summed = np.zeros(a.dim)
    summed[a.indices] += a.values
    summed[b.indices] += b.values
    support = np.zeros(a.dim, dtype=bool)
    support[a.indices] = True
    support[b.indices] = True
    idx = np.flatnonzero(support)
    return SparseGradient(a.dim, idx, summed[idx])


def _error_compensated(g: np.ndarray, data_size: float, err: ErrorState) -> np.ndarray:
    return data_size * np.asarray(g, dtype=np.float64) + err.residual


def sia_step(
    g: np.ndarray,
    data_size: float,
    err: ErrorState,
    incoming: SparseGradient,
    q_count: int,
) -> tuple[SparseGradient, ErrorState]:
    """One satellite's SIA step: compensate, Top-Q, merge into the aggregate."""
    compensated = _error_compensated(g, data_size, err)
    own = top_q(compensated, q_count)
    # the residual is what was not sent: x - x == +0.0 on the kept support
    compensated[own.indices] = 0.0
    return sparse_add(incoming, own), ErrorState(compensated)


def clsia_step(
    g: np.ndarray,
    data_size: float,
    err: ErrorState,
    incoming: SparseGradient,
    q_count: int,
) -> tuple[SparseGradient, ErrorState]:
    """One satellite's CL-SIA step: compensate, merge, then Top-Q the total."""
    compensated = _error_compensated(g, data_size, err)
    merged = incoming.densify() + compensated
    outgoing = top_q(merged, q_count)
    merged[outgoing.indices] = 0.0
    return outgoing, ErrorState(merged)


def message_bits(s: SparseGradient, m: SizeModel) -> int:
    return s.nnz * m.entry_bits


def q_to_count(q: float, dim: int) -> int:
    """Map a sparsification ratio in (0, 1] to an entry count, at least 1."""
    if not 0 < q <= 1:
        raise ValueError(f"sparsification ratio must be in (0, 1], got {q}")
    return max(1, math.ceil(q * dim))
