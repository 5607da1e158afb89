"""Top-Q sparsification, error feedback, and incremental-aggregation steps.

Two in-network schemes operate on sparse messages:
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
    """A message: float64 `values` of the model's length and the bool mask of entries `sent`.

    Only `top_q`, `sparse_add`, `empty` and the dense sum's step build one, and
    each holds exactly +0.0 wherever `sent` is False and never -0.0 where it is
    True, so an entrywise sum of two messages is the sum an index/value merge
    would give; the message bit count reads only `sent`.
    """

    values: np.ndarray
    sent: np.ndarray

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.sent))

    @classmethod
    def empty(cls, dim: int) -> "SparseGradient":
        return cls(np.zeros(dim), np.zeros(dim, dtype=bool))


@dataclass(frozen=True)
class ErrorState:
    """Per-satellite sparsification residual carried across rounds.

    A step never writes a residual in place: it returns a fresh state, or the
    one it was given. So one read-only zero state can start every satellite.
    """

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

    Explicit zeros are never sent, so the result can hold fewer entries.
    Linear time: a partial sort finds the q_count-th largest magnitude, every
    entry above it is kept and the remaining slots go to the lowest-index
    entries equal to it.
    """
    n = len(v)
    if q_count == 0:
        return SparseGradient.empty(n)
    mag = np.abs(v)
    kth = max(n - q_count, 0)
    thr = np.partition(mag, kth)[kth]
    keep = mag > thr
    if thr > 0.0:  # a zero threshold ties only zeros, which are never sent
        ties = np.flatnonzero(mag == thr)
        keep[ties[: q_count - np.count_nonzero(keep)]] = True
    values = np.zeros(n)
    np.copyto(values, v, where=keep)
    return SparseGradient(values, keep)


def sparse_add(a: SparseGradient, b: SparseGradient) -> SparseGradient:
    """Union of supports, summing values on common entries.

    Entries that sum to exactly 0.0 stay in the support: they were sent.
    """
    return SparseGradient(a.values + b.values, a.sent | b.sent)


def _error_compensated(g: np.ndarray, data_size: float, err: ErrorState) -> np.ndarray:
    return data_size * g + err.residual


def _send_and_keep(v: np.ndarray, q_count: int) -> tuple[SparseGradient, ErrorState]:
    """Send the Top-Q of `v` and keep the rest: returns the message and `v` itself as the
    residual, with +0.0 written where it was sent (as x - x would give)."""
    sent = top_q(v, q_count)
    v[sent.sent] = 0.0
    return sent, ErrorState(v)


def sia_step(
    g: np.ndarray,
    data_size: float,
    err: ErrorState,
    incoming: SparseGradient,
    q_count: int,
) -> tuple[SparseGradient, ErrorState]:
    """One satellite's SIA step: compensate, Top-Q, merge into the aggregate."""
    own, err = _send_and_keep(_error_compensated(g, data_size, err), q_count)
    return sparse_add(incoming, own), err


def clsia_step(
    g: np.ndarray,
    data_size: float,
    err: ErrorState,
    incoming: SparseGradient,
    q_count: int,
) -> tuple[SparseGradient, ErrorState]:
    """One satellite's CL-SIA step: compensate, merge, then Top-Q the total."""
    return _send_and_keep(incoming.values + _error_compensated(g, data_size, err), q_count)


def message_bits(s: SparseGradient, m: SizeModel) -> int:
    return s.nnz * m.entry_bits


def q_to_count(q: float, dim: int) -> int:
    """Map a sparsification ratio in (0, 1] to an entry count, at least 1."""
    return max(1, math.ceil(q * dim))
