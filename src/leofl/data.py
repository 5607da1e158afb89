"""Datasets: MNIST IDX ingestion, a synthetic fallback, a seeded shuffle and even partitioning.

Each set is one (n, d + 1) array, written by its loader, shuffled in place and cut into views.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
NUM_CLASSES = 10  # digits 0-9; fixes the model size whatever labels a sample holds
FEATURE_DIM = 784  # 28 x 28 pixels, the MNIST image and the synthetic sample alike
READ_CHUNK_BYTES = 1 << 20  # an IDX payload is read this much at a time, never all it declares
SYNTHETIC_BLOCK_ROWS = 256  # synthetic noise is drawn this many rows at a time


class IngestionError(RuntimeError):
    """Raised when dataset files are missing or malformed."""


class Dataset:
    """Samples stored once as (n, feature_dim + 1) rows whose last column is 1.

    The constant column is the model's bias feature, so training and
    evaluation read the rows as they are. Only the shards `partition` cuts have a `span`.
    """

    def __init__(self, rows: np.ndarray, labels: np.ndarray, span: tuple | None = None):
        self.rows = rows  # (n, feature_dim + 1): features in [0, 1], then 1
        self.labels = labels  # (n,), ints in [0, num_classes)
        self.span = span  # (whole, a, b): these are rows a .. b-1 of the set `whole`; or None

    @property
    def features(self) -> np.ndarray:
        """The (n, feature_dim) view of the rows without the constant column."""
        return self.rows[:, :-1]

    def __len__(self) -> int:
        return len(self.labels)


def _read_exactly(f, size: int, path: Path, what: str) -> bytearray:
    """The next `size` bytes of `f`, read READ_CHUNK_BYTES at a time, never past what it holds."""
    payload = bytearray()
    while len(payload) < size and (chunk := f.read(min(READ_CHUNK_BYTES, size - len(payload)))):
        payload += chunk
    if len(payload) != size:
        raise IngestionError(f"{path}: truncated IDX {what}, {len(payload)} of {size} bytes")
    return payload


def _read_dims(f, path: Path, expected_magic: int) -> tuple[int, ...]:
    magic, = struct.unpack(">i", _read_exactly(f, 4, path, "header"))
    if magic != expected_magic:
        raise IngestionError(f"{path}: bad IDX magic {magic}, expected {expected_magic}")
    ndim = magic % 256
    dims = struct.unpack(f">{ndim}i", _read_exactly(f, 4 * ndim, path, "header"))
    if min(dims) < 0:
        raise IngestionError(f"{path}: negative IDX dimension in {dims}")
    return dims


def _read_idx(path: Path, expected_magic: int) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            gzipped = f.read(2) == b"\x1f\x8b"
        with (gzip.open if gzipped else open)(path, "rb") as f:
            dims = _read_dims(f, path, expected_magic)
            payload = _read_exactly(f, math.prod(dims), path, "payload")
            # for a gzip file, this read is what checks the trailer
            if f.read(1):
                raise IngestionError(f"{path}: bytes past the declared IDX payload")
    except (OSError, EOFError, zlib.error) as exc:  # missing, a directory, a damaged gzip stream
        raise IngestionError(f"{path}: cannot read the IDX file: {exc}") from None
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_mnist(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Read an MNIST-format IDX image/label pair, scaling pixels to [0, 1].

    The images must be 28 x 28: validate prices the model upload at FEATURE_DIM.
    """
    images = _read_idx(Path(images_path), IDX_IMAGES_MAGIC)
    labels = _read_idx(Path(labels_path), IDX_LABELS_MAGIC)
    if len(images) == 0:
        raise IngestionError(f"{images_path}: the file holds no samples")
    if images.shape[1:] != (28, 28):
        raise IngestionError(
            f"{images_path}: images are {images.shape[1]} x {images.shape[2]}, expected 28 x 28"
        )
    if len(images) != len(labels):
        raise IngestionError(f"{images_path}, {labels_path}: image and label counts differ, "
                             f"{len(images)} against {len(labels)}")
    if np.any(labels >= NUM_CLASSES):
        raise IngestionError(
            f"{labels_path}: label {int(labels.max())} outside [0, {NUM_CLASSES})"
        )
    rows = _bias_rows(len(images), FEATURE_DIM)
    rows[:, :-1] = images.reshape(len(images), -1)
    rows[:, :-1] /= 255.0
    return Dataset(rows, labels.astype(np.int64))


def _bias_rows(num_samples: int, feature_dim: int) -> np.ndarray:
    rows = np.empty((num_samples, feature_dim + 1))
    rows[:, -1] = 1.0
    return rows


def synthetic_dataset(
    num_samples: int,
    seed: int,
    feature_dim: int = FEATURE_DIM,
    num_classes: int = NUM_CLASSES,
    noise_std: float = 0.35,
    blob_seed: int = 0,
) -> Dataset:
    """Seeded Gaussian-blob stand-in with the same shape contract as MNIST.

    `blob_seed` fixes the class geometry so train and test splits drawn with
    different sample seeds come from the same distribution. The noise is drawn
    and clipped into the rows one block of rows at a time; the generator fills
    values in order, so the rows equal those of one whole draw.
    """
    rng = np.random.default_rng(seed)
    means = np.random.default_rng(blob_seed).uniform(0.25, 0.75, size=(num_classes, feature_dim))
    labels = rng.integers(0, num_classes, size=num_samples)
    rows = _bias_rows(num_samples, feature_dim)
    for start in range(0, num_samples, SYNTHETIC_BLOCK_ROWS):
        block = labels[start:start + SYNTHETIC_BLOCK_ROWS]
        feats = means[block] + rng.normal(0.0, noise_std, size=(len(block), feature_dim))
        np.clip(feats, 0.0, 1.0, out=rows[start:start + len(block), :-1])
    return Dataset(rows, labels.astype(np.int64))


def shuffle(dataset: Dataset, seed: int) -> None:
    """Reorder the samples in place, in a seeded order that does not depend on the shard count.

    Rows and labels each take the swaps of `default_rng(seed).permutation(n)`,
    so every sample lands where indexing by that permutation would put it.
    """
    for array in (dataset.rows, dataset.labels):
        np.random.default_rng(seed).shuffle(array)


def partition(dataset: Dataset, k: int) -> list[Dataset]:
    """Split into k contiguous shards of near-equal size, each a slice view of the dataset's arrays.

    Shard i starts at i * (n // k) + min(i, n % k), where `np.array_split` cuts,
    so the first n % k shards hold one sample more. Each shard's span records
    the dataset and the bounds it was cut at.
    """
    size, extra = divmod(len(dataset), k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return [Dataset(dataset.rows[a:b], dataset.labels[a:b], (dataset, a, b))
            for a, b in zip(bounds, bounds[1:])]
