"""Multinomial logistic regression, local mini-batch SGD, and the global update.

The model is a flat weight vector of length num_classes * (feature_dim + 1);
the bias weighs the constant last column of `Dataset.rows`. For MNIST this
gives 10 * 785 = 7850 trainable parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class HyperParams:
    """The config's `training` section."""

    learning_rate: float = 0.1
    local_epochs: int = 1
    batch_size: int = 32
    rounds: int = 500


def model_dim(feature_dim: int, num_classes: int) -> int:
    return num_classes * (feature_dim + 1)


def init_weights(feature_dim: int, num_classes: int) -> np.ndarray:
    return np.zeros(model_dim(feature_dim, num_classes))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_gradient_sum(w: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the summed (not averaged) cross-entropy over the given samples.

    `rows` are samples with the constant bias feature appended, as `Dataset.rows` stores them.
    """
    logits = rows @ w.reshape(-1, rows.shape[1]).T
    probs = np.exp(_log_softmax(logits))
    probs[np.arange(len(labels)), labels] -= 1.0
    return (probs.T @ rows).ravel()


def sat_learn_proc(
    w_global: np.ndarray,
    dataset: Dataset,
    hp: HyperParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Local epochs of mini-batch SGD starting from the global weights."""
    w = w_global.copy()
    n = len(dataset)
    for _ in range(hp.local_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            batch = perm[start : start + hp.batch_size]
            grad = loss_gradient_sum(w, dataset.rows[batch], dataset.labels[batch])
            w -= (hp.learning_rate / len(batch)) * grad
    return w


def local_gradient(w_global: np.ndarray, dataset: Dataset, hp: HyperParams,
                   key: list[int]) -> np.ndarray:
    """A satellite's update: its local weights trained on the rng `key` seeds, minus `w_global`."""
    return sat_learn_proc(w_global, dataset, hp, np.random.default_rng(key)) - w_global


def global_update(w_global: np.ndarray, aggregate: np.ndarray, total_data: float) -> np.ndarray:
    """FedAvg step: add the data-size-weighted gradient sum divided by total size."""
    return w_global + aggregate / total_data


def evaluate(w: np.ndarray, test_set: Dataset) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    logits = test_set.rows @ w.reshape(-1, test_set.rows.shape[1]).T
    return float((logits.argmax(axis=1) == test_set.labels).mean())
