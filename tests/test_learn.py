import math

import numpy as np
import pytest

from leofl import learn
from leofl.data import Dataset, synthetic_dataset


def with_bias(feats, labels):
    """A dataset of (n, dim) features, stored with the constant bias column."""
    return Dataset(np.hstack([feats, np.ones((len(feats), 1))]), labels)


def toy_dataset(n=30, dim=12, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0, 1, size=(n, dim))
    labels = rng.integers(0, classes, size=n)
    return with_bias(feats, labels.astype(np.int64))


def random_weights(dim=12, classes=4, seed=1, scale=0.5):
    rng = np.random.default_rng(seed)
    return scale * rng.normal(size=learn.model_dim(dim, classes))


# the model's cross-entropy, computed here independently of learn: the weights
# are a (classes, features + 1) matrix whose last column is the bias
def log_softmax(w, features):
    x = np.atleast_2d(features)
    logits = np.hstack([x, np.ones((len(x), 1))]) @ w.reshape(-1, x.shape[1] + 1).T
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def per_sample_loss(w, x, label):
    return float(-log_softmax(w, x)[0, label])


def local_loss(w, dataset):
    """Mean cross-entropy over a shard."""
    return float(-log_softmax(w, dataset.features)[np.arange(len(dataset)), dataset.labels].mean())


class TestPerSampleLoss:
    def test_zero_weights_uniform(self):
        ds = toy_dataset(classes=10, dim=8)
        w = learn.init_weights(8, 10)
        loss = per_sample_loss(w, ds.features[0], int(ds.labels[0]))
        assert loss == pytest.approx(math.log(10), rel=1e-12)

    def test_nonnegative(self):
        ds = toy_dataset()
        w = random_weights()
        for x, y in zip(ds.features[:10], ds.labels[:10]):
            assert per_sample_loss(w, x, int(y)) >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        dim, classes = 30, 5
        w = random_weights(dim, classes)
        x = rng.uniform(0, 1, size=dim)
        label = 2
        grad = learn.loss_gradient_sum(w, np.append(x, 1.0)[None, :], np.array([label]))
        h = 1e-5
        probes = rng.choice(len(w), size=100, replace=False)
        for i in probes:
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (per_sample_loss(wp, x, label) - per_sample_loss(wm, x, label)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_softmax_normalized(self):
        w = random_weights()
        probs = np.exp(log_softmax(w, toy_dataset().features[:5]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestLocalLoss:
    def test_single_sample(self):
        ds = toy_dataset(n=1)
        w = random_weights()
        single = per_sample_loss(w, ds.features[0], int(ds.labels[0]))
        assert local_loss(w, ds) == pytest.approx(single, rel=1e-12)

    def test_duplication_invariance(self):
        ds = toy_dataset(n=8)
        doubled = with_bias(
            np.concatenate([ds.features, ds.features]),
            np.concatenate([ds.labels, ds.labels]),
        )
        w = random_weights()
        assert local_loss(w, doubled) == pytest.approx(
            local_loss(w, ds), rel=1e-12
        )

    def test_matches_direct_sum(self):
        ds = toy_dataset(n=9)
        w = random_weights()
        direct = np.mean(
            [per_sample_loss(w, x, int(y)) for x, y in zip(ds.features, ds.labels)]
        )
        assert local_loss(w, ds) == pytest.approx(direct, rel=1e-12)



class TestSatLearnProc:
    def test_zero_learning_rate(self):
        ds = toy_dataset()
        hp = learn.HyperParams(learning_rate=0.0)
        w0 = random_weights()
        w1 = learn.sat_learn_proc(w0, ds, hp, np.random.default_rng(0))
        np.testing.assert_array_equal(w0, w1)

    def test_full_batch_single_step(self):
        ds = toy_dataset(n=16)
        eta = 0.05
        hp = learn.HyperParams(learning_rate=eta, local_epochs=1, batch_size=len(ds))
        w0 = random_weights()
        w1 = learn.sat_learn_proc(w0, ds, hp, np.random.default_rng(0))
        grad = learn.loss_gradient_sum(w0, ds.rows, ds.labels) / len(ds)
        np.testing.assert_allclose(w1, w0 - eta * grad, rtol=1e-12)

    def test_descent_on_easy_data(self):
        ds = synthetic_dataset(200, seed=2, feature_dim=12, num_classes=3, noise_std=0.05)
        hp = learn.HyperParams(learning_rate=0.05, local_epochs=3, batch_size=16)
        w0 = learn.init_weights(12, 3)
        w1 = learn.sat_learn_proc(w0, ds, hp, np.random.default_rng(1))
        assert local_loss(w1, ds) < local_loss(w0, ds)

    def test_deterministic_per_seed(self):
        ds = toy_dataset()
        hp = learn.HyperParams(learning_rate=0.1, local_epochs=2, batch_size=8)
        w0 = random_weights()
        a = learn.sat_learn_proc(w0, ds, hp, np.random.default_rng(42))
        b = learn.sat_learn_proc(w0, ds, hp, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestGradientAndUpdate:
    def test_zero_learning_rate_gives_a_zero_update(self):
        w = random_weights()
        hp = learn.HyperParams(learning_rate=0.0, batch_size=8)
        g = learn.local_gradient(w, toy_dataset(), hp, [0, 1, 2, 3])
        assert g.tobytes() == np.zeros_like(w).tobytes()  # +0.0, never -0.0

    def test_one_key_gives_one_update(self):
        ds, w = toy_dataset(), random_weights()
        hp = learn.HyperParams(learning_rate=0.1, local_epochs=2, batch_size=8)
        a = learn.local_gradient(w, ds, hp, [0, 1, 2, 3])
        assert a.tobytes() == learn.local_gradient(w, ds, hp, [0, 1, 2, 3]).tobytes()
        assert a.tobytes() != learn.local_gradient(w, ds, hp, [0, 1, 2, 4]).tobytes()

    def test_update_is_local_weights_minus_global(self):
        ds, w = toy_dataset(), random_weights()
        hp = learn.HyperParams(learning_rate=0.1, batch_size=8)
        w_local = learn.sat_learn_proc(w, ds, hp, np.random.default_rng([5, 6]))
        assert learn.local_gradient(w, ds, hp, [5, 6]).tobytes() == (w_local - w).tobytes()

    def test_update_identity(self):
        w = random_weights()
        np.testing.assert_array_equal(learn.global_update(w, np.zeros_like(w), 10.0), w)

    def test_single_satellite_collapse(self):
        ds = toy_dataset()
        hp = learn.HyperParams(learning_rate=0.1)
        w0 = random_weights()
        w_local = learn.sat_learn_proc(w0, ds, hp, np.random.default_rng(0))
        agg = len(ds) * (w_local - w0)
        np.testing.assert_allclose(learn.global_update(w0, agg, len(ds)), w_local, rtol=1e-12)

    def test_equal_sizes_average(self):
        w0 = random_weights()
        wa, wb = random_weights(seed=3), random_weights(seed=4)
        agg = 5.0 * (wa - w0) + 5.0 * (wb - w0)
        np.testing.assert_allclose(
            learn.global_update(w0, agg, 10.0), 0.5 * (wa + wb), rtol=1e-9
        )



class TestEvaluate:
    def test_zero_weights_balanced_data(self):
        # with w=0 every argmax resolves to class 0; one sample per class
        feats = np.eye(10, 784)
        labels = np.arange(10)
        ds = with_bias(feats, labels)
        assert learn.evaluate(learn.init_weights(784, 10), ds) == pytest.approx(0.1)

    def test_perfect_oracle_weights(self):
        dim, classes = 6, 3
        feats = np.eye(classes, dim)
        labels = np.arange(classes)
        w = np.zeros((classes, dim + 1))
        w[np.arange(classes), np.arange(classes)] = 10.0
        assert learn.evaluate(w.ravel(), with_bias(feats, labels)) == 1.0

    def test_bounded(self):
        ds = toy_dataset()
        assert 0.0 <= learn.evaluate(random_weights(), ds) <= 1.0


class TestGlobalObjective:
    def test_partition_preserves_pooled_loss(self):
        from leofl.data import partition, shuffle

        ds = toy_dataset(n=50)
        shuffle(ds, 0)
        shards = partition(ds, 5)
        w = random_weights()
        weighted = sum(len(s) / len(ds) * local_loss(w, s) for s in shards)
        assert weighted == pytest.approx(local_loss(w, ds), rel=1e-12)
