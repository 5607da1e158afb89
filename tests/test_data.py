import gzip
import struct

import numpy as np
import pytest

from leofl.data import (
    SYNTHETIC_BLOCK_ROWS,
    Dataset,
    IngestionError,
    load_mnist,
    partition,
    shuffle,
    synthetic_dataset,
)


def write_idx_images(path, images: np.ndarray, compress=False):
    n, rows, cols = images.shape
    blob = struct.pack(">iiii", 2051, n, rows, cols) + images.astype(np.uint8).tobytes()
    opener = gzip.open if compress else open
    with opener(path, "wb") as f:
        f.write(blob)


def write_idx_labels(path, labels: np.ndarray, compress=False):
    blob = struct.pack(">ii", 2049, len(labels)) + labels.astype(np.uint8).tobytes()
    opener = gzip.open if compress else open
    with opener(path, "wb") as f:
        f.write(blob)


def overstate_idx_count(path, array: np.ndarray, claimed: int, compress=False):
    """An IDX file holding `array` whose header declares `claimed` samples."""
    magic = 2051 if array.ndim == 3 else 2049
    blob = (struct.pack(f">{1 + array.ndim}i", magic, claimed, *array.shape[1:])
            + array.astype(np.uint8).tobytes())
    opener = gzip.open if compress else open
    with opener(path, "wb") as f:
        f.write(blob)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(6, 28, 28)).astype(np.uint8)
    labels = np.array([0, 1, 2, 3, 4, 5], dtype=np.uint8)
    img_path = tmp_path / "train-images-idx3-ubyte"
    lbl_path = tmp_path / "train-labels-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, labels)
    return img_path, lbl_path, images, labels


class TestMnistIngestion:
    def test_round_trip(self, idx_pair):
        img_path, lbl_path, images, labels = idx_pair
        ds = load_mnist(img_path, lbl_path)
        assert ds.features.shape == (6, 784)
        assert ds.features.max() <= 1.0 and ds.features.min() >= 0.0
        np.testing.assert_allclose(ds.features[0], images[0].ravel() / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_gzip_round_trip(self, tmp_path):
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        labels = np.array([7, 8, 9], dtype=np.uint8)
        img_path = tmp_path / "imgs.gz"
        lbl_path = tmp_path / "lbls.gz"
        write_idx_images(img_path, images, compress=True)
        write_idx_labels(lbl_path, labels, compress=True)
        ds = load_mnist(img_path, lbl_path)
        assert len(ds) == 3
        np.testing.assert_array_equal(ds.labels, labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">ii", 1234, 0))
        with pytest.raises(IngestionError):
            load_mnist(path, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match=r"nope: cannot read the IDX file: .*No such file"):
            load_mnist(tmp_path / "nope", tmp_path / "nope2")

    def test_count_mismatch(self, tmp_path, idx_pair):
        img_path, _, _, _ = idx_pair
        lbl_path = tmp_path / "short-labels"
        write_idx_labels(lbl_path, np.array([1, 2], dtype=np.uint8))
        with pytest.raises(IngestionError, match="counts differ"):
            load_mnist(img_path, lbl_path)

    def test_empty_file_rejected(self, tmp_path):
        img_path, lbl_path = tmp_path / "imgs", tmp_path / "lbls"
        write_idx_images(img_path, np.zeros((0, 28, 28), dtype=np.uint8))
        write_idx_labels(lbl_path, np.zeros(0, dtype=np.uint8))
        with pytest.raises(IngestionError, match=r"imgs: the file holds no samples"):
            load_mnist(img_path, lbl_path)

    # each of these raised struct.error or EOFError out of the reader
    def test_empty_file_rejected_naming_it(self, tmp_path, idx_pair):
        _, lbl_path, _, _ = idx_pair
        img_path = tmp_path / "t10k-images-idx3-ubyte"
        img_path.write_bytes(b"")
        with pytest.raises(IngestionError, match=r"t10k-images-idx3-ubyte: truncated IDX header, 0 of 4"):
            load_mnist(img_path, lbl_path)

    def test_short_header_rejected_naming_it(self, tmp_path, idx_pair):
        img_path, _, _, _ = idx_pair
        lbl_path = tmp_path / "short-labels"
        lbl_path.write_bytes(struct.pack(">i", 2049)[:3])
        with pytest.raises(IngestionError, match=r"short-labels: truncated IDX header, 3 of 4"):
            load_mnist(img_path, lbl_path)
        lbl_path.write_bytes(struct.pack(">i", 2049) + b"\x00\x00")  # the count cut short
        with pytest.raises(IngestionError, match=r"short-labels: truncated IDX header, 2 of 4"):
            load_mnist(img_path, lbl_path)

    @pytest.mark.parametrize("keep", [5, 30, -10])
    def test_truncated_gzip_rejected_naming_it(self, tmp_path, keep):
        whole, img_path = tmp_path / "whole.gz", tmp_path / "cut.gz"
        write_idx_images(whole, np.ones((3, 28, 28), dtype=np.uint8), compress=True)
        img_path.write_bytes(whole.read_bytes()[:keep])
        write_idx_labels(tmp_path / "lbls", np.zeros(3, dtype=np.uint8))
        with pytest.raises(IngestionError, match=r"cut\.gz: cannot read the IDX file: Compressed"):
            load_mnist(img_path, tmp_path / "lbls")

    def test_truncated_payload_rejected(self, tmp_path):
        img_path = tmp_path / "imgs"
        write_idx_images(img_path, np.zeros((3, 28, 28), dtype=np.uint8))
        img_path.write_bytes(img_path.read_bytes()[:-1])
        write_idx_labels(tmp_path / "lbls", np.zeros(3, dtype=np.uint8))
        with pytest.raises(IngestionError, match=r"imgs: truncated IDX payload, 2351 of 2352 bytes"):
            load_mnist(img_path, tmp_path / "lbls")

    def test_unopenable_path_rejected_naming_it(self, tmp_path, idx_pair):
        img_path, _, _, _ = idx_pair
        (tmp_path / "lbls").mkdir()
        with pytest.raises(IngestionError, match=r"lbls: cannot read the IDX file: .*Is a directory"):
            load_mnist(img_path, tmp_path / "lbls")

    @pytest.mark.parametrize("rows, cols", [(4, 4), (28, 27), (32, 32)])
    def test_wrong_image_size_rejected(self, tmp_path, rows, cols):
        # the model upload is priced at 28 x 28 features, so no other size may run
        img_path, lbl_path = tmp_path / "imgs", tmp_path / "lbls"
        write_idx_images(img_path, np.zeros((3, rows, cols), dtype=np.uint8))
        write_idx_labels(lbl_path, np.zeros(3, dtype=np.uint8))
        with pytest.raises(IngestionError, match=rf"imgs: images are {rows} x {cols}, expected 28 x 28"):
            load_mnist(img_path, lbl_path)

    @pytest.mark.parametrize("compress", [False, True])
    def test_overstated_header_rejected_as_truncated(self, tmp_path, compress):
        # 2^26 samples declared over a 40-sample payload: reading all that the
        # header claims in one call raised MemoryError
        n, claimed = 40, 1 << 26
        images, labels = np.zeros((n, 28, 28), dtype=np.uint8), np.zeros(n, dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", images, compress)
        write_idx_labels(tmp_path / "lbls", labels, compress)
        overstate_idx_count(tmp_path / "big-imgs", images, claimed, compress)
        overstate_idx_count(tmp_path / "big-lbls", labels, claimed, compress)
        with pytest.raises(IngestionError,
                           match=rf"big-imgs: truncated IDX payload, {n * 784} of {claimed * 784} bytes"):
            load_mnist(tmp_path / "big-imgs", tmp_path / "lbls")
        with pytest.raises(IngestionError,
                           match=rf"big-lbls: truncated IDX payload, {n} of {claimed} bytes"):
            load_mnist(tmp_path / "imgs", tmp_path / "big-lbls")

    @pytest.mark.parametrize("dims", [(-40, -28, 28), (0, -28, 28), (-1, 0, 28)])
    def test_negative_dimension_rejected(self, tmp_path, idx_pair, dims):
        # the header is read as signed ints; a payload of the dimensions'
        # product was accepted and then failed to reshape with a ValueError
        _, lbl_path, _, _ = idx_pair
        img_path = tmp_path / "neg-imgs"
        img_path.write_bytes(struct.pack(">iiii", 2051, *dims) + bytes(abs(np.prod(dims))))
        with pytest.raises(IngestionError, match=r"neg-imgs: negative IDX dimension in \("):
            load_mnist(img_path, lbl_path)

    def test_label_outside_class_range(self, tmp_path, idx_pair):
        img_path, _, _, _ = idx_pair
        lbl_path = tmp_path / "bad-labels"
        write_idx_labels(lbl_path, np.array([0, 1, 2, 3, 4, 10], dtype=np.uint8))
        with pytest.raises(IngestionError, match="label 10 outside"):
            load_mnist(img_path, lbl_path)


class TestSynthetic:
    def test_shape_contract(self):
        ds = synthetic_dataset(100, seed=0)
        assert ds.features.shape == (100, 784)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(10))

    def test_deterministic(self):
        a = synthetic_dataset(50, seed=3)
        b = synthetic_dataset(50, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shared_blobs_across_splits(self):
        # different sample seeds, same class geometry: a model trained on one
        # split should transfer to the other
        from leofl import learn

        train = synthetic_dataset(500, seed=0, blob_seed=9)
        test = synthetic_dataset(200, seed=1, blob_seed=9)
        hp = learn.HyperParams(learning_rate=0.1, local_epochs=3)
        w = learn.sat_learn_proc(
            learn.init_weights(784, 10), train, hp, np.random.default_rng(0)
        )
        assert learn.evaluate(w, test) > 0.5


class TestPartition:
    def test_single_shard(self):
        ds = synthetic_dataset(20, seed=0)
        shuffle(ds, 0)
        (shard,) = partition(ds, 1)
        assert len(shard) == 20

    def test_even_split_sizes(self):
        ds = synthetic_dataset(1000, seed=0, feature_dim=8)
        shuffle(ds, 1)
        shards = partition(ds, 40)
        assert all(len(s) == 25 for s in shards)

    def test_near_even_split(self):
        ds = synthetic_dataset(103, seed=0, feature_dim=8)
        shuffle(ds, 1)
        sizes = [len(s) for s in partition(ds, 10)]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1

    def test_union_is_original_multiset(self):
        ds = synthetic_dataset(60, seed=0, feature_dim=4)
        drawn = sorted(map(tuple, ds.features))
        shuffle(ds, 2)
        shards = partition(ds, 7)
        rebuilt = np.concatenate([s.features for s in shards])
        assert sorted(map(tuple, rebuilt)) == drawn

    def test_one_sample_per_shard(self):
        # the fewest training samples the loaders admit: one per satellite
        ds = synthetic_dataset(6, seed=0, feature_dim=4)
        drawn = sorted(ds.labels.tolist())
        shuffle(ds, 2)
        shards = partition(ds, 6)
        assert [len(s) for s in shards] == [1] * 6
        assert sorted(int(s.labels[0]) for s in shards) == drawn

    def test_deterministic(self):
        a, b = (synthetic_dataset(60, seed=0, feature_dim=4) for _ in range(2))
        shuffle(a, 3)
        shuffle(b, 3)
        for x, y in zip(partition(a, 5), partition(b, 5)):
            np.testing.assert_array_equal(x.features, y.features)

    @pytest.mark.parametrize("k", [1, 7, 10])
    def test_shard_i_holds_chunk_i_of_the_permutation(self, k):
        # the rows each shard held when partition drew its own permutation
        ds = synthetic_dataset(103, seed=0, feature_dim=4)
        drawn = Dataset(ds.rows.copy(), ds.labels.copy())
        perm = np.random.default_rng(1).permutation(103)
        shuffle(ds, 1)
        for shard, chunk in zip(partition(ds, k), np.array_split(perm, k), strict=True):
            assert shard.rows.tobytes() == drawn.rows[chunk].tobytes()
            np.testing.assert_array_equal(shard.labels, drawn.labels[chunk])

    @pytest.mark.parametrize("n, k", [(103, 10), (40, 7), (41, 40), (20, 1), (6, 6), (5, 3)])
    def test_views_are_those_of_array_split(self, n, k):
        ds = synthetic_dataset(n, seed=0, feature_dim=4)
        shards = partition(ds, k)
        for attr in ("rows", "labels"):
            source = getattr(ds, attr)
            want = np.array_split(source, k)
            got = [getattr(shard, attr) for shard in shards]
            assert len(got) == len(want) == k
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert a.__array_interface__["data"] == b.__array_interface__["data"]
                assert np.shares_memory(a, source)


class TestShuffle:
    @pytest.mark.parametrize("n", [1, 2, 103, 5000])
    def test_in_place_as_the_permutation_indexes(self, n):
        ds = synthetic_dataset(n, seed=0, feature_dim=8)
        rows, labels = ds.rows, ds.labels
        drawn = Dataset(rows.copy(), labels.copy())
        assert shuffle(ds, 4) is None
        assert ds.rows is rows and ds.labels is labels
        perm = np.random.default_rng(4).permutation(n)
        assert ds.rows.tobytes() == drawn.rows[perm].tobytes()
        assert ds.labels.tobytes() == drawn.labels[perm].tobytes()


# the forms in use before samples were stored with their bias column and drawn block-wise,
# kept as oracles
def hstack_synthetic_features(num_samples, seed, feature_dim=784, num_classes=10, noise_std=0.35,
                              blob_seed=0):
    rng = np.random.default_rng(seed)
    means = np.random.default_rng(blob_seed).uniform(0.25, 0.75, size=(num_classes, feature_dim))
    labels = rng.integers(0, num_classes, size=num_samples)
    return np.clip(means[labels] + rng.normal(0.0, noise_std, size=(num_samples, feature_dim)),
                   0.0, 1.0)


def hstack_loss_gradient_sum(w, features, labels):
    xa = np.hstack([features, np.ones((len(features), 1))])
    logits = xa @ w.reshape(-1, features.shape[1] + 1).T
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    probs[np.arange(len(labels)), labels] -= 1.0
    return (probs.T @ xa).ravel()


def assert_stored_once(ds, n, feature_dim):
    """The samples live in one (n, d + 1) array; `features` is a view of it."""
    feats = ds.features
    assert feats.shape == (n, feature_dim)
    assert feats.base is ds.rows and ds.rows.shape == (n, feature_dim + 1)
    assert np.array_equal(feats.base[:, -1], np.ones(n))
    assert [name for name, value in vars(ds).items() if isinstance(value, np.ndarray)] == [
        "rows", "labels"]


class TestBlockDraw:
    """The block-wise draw equals the one-shot draw, whatever the blocks' cut."""

    @pytest.mark.parametrize("n", [1, SYNTHETIC_BLOCK_ROWS - 1, SYNTHETIC_BLOCK_ROWS,
                                   SYNTHETIC_BLOCK_ROWS + 1, 3 * SYNTHETIC_BLOCK_ROWS + 7])
    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("noise_std", [0.0, 0.35])
    @pytest.mark.parametrize("feature_dim, num_classes", [(784, 10), (13, 3)])
    def test_equals_the_one_shot_draw(self, n, seed, noise_std, feature_dim, num_classes):
        ds = synthetic_dataset(n, seed, feature_dim, num_classes, noise_std, blob_seed=5)
        want = hstack_synthetic_features(n, seed, feature_dim, num_classes, noise_std, blob_seed=5)
        labels = np.random.default_rng(seed).integers(0, num_classes, size=n)
        assert ds.features.tobytes() == want.tobytes()
        assert ds.labels.tobytes() == labels.astype(np.int64).tobytes()
        assert_stored_once(ds, n, feature_dim)


class TestStorage:
    def test_synthetic(self):
        ds = synthetic_dataset(300, seed=4, blob_seed=2)
        assert_stored_once(ds, 300, 784)
        want = hstack_synthetic_features(300, seed=4, blob_seed=2)
        assert ds.features.tobytes() == want.tobytes()

    def test_mnist_idx(self, idx_pair):
        img_path, lbl_path, images, _ = idx_pair
        ds = load_mnist(img_path, lbl_path)
        assert_stored_once(ds, 6, 784)
        want = images.reshape(6, -1).astype(np.float64) / 255.0
        assert ds.features.tobytes() == want.tobytes()

    def test_shards_hold_one_copy(self):
        # the drawn block, shuffled where it lies and shared by the shards as views
        ds = synthetic_dataset(103, seed=0)
        rows, labels = ds.rows, ds.labels
        shuffle(ds, 1)
        assert ds.rows is rows and ds.labels is labels
        assert_stored_once(ds, 103, 784)
        shards = partition(ds, 10)
        for shard in shards:
            assert shard.rows.base is ds.rows and shard.labels.base is ds.labels
            assert shard.features.base is ds.rows
        assert sum(s.rows.nbytes for s in shards) == ds.rows.nbytes

    def test_from_features(self):
        # the constructor adopts rows that already carry the bias column
        feats = np.random.default_rng(0).uniform(size=(5, 3))
        rows = np.hstack([feats, np.ones((5, 1))])
        ds = Dataset(rows, np.zeros(5, dtype=np.int64))
        assert ds.rows is rows
        assert_stored_once(ds, 5, 3)
        assert ds.features.tobytes() == feats.tobytes()

    def test_gradient_and_accuracy_match_the_hstack_form(self):
        from leofl import learn

        ds = synthetic_dataset(400, seed=5, blob_seed=1)
        rng = np.random.default_rng(3)
        w = 0.01 * rng.normal(size=learn.model_dim(784, 10))
        shuffle(ds, 2)
        for shard in partition(ds, 4):
            batch = rng.permutation(len(shard))[:32]
            got = learn.loss_gradient_sum(w, shard.rows[batch], shard.labels[batch])
            want = hstack_loss_gradient_sum(w, shard.features[batch], shard.labels[batch])
            assert got.tobytes() == want.tobytes()
        logits = np.hstack([ds.features, np.ones((len(ds), 1))]) @ w.reshape(10, 785).T
        assert learn.evaluate(w, ds) == float((logits.argmax(axis=1) == ds.labels).mean())
