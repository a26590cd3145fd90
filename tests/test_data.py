import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitydescent.data import DataSpec, generate, make_dataset, partition
from densitydescent.errors import ConfigError


class TestGenerators:
    def test_moons_shape_and_balance(self):
        ds = generate("moons", 1000, 0.1, seed=0)
        assert ds.x.shape == (1000, 2)
        assert (ds.y == 0).sum() == 500 and (ds.y == 1).sum() == 500
        assert ds.n_classes == 2

    def test_same_seed_same_dataset(self):
        a = generate("moons", 200, 0.1, seed=3)
        b = generate("moons", 200, 0.1, seed=3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_circles(self):
        ds = generate("circles", 400, 0.05, seed=1)
        r = np.linalg.norm(ds.x, axis=1)
        assert r[ds.y == 0].mean() > r[ds.y == 1].mean()

    def test_blobs_nearest_centroid_sanity(self):
        ds = generate("blobs", 800, 0.1, seed=2, n_classes=4)
        centroids = np.stack([ds.x[ds.y == c].mean(axis=0) for c in range(4)])
        dists = ((ds.x[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = np.mean(np.argmin(dists, axis=1) == ds.y)
        assert acc > 0.99

    def test_anisotropic_gmm(self):
        ds = generate("anisotropic-gmm", 600, 0.1, seed=4, n_classes=3)
        assert ds.n_classes == 3
        assert np.isfinite(ds.x).all()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            generate("spirals", 100, 0.1, seed=0)

    def test_too_small(self):
        with pytest.raises(ConfigError):
            generate("moons", 5, 0.1, seed=0)


class TestPartition:
    def test_four_labels_per_class_on_moons(self):
        ds = partition(generate("moons", 1000, 0.1, seed=0), 4, 0.3, seed=1)
        assert len(ds.labeled_idx) == 8
        for c in range(2):
            assert (ds.y[ds.labeled_idx] == c).sum() == 4
        assert len(ds.test_idx) == 300
        assert len(ds.unlabeled_idx) == 1000 - 300 - 8

    def test_all_labeled_mode(self):
        ds = partition(generate("moons", 100, 0.1, seed=0), -1, 0.2, seed=1)
        assert len(ds.unlabeled_idx) == 0
        assert len(ds.labeled_idx) == 80

    def test_infeasible_request(self):
        with pytest.raises(ConfigError):
            partition(generate("moons", 100, 0.1, seed=0), 60, 0.2, seed=1)

    def test_reproducible(self):
        base = generate("moons", 300, 0.1, seed=5)
        a = partition(base, 10, 0.25, seed=6)
        b = partition(base, 10, 0.25, seed=6)
        np.testing.assert_array_equal(a.labeled_idx, b.labeled_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)

    @settings(max_examples=25, deadline=None)
    @given(lpc=st.integers(1, 30), frac=st.floats(0.0, 0.5), seed=st.integers(0, 100))
    def test_disjoint_and_covering(self, lpc, frac, seed):
        ds = partition(generate("blobs", 200, 0.1, seed=0, n_classes=2), lpc, frac,
                       seed=seed)
        all_idx = np.concatenate([ds.labeled_idx, ds.unlabeled_idx, ds.test_idx])
        assert len(all_idx) == 200
        assert len(np.unique(all_idx)) == 200
        for c in range(2):
            assert (ds.y[ds.labeled_idx] == c).sum() == lpc


def test_make_dataset_spec_roundtrip():
    spec = DataSpec(kind="moons", n=1016, noise=0.1, labeled_per_class=4,
                    test_fraction=0.5, seed=7)
    ds = make_dataset(spec)
    assert len(ds.unlabeled_idx) == 500
    assert len(ds.labeled_idx) == 8
    assert len(ds.test_idx) == 508
