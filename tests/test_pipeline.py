import math

import numpy as np
import numpy.testing as npt
import pytest

from mlenn.metrics import bce_loss
from mlenn.numerics import RngStream, pca_fit, pca_transform
from mlenn.pipeline import Dataset, build_training_set, imcc_augment, minmax_normalize


class TestMinMaxNormalize:
    def test_affine_endpoints(self):
        col = np.array([[2.0], [4.0], [6.0]])
        npt.assert_allclose(minmax_normalize(col, col)[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        col = np.array([[5.0], [5.0]])
        npt.assert_array_equal(minmax_normalize(col, col), 0.0)

    def test_out_of_range_clips(self):
        train = np.array([[2.0], [6.0]])
        out = minmax_normalize(train, np.array([[8.0], [0.0]]))
        npt.assert_allclose(out[:, 0], [1.0, 0.0])

    def test_fit_statistics_come_from_train_only(self):
        train = np.array([[0.0], [10.0]])
        apply = np.array([[5.0]])
        npt.assert_allclose(minmax_normalize(train, apply), [[0.5]])


class TestPcaReduce:
    def test_rank_deficient_reconstruction(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 8))
        model = pca_fit(x)
        assert model.n_components == 3
        recon = pca_transform(model, x) @ model.components + model.mean
        assert np.abs(recon - x).max() < 1e-8


class TestImccAugment:
    def test_hand_single_cluster(self):
        ds = Dataset(np.array([[0.0, 0.0], [2.0, 2.0]]),
                     np.array([[1.0, 0.0], [1.0, 1.0]]))
        aug = imcc_augment(ds, 1, RngStream(0))
        npt.assert_array_equal(aug.z, [[1.0, 1.0]])
        npt.assert_array_equal(aug.t, [[1.0, 0.5]])

    def test_singleton_clusters_reproduce_dataset(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 4))
        y = (rng.uniform(size=(7, 3)) < 0.5).astype(float)
        ds = Dataset(x, y)
        aug = imcc_augment(ds, 7, RngStream(1))
        npt.assert_array_equal(aug.z, x)
        npt.assert_array_equal(aug.t, y)

    def test_identical_labels_average_to_themselves(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 2))
        y = np.tile([1.0, 0.0, 1.0], (10, 1))
        aug = imcc_augment(Dataset(x, y), 3, RngStream(2))
        npt.assert_array_equal(aug.t, np.tile([1.0, 0.0, 1.0], (3, 1)))

    def test_exactness_against_direct_summation(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(4, 30))
            d = int(rng.integers(1, 5))
            l = int(rng.integers(1, 4))
            c = int(rng.integers(1, n + 1))
            x = rng.normal(size=(n, d))
            y = (rng.uniform(size=(n, l)) < 0.5).astype(float)
            ds = Dataset(x, y)
            aug = imcc_augment(ds, c, RngStream(trial))
            from mlenn.numerics import kmeans
            km = kmeans(x, c, RngStream(trial))
            for j in range(c):
                members = np.flatnonzero(km.assignments == j)
                z_direct = sum(x[i] for i in members) / len(members)
                t_direct = sum(y[i] for i in members) / len(members)
                assert np.abs(aug.z[j] - z_direct).max() < 1e-12
                assert np.abs(aug.t[j] - t_direct).max() < 1e-12

    def test_soft_labels_in_unit_interval_and_counts_integral(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 3))
        y = (rng.uniform(size=(20, 4)) < 0.4).astype(float)
        ds = Dataset(x, y)
        aug = imcc_augment(ds, 5, RngStream(3))
        assert aug.t.min() >= 0.0 and aug.t.max() <= 1.0
        from mlenn.numerics import kmeans
        km = kmeans(x, 5, RngStream(3))
        sizes = np.bincount(km.assignments, minlength=5)
        scaled = aug.t * sizes[:, None]
        npt.assert_allclose(scaled, np.round(scaled), atol=1e-9)


class TestBuildTrainingSet:
    def _toy(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 2))
        y = (rng.uniform(size=(6, 2)) < 0.5).astype(float)
        return Dataset(x, y)

    def test_zero_weight_matches_plain_loss(self):
        ds = self._toy()
        aug = imcc_augment(ds, 3, RngStream(0))
        _, y, weights = build_training_set(ds, aug, 0.0)
        p = np.random.default_rng(8).uniform(0.2, 0.8, size=y.shape)
        weighted, _ = bce_loss(y, p, weights=weights)
        plain, _ = bce_loss(ds.y, p[:6])
        # The row mean counts the zero-weight virtual rows: 9 rows, 6 real.
        npt.assert_allclose(weighted * 9, plain * 6, atol=1e-12)

    def test_duplicated_dataset_doubles_loss(self):
        ds = self._toy()
        aug = imcc_augment(ds, ds.n_samples, RngStream(1))  # c = n duplicates rows
        _, y, weights = build_training_set(ds, aug, 1.0)
        p_base = np.random.default_rng(9).uniform(0.2, 0.8, size=ds.y.shape)
        p = np.vstack([p_base, p_base])
        doubled, _ = bce_loss(y, p, weights=weights)
        single, _ = bce_loss(ds.y, p_base)
        # Twice the rows and twice the loss sum.
        npt.assert_allclose(doubled * 12, 2.0 * single * 6, atol=1e-12)

    def test_soft_target_midpoint_loss(self):
        loss, _ = bce_loss([[0.5]], [[0.5]])
        npt.assert_allclose(loss, math.log(2.0), atol=1e-12)

    def test_weights_layout(self):
        ds = self._toy()
        aug = imcc_augment(ds, 2, RngStream(2))
        x, y, weights = build_training_set(ds, aug, 0.25)
        npt.assert_array_equal(weights[:6], 1.0)
        npt.assert_array_equal(weights[6:], 0.25)
        npt.assert_array_equal(x[:6], ds.x)
        npt.assert_array_equal(y[6:], aug.t)
        assert x.shape == (8, 2) and y.shape == (8, 2)

    def test_negative_weight_rejected(self):
        ds = self._toy()
        with pytest.raises(ValueError):
            build_training_set(ds, imcc_augment(ds, 2, RngStream(0)), -0.5)


class TestDataset:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([[0.0, 2.0], [1.0, 0.0]]))

    def test_rejects_nan_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan, 1.0]]), np.array([[1.0, 0.0]]))
