import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mlenn import numerics
from mlenn.layers import sigmoid
from mlenn.numerics import (RngStream, ShapeError, group_means, kmeans, logistic_in_place,
                            pca_fit, pca_transform)


class TestLogisticInPlace:
    def test_nonnegative_input_gives_the_sigmoid_bits_in_place(self):
        x = np.abs(np.random.default_rng(0).normal(scale=5.0, size=(4, 6)))
        expected = sigmoid(x)
        out = logistic_in_place(x)
        assert out is x
        npt.assert_array_equal(out, expected)

    def test_zero_dimensional_input(self):
        assert logistic_in_place(np.abs(np.float64(-2.0))) == sigmoid(np.array(2.0))

    def test_overflow_gives_the_exact_limit(self):
        with np.errstate(over="ignore"):
            out = logistic_in_place(np.array([-800.0, 0.0]))
        npt.assert_array_equal(out, [0.0, 0.5])


class TestRngStream:
    def test_same_pair_same_sequence(self):
        a = RngStream(123, 5).uniform(1000)
        b = RngStream(123, 5).uniform(1000)
        npt.assert_array_equal(a, b)

    def test_distinct_children_differ(self):
        root = RngStream(9)
        a = root.child(0).uniform(100)
        b = root.child(1).uniform(100)
        assert not np.array_equal(a, b)

    def test_child_is_deterministic(self):
        a = RngStream(9).child(3).uniform(50)
        b = RngStream(9).child(3).uniform(50)
        npt.assert_array_equal(a, b)

    def test_child_does_not_disturb_parent(self):
        root1 = RngStream(4)
        root1.child(0)
        root2 = RngStream(4)
        npt.assert_array_equal(root1.uniform(20), root2.uniform(20))


class TestPca:
    def test_line_collapses_to_one_component(self):
        pts = np.array([[t, t] for t in (-3.0, -1.0, 0.0, 2.0, 4.0)])
        model = pca_fit(pts)
        assert model.n_components == 1
        npt.assert_allclose(model.explained_variance_ratio[0], 1.0, atol=1e-12)

    def test_signed_projection_on_line(self):
        pts = np.array([[-2.0, -2.0], [-1.0, -1.0], [1.0, 1.0], [2.0, 2.0]])
        model = pca_fit(pts)
        npt.assert_allclose(model.mean, [0.0, 0.0], atol=1e-15)
        score = pca_transform(model, np.array([[2.0, 2.0]]))[0, 0]
        assert abs(abs(score) - 2.0 * np.sqrt(2.0)) < 1e-12

    def test_isotropic_needs_both_components(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(500, 2))
        model = pca_fit(x)
        assert model.n_components == 2
        # oracle: eigendecomposition of the sample covariance
        centered = x - x.mean(axis=0)
        evals = np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1))[::-1]
        npt.assert_allclose(model.explained_variance_ratio, evals / evals.sum(),
                            atol=1e-12)

    def test_constant_dataset_yields_empty_model(self):
        model = pca_fit(np.full((4, 3), 5.0))
        assert model.n_components == 0

    def test_transform_centers_training_data(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 6)) + 10.0
        model = pca_fit(x)
        scores = pca_transform(model, x)
        npt.assert_allclose(scores.mean(axis=0), 0.0, atol=1e-10)

    def test_projected_covariance_is_diagonal(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        model = pca_fit(x)
        scores = pca_transform(model, x)
        cov = np.cov(scores, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8

    def test_components_are_orthonormal(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(30, 7))
        model = pca_fit(x)
        gram = model.components @ model.components.T
        npt.assert_allclose(gram, np.eye(model.n_components), atol=1e-8)

    def test_rank_deficient_data_reconstructs_from_its_rank(self):
        # Both directions carry more than 1 - PCA_RETAIN of the variance,
        # so the basis keeps the whole rank and no more.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 2)) @ rng.normal(size=(2, 10))
        model = pca_fit(x)
        assert model.n_components == 2
        recon = pca_transform(model, x) @ model.components + model.mean
        assert np.abs(recon - x).max() < 1e-8

    def test_ratio_monotone_and_bounded(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(50, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        model = pca_fit(x)
        r = model.explained_variance_ratio
        assert np.all(r >= 0)
        assert np.all(np.diff(r) <= 1e-15)
        assert r.sum() <= 1.0 + 1e-12

    def test_transform_shape_validation(self):
        model = pca_fit(np.random.default_rng(0).normal(size=(10, 4)))
        with pytest.raises(ShapeError):
            pca_transform(model, np.zeros((3, 5)))


def _exhaustive_two_clusters(x: np.ndarray) -> tuple[float, list]:
    """Best 2-partition by brute force: minimal inertia over all splits."""
    n = len(x)
    best = (np.inf, None)
    for mask_bits in range(1, 2 ** n - 1):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        c0 = x[mask].mean(axis=0)
        c1 = x[~mask].mean(axis=0)
        inertia = np.sum((x[mask] - c0) ** 2) + np.sum((x[~mask] - c1) ** 2)
        if inertia < best[0]:
            best = (inertia, sorted([c0.tolist(), c1.tolist()]))
    return best


class TestKMeans:
    def test_two_well_separated_groups(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        for seed in range(5):
            km = kmeans(x, 2, RngStream(seed))
            oracle_inertia, oracle_centers = _exhaustive_two_clusters(x)
            npt.assert_allclose(km.inertia, oracle_inertia, atol=1e-12)
            npt.assert_allclose(sorted(km.centers.tolist()), oracle_centers, atol=1e-12)

    def test_one_cluster_per_point(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        km = kmeans(x, 6, RngStream(0))
        npt.assert_array_equal(np.sort(km.assignments), np.arange(6))
        assert km.inertia == 0.0
        # every point is its own center
        npt.assert_allclose(np.sort(km.centers, axis=0), np.sort(x, axis=0))

    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 4))
        km = kmeans(x, 1, RngStream(0))
        npt.assert_allclose(km.centers[0], x.mean(axis=0), atol=1e-12)

    def test_centers_are_cluster_means(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3))
        km = kmeans(x, 5, RngStream(4))
        for j in range(5):
            members = x[km.assignments == j]
            assert len(members) > 0
            npt.assert_allclose(km.centers[j], members.mean(axis=0), atol=1e-12)

    def test_inertia_trace_is_non_increasing(self):
        rng = np.random.default_rng(8)
        for seed in range(8):
            x = rng.normal(size=(30, 2))
            km = kmeans(x, 4, RngStream(seed))
            trace = np.asarray(km.inertia_trace)
            assert np.all(np.diff(trace) <= 1e-9)

    def test_assignments_in_range(self):
        x = np.random.default_rng(12).normal(size=(20, 2))
        km = kmeans(x, 3, RngStream(1))
        assert km.assignments.min() >= 0 and km.assignments.max() < 3

    def test_deterministic_given_stream(self):
        x = np.random.default_rng(14).normal(size=(25, 3))
        a = kmeans(x, 4, RngStream(9))
        b = kmeans(x, 4, RngStream(9))
        npt.assert_array_equal(a.centers, b.centers)
        npt.assert_array_equal(a.assignments, b.assignments)

    def test_cluster_count_validation(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            kmeans(x, 0, RngStream(0))
        with pytest.raises(ValueError):
            kmeans(x, 5, RngStream(0))


def _assert_same_kmeans(x, c, seed, max_iter=300):
    expected = oracles.kmeans(x, c, RngStream(seed), max_iter=max_iter)
    got = kmeans(x, c, RngStream(seed), max_iter=max_iter)
    npt.assert_array_equal(got.assignments, expected.assignments)
    assert got.centers.tobytes() == expected.centers.tobytes()
    assert [v.hex() for v in got.inertia_trace] == [v.hex() for v in expected.inertia_trace]
    assert got.inertia.hex() == expected.inertia.hex()


@st.composite
def kmeans_inputs(draw, integer_grid=False):
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 5))
    if integer_grid or draw(st.booleans()):
        # a small integer grid: duplicated rows and points equidistant
        # from two centers are common
        values = st.integers(-2, 2).map(float)
    else:
        values = st.floats(-1e3, 1e3, allow_subnormal=False)
    distinct = draw(st.integers(1, n))
    base = np.array(draw(st.lists(values, min_size=distinct * d, max_size=distinct * d)))
    base = base.reshape(distinct, d)
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    # a large common offset leaves the GEMM screen unsure of most rows
    offset = 0.0 if integer_grid else draw(st.sampled_from((0.0, 0.1, 1e8)))
    x = base[picks] + offset
    return x, draw(st.integers(1, n)), draw(st.integers(0, 2 ** 16))


class TestKMeansReseed:
    # With more clusters than distinct rows, clusters empty on the way; a
    # reseed must fill them without emptying the cluster it takes from.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(kmeans_inputs(integer_grid=True))
    def test_no_cluster_ends_empty(self, case):
        x, c, seed = case
        km = kmeans(x, c, RngStream(seed), max_iter=40)
        assert np.bincount(km.assignments, minlength=c).all()
        assert np.isfinite(km.centers).all()
        trace = km.inertia_trace
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


class TestKMeansMatchesDifferenceForm:
    """The GEMM-screened k-means returns the bits of the difference-form
    Lloyd iteration in tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(kmeans_inputs())
    def test_bitwise(self, case):
        # With more clusters than distinct rows, a mean that rounds off its
        # equal rows can make the assignments cycle until max_iter; 40
        # iterations cover the same paths in less time.
        _assert_same_kmeans(*case, max_iter=40)

    @pytest.mark.parametrize("seed", range(3))
    def test_scene_shaped_clusters(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(12, 24))[rng.integers(12, size=600)] + 0.3 * rng.normal(size=(600, 24))
        _assert_same_kmeans(x, 25, seed)

    def test_empty_cluster_reseed(self, monkeypatch):
        # Three distinct points, four centers: farthest-point seeding picks a
        # duplicate, whose cluster empties and must be reseeded.
        x = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [5.0]])
        full_calls = []
        exact = numerics._exact_sq_dists

        def spy(rows, centers):
            full_calls.append(rows.shape[0] == x.shape[0])
            return exact(rows, centers)

        monkeypatch.setattr(numerics, "_exact_sq_dists", spy)
        for seed in range(4):
            _assert_same_kmeans(x, 4, seed)
        assert any(full_calls)

    def test_equidistant_points_break_to_lowest_index(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.1], [2.0, 0.1]])
        for seed in range(6):
            _assert_same_kmeans(x, 2, seed)

    def test_group_means_match_boolean_masks(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-8, 8, size=(200, 3))
        assignments = rng.integers(7, size=200)
        got = group_means(v, assignments, 7)
        assert got.tobytes() == oracles.cluster_label_means(v, assignments, 7).tobytes()

    def test_peak_memory_is_linear_in_rows(self):
        # The difference form would hold an (n, c, d) float64 tensor:
        # 8 * 4000 * 63 * 100 bytes, about 200 MB. The screen needs O(n (c + d)).
        n, d, c = 4000, 100, 63
        x = np.random.default_rng(0).uniform(size=(n, d))
        tracemalloc.start()
        try:
            kmeans(x, c, RngStream(0), max_iter=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n * (c + d)
