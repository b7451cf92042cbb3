import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from mlenn.ensemble import fuse_weighted_external, normalize_enn
from mlenn.harness import (ConfigError, DatasetFormatError, Preprocess, RunConfig,
                           holdout_split, index_file_split, kfold_split, load_dataset,
                           load_external_scores, run_experiment, save_dataset)
from mlenn.metrics import METRIC_NAMES
from mlenn.numerics import RngStream
from mlenn.pipeline import Dataset

from synth import banded_task


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.mlkit"
    path.write_text(
        "mlkit-dataset v1, n=2, d=3, l=2, sparse=0\n"
        "0.5,1.25,-2.0,1,0\n"
        "3.0,0.0,7.5,0,1\n"
    )
    return path


@pytest.fixture
def small_dataset_file(tmp_path):
    x, y = banded_task(31, 40, 4, 2)  # mixed labels keep ranking metrics defined
    ds = Dataset(x, y, name="synth")
    path = tmp_path / "synth.mlkit"
    save_dataset(ds, path)
    return path, ds


class TestDatasetFile:
    def test_parse_fidelity(self, tiny_file):
        ds = load_dataset(tiny_file)
        npt.assert_array_equal(ds.x, [[0.5, 1.25, -2.0], [3.0, 0.0, 7.5]])
        npt.assert_array_equal(ds.y, [[1.0, 0.0], [0.0, 1.0]])
        assert ds.name == "tiny"
        assert not ds.sparse

    def test_round_trip_exact(self, small_dataset_file):
        path, ds = small_dataset_file
        loaded = load_dataset(path)
        npt.assert_array_equal(loaded.x, ds.x)
        npt.assert_array_equal(loaded.y, ds.y)

    def test_benchmark_shaped_header(self, tmp_path):
        # 2417 rows of 103 features and 14 labels parse to matching shapes
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(2417, 103))
        y = (rng.uniform(size=(2417, 14)) < 0.3).astype(float)
        path = tmp_path / "bench.mlkit"
        save_dataset(Dataset(x, y), path)
        with open(path) as fh:
            assert fh.readline().strip() == "mlkit-dataset v1, n=2417, d=103, l=14, sparse=0"
        ds = load_dataset(path)
        assert ds.x.shape == (2417, 103)
        assert ds.y.shape == (2417, 14)

    def test_sparse_flag_round_trips(self, tmp_path):
        x, y = banded_task(37, 10, 3, 2)
        path = tmp_path / "sp.mlkit"
        save_dataset(Dataset(x, y, sparse=True), path)
        assert load_dataset(path).sparse

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.mlkit"
        path.write_text(
            "mlkit-dataset v1, n=2, d=1, l=1, sparse=0\n"
            "0.5,1\n"
            "0.5,2\n"
        )
        with pytest.raises(DatasetFormatError, match=":3"):
            load_dataset(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.mlkit"
        path.write_text("mlkit-dataset v1, n=1, d=2, l=1, sparse=0\n1.0,1\n")
        with pytest.raises(DatasetFormatError, match=":2"):
            load_dataset(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.mlkit"
        path.write_text("other-format v9, n=1, d=1, l=1, sparse=0\n0.0,1\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mlkit"
        path.write_text("mlkit-dataset v1, n=3, d=1, l=1, sparse=0\n0.0,1\n")
        with pytest.raises(DatasetFormatError, match="n=3"):
            load_dataset(path)

    def test_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.mlkit"
        path.write_text("mlkit-dataset v1, n=1, d=1, l=1, sparse=0\nnan,1\n")
        with pytest.raises(DatasetFormatError, match=":2"):
            load_dataset(path)


class TestExternalScores:
    def test_parse_fidelity(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("0.1,0.9\n0.4,0.6\n0.8,0.2\n")
        out = load_external_scores(path, 3, 2)
        npt.assert_allclose(out, [[0.1, 0.9], [0.4, 0.6], [0.8, 0.2]])

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("0.1,0.9\n0.4\n")
        with pytest.raises(DatasetFormatError, match=":2"):
            load_external_scores(path, 2, 2)

    def test_out_of_range_warns_but_loads(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("1.5,-0.2\n")
        with pytest.warns(UserWarning):
            out = load_external_scores(path, 1, 2)
        npt.assert_allclose(out, [[1.5, -0.2]])


class TestFoldSchemes:
    def test_partition_property(self):
        folds = kfold_split(10, 5, RngStream(0))
        assert len(folds) == 5
        all_test = np.concatenate([te for _, te in folds])
        assert sorted(all_test.tolist()) == list(range(10))
        for train, test in folds:
            assert len(test) == 2
            assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))
            assert len(np.intersect1d(train, test)) == 0

    def test_deterministic(self):
        a = kfold_split(20, 4, RngStream(3))
        b = kfold_split(20, 4, RngStream(3))
        for (ta, sa), (tb, sb) in zip(a, b):
            npt.assert_array_equal(ta, tb)
            npt.assert_array_equal(sa, sb)

    def test_remainder_distribution(self):
        folds = kfold_split(7, 5, RngStream(1))
        sizes = sorted(len(te) for _, te in folds)
        assert sizes == [1, 1, 1, 2, 2]

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kfold_split(3, 5, RngStream(0))
        with pytest.raises(ValueError):
            kfold_split(3, 1, RngStream(0))

    def test_stratified_partition_properties(self):
        rng = np.random.default_rng(0)
        y = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 8, axis=0)
        folds = kfold_split(24, 4, RngStream(5), labels=y)
        all_test = np.concatenate([te for _, te in folds])
        assert sorted(all_test.tolist()) == list(range(24))
        for train, test in folds:
            assert len(test) == 6
            assert len(np.intersect1d(train, test)) == 0
            # each of the three label vectors appears equally often per fold
            sigs = [tuple(y[i]) for i in test]
            assert all(sigs.count(s) == 2 for s in set(sigs))

    def test_stratified_is_deterministic(self):
        y = (np.random.default_rng(1).uniform(size=(20, 2)) < 0.5).astype(float)
        a = kfold_split(20, 4, RngStream(7), labels=y)
        b = kfold_split(20, 4, RngStream(7), labels=y)
        for (ta, sa), (tb, sb) in zip(a, b):
            npt.assert_array_equal(ta, tb)
            npt.assert_array_equal(sa, sb)

    def test_holdout(self):
        (train, test), = holdout_split(10, 0.3, RngStream(2))
        assert len(test) == 3 and len(train) == 7
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))

    def test_index_file(self, tmp_path):
        path = tmp_path / "idx.txt"
        path.write_text("1\n3\n")
        (train, test), = index_file_split(5, path)
        npt.assert_array_equal(test, [1, 3])
        npt.assert_array_equal(train, [0, 2, 4])

    def test_index_file_out_of_range(self, tmp_path):
        path = tmp_path / "idx.txt"
        path.write_text("9\n")
        with pytest.raises(DatasetFormatError):
            index_file_split(5, path)


class TestRunConfigValidation:
    def _base(self, path="x.mlkit", **kw):
        kw.setdefault("dataset", path)
        kw.setdefault("folds", 2)
        return RunConfig(**kw)

    def test_valid_config_passes(self):
        self._base().validate()

    def test_unknown_topology_named(self):
        with pytest.raises(ConfigError, match="topologies"):
            self._base(topologies=("MLP",)).validate()

    def test_bad_optimizer_named(self):
        with pytest.raises(ConfigError, match="optimizer"):
            self._base(optimizer="sgd").validate()

    def test_fold_scheme_exclusivity(self):
        with pytest.raises(ConfigError, match="fold scheme"):
            RunConfig(dataset="x", folds=2, holdout=0.5).validate()
        with pytest.raises(ConfigError, match="fold scheme"):
            RunConfig(dataset="x").validate()

    def test_bad_holdout_named(self):
        with pytest.raises(ConfigError, match="holdout"):
            RunConfig(dataset="x", holdout=1.5).validate()

    def test_bad_members_named(self):
        with pytest.raises(ConfigError, match="members"):
            self._base(members=0).validate()

    def test_bad_augment_named(self):
        with pytest.raises(ConfigError, match="augment"):
            self._base(augment_clusters=-1).validate()

    def test_stratified_needs_folds(self):
        with pytest.raises(ConfigError, match="field stratified"):
            RunConfig(dataset="x", holdout=0.3, stratified=True)

    def test_config_keys_pinned(self):
        assert sorted(asdict(RunConfig(dataset="x", folds=2))) == [
            "augment_clusters", "augment_weight", "clip_threshold", "dataset",
            "encoding", "epochs", "external_scores", "folds", "hidden_units",
            "holdout", "holdout_indices", "learning_rate", "members", "minibatch",
            "optimizer", "output", "rho1", "rho2", "seed", "stratified",
            "tcn_blocks", "tcn_filters", "topologies",
        ]


def fast_config(path, **kw):
    kw.setdefault("topologies", ("GRU_A",))
    kw.setdefault("members", 1)
    kw.setdefault("hidden_units", 4)
    kw.setdefault("epochs", 2)
    kw.setdefault("folds", 2)
    kw.setdefault("seed", 5)
    return RunConfig(dataset=str(path), **kw)


class TestRunExperiment:
    def test_report_shape(self, small_dataset_file):
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path))
        folds = [r for r in report.records if r.fold != "mean"]
        means = [r for r in report.records if r.fold == "mean"]
        assert len(folds) == 2 and len(means) == 1
        for rec in report.records:
            assert tuple(rec.metrics) == METRIC_NAMES

    def test_reports_are_byte_identical(self, small_dataset_file):
        path, _ = small_dataset_file
        a = run_experiment(fast_config(path))
        b = run_experiment(fast_config(path))
        assert a.text() == b.text()
        assert a.to_json() == b.to_json()

    def test_mean_record_averages_folds(self, small_dataset_file):
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path))
        folds = [r.metrics for r in report.records if r.fold != "mean"]
        mean = next(r.metrics for r in report.records if r.fold == "mean")
        for name in METRIC_NAMES:
            npt.assert_allclose(mean[name], np.mean([f[name] for f in folds]),
                                atol=1e-15)

    def test_external_scores_column(self, small_dataset_file, tmp_path):
        path, ds = small_dataset_file
        rng = np.random.default_rng(8)
        ext = rng.uniform(size=ds.y.shape)
        ext_path = tmp_path / "ext.csv"
        with open(ext_path, "w") as fh:
            for row in ext:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        cfg = fast_config(path, external_scores=str(ext_path))
        report = run_experiment(cfg)
        models = {r.model for r in report.records}
        assert models == {"ensemble", "ensemble+external", "ensemble+3x_external"}
        # cross-check one fused fold record by recomputation
        from mlenn.ensemble import train_ensemble
        from mlenn.harness import kfold_split as ksplit
        from mlenn.metrics import PredictionSet, compute_all
        from mlenn.network import NetworkSpec
        from mlenn.pipeline import minmax_normalize
        master = RngStream(cfg.seed)
        (tr, te) = ksplit(ds.n_samples, 2, master.child(1))[0]
        x_tr = minmax_normalize(ds.x[tr], ds.x[tr])
        x_te = minmax_normalize(ds.x[tr], ds.x[te])
        model = train_ensemble(
            [NetworkSpec(topology="GRU_A", n_labels=2, hidden_units=4)],
            x_tr, ds.y[tr], cfg, master.child(100).child(1))
        fused = fuse_weighted_external(normalize_enn(model.predict_scores(x_te)),
                                       ext[te], 3.0)
        expected = compute_all(PredictionSet.from_scores(ds.y[te], fused, threshold=2.0))
        rec = next(r for r in report.records
                   if r.model == "ensemble+3x_external" and r.fold == "0")
        for name in METRIC_NAMES:
            npt.assert_allclose(rec.metrics[name], expected[name], atol=1e-12)

    def test_augmentation_path_runs(self, small_dataset_file):
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path, augment_clusters=0, augment_weight=0.5))
        assert any(r.fold == "mean" for r in report.records)

    def test_holdout_scheme(self, small_dataset_file):
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path, folds=None, holdout=0.25))
        folds = [r for r in report.records if r.fold != "mean"]
        assert len(folds) == 1

    def test_stratified_scheme_runs(self, small_dataset_file):
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path, stratified=True))
        assert any(r.fold == "mean" for r in report.records)

    def test_sparse_dataset_uses_pca(self, tmp_path):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 12))
        y = (rng.uniform(size=(30, 2)) < 0.5).astype(float)
        y[0, 0] = 1.0  # keep at least one positive
        path = tmp_path / "sparse.mlkit"
        save_dataset(Dataset(base, y, sparse=True), path)
        report = run_experiment(fast_config(path))
        assert any(r.fold == "mean" for r in report.records)

    def test_failed_fold_continues(self, small_dataset_file, monkeypatch):
        import mlenn.harness as harness
        from mlenn.training import TrainingDivergedError
        real = harness.train_ensemble
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TrainingDivergedError(0, 3)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "train_ensemble", flaky)
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path))
        assert len(report.failures) == 1 and "fold 0" in report.failures[0]
        folds = [r for r in report.records if r.fold != "mean"]
        assert [r.fold for r in folds] == ["1"]  # the other fold still ran
        assert any("fold 0" in line for line in report.text().splitlines())

    def test_text_report_is_parseable(self, small_dataset_file):
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path))
        lines = [ln for ln in report.text().splitlines() if not ln.startswith("#")]
        for line in lines:
            fields = dict(part.split("=", 1) for part in line.split())
            assert fields["dataset"] == "synth"
            for name in METRIC_NAMES:
                float(fields[name])  # six-decimal numeric


class TestPreprocess:
    def test_fit_apply_matches_minmax(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(20, 4))
        pre, _ = Preprocess.fit(x, sparse=False)
        from mlenn.pipeline import minmax_normalize
        npt.assert_allclose(pre.apply(x), minmax_normalize(x, x), atol=1e-15)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_fit_returns_apply_of_training_rows(self, sparse):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 8))
        x[:, 5] = 4.0  # a constant column
        pre, x_fit = Preprocess.fit(x, sparse=sparse)
        npt.assert_array_equal(x_fit, pre.apply(x))

    def test_dict_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(25, 3)) @ np.eye(3)
        pre, _ = Preprocess.fit(x, sparse=True)
        clone = Preprocess.from_dict(json.loads(json.dumps(pre.to_dict())))
        npt.assert_array_equal(pre.apply(x), clone.apply(x))

    def test_sparse_rank_bound(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 10))
        _, x_fit = Preprocess.fit(x, sparse=True)
        assert x_fit.shape[1] <= 2

    def test_sparse_shared_rows_agree(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(25, 6))
        pre, x_fit = Preprocess.fit(train, sparse=True)
        npt.assert_array_equal(x_fit[:5], pre.apply(train[:5]))

    def test_sparse_zero_variance_passes_through(self):
        x = np.full((4, 3), 2.5)
        pre, x_fit = Preprocess.fit(x, sparse=True)
        assert pre.pca is None
        npt.assert_array_equal(x_fit, np.zeros((4, 3)))
