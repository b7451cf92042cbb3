import json
import warnings
import weakref
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mlenn.harness as harness
from mlenn.cli import _run_config, build_parser, main
from mlenn.ensemble import (EnsembleModel, fuse_weighted_external, load_ensemble, normalize_enn,
                            save_ensemble, train_member)
from mlenn.harness import (ConfigError, DatasetFormatError, ExperimentReport, Preprocess,
                           ReportRecord, RunConfig, holdout_split, index_file_split, kfold_split, load_dataset,
                           load_external_scores, run_experiment)
from mlenn.metrics import METRIC_NAMES
from mlenn.network import NetworkSpec, build_network
from mlenn.numerics import RngStream
from mlenn.pipeline import Dataset

import oracles
from synth import banded_task, save_dataset


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

    @pytest.mark.parametrize("row,message", [("0.5,x", ":5: non-numeric"),
                                             ("0.5,2", ":5: labels"),
                                             ("0.5", ":5: expected 2 fields")])
    def test_line_numbers_count_blank_lines(self, tmp_path, row, message):
        path = tmp_path / "bad.mlkit"
        path.write_text(f"mlkit-dataset v1, n=2, d=1, l=1, sparse=0\n\n0.5,1\n\n{row}\n")
        with pytest.raises(DatasetFormatError, match=message):
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

    @pytest.mark.parametrize("row,message", [("0.4,x", ":3: non-numeric"),
                                             ("0.4,inf", ":3: non-finite"),
                                             ("0.4", ":3: expected 2 fields")])
    def test_line_numbers_count_blank_lines(self, tmp_path, row, message):
        path = tmp_path / "scores.csv"
        path.write_text(f"\n0.1,0.9\n{row}\n")
        with pytest.raises(DatasetFormatError, match=message):
            load_external_scores(path, 2, 2)

    def test_out_of_range_warns_but_loads(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("1.5,-0.2\n")
        with pytest.warns(UserWarning):
            out = load_external_scores(path, 1, 2)
        npt.assert_allclose(out, [[1.5, -0.2]])


# Fields the per-line parse treats in its own way: non-finite words,
# underscores, non-ASCII digits, padding that float() strips or refuses,
# empty fields, '#', and labels other than "0"/"1" that do or do not equal
# 0 or 1.
_ODD_FIELDS = st.sampled_from([
    "inf", "-Infinity", "nan", "-NaN", "1e400", "1_0", "١٢", "\xa01.5", "2.5\xa0",
    "\x1f1.5", "1\x1f", "", " ", "#", "# 1", " 1\t", "1.5e", ".", "+.5", "E5",
    "0.0", "1e0", "-0", "2",
])
_NUMBERS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17e}"),
    st.integers(-9, 9).map(str),
)


@st.composite
def _row_lines(draw, d: int, l: int) -> list:
    """Rows of numbers and 0/1 labels among blank lines, then up to three
    edits: an odd field, a dropped, extra or trailing field, or a '#' line."""
    rows = [draw(st.lists(_NUMBERS, min_size=d, max_size=d))
            + draw(st.lists(st.sampled_from(["0", "1"]), min_size=l, max_size=l))
            for _ in range(draw(st.integers(1, 5)))]
    comments = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["odd"] * 5 + ["drop", "extra", "trailing", "#"]))
        if edit == "odd":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_ODD_FIELDS)
        elif edit == "drop" and len(rows[i]) > 1:
            rows[i].pop()
        elif edit in ("extra", "trailing"):
            rows[i].append("0" if edit == "extra" else "")
        elif edit == "#":
            comments.append(i)
    lines = []
    for i, row in enumerate(rows):
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=1))
        lines += ["#"] * comments.count(i) + [",".join(row)]
    return lines


_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _dataset_files(draw) -> str:
    d, l = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lines = draw(_row_lines(d, l))
    n = sum(1 for ln in lines if ln.strip()) + draw(st.sampled_from([0] * 9 + [1]))
    newline = draw(_NEWLINES)
    return newline.join([f"mlkit-dataset v1, n={n}, d={d}, l={l}, sparse=0"] + lines) + newline


@st.composite
def _score_files(draw) -> tuple:
    l = draw(st.integers(1, 4))
    lines = draw(_row_lines(l, 0))
    newline = draw(_NEWLINES)
    return newline.join(lines) + newline, sum(1 for ln in lines if ln.strip()), l


def _outcome(load, *args):
    """What a loader gives: its arrays' bytes and warnings, or its error."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = load(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    arrays = (out.x, out.y) if isinstance(out, Dataset) else (out,)
    return ([(a.shape, a.tobytes()) for a in arrays], [str(w.message) for w in caught])


class TestLoadersMatchPerLineParse:
    """Both loaders give the bits or the error of the per-line float()
    parse in oracles.py on every file."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(content="mlkit-dataset v1, n=1, d=2, l=1, sparse=0\n\x1f1.5,2,1\n")
    @example(content="mlkit-dataset v1, n=1, d=2, l=1, sparse=0\n1_0,١٢,1e0\n")
    @given(content=_dataset_files())
    def test_dataset(self, tmp_path, content):
        path = tmp_path / "fuzz.mlkit"
        path.write_bytes(content.encode("utf-8"))
        assert _outcome(load_dataset, path) == _outcome(oracles.load_dataset, path)

    def test_invalid_utf8(self, tmp_path):
        # The per-line parse refuses the file with the codec's error; the
        # loader refuses it as a format error naming the line.
        path = tmp_path / "bad.mlkit"
        path.write_bytes(b"mlkit-dataset v1, n=1, d=1, l=1, sparse=0\n0.5,\xff1\n")
        assert _outcome(oracles.load_dataset, path)[0] == "UnicodeDecodeError"
        assert _outcome(load_dataset, path) == ("DatasetFormatError",
                                                f"{path}:2: not UTF-8 text")

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(case=("0.5,\x1f0.25\n", 1, 2))
    @example(case=("0.5,1_0\n\n2.5\xa0,nan\n", 2, 2))
    @given(case=_score_files())
    def test_scores(self, tmp_path, case):
        content, n, l = case
        path = tmp_path / "fuzz.csv"
        path.write_bytes(content.encode("utf-8"))
        assert (_outcome(load_external_scores, path, n, l)
                == _outcome(oracles.load_external_scores, path, n, l))


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 60), seed=st.integers(0, 2**31 - 1),
           stratified=st.booleans())
    def test_folds_partition_the_rows(self, data, n, seed, stratified):
        k = data.draw(st.integers(2, n), label="k")
        labels = None
        if stratified:
            l = data.draw(st.integers(1, 3), label="l")
            labels = np.asarray(data.draw(st.lists(
                st.lists(st.sampled_from([0.0, 1.0]), min_size=l, max_size=l),
                min_size=n, max_size=n), label="labels"))
        folds = kfold_split(n, k, RngStream(seed), labels=labels)
        assert len(folds) == k
        tests = np.concatenate([test for _, test in folds])
        npt.assert_array_equal(np.sort(tests), np.arange(n))
        for train, test in folds:
            npt.assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(n))
            assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
        sizes = [len(test) for _, test in folds]
        assert max(sizes) - min(sizes) <= 1

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

    @pytest.mark.parametrize("content,message", [
        ("1\n\n3\nx\n", r"idx\.txt:4: index lines must be integers"),
        ("\n2\n5\n", r"idx\.txt:3: indices must fall in \[0, 5\)"),
        ("1\n-1\nx\n", r"idx\.txt:2: indices must fall"),
        ("\n \n", r"idx\.txt: no index lines"),
    ])
    def test_index_file_errors_name_first_bad_line(self, tmp_path, content, message):
        path = tmp_path / "idx.txt"
        path.write_text(content)
        with pytest.raises(DatasetFormatError, match=message):
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

    @pytest.mark.parametrize("field,value", [("augment_clusters", -1),
                                             ("augment_weight", -0.5),
                                             ("augment_weight", float("nan"))])
    def test_bad_augment_named(self, field, value):
        with pytest.raises(ConfigError, match=f"field {field}"):
            self._base(**{field: value})

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
        from mlenn.ensemble import EnsembleModel
        from mlenn.harness import kfold_split as ksplit
        from mlenn.metrics import PredictionSet, compute_all
        from mlenn.pipeline import minmax_normalize
        master = RngStream(cfg.seed)
        (tr, te) = ksplit(ds.n_samples, 2, master.child(1))[0]
        x_tr = minmax_normalize(ds.x[tr], ds.x[tr])
        x_te = minmax_normalize(ds.x[tr], ds.x[te])
        spec = NetworkSpec(topology="GRU_A", n_labels=2, hidden_units=4)
        model = EnsembleModel([train_member(spec, x_tr, ds.y[tr], cfg,
                                            master.child(100).child(1).child(m))
                               for m in range(cfg.members)])
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
        from mlenn.training import TrainingDivergedError
        real = harness.train_member
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TrainingDivergedError(0, 3)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "train_member", flaky)
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path))
        assert len(report.failures) == 1 and "fold 0" in report.failures[0]
        folds = [r for r in report.records if r.fold != "mean"]
        assert [r.fold for r in folds] == ["1"]  # the other fold still ran
        assert any("fold 0" in line for line in report.text().splitlines())

    def test_fold_never_holds_two_trained_networks(self, small_dataset_file, monkeypatch):
        # Each unit's network scores the test rows and is freed before the
        # next unit trains, in every fold.
        path, _ = small_dataset_file
        cfg = fast_config(path, topologies=("GRU_A", "TCN_A"), members=2, tcn_filters=4,
                          tcn_blocks=1, epochs=1)
        networks = []
        real = harness.train_member

        def spy(*args, **kwargs):
            assert [ref() for ref in networks if ref() is not None] == []
            member = real(*args, **kwargs)
            networks.append(weakref.ref(member))
            return member

        monkeypatch.setattr(harness, "train_member", spy)
        report = run_experiment(cfg)
        assert report.failures == [] and len(networks) == 2 * 4

    def test_text_report_is_parseable(self, small_dataset_file):
        path, _ = small_dataset_file
        report = run_experiment(fast_config(path))
        lines = [ln for ln in report.text().splitlines() if not ln.startswith("#")]
        for line in lines:
            fields = dict(part.split("=", 1) for part in line.split())
            assert fields["dataset"] == "synth"
            for name in METRIC_NAMES:
                float(fields[name])  # six-decimal numeric


class TestExperimentReport:
    def _report(self):
        values = {name: i / 7.0 for i, name in enumerate(METRIC_NAMES)}
        return ExperimentReport({"dataset": "toy", "seed": 4},
                                [ReportRecord("toy", "ensemble", "0", values)],
                                ["fold 1 failed: why"])

    def test_fixed_six_decimals(self):
        line = self._report().text().splitlines()[-1]
        assert line.startswith("dataset=toy model=ensemble fold=0 hamming_loss=0.000000")
        assert "one_error=0.142857" in line
        assert [field.split("=")[0] for field in line.split()[3:]] == list(METRIC_NAMES)

    def test_write_holds_the_three_files(self, tmp_path):
        report = self._report()
        report.write(str(tmp_path / "out"))
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "config.json", "report.json", "report.txt"]
        assert (tmp_path / "out" / "report.txt").read_text() == report.text()
        assert (tmp_path / "out" / "report.json").read_text() == report.to_json()
        assert json.loads((tmp_path / "out" / "config.json").read_text()) == report.config


class TestTrainingUnit:
    """One (topology s, member m) unit trained alone, on one training set
    built alone, has the bits of the same member inside a full run."""

    TOPOLOGIES = ("GRU_A", "TCN_A")

    def _assert_same_member(self, alone, member):
        assert alone.spec == member.spec
        assert alone.optimizer_tags == member.optimizer_tags
        ours, theirs = alone.param_items(), member.param_items()
        assert [key for key, _ in ours] == [key for key, _ in theirs]
        for (key, a), (_, b) in zip(ours, theirs):
            assert a.tobytes() == b.tobytes(), key

    def _units_alone(self, cfg, x, y, sparse, rng, aug_rng):
        _, x, y, weights = harness.fit_training_set(cfg, x, y, sparse, aug_rng)
        for s, topology in enumerate(cfg.topologies):
            spec = NetworkSpec(topology=topology, n_labels=y.shape[1],
                               hidden_units=cfg.hidden_units, tcn_filters=cfg.tcn_filters,
                               tcn_blocks=cfg.tcn_blocks)
            for m in range(cfg.members):
                yield s * cfg.members + m, train_member(
                    spec, x, y, cfg, rng.child(s * cfg.members + m), weights)

    def test_unit_matches_train_command(self, small_dataset_file, tmp_path):
        path, _ = small_dataset_file
        argv = ["train", "--dataset", str(path), "--members", "2", "--epochs", "2",
                "--hidden-units", "3", "--tcn-filters", "4", "--tcn-blocks", "1",
                "--seed", "9", "--output", str(tmp_path / "model")]
        for topology in self.TOPOLOGIES:
            argv += ["--topology", topology]
        assert main(argv) == 0
        saved, _ = load_ensemble(tmp_path / "model" / "model.json")
        cfg = _run_config(build_parser().parse_args(argv))
        ds = load_dataset(path)
        rng = RngStream(cfg.seed)
        units = list(self._units_alone(cfg, ds.x, ds.y, ds.sparse, rng, rng))
        assert [index for index, _ in units] == [0, 1, 2, 3]
        assert len(saved.members) == 4
        for index, alone in units:
            self._assert_same_member(alone, saved.members[index])

    def test_unit_matches_kfold_fold(self, small_dataset_file, monkeypatch):
        path, ds = small_dataset_file
        cfg = fast_config(path, topologies=self.TOPOLOGIES, members=2, tcn_filters=4,
                          tcn_blocks=1, augment_clusters=0, augment_weight=0.5)
        trained = []
        real = harness.train_member

        def spy(*args, **kwargs):
            trained.append(real(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(harness, "train_member", spy)
        report = run_experiment(cfg)
        assert report.failures == [] and len(trained) == 2 * 4
        monkeypatch.undo()
        master = RngStream(cfg.seed)
        train_idx, _ = kfold_split(ds.n_samples, cfg.folds, master.child(1))[1]
        fold = master.child(101)
        units = self._units_alone(cfg, ds.x[train_idx], ds.y[train_idx], ds.sparse,
                                  fold.child(1), fold.child(7))
        for index, alone in units:
            self._assert_same_member(alone, trained[4 + index])


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

    @pytest.mark.parametrize("sparse", [False, True])
    def test_model_file_round_trip(self, tmp_path, sparse):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(25, 3)) @ np.eye(3)
        pre, _ = Preprocess.fit(x, sparse=sparse)
        assert [name for name, _ in pre.tensors()] == (
            ["lo", "hi", "pca.mean", "pca.components", "pca.explained_variance_ratio"]
            if sparse else ["lo", "hi"])
        net = build_network(NetworkSpec(topology="GRU_A", n_labels=2, hidden_units=3), None)
        save_ensemble(EnsembleModel([net]), tmp_path / "model.json", pre.tensors())
        clone = Preprocess.from_tensors(load_ensemble(tmp_path / "model.json")[1])
        npt.assert_array_equal(pre.apply(x), clone.apply(x))

    def test_tensors_round_trip_keeps_a_constant_column(self):
        # lo == hi is a constant column, which maps to 0; only lo > hi is
        # rejected.
        x = np.array([[1, 4.0, 2], [3, 4.0, 0], [2, 4.0, 1]])
        pre, x_fit = Preprocess.fit(x, sparse=False)
        clone = Preprocess.from_tensors([(name, arr.copy()) for name, arr in pre.tensors()])
        npt.assert_array_equal(clone.apply(x), x_fit)
        npt.assert_array_equal(x_fit[:, 1], 0.0)

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
