import argparse
import json
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest

import mlenn.layers
import mlenn.network
from mlenn.cli import _run_config, build_parser, main
from mlenn.harness import RunConfig, fit_training_set, load_dataset
from mlenn.network import GRU_FAMILY
from mlenn.numerics import RngStream, ShapeError
from mlenn.pipeline import Dataset
from mlenn.training import TrainConfig

from synth import banded_task, save_dataset


@pytest.fixture
def dataset_file(tmp_path):
    x, y = banded_task(41, 36, 4, 2)
    path = tmp_path / "toy.mlkit"
    save_dataset(Dataset(x, y, name="toy"), path)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKfoldCommand:
    def test_writes_reports(self, dataset_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "kfold", "--dataset", dataset_file, "--folds", "2",
            "--members", "1", "--hidden-units", "4", "--epochs", "1",
            "--seed", "3", "--output", out_dir)
        assert code == 0
        assert "fold=mean" in stdout
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "report.json").exists()
        assert (out_dir / "config.json").exists()
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["config"]["seed"] == 3
        assert len(doc["records"]) == 3  # two folds plus the mean

    def test_identical_invocations_identical_bytes(self, dataset_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        outs = []
        for _ in range(2):
            code, _, _ = run_cli(
                capsys, "kfold", "--dataset", dataset_file, "--folds", "2",
                "--members", "1", "--hidden-units", "4", "--epochs", "1",
                "--seed", "9", "--output", out_dir)
            assert code == 0
            outs.append((out_dir / "report.txt").read_bytes()
                        + (out_dir / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_config_error_exit_code(self, dataset_file, capsys):
        code, _, err = run_cli(capsys, "kfold", "--dataset", dataset_file,
                               "--folds", "2", "--optimizer", "sgd")
        assert code == 2
        assert "stage=configuration" in err

    def test_missing_dataset_names_stage(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "kfold", "--dataset",
                               tmp_path / "nope.mlkit", "--folds", "2")
        assert code != 0
        assert "stage=" in err

    def test_no_fold_record_exits_one(self, tmp_path, capsys):
        # all-zero labels leave the ranking indicators undefined on every fold
        x, _ = banded_task(20, 20, 6, 2)
        path = tmp_path / "zeros.mlkit"
        save_dataset(Dataset(x, np.zeros((20, 2)), name="zeros"), path)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "kfold", "--dataset", path, "--folds", "2", "--members", "1",
            "--hidden-units", "4", "--epochs", "1", "--output", out_dir)
        assert code == 1
        assert "stage=kfold" in err
        report = (out_dir / "report.txt").read_text()
        assert "# fold 0 failed" in report and "# fold 1 failed" in report
        assert (out_dir / "report.json").exists() and (out_dir / "config.json").exists()

    def test_kernel_error_is_not_a_failed_fold(self, dataset_file, tmp_path, capsys,
                                               monkeypatch):
        # Only a diverged member or an undefined indicator fails a fold; a
        # shape bug in a kernel ends the run at its own stage.
        def broken(*args, **kwargs):
            raise ShapeError("injected conv1d_backward shape error")

        monkeypatch.setattr(mlenn.layers, "conv1d_backward", broken)
        out_dir = tmp_path / "out"
        code, stdout, err = run_cli(
            capsys, "kfold", "--dataset", dataset_file, "--folds", "2", "--members", "1",
            "--topology", "TCN_A", "--tcn-filters", "4", "--tcn-blocks", "1",
            "--epochs", "1", "--output", out_dir)
        assert code == 1
        assert err == "error [stage=kfold]: injected conv1d_backward shape error\n"
        assert "failed" not in stdout
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["kfold", "train"])
    def test_non_finite_gradient_is_not_a_failed_fold(self, dataset_file, tmp_path, capsys,
                                                     monkeypatch, command):
        # A NaN in a gradient after a finite loss is a bug, not a diverged
        # member: the clip's NonFiniteError ends the run at its own stage.
        backward = mlenn.network.Network.backward

        def poisoned(net, upstream):
            out = backward(net, upstream)
            net.trainable_layers()[-1].grad_vector[0] = np.nan
            return out

        monkeypatch.setattr(mlenn.network.Network, "backward", poisoned)
        out_dir = tmp_path / "out"
        argv = ["--dataset", dataset_file, "--members", "1", "--hidden-units", "4",
                "--epochs", "1", "--output", out_dir]
        if command == "kfold":
            argv += ["--folds", "2"]
        code, stdout, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert err == (f"error [stage={command}]: "
                       "gradient contains NaN or infinite entries\n")
        assert "failed" not in stdout
        assert not out_dir.exists()

    def test_one_row_minibatch_through_batchnorm(self, tmp_path, capsys):
        # 17 training rows per fold in minibatches of 8 leave one 1-row
        # minibatch per epoch; at T = 1 it reaches pre_bn as one position.
        x, y = banded_task(41, 34, 4, 2)
        path = tmp_path / "odd.mlkit"
        save_dataset(Dataset(x, y, name="odd"), path)
        code, stdout, err = run_cli(
            capsys, "kfold", "--dataset", path, "--folds", "2", "--members", "1",
            "--hidden-units", "4", "--epochs", "1", "--topology", "GRU_B",
            "--encoding", "single-step", "--minibatch", "8", "--seed", "3",
            "--output", tmp_path / "out")
        assert code == 0, err
        assert "failed" not in stdout + err

    @pytest.mark.parametrize("bad", ["dataset", "external-scores", "holdout-indices"])
    def test_non_utf8_file_is_a_data_loading_error(self, dataset_file, tmp_path, capsys, bad):
        # Line 2 of each file holds a byte that does not decode.
        files = {"dataset": dataset_file, "external-scores": tmp_path / "scores.csv",
                 "holdout-indices": tmp_path / "test.idx"}
        files["external-scores"].write_text("0.5,0.5\n" * 36)
        files["holdout-indices"].write_text("0\n1\n")
        lines = files[bad].read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" + lines[1]
        files[bad].write_bytes(b"".join(lines))
        code, _, err = run_cli(
            capsys, "kfold", "--dataset", files["dataset"],
            "--external-scores", files["external-scores"],
            "--holdout-indices", files["holdout-indices"], "--members", "1",
            "--hidden-units", "4", "--epochs", "1")
        assert code == 1
        assert err == f"error [stage=data-loading]: {files[bad]}:2: not UTF-8 text\n"

    def test_holdout_mode(self, dataset_file, capsys):
        code, stdout, _ = run_cli(
            capsys, "kfold", "--dataset", dataset_file, "--holdout", "0.25",
            "--members", "1", "--hidden-units", "4", "--epochs", "1")
        assert code == 0
        assert "fold=0" in stdout


@dataclass
class _ModelFile:
    """A model file as its header, the newline that ends the header's line
    and the tensor bytes after it."""
    header: dict
    newline: bytes
    payload: bytearray

    @classmethod
    def read(cls, path) -> "_ModelFile":
        line, newline, payload = path.read_bytes().partition(b"\n")
        return cls(json.loads(line), newline, bytearray(payload))

    def write(self, path) -> None:
        path.write_bytes(json.dumps(self.header).encode() + self.newline + self.payload)


def _first_tensor(f: _ModelFile) -> list:
    """The header's ``[name, shape]`` entry of member 0's first tensor."""
    return f.header["members"][0]["tensors"][0]


def _header_only(f: _ModelFile) -> None:
    """The header's JSON alone: no newline and no tensors."""
    f.newline = b""
    f.payload.clear()


def _as_v2(f: _ModelFile) -> None:
    """A file of format v2, one JSON line that holds the whole model."""
    f.header["format"] = "mlenn-ensemble v2"
    f.payload.clear()


def _utf16_header(raw: bytes) -> bytes:
    line, rest = raw.split(b"\n", 1)
    return (line.decode("utf-8") + "\n").encode("utf-16") + rest


def _edit_preprocess(f: _ModelFile, edit) -> None:
    """Call ``edit`` on the file's preprocess tensors, a list of [name,
    array] pairs read from the end of its payload, and write them back: the
    header's list of names and shapes, and the bytes."""
    size = sum(8 * math.prod(shape) for _, shape in f.header["preprocess"])
    tail = np.frombuffer(bytes(f.payload[len(f.payload) - size:]), "<f8")
    pairs, at = [], 0
    for name, shape in f.header["preprocess"]:
        pairs.append([name, tail[at:at + math.prod(shape)].reshape(shape).copy()])
        at += math.prod(shape)
    edit(pairs)
    del f.payload[len(f.payload) - size:]
    f.header["preprocess"] = [[name, list(arr.shape)] for name, arr in pairs]
    f.payload.extend(b"".join(np.ascontiguousarray(arr, "<f8").tobytes() for _, arr in pairs))


def _as_v3(f: _ModelFile) -> None:
    """A file of format v3, whose header holds the preprocess block as JSON
    numbers."""
    block = {"pca": None}
    _edit_preprocess(f, lambda pairs: (block.update((n, a.tolist()) for n, a in pairs),
                                       pairs.clear()))
    f.header.update(format="mlenn-ensemble v3", preprocess=block)


def _pca(pairs: list, k: int, missing_columns: int = 0, drop: str | None = None) -> None:
    """Append a PCA basis of k components over the fitted columns, less
    ``missing_columns``, without the tensor ``drop``."""
    d = len(pairs[0][1]) - missing_columns
    pairs += [pair for pair in (["pca.mean", np.zeros(d)], ["pca.components", np.zeros((k, d))],
                                ["pca.explained_variance_ratio", np.full(k, 1.0 / max(k, 1))])
              if pair[0] != drop]


def _lo_above_hi(pairs: list) -> None:
    """Column 1 fitted on [3, 2]."""
    pairs[0][1][1] = 3.0
    pairs[1][1][1] = 2.0


def _widen(pairs: list) -> None:
    """One more fitted column than the dataset has."""
    pairs[0][1] = np.append(pairs[0][1], 0.0)
    pairs[1][1] = np.append(pairs[1][1], 1.0)


def _preprocess_entry(f: _ModelFile, entry) -> None:
    """Replace the header's first preprocess entry."""
    f.header["preprocess"][0] = entry


class TestTrainEvaluateCommands:
    def test_round_trip(self, dataset_file, tmp_path, capsys):
        model_dir = tmp_path / "model"
        code, stdout, _ = run_cli(
            capsys, "train", "--dataset", dataset_file, "--members", "2",
            "--hidden-units", "4", "--epochs", "1", "--seed", "4",
            "--output", model_dir)
        assert code == 0
        model_path = model_dir / "model.json"
        assert model_path.exists()
        header = _ModelFile.read(model_path).header
        assert header["format"] == "mlenn-ensemble v4"
        assert header["master_seed"] == 4
        assert "preprocess" in header

        eval_dir = tmp_path / "eval"
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", model_path,
            "--dataset", dataset_file, "--output", eval_dir)
        assert code == 0
        assert "fold=eval" in stdout
        assert (eval_dir / "report.txt").exists()

    def test_header_holds_names_and_integer_shapes_only(self, tmp_path, capsys):
        # A sparse file, so the preprocess tensors include a PCA basis. The
        # header lists the tensors as [name, [int, ...]] pairs and holds
        # no tensor value: no list in it holds a float.
        x, y = banded_task(41, 36, 4, 2)
        path = tmp_path / "sparse.mlkit"
        save_dataset(Dataset(np.hstack([x, x]), y, name="sparse", sparse=True), path)
        code, _, err = run_cli(capsys, "train", "--dataset", path, "--members", "1",
                               "--topology", "GRU_A", "--topology", "TCN_A", "--hidden-units",
                               "4", "--tcn-filters", "4", "--tcn-blocks", "1", "--epochs", "0",
                               "--output", tmp_path / "model")
        assert code == 0, err
        header = _ModelFile.read(tmp_path / "model" / "model.json").header

        def is_listing(value):
            return isinstance(value, list) and all(
                isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list) and all(type(n) is int for n in entry[1])
                for entry in value)

        def lists(value):
            if isinstance(value, list):
                yield value
            for child in (value.values() if isinstance(value, dict)
                          else value if isinstance(value, list) else ()):
                yield from lists(child)

        assert [name for name, _ in header["preprocess"]] == [
            "lo", "hi", "pca.mean", "pca.components", "pca.explained_variance_ratio"]
        assert is_listing(header["preprocess"])
        assert len(header["members"]) == 2
        assert all(is_listing(member["tensors"]) for member in header["members"])
        for found in lists(header):
            assert not any(isinstance(v, float) for v in found), found

    def test_augmentation_flags_train_the_saved_model(self, dataset_file, tmp_path, capsys):
        # IMCC's virtual rows change what train saves, and evaluate reads
        # the model it saves.
        argv = ["train", "--dataset", dataset_file, "--members", "1", "--hidden-units", "4",
                "--epochs", "1", "--seed", "2"]
        saved = {}
        for name, extra in (("plain", []), ("augmented", ["--augment-clusters", "3"]),
                            ("weighted", ["--augment-clusters", "3", "--augment-weight", "0.5"])):
            code, _, err = run_cli(capsys, *argv, *extra, "--output", tmp_path / name)
            assert code == 0, err
            saved[name] = (tmp_path / name / "model.json").read_bytes()
        assert len(set(saved.values())) == 3
        code, stdout, err = run_cli(capsys, "evaluate", "--model",
                                    tmp_path / "augmented" / "model.json",
                                    "--dataset", dataset_file)
        assert code == 0, err
        assert "fold=eval" in stdout

    def test_label_count_mismatch_is_an_evaluate_error(self, dataset_file, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_file, "--members", "1",
                             "--hidden-units", "4", "--epochs", "0",
                             "--output", tmp_path / "model")
        assert code == 0
        x, y = banded_task(41, 36, 4, 3)
        path = tmp_path / "three.mlkit"
        save_dataset(Dataset(x, y, name="three"), path)
        code, stdout, err = run_cli(capsys, "evaluate", "--model",
                                    tmp_path / "model" / "model.json",
                                    "--dataset", path, "--output", tmp_path / "eval")
        assert code == 1
        assert err == "error [stage=evaluate]: the model was trained on 2 labels, the data has 3\n"
        assert stdout == ""
        assert not (tmp_path / "eval").exists()

    def test_bad_spec_in_model_file_is_not_a_configuration_error(self, dataset_file,
                                                                 tmp_path, capsys):
        model_path = tmp_path / "model" / "model.json"
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_file, "--members", "1",
                             "--hidden-units", "4", "--epochs", "0",
                             "--output", model_path.parent)
        assert code == 0
        model = _ModelFile.read(model_path)
        model.header["members"][0]["spec"]["hidden_units"] = 0
        model.write(model_path)
        code, _, err = run_cli(capsys, "evaluate", "--model", model_path,
                               "--dataset", dataset_file)
        assert code == 1
        assert "stage=evaluate" in err
        assert "hidden_units" in err

    @pytest.mark.parametrize("edit,named", [
        (lambda f: f.header["members"][0]["spec"].update(dilation=2), "dilation"),
        (lambda f: f.header["members"][0]["spec"].pop("topology"), "topology"),
        (lambda f: f.header.pop("members"), "members"),
        (lambda f: f.header["members"][0].pop("spec"), "spec"),
        (lambda f: f.header["members"][0].pop("tensors"), "'tensors'"),
        (lambda f: f.header["members"][0]["tensors"].pop(), "'tensors'"),
        (lambda f: _first_tensor(f).__setitem__(0, "gru.wq"), "tensor ['gru.wq', [4, 1]]"),
        (lambda f: _first_tensor(f)[1].reverse(), "tensor ['gru.wz', [1, 4]]"),
        # The preprocess tensors' 64 bytes come last.
        (lambda f: f.payload.__delitem__(slice(-72, None)), "ends inside member 0 tensor"),
        (lambda f: f.payload.__delitem__(slice(-8, None)),
         "model file ends inside preprocess tensor 'hi'"),
        (lambda f: f.payload.extend(bytes(8)), "8 bytes after its last tensor"),
        (lambda f: f.payload.__setitem__(slice(0, 8), np.float64("nan").tobytes()),
         "tensor 'gru.wz' holds a non-finite value"),
        (_header_only, "no newline"),
        (_as_v2, "unsupported model format 'mlenn-ensemble v2'"),
        (_as_v3, "unsupported model format 'mlenn-ensemble v3'"),
        (lambda f: f.header.update(format="mlenn-ensemble v1"), "v1"),
        (lambda f: _edit_preprocess(f, lambda p: p.pop(1)),
         "preprocess tensors ['lo'] are not ['lo', 'hi']"),
        (lambda f: _edit_preprocess(f, lambda p: p[0].__setitem__(0, "low")),
         "preprocess tensors ['low', 'hi'] are not ['lo', 'hi']"),
        (lambda f: _edit_preprocess(f, list.reverse),
         "preprocess tensors ['hi', 'lo'] are not ['lo', 'hi']"),
        (lambda f: _edit_preprocess(f, list.clear), "preprocess tensors [] are not ['lo', 'hi']"),
        (lambda f: _edit_preprocess(f, lambda p: p[1].__setitem__(1, p[1][1][:-1])),
         "preprocess 'lo' [4] and 'hi' [3] are not one column range"),
        (lambda f: _edit_preprocess(f, lambda p: p[0].__setitem__(1, p[0][1][None])),
         "preprocess 'lo' [1, 4] and 'hi' [4] are not one column range"),
        (lambda f: _edit_preprocess(f, lambda p: p[0][1].__setitem__(0, np.nan)),
         "model preprocess tensor 'lo' holds a non-finite value"),
        (lambda f: _edit_preprocess(f, lambda p: p[1][1].__setitem__(1, np.inf)),
         "model preprocess tensor 'hi' holds a non-finite value"),
        (lambda f: f.header.update(preprocess=[1.0]), "'preprocess' is not a list"),
        (lambda f: f.header.pop("preprocess"), "'preprocess' is not a list"),
        (lambda f: f.header.update(preprocess=None), "'preprocess' is not a list"),
        (lambda f: f.header.update(preprocess={}), "'preprocess' is not a list"),
        *[(lambda f, entry=entry: _preprocess_entry(f, entry), "'preprocess' is not a list")
          for entry in (["lo", 4], ["lo", [-4]], ["lo", [4.0]], ["lo", [True]], ["lo", None],
                        [0, [4]], ["lo", [4], []], ["lo"])],
        (lambda f: _edit_preprocess(f, lambda p: _pca(p, 2, drop="pca.components")),
         "preprocess tensors ['lo', 'hi', 'pca.mean', 'pca.explained_variance_ratio'] are not "
         "['lo', 'hi', 'pca.mean', 'pca.components', 'pca.explained_variance_ratio']"),
        (lambda f: _edit_preprocess(f, lambda p: _pca(p, 2, drop="pca.mean")),
         "preprocess tensors ['lo', 'hi', 'pca.components', 'pca.explained_variance_ratio']"),
        (lambda f: _edit_preprocess(f, lambda p: (_pca(p, 2), p[2].__setitem__(0, "pca.means"))),
         "preprocess tensors ['lo', 'hi', 'pca.means', 'pca.components',"),
        (lambda f: _edit_preprocess(f, lambda p: _pca(p, 2, missing_columns=1)),
         "preprocess pca shapes [[3], [2, 3], [2]] are not k >= 1 components over 4 columns"),
        (lambda f: _edit_preprocess(f, lambda p: (_pca(p, 2), p[4].__setitem__(1, p[4][1][:1]))),
         "preprocess pca shapes [[4], [2, 4], [1]] are not k >= 1 components over 4 columns"),
        (lambda f: _edit_preprocess(f, lambda p: (_pca(p, 2),
                                                  p[3].__setitem__(1, np.zeros((2, 1, 4))),
                                                  p[4].__setitem__(1, np.zeros((2, 1))))),
         "preprocess pca shapes [[4], [2, 1, 4], [2, 1]] are not k >= 1 components over 4 columns"),
        (lambda f: _edit_preprocess(f, lambda p: _pca(p, 0)),
         "preprocess pca shapes [[4], [0, 4], [0]] are not k >= 1 components over 4 columns"),
        (lambda f: _edit_preprocess(f, _widen), "5 feature columns, the data has 4"),
        (lambda f: f.header.update(master_seed=[3]), "master_seed"),
        (lambda f: f.header.update(master_seed=7.9), "master_seed"),
        (lambda f: f.header.update(master_seed="12"), "master_seed"),
        (lambda f: f.header.update(master_seed=True), "master_seed"),
        (lambda f: f.header["members"][0].update(optimizer_tags=["adam"]), "optimizer_tags"),
        (lambda f: _edit_preprocess(f, _lo_above_hi),
         "preprocess column 1 has 'lo' 3.0 above 'hi' 2.0"),
    ], ids=["unknown-spec-key", "missing-spec-key", "no-members", "no-spec",
            "no-tensors", "short-tensor-list", "renamed-tensor", "reshaped-tensor",
            "truncated-payload", "truncated-preprocess", "trailing-bytes", "nan-tensor",
            "no-newline", "v2-format", "v3-format", "v1-format", "preprocess-no-hi",
            "preprocess-renamed-lo", "preprocess-swapped", "no-preprocess-tensors",
            "preprocess-short-hi", "preprocess-2d-lo", "preprocess-nan-lo", "preprocess-inf-hi",
            "preprocess-not-a-listing", "no-preprocess", "null-preprocess", "object-preprocess",
            "shape-not-a-list", "negative-axis", "float-axis", "bool-axis", "null-shape",
            "name-not-a-string", "entry-of-three", "entry-of-one", "pca-no-components",
            "pca-no-mean", "pca-renamed-mean", "pca-short-mean", "pca-ratio-mismatch",
            "pca-2d-ratio", "pca-zero-components", "column-mismatch", "list-master-seed",
            "float-master-seed", "string-master-seed", "bool-master-seed", "list-optimizer-tags",
            "lo-above-hi"])
    def test_malformed_model_file_is_a_typed_error(self, dataset_file, tmp_path, capsys,
                                                   edit, named):
        # Each edit of a real train output must reach the evaluate stage
        # handler as a ValueError: exit 1, one error line, no traceback.
        model_path = tmp_path / "model" / "model.json"
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_file, "--members", "1",
                             "--hidden-units", "4", "--epochs", "0",
                             "--output", model_path.parent)
        assert code == 0
        model = _ModelFile.read(model_path)
        edit(model)
        model.write(model_path)
        code, _, err = run_cli(capsys, "evaluate", "--model", model_path,
                               "--dataset", dataset_file)
        assert code == 1
        assert err.startswith("error [stage=evaluate]: ")
        assert named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("reencode,named", [
        (lambda raw: b"\xef\xbb\xbf" + raw, "Unexpected UTF-8 BOM"),
        (_utf16_header, "can't decode byte 0xff"),
        (lambda raw: b"\xff" + raw, "can't decode byte 0xff"),
    ], ids=["utf8-bom", "utf16", "leading-0xff"])
    def test_model_file_is_strict_utf8(self, dataset_file, tmp_path, capsys, reencode, named):
        # The model file is UTF-8 without a BOM. json's own encoding
        # detection would accept the first two; they must stay typed errors.
        model_path = tmp_path / "model" / "model.json"
        code, _, _ = run_cli(capsys, "train", "--dataset", dataset_file, "--members", "1",
                             "--hidden-units", "4", "--epochs", "0",
                             "--output", model_path.parent)
        assert code == 0
        model_path.write_bytes(reencode(model_path.read_bytes()))
        code, _, err = run_cli(capsys, "evaluate", "--model", model_path,
                               "--dataset", dataset_file)
        assert code == 1
        assert err.startswith("error [stage=evaluate]: ")
        assert named in err
        assert err.count("\n") == 1

    def test_train_config_error_exit_code(self, dataset_file, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_file,
                               "--optimizer", "sgd", "--output", tmp_path / "model")
        assert code == 2
        assert "stage=configuration" in err


_BAD_VALUES = [
    ("--learning-rate", "0", "learning_rate"),
    ("--learning-rate", "nan", "learning_rate"),
    ("--rho1", "1", "rho1"),
    ("--rho2", "0", "rho2"),
    ("--clip-threshold", "0", "clip_threshold"),
    ("--clip-threshold", "nan", "clip_threshold"),
    ("--minibatch", "0", "minibatch"),
    ("--epochs", "-1", "epochs"),
    ("--members", "0", "members"),
    ("--optimizer", "sgd", "optimizer"),
    ("--hidden-units", "0", "hidden_units"),
    ("--seed", "-1", "seed"),
]


@pytest.mark.parametrize("command", ["kfold", "train"])
@pytest.mark.parametrize("flag,value,field", _BAD_VALUES)
def test_bad_value_is_a_configuration_error(command, flag, value, field,
                                            dataset_file, tmp_path, capsys):
    extra = ["--folds", "2"] if command == "kfold" else []
    code, _, err = run_cli(capsys, command, "--dataset", dataset_file, *extra,
                           flag, value, "--output", tmp_path / "out")
    assert code == 2
    assert "stage=configuration" in err
    assert field in err
    assert not (tmp_path / "out").exists()


class TestParserMatchesRunConfig:
    def test_bare_kfold(self):
        args = build_parser().parse_args(["kfold", "--dataset", "d.mlkit"])
        assert _run_config(args) == RunConfig(dataset="d.mlkit")

    def test_bare_train(self):
        args = build_parser().parse_args(["train", "--dataset", "d.mlkit", "--output", "o"])
        assert _run_config(args) == RunConfig(dataset="d.mlkit", output="o")

    def test_train_augmentation_flags(self):
        args = build_parser().parse_args(["train", "--dataset", "d", "--output", "o",
                                          "--augment-clusters", "3", "--augment-weight", "0.5"])
        assert _run_config(args) == RunConfig(dataset="d", output="o", augment_clusters=3,
                                              augment_weight=0.5)

    def test_repeated_topology(self):
        args = build_parser().parse_args(["kfold", "--dataset", "d", "--topology", "TCN_A",
                                          "--topology", "GRU_B"])
        assert _run_config(args) == RunConfig(dataset="d", topologies=("TCN_A", "GRU_B"))

    @pytest.mark.parametrize("command", ["kfold", "train"])
    def test_help_quotes_the_config_defaults(self, command, monkeypatch, capsys):
        monkeypatch.setattr(RunConfig, "topologies", ("TCN_B",))
        monkeypatch.setattr(TrainConfig, "resolve_epochs",
                            lambda self, topology: 7 if topology in GRU_FAMILY else 9)
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(repeatable; default TCN_B)" in text
        assert "(7 recurrent / 9 convolutional)" in text

    @pytest.mark.parametrize("command", ["kfold", "train"])
    def test_every_dest_is_a_field(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[command]
        names = {f.name for f in fields(RunConfig)}
        dests = [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert dests and set(dests) <= names


class TestClusterCountAboveRows:
    """kmeans's bound holds in every command: a count above the training
    rows ends the run at its stage instead of training on fewer clusters."""

    def test_kfold(self, dataset_file, tmp_path, capsys):
        # Two folds of the 36-row file train on 18 rows each.
        code, stdout, err = run_cli(
            capsys, "kfold", "--dataset", dataset_file, "--folds", "2", "--members", "1",
            "--hidden-units", "4", "--epochs", "1", "--augment-clusters", "19",
            "--output", tmp_path / "out")
        assert code == 1
        assert err == "error [stage=kfold]: cluster count must satisfy 1 <= c <= 18, got 19\n"
        assert stdout == ""
        assert not (tmp_path / "out").exists()

    def test_train(self, dataset_file, tmp_path, capsys):
        code, stdout, err = run_cli(
            capsys, "train", "--dataset", dataset_file, "--members", "1",
            "--hidden-units", "4", "--epochs", "1", "--augment-clusters", "37",
            "--output", tmp_path / "model")
        assert code == 1
        assert err == "error [stage=train]: cluster count must satisfy 1 <= c <= 36, got 37\n"
        assert stdout == ""
        assert not (tmp_path / "model").exists()


class TestAugmentPreview:
    def test_prints_centers(self, dataset_file, capsys, tmp_path):
        out_file = tmp_path / "aug.txt"
        code, stdout, _ = run_cli(
            capsys, "augment-preview", "--dataset", dataset_file,
            "--clusters", "3", "--seed", "1", "--output", out_file)
        assert code == 0
        assert stdout.count("center=") == 3
        assert out_file.read_text() == stdout

    @pytest.mark.parametrize("sparse", [False, True])
    def test_prints_the_virtual_rows_training_appends(self, tmp_path, capsys, sparse):
        # The sparse file repeats its 4 columns, so its PCA keeps at most 4 of 8.
        x, y = banded_task(41, 36, 4, 2)
        path = tmp_path / "toy.mlkit"
        save_dataset(Dataset(np.hstack([x, x]) if sparse else x, y, name="toy", sparse=sparse),
                     path)
        code, stdout, _ = run_cli(capsys, "augment-preview", "--dataset", path,
                                  "--clusters", "4", "--seed", "5")
        assert code == 0
        ds = load_dataset(path)
        cfg = RunConfig(dataset=str(path), augment_clusters=4, seed=5)
        _, x, y, weights = fit_training_set(cfg, ds.x, ds.y, ds.sparse, RngStream(5))
        assert x.shape[0] == ds.n_samples + 4 and weights[ds.n_samples:].tolist() == [1.0] * 4
        assert x.shape[1] == 4
        header, *lines = stdout.splitlines()
        assert header == "# 4 cluster centers for toy (n=36, d=4, l=2)"
        rows = [line.split() for line in lines]
        assert len(rows) == 4
        for (_, feats, labels), z, t in zip(rows, x[ds.n_samples:], y[ds.n_samples:]):
            assert feats == "features=" + ",".join(f"{v:.6f}" for v in z)
            assert labels == "labels=" + ",".join(f"{v:.6f}" for v in t)

    def test_cluster_count_error(self, dataset_file, capsys):
        code, _, err = run_cli(capsys, "augment-preview", "--dataset",
                               dataset_file, "--clusters", "999")
        assert code == 1
        assert err == ("error [stage=augment-preview]: "
                       "cluster count must satisfy 1 <= c <= 36, got 999\n")

    def test_negative_seed_is_a_configuration_error(self, dataset_file, capsys, tmp_path):
        out_file = tmp_path / "aug.txt"
        code, stdout, err = run_cli(capsys, "augment-preview", "--dataset", dataset_file,
                                    "--clusters", "3", "--seed", "-1", "--output", out_file)
        assert code == 2
        assert "stage=configuration" in err and "seed" in err
        assert stdout == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("clusters", ["0", "-1"])
    def test_nonpositive_clusters_is_a_configuration_error(self, dataset_file, capsys,
                                                           tmp_path, clusters):
        out_file = tmp_path / "aug.txt"
        code, stdout, err = run_cli(capsys, "augment-preview", "--dataset", dataset_file,
                                    "--clusters", clusters, "--output", out_file)
        assert code == 2
        assert "stage=configuration" in err and "clusters" in err
        assert stdout == ""
        assert not out_file.exists()
