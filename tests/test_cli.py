import json

import pytest

from mlenn.cli import main
from mlenn.harness import save_dataset
from mlenn.pipeline import Dataset

from synth import banded_task


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

    def test_holdout_mode(self, dataset_file, capsys):
        code, stdout, _ = run_cli(
            capsys, "kfold", "--dataset", dataset_file, "--holdout", "0.25",
            "--members", "1", "--hidden-units", "4", "--epochs", "1")
        assert code == 0
        assert "fold=0" in stdout


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
        doc = json.loads(model_path.read_text())
        assert doc["format"] == "mlenn-ensemble v1"
        assert doc["master_seed"] == 4
        assert "preprocess" in doc

        eval_dir = tmp_path / "eval"
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", model_path,
            "--dataset", dataset_file, "--output", eval_dir)
        assert code == 0
        assert "fold=eval" in stdout
        assert (eval_dir / "report.txt").exists()

    def test_train_config_error_exit_code(self, dataset_file, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--dataset", dataset_file,
                               "--optimizer", "sgd", "--output", tmp_path / "model")
        assert code == 2
        assert "stage=configuration" in err


class TestAugmentPreview:
    def test_prints_centers(self, dataset_file, capsys, tmp_path):
        out_file = tmp_path / "aug.txt"
        code, stdout, _ = run_cli(
            capsys, "augment-preview", "--dataset", dataset_file,
            "--clusters", "3", "--seed", "1", "--output", out_file)
        assert code == 0
        assert stdout.count("center=") == 3
        assert out_file.read_text() == stdout

    def test_cluster_count_error(self, dataset_file, capsys):
        code, _, err = run_cli(capsys, "augment-preview", "--dataset",
                               dataset_file, "--clusters", "999")
        assert code == 1
