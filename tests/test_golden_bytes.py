"""Output bytes of the CLI, pinned by sha256.

Every run below goes through ``python -m mlenn.cli`` in a subprocess with
one BLAS thread, and each output file is compared with its committed
digest, so a change that moves any report or model byte names the file.
Paths are relative to the output directory because ``report.txt`` and
``config.json`` record the dataset and output paths as given.

The digests were taken with numpy 2.4.6 on Python 3.11.7. Another numpy
or BLAS build may round differently; on such a build this test shows a
platform difference, not a regression.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mlenn
from mlenn.pipeline import Dataset

from synth import banded_task, save_dataset

_SMALL = ["--members", "1", "--epochs", "2", "--minibatch", "10", "--hidden-units", "3",
          "--tcn-filters", "4", "--tcn-blocks", "2", "--seed", "3"]

# (output directory, kfold arguments beside the shared ones)
_KFOLD_RUNS = [
    ("kfold_gru_a", ["--topology", "GRU_A", "--stratified", "--augment-clusters", "0",
                     "--augment-weight", "0.5"]),
    ("kfold_gru_b", ["--topology", "GRU_B", "--optimizer", "sto"]),
    ("kfold_tcn_a", ["--topology", "TCN_A", "--optimizer", "adam"]),
    ("kfold_tcn_b", ["--topology", "TCN_B", "--optimizer", "diffgrad",
                     "--external-scores", "scores.csv"]),
    ("kfold_gru_tcn", ["--topology", "GRU_TCN", "--encoding", "single-step",
                       "--augment-clusters", "5", "--augment-weight", "1"]),
] + [
    # The variants that normalise by a per-tensor max, at T = 1, where the
    # GRU's recurrent weights get all-zero gradients.
    (f"kfold_gru_a_{variant}", ["--topology", "GRU_A", "--encoding", "single-step",
                                "--optimizer", variant])
    for variant in ("dgrad", "cos1", "exp", "sto")
]

GOLDEN = {
    "evaluate/config.json": "91e41a137fd06d3a58ddd6a343377981b89955ab80d00cc7079879c56c3760b2",
    "evaluate/report.json": "2cf1069abb33c9310bff624d44d48d0db9233b8483e6f3c13e9ec4f236a48f6b",
    "evaluate/report.txt": "36b669396a4c804303eee62e518d8059e50d0bdab943370cef8c887d6e1a1fa2",
    "kfold_gru_a/config.json": "2ce764ce52fb1f353bbe421e3eaffc455553f4fbe42e43282147fed3d1af2666",
    "kfold_gru_a/report.json": "2876a6fd9580cef11888e8456972012597b5fcb18a70bf33d22b1afe779048c2",
    "kfold_gru_a/report.txt": "8b9013679a7878f90286476ec49545e559103673abebe9abd0a065402a569e12",
    "kfold_gru_a_cos1/config.json": "7cd251e46c58022f830133c89cc830bd8a58026943810016b7394c356802dde4",
    "kfold_gru_a_cos1/report.json": "963128f4880f5dedf9cf84dc17c422ddd167cc6602e06c843d5d90045ddf4c08",
    "kfold_gru_a_cos1/report.txt": "46ba32e8760f613b83c6beaadc42de941db93bdb456c4bb27cbd7518b8c36272",
    "kfold_gru_a_dgrad/config.json": "377f8b051a9aaf0950d94e842352e34dcac11f9850ab0c234af96db8c4eb78f8",
    "kfold_gru_a_dgrad/report.json": "b07501a14a80b0221ec8a7a86bded83bba4b835f6f45f9002b0b58ad459f4952",
    "kfold_gru_a_dgrad/report.txt": "46ba32e8760f613b83c6beaadc42de941db93bdb456c4bb27cbd7518b8c36272",
    "kfold_gru_a_exp/config.json": "48571e30fb9661bab663fb7a0cb26c5bebc825b8101f38e0c9ef70670b8d3472",
    "kfold_gru_a_exp/report.json": "5d3d2ed6cae3a89347933029993e672ec6c4da5c1e098b5c672e667343d311b8",
    "kfold_gru_a_exp/report.txt": "378a8ca0e1540791a3d295c756f762d3751f3f1e1e768daa151957eacb742612",
    "kfold_gru_a_sto/config.json": "ae5b63066822d6820321a1eb4cd8ba64c2714e111ba0c10eb85e16b792ac14ad",
    "kfold_gru_a_sto/report.json": "5f810a57b35752330ee53cf261d16e870b967d3f48e74ec0c4057cbc00c45e03",
    "kfold_gru_a_sto/report.txt": "1285d8ff8c0d07bed4d7037d2ccc3a9b6b9faf899bcc97404f028ef1575cdbb1",
    "kfold_gru_b/config.json": "d93c81cddb2454fc98e59f636537030f3a154c24e9cf05d9eef777b39e79909b",
    "kfold_gru_b/report.json": "29fab257a6993e858bbd3f0de424a6455d6a7962d5a1856fa12bcdfd0bf985ad",
    "kfold_gru_b/report.txt": "0c4c9cf29d559454f830dbf7e2f78f5ccd4573d1a750ada905fa9841ab3f7b23",
    "kfold_gru_tcn/config.json": "ab1d3f6858970fa233cefe7dd1fa63842d43eb3bb26ac7dc801016d255dd26ad",
    "kfold_gru_tcn/report.json": "ad7a73430b8b4352cfa5d02cf1d6011cd3e97923f3ea1afe5b8a48993cd497dc",
    "kfold_gru_tcn/report.txt": "00a66ff1c2d3d13777bb7812c910ce1dcf5dd259f2c871435490b53d1c1702b2",
    "kfold_tcn_a/config.json": "514386e97ceb31ae36dc8c73a1d8981c31fa6a92f491f8c404484d843b5535c8",
    "kfold_tcn_a/report.json": "afeb2cce4162e93adbc06701eb151e74d57d9aae9c9809ab4de5d446894fe83e",
    "kfold_tcn_a/report.txt": "6e767027c9591c1cb237928fad08f606a171f05324fbfa450cc5989c09e01fc5",
    "kfold_tcn_b/config.json": "ce853ec9850bea5e383b002bda0442e7202c3e6fa48ddf08b3887cd6778dc826",
    "kfold_tcn_b/report.json": "25a38ff29d2acd5da295045118558ab89d64cb22db14458dc5965326858daaad",
    "kfold_tcn_b/report.txt": "333953182616d26477fe487c048818d34069157cf65686cfbbda9797b6989ae6",
    "model/model.json": "ce27fc32dafeaec1bce55555ecf56cee4dffaa263a17ebe100b9811abb239fe6",
}


def _cli(cwd: Path, *argv: str) -> None:
    src = str(Path(mlenn.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "mlenn.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _outputs(tmp_path: Path) -> dict:
    x, y = banded_task(5, 40, 6, 3)
    save_dataset(Dataset(x, y, name="golden"), tmp_path / "golden.mlkit")
    scores = np.linspace(-1.0, 1.0, y.size).reshape(y.shape) * (2 * y - 1)
    (tmp_path / "scores.csv").write_text(
        "".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in scores))

    for out, extra in _KFOLD_RUNS:
        _cli(tmp_path, "kfold", "--dataset", "golden.mlkit", "--folds", "2", *_SMALL,
             *extra, "--output", out)
    _cli(tmp_path, "train", "--dataset", "golden.mlkit", "--topology", "GRU_B",
         "--topology", "TCN_A", *_SMALL, "--output", "model")
    _cli(tmp_path, "evaluate", "--model", "model/model.json", "--dataset", "golden.mlkit",
         "--external-scores", "scores.csv", "--output", "evaluate")

    return {path.relative_to(tmp_path).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.glob("*/*"))}


def test_output_bytes_match_the_committed_digests(tmp_path):
    found = _outputs(tmp_path)
    assert sorted(found) == sorted(GOLDEN)
    for name, digest in GOLDEN.items():
        assert found[name] == digest, f"{name} changed"
