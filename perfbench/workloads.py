"""The benchmark's workloads: what each runs, on which generated inputs,
and which traced functions it must exercise.

Every workload drives the ``mlenn`` command line with files generated
from the workload seed. The shapes are the paper's (yeast: d=103, l=14;
scene: d=294, l=6), with row, fold, member and epoch counts cut so that
one operation takes a few seconds on one core.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import gen

# Paper protocol, for the labelled extrapolation: 10 folds x 10 members on
# the full yeast set, 100 epochs for TCN topologies and 150 for GRU ones.
PAPER_ROWS = 2417
PAPER_FOLDS = 10
PAPER_MEMBERS = 10

# Spans every kfold workload goes through.
_KFOLD_SPANS = ("cli.main", "harness.run_experiment", "harness.load_dataset",
                "harness.split", "pipeline.normalize", "training.train_network",
                "training.loss", "optim.step", "optim.clip", "network.forward",
                "network.backward", "ensemble.predict", "ensemble.fuse",
                "metrics.compute_all", "layers.dense.fwd", "layers.dense.bwd",
                "layers.maxpool.fwd", "layers.maxpool.bwd", "layers.pointwise.fwd",
                "layers.pointwise.bwd")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str                 # "yeast" or "scene"
    rows: int
    topologies: tuple
    members: int
    epochs: int
    folds: int | None = None   # None: train --epochs 0, then evaluate
    kfold_flags: tuple = ()
    external: bool = False
    augment: bool = False
    required_spans: tuple = ()
    paper_epochs: int | None = None

    @property
    def members_total(self) -> int:
        return self.members * len(self.topologies)

    def make_inputs(self, seed: int, workdir: str) -> dict:
        """Write the dataset (and score) files; returns their paths and the
        label count."""
        if self.shape == "yeast":
            x, y = gen.yeast_like(seed, self.rows)
        else:
            x, y = gen.scene_like(seed, self.rows)
        inputs = {"dataset": os.path.join(workdir, f"{self.shape}.mlkit"),
                  "scores": None, "labels": y.shape[1]}
        gen.write_dataset(inputs["dataset"], x, y, self.shape == "scene")
        if self.external:
            inputs["scores"] = os.path.join(workdir, f"{self.shape}.scores")
            gen.write_scores(inputs["scores"], gen.external_scores(seed, y))
        return inputs

    def commands(self, inputs: dict, seed: int, out: str) -> list:
        """(label, mlenn arguments) for each command of one operation."""
        topo = [arg for t in self.topologies for arg in ("--topology", t)]
        common = [*topo, "--members", str(self.members), "--epochs", str(self.epochs),
                  "--seed", str(seed)]
        if self.folds is None:
            model_dir = os.path.join(out, "model")
            return [("train", ["train", "--dataset", inputs["dataset"], *common,
                               "--output", model_dir]),
                    ("evaluate", ["evaluate", "--model", os.path.join(model_dir, "model.json"),
                                  "--dataset", inputs["dataset"],
                                  "--output", os.path.join(out, "eval")])]
        argv = ["kfold", "--dataset", inputs["dataset"], "--folds", str(self.folds),
                *common, *self.kfold_flags, "--output", os.path.join(out, "report")]
        if self.augment:
            argv += ["--augment-clusters", "0"]
        if self.external:
            argv += ["--external-scores", inputs["scores"]]
        return [("kfold", argv)]

    def work_rows(self) -> int:
        """Rows one operation pushes through the networks.

        kfold: (real + virtual) training rows x epochs x members x folds.
        Folds differ in size by at most one row, with the larger ones
        first, for both plain and stratified splits. Evaluate: dataset
        rows x members scored.
        """
        if self.folds is None:
            return self.rows * self.members_total
        base, extra = divmod(self.rows, self.folds)
        total = 0
        for i in range(self.folds):
            train = self.rows - base - (1 if i < extra else 0)
            virtual = max(1, min(int(round(math.sqrt(train))), train)) if self.augment else 0
            total += train + virtual
        return total * self.epochs * self.members_total

    def paper_rows(self) -> int:
        """Training rows of the paper protocol for this workload's topologies."""
        train = PAPER_ROWS - PAPER_ROWS // PAPER_FOLDS
        return train * self.paper_epochs * PAPER_MEMBERS * PAPER_FOLDS


WORKLOADS = {w.name: w for w in (
    Workload(
        name="yeast_tcn",
        why="TCN_A at yeast shape (T=103, 175 filters): conv1d backward dominates, "
            "so a conv kernel rewrite must show here",
        shape="yeast", rows=40, topologies=("TCN_A",), members=1, epochs=1, folds=2,
        required_spans=_KFOLD_SPANS + ("layers.conv1d.fwd", "layers.conv1d.bwd",
                                       "layers.batchnorm.fwd", "layers.batchnorm.bwd"),
        paper_epochs=100,
    ),
    Workload(
        name="yeast_gru",
        why="GRU_A and GRU_B at yeast shape: the Python-level recurrence dominates, and "
            "GRU_B runs conv1d at 1->32 channels, where a conv change tuned for 175 must not slow",
        shape="yeast", rows=240, topologies=("GRU_A", "GRU_B"), members=1, epochs=3, folds=2,
        required_spans=_KFOLD_SPANS + ("layers.gru.fwd", "layers.gru.bwd",
                                       "layers.conv1d.fwd", "layers.conv1d.bwd",
                                       "layers.batchnorm.fwd", "layers.batchnorm.bwd"),
        paper_epochs=150,
    ),
    Workload(
        name="scene_augment",
        why="scene shape, stratified, k-means augmentation, PCA and external scores at T=1: "
            "optimizer, pipeline, metrics and file parsing carry the time",
        shape="scene", rows=2407, topologies=("GRU_A",), members=2, epochs=1, folds=5,
        kfold_flags=("--stratified", "--encoding", "single-step"),
        external=True, augment=True,
        required_spans=_KFOLD_SPANS + ("layers.gru.fwd", "layers.gru.bwd", "numerics.kmeans",
                                       "numerics.pca_fit", "pipeline.augment",
                                       "harness.load_external_scores"),
    ),
    Workload(
        name="yeast_model_io",
        why="train --epochs 0 then evaluate a GRU_A + TCN_A ensemble: the JSON model "
            "container and the forward-only path, which no other workload covers",
        shape="yeast", rows=60, topologies=("GRU_A", "TCN_A"), members=1, epochs=0,
        required_spans=("cli.main", "harness.load_dataset", "training.train_network",
                        "ensemble.save", "ensemble.load", "ensemble.predict", "ensemble.fuse",
                        "network.forward", "metrics.compute_all", "layers.conv1d.fwd",
                        "layers.gru.fwd", "layers.batchnorm.fwd", "layers.dense.fwd",
                        "layers.maxpool.fwd", "layers.pointwise.fwd"),
    ),
)}
