"""Run one ``mlenn`` command with every traced function wrapped.

Usage: python3 perfbench/tracer.py SPANS.json -- <mlenn arguments>

The wrappers are installed from outside the program, under the name each
caller looks up: ``network.py`` calls ``L.conv1d_forward``, so the layer
kernels are wrapped in ``mlenn.layers``; ``training.py`` imported
``optimizer_step`` by name, so that one is wrapped in ``mlenn.training``.
Spans nest on one stack. A span's self time is its duration minus the
time covered by the spans it caused, so ``sigmoid`` inside
``gru_forward`` and ``kmeans`` inside ``imcc_augment`` count once, in the
innermost span. Spans are aggregated per name in memory and written to
SPANS.json when the command ends, together with the counts that the exit
hooks derive from argument and result shapes.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(float)
        self._child_time = []  # one accumulator per open span

    def wrap(self, name: str, fn, on_exit=None):
        record = self.spans[name]
        child_time = self._child_time

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                record[0] += 1
                record[1] += duration
                record[2] += duration - inner
            if on_exit is not None:
                on_exit(self.counts, args, out)
            return out

        return traced

    def to_dict(self) -> dict:
        return {"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in self.spans.items()},
                "counts": dict(self.counts)}


# Exit hooks: counts computed from shapes, outside the timed interval.

def _conv_fwd(c, args, out):
    params, x = args[0], args[1]
    b, t, ch = x.shape
    f, _, w = params.kernels.shape
    c["conv1d.fwd.flop"] += 2.0 * b * t * ch * f * w


def _conv_bwd(c, args, out):
    params, upstream = args[0], args[2]
    b, t, f = upstream.shape
    _, ch, w = params.kernels.shape
    c["conv1d.bwd.flop"] += 4.0 * b * t * ch * f * w


def _gru_fwd(c, args, out):
    params, x = args[0], args[1]
    b, t, d = x.shape
    n = params.hidden
    c["gru.fwd.flop"] += 6.0 * b * t * n * (d + n)


def _gru_bwd(c, args, out):
    params, cache = args[0], args[1]
    b, t, d = cache.x.shape
    n = params.hidden
    c["gru.bwd.flop"] += 12.0 * b * t * n * (d + n)


def _loss(c, args, out):
    c["trained_rows"] += args[0].shape[0]


def _clip(c, args, out):
    # clip_gradients_l2 returns the input arrays unchanged below the
    # threshold and fresh scaled arrays when it fires.
    c["clip.calls"] += 1
    if out and out[0] is not args[0][0]:
        c["clip.fired"] += 1


def _kmeans(c, args, out):
    n, d = args[0].shape
    k = args[1]
    c["kmeans.iterations"] += len(out.inertia_trace)
    c["kmeans.temp_bytes"] = max(c["kmeans.temp_bytes"], 8.0 * n * k * d)


def _augment(c, args, out):
    c["virtual_rows"] += out.z.shape[0]


def _dataset_bytes(c, args, out):
    c["load_dataset.bytes"] += os.path.getsize(args[0])


def _saved_bytes(c, args, out):
    c["model_bytes"] += os.path.getsize(args[1])


def _failures(c, args, out):
    c["folds_failed"] += len(out.failures)


# (span name, [(module, attribute), ...], exit hook). A span name that
# lists several functions sums them, e.g. the three pointwise kernels.
TARGETS = [
    ("layers.conv1d.fwd", [("mlenn.layers", "conv1d_forward")], _conv_fwd),
    ("layers.conv1d.bwd", [("mlenn.layers", "conv1d_backward")], _conv_bwd),
    ("layers.gru.fwd", [("mlenn.layers", "gru_forward")], _gru_fwd),
    ("layers.gru.bwd", [("mlenn.layers", "gru_backward")], _gru_bwd),
    ("layers.batchnorm.fwd", [("mlenn.layers", "batchnorm_forward")], None),
    ("layers.batchnorm.bwd", [("mlenn.layers", "batchnorm_backward")], None),
    ("layers.dense.fwd", [("mlenn.layers", "dense_forward")], None),
    ("layers.dense.bwd", [("mlenn.layers", "dense_backward")], None),
    ("layers.maxpool.fwd", [("mlenn.layers", "maxpool_time")], None),
    ("layers.maxpool.bwd", [("mlenn.layers", "maxpool_time_backward")], None),
    ("layers.pointwise.fwd", [("mlenn.layers", "relu"), ("mlenn.layers", "sigmoid"),
                              ("mlenn.layers", "dropout")], None),
    ("layers.pointwise.bwd", [("mlenn.layers", "relu_backward"),
                              ("mlenn.layers", "sigmoid_backward"),
                              ("mlenn.layers", "dropout_backward")], None),
    ("network.forward", [("mlenn.network", "Network.forward")], None),
    ("network.backward", [("mlenn.network", "Network.backward")], None),
    ("training.train_network", [("mlenn.ensemble", "train_network")], None),
    ("training.loss", [("mlenn.training", "bce_loss")], _loss),
    ("optim.step", [("mlenn.training", "optimizer_step")], None),
    ("optim.clip", [("mlenn.training", "clip_gradients_l2")], _clip),
    ("numerics.kmeans", [("mlenn.pipeline", "kmeans")], _kmeans),
    ("numerics.pca_fit", [("mlenn.pipeline", "pca_fit"), ("mlenn.harness", "pca_fit")], None),
    ("pipeline.normalize", [("mlenn.harness", "minmax_normalize")], None),
    ("pipeline.augment", [("mlenn.harness", "imcc_augment")], _augment),
    ("metrics.compute_all", [("mlenn.harness", "compute_all")], None),
    ("ensemble.predict", [("mlenn.ensemble", "EnsembleModel.predict_scores")], None),
    ("ensemble.fuse", [("mlenn.ensemble", "fuse_average")], None),
    ("ensemble.save", [("mlenn.cli", "save_ensemble")], _saved_bytes),
    ("ensemble.load", [("mlenn.cli", "load_ensemble")], None),
    ("harness.load_dataset", [("mlenn.harness", "load_dataset"), ("mlenn.cli", "load_dataset")],
     _dataset_bytes),
    ("harness.load_external_scores", [("mlenn.harness", "load_external_scores"),
                                      ("mlenn.cli", "load_external_scores")], None),
    ("harness.split", [("mlenn.harness", "kfold_split")], None),
    ("harness.run_experiment", [("mlenn.cli", "run_experiment")], _failures),
    ("cli.main", [("mlenn.cli", "main")], None),
]


def install(tracer: Tracer) -> None:
    """Replace every target with its traced wrapper; a missing target is an
    error, so a renamed function cannot silently drop out of the trace."""
    for span, locations, hook in TARGETS:
        for module_name, attr in locations:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, tracer.wrap(span, original, hook))


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <mlenn arguments>", file=sys.stderr)
        return 2
    out_path, mlenn_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    import mlenn.cli

    try:
        return mlenn.cli.main(mlenn_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
