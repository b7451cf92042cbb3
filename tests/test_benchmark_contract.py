"""The names and shapes that the benchmark tracer (``perfbench/tracer.py``)
relies on. ``--trace 1`` wraps library functions by name and derives FLOP
counts from their arguments and results, so a renamed kernel or a changed
cache field would otherwise break only a traced benchmark run."""

import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from mlenn import cli, layers
from mlenn.ensemble import EnsembleModel, save_ensemble, train_member
from mlenn.layers import Conv1d, Gru, conv1d_backward, conv1d_forward, gru_backward, gru_forward
from mlenn.network import TOPOLOGIES, NetworkSpec, build_network
from mlenn.numerics import RngStream
from mlenn.pipeline import Dataset
from mlenn.training import TrainConfig, clip_gradients_l2

from synth import banded_task, save_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for span, locations, _ in tracer.TARGETS:
        for module_name, attr in locations:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                assert hasattr(owner, part), f"{span}: {module_name}.{attr}"
                owner = getattr(owner, part)
            assert callable(owner), f"{span}: {module_name}.{attr}"


def test_every_required_span_is_reached(tracer, monkeypatch, tmp_path, capsys):
    # The tracer wraps each function under the name its caller looks up,
    # so a call moved off that name drops its span without an error. One
    # tiny kfold covers what every kfold workload must reach: GRU_B and
    # TCN_A, a sparse set (PCA), augmentation, external scores and a
    # stratified split. train + evaluate covers the model workload.
    for name in ("gen", "workloads"):  # workloads.py imports gen
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, workloads)
        spec.loader.exec_module(workloads)
    traced = tracer.Tracer()
    for span, locations, hook in tracer.TARGETS:
        for module_name, attr in locations:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, leaf, traced.wrap(span, getattr(owner, leaf), hook))

    x, y = banded_task(21, 24, 6, 3)
    dataset = tmp_path / "sparse.mlkit"
    save_dataset(Dataset(x, y, sparse=True), dataset)
    scores = tmp_path / "scores.csv"
    scores.write_text("".join(",".join(f"{v:.3f}" for v in row) + "\n"
                              for row in np.asarray(RngStream(22).uniform(y.shape))))
    small = ["--members", "1", "--epochs", "1", "--hidden-units", "3", "--tcn-filters", "4",
             "--tcn-blocks", "1", "--topology", "GRU_B", "--topology", "TCN_A"]
    # cli.main, looked up when called, is the traced one
    assert cli.main(["kfold", "--dataset", str(dataset), "--folds", "2", "--stratified",
                     "--augment-clusters", "0", "--external-scores", str(scores), *small]) == 0
    kfold_calls = {name: record[0] for name, record in traced.spans.items()}
    model = tmp_path / "model"
    assert cli.main(["train", "--dataset", str(dataset), *small, "--output", str(model)]) == 0
    assert cli.main(["evaluate", "--model", str(model / "model.json"),
                     "--dataset", str(dataset)]) == 0
    capsys.readouterr()

    for workload in workloads.WORKLOADS.values():
        for name in workload.required_spans:
            calls = traced.spans[name][0]
            if workload.folds is None:
                calls -= kfold_calls.get(name, 0)
            else:
                calls = kfold_calls.get(name, 0)
            assert calls > 0, f"{workload.name}: span {name} recorded no call"


def test_layers_call_kernels_through_their_traced_names(tracer, monkeypatch):
    # The tracer replaces the mlenn.layers attributes; a layer class that
    # bound a kernel directly would run it unwrapped and drop its span.
    # An eval-mode forward, whose layers return fresh outputs and keep no
    # cache, must go through the same names as a train-mode one.
    names = [attr for _, locations, _ in tracer.TARGETS
             for module_name, attr in locations if module_name == "mlenn.layers"]
    calls = {mode: dict.fromkeys(names, 0) for mode in ("eval", "train")}
    mode = None
    for name in names:
        def counted(*args, _name=name, _kernel=getattr(layers, name), **kwargs):
            calls[mode][_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(layers, name, counted)
    x = np.asarray(RngStream(14).uniform((3, 6)))
    for topology in TOPOLOGIES:
        spec = NetworkSpec(topology=topology, n_labels=2, hidden_units=3, tcn_filters=4,
                           tcn_blocks=2, pre_conv_filters=3)
        net = build_network(spec, RngStream(15))
        mode = "eval"
        net.forward(x)
        mode = "train"
        out = net.forward(x, train=True, rng=RngStream(16))
        net.backward(np.ones_like(out))
    assert len(names) == 16
    assert [name for name, n in calls["train"].items() if n == 0] == []
    forwards = [name for name in names if "backward" not in name]
    assert len(forwards) == 8
    assert {name: calls["eval"][name] for name in forwards} == {
        name: calls["train"][name] for name in forwards}


def test_gru_hooks_read_real_kernel_calls(tracer):
    b, t, d, n = 3, 7, 4, 5
    rng = RngStream(11)
    layer = Gru.glorot("gru", n, d, rng)
    x = np.asarray(rng.uniform((b, t, d)))
    upstream = np.asarray(rng.uniform((b, t, n)))
    counts = defaultdict(float)
    out = gru_forward(layer, x)
    tracer._gru_fwd(counts, (layer, x), out)
    dx = gru_backward(layer, out[1], upstream)
    tracer._gru_bwd(counts, (layer, out[1], upstream), dx)
    assert counts["gru.fwd.flop"] == 6.0 * b * t * n * (d + n)
    assert counts["gru.bwd.flop"] == 12.0 * b * t * n * (d + n)


def test_conv_hooks_read_real_kernel_calls(tracer):
    b, t, c, f, w = 2, 9, 3, 4, 3
    rng = RngStream(12)
    layer = Conv1d.glorot("conv", f, c, w, 2, rng)
    x = np.asarray(rng.uniform((b, t, c)))
    upstream = np.asarray(rng.uniform((b, t, f)))
    counts = defaultdict(float)
    out = conv1d_forward(layer, x)
    tracer._conv_fwd(counts, (layer, x), out)
    dx = conv1d_backward(layer, out[1], upstream)
    tracer._conv_bwd(counts, (layer, out[1], upstream), dx)
    assert counts["conv1d.fwd.flop"] == 2.0 * b * t * c * f * w
    assert counts["conv1d.bwd.flop"] == 4.0 * b * t * c * f * w


def test_save_hook_reads_real_save_call(tracer, tmp_path):
    x = np.asarray(RngStream(13).uniform((6, 5)))
    y = (x[:, :2] > 0.5).astype(float)
    spec = NetworkSpec(topology="GRU_A", n_labels=2, hidden_units=3)
    member = train_member(spec, x, y, TrainConfig(epochs=0), RngStream(13).child(0))
    model = EnsembleModel([member], master_seed=13)
    args = (model, tmp_path / "model.json")
    counts = defaultdict(float)
    out = save_ensemble(*args)
    tracer._saved_bytes(counts, args, out)
    assert counts["model_bytes"] == (tmp_path / "model.json").stat().st_size


def test_clip_hook_reads_real_clip_calls(tracer):
    # training.clip_fired_ratio relies on clip returning its input arrays
    # when it does not fire.
    below = [np.array([0.3, 0.4]), np.zeros((2, 2))]
    above = [np.array([3.0, 4.0]), np.zeros((2, 2))]
    counts = defaultdict(float)
    tracer._clip(counts, (below, 1.0), clip_gradients_l2(below, 1.0))
    assert (counts["clip.calls"], counts["clip.fired"]) == (1, 0)
    tracer._clip(counts, (above, 1.0), clip_gradients_l2(above, 1.0))
    assert (counts["clip.calls"], counts["clip.fired"]) == (2, 1)
