"""The names and shapes that the benchmark tracer (``perfbench/tracer.py``)
relies on. ``--trace 1`` wraps library functions by name and derives FLOP
counts from their arguments and results, so a renamed kernel or a changed
cache field would otherwise break only a traced benchmark run."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from mlenn import layers
from mlenn.ensemble import save_ensemble, train_ensemble
from mlenn.layers import Conv1d, Gru, conv1d_backward, conv1d_forward, gru_backward, gru_forward
from mlenn.network import TOPOLOGIES, NetworkSpec, build_network
from mlenn.numerics import RngStream
from mlenn.training import TrainConfig, clip_gradients_l2

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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


def test_layers_call_kernels_through_their_traced_names(tracer, monkeypatch):
    # The tracer replaces the mlenn.layers attributes; a layer class that
    # bound a kernel directly would run it unwrapped and drop its span.
    # An eval-mode forward, whose layers write into their inputs, must go
    # through the same names as a train-mode one.
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
    model = train_ensemble([spec], x, y, TrainConfig(epochs=0, members=1), seed=13)
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
