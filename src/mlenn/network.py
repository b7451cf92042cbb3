"""Network topologies assembled from the layer classes of ``mlenn.layers``.

Five layer graphs are supported (``l`` = number of labels):

    GRU_A    gru -> maxpool-time -> dense(l) -> sigmoid
    GRU_B    conv -> batchnorm -> gru -> maxpool-time -> dense(l) -> sigmoid
    TCN_A    4 blocks of [conv -> relu -> bn -> conv -> relu -> bn -> dropout]
             -> time-distributed dense(l) -> maxpool-time -> sigmoid
    TCN_B    conv in front of the TCN_A stack
    GRU_TCN  gru -> time-distributed dense(l) -> sigmoid (no pooling)
             feeding the TCN_A stack

Block k of a TCN stack uses dilation 2^(k-1) in both of its convolutions.
Flat feature vectors enter as sequences: the default encoding reads a
d-dimensional sample as d time steps of one channel, so pooling over time
is a real reduction; ``single-step`` packs it into one step of d channels.

A Network is an ordered list of layers. Its parameters are the layers'
own tensor attributes, exposed in model-format order as
``"<layer>.<tensor>"`` keys by ``param_items`` and ``state_items``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import BatchNorm, Conv1d, Dense, Dropout, Gru, MaxPoolTime, Relu, Sigmoid
from .numerics import ConfigError, RngStream, ShapeError, as_tensor

TOPOLOGIES = ("GRU_A", "GRU_B", "TCN_A", "TCN_B", "GRU_TCN")
GRU_FAMILY = ("GRU_A", "GRU_B", "GRU_TCN")
TCN_FAMILY = ("TCN_A", "TCN_B")
ENCODINGS = ("sequence-of-scalars", "single-step")


def check_architecture(topologies, encoding: str, hidden_units: int,
                       tcn_filters: int, tcn_blocks: int) -> None:
    """The architecture checks that ``NetworkSpec`` and ``RunConfig`` share.

    A failure raises ``ConfigError`` naming the field as ``RunConfig`` and
    the CLI spell it (``topologies``, ``encoding``, ...).
    """
    if not topologies:
        raise ConfigError("field topologies: select at least one topology")
    for t in topologies:
        if t not in TOPOLOGIES:
            raise ConfigError(f"field topologies: unknown topology {t!r}")
    for name, value in (("hidden_units", hidden_units), ("tcn_filters", tcn_filters),
                        ("tcn_blocks", tcn_blocks)):
        if value < 1:
            raise ConfigError(f"field {name}: must be >= 1")
    if encoding not in ENCODINGS:
        raise ConfigError(f"field encoding: unknown encoding {encoding!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of one topology with its hyperparameters.

    The fields it shares with ``RunConfig`` go through ``check_architecture``.
    """

    topology: str
    n_labels: int
    hidden_units: int = 50
    tcn_filters: int = 175
    tcn_blocks: int = 4
    kernel_width: int = 3
    dropout_p: float = 0.05
    pre_conv_filters: int = 32
    input_encoding: str = "sequence-of-scalars"
    input_dim: int | None = None  # required for single-step encoding

    def __post_init__(self):
        check_architecture((self.topology,), self.input_encoding, self.hidden_units,
                           self.tcn_filters, self.tcn_blocks)
        for name in ("n_labels", "kernel_width", "pre_conv_filters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if self.input_encoding == "single-step" and self.input_dim is None:
            raise ValueError("single-step encoding requires input_dim")

    @property
    def input_channels(self) -> int:
        return 1 if self.input_encoding == "sequence-of-scalars" else int(self.input_dim)


def encode_features(x, encoding: str) -> np.ndarray:
    """Turn an (n, d) feature matrix into an (n, T, C) sequence batch."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"expected an (n, d) feature matrix, got shape {x.shape}")
    if encoding == "sequence-of-scalars":
        return x[:, :, None]
    if encoding == "single-step":
        return x[:, None, :]
    raise ValueError(f"unknown input encoding {encoding!r}")


class Network:
    """An ordered layer graph mapping (n, d) features to (n, l) scores."""

    def __init__(self, spec: NetworkSpec, layer_list: list):
        self.spec = spec
        self.layers = layer_list

    def forward(self, features, train: bool = False, rng: RngStream | None = None) -> np.ndarray:
        """Map (n, d) features to (n, l) scores."""
        x = encode_features(features, self.spec.input_encoding)
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, upstream) -> np.ndarray:
        """Backpropagate through every layer, which sets each trainable
        layer's ``grads`` and releases each layer's train-mode cache."""
        for layer in reversed(self.layers):
            upstream = layer.backward(upstream)
        return upstream

    def trainable_layers(self) -> list:
        return [layer for layer in self.layers if layer.PARAMS]

    def param_items(self) -> list:
        """Ordered ("layer.tensor", array) pairs over trainable tensors."""
        return [(f"{layer.name}.{key}", arr)
                for layer in self.layers for key, arr in layer.param_tensors().items()]

    def state_items(self) -> list:
        """Ordered ("layer.tensor", array) pairs over untrained serialized tensors."""
        return [(f"{layer.name}.{key}", arr)
                for layer in self.layers for key, arr in layer.state_tensors().items()]


def _tcn_stack(spec: NetworkSpec, in_channels: int, rng: RngStream | None) -> tuple[list, int]:
    stack: list = []
    channels = in_channels
    for k in range(1, spec.tcn_blocks + 1):
        dilation = 2 ** (k - 1)
        stack += [
            Conv1d.glorot(f"block{k}_conv1", spec.tcn_filters, channels,
                        spec.kernel_width, dilation, rng),
            Relu(f"block{k}_relu1"),
            BatchNorm(f"block{k}_bn1", spec.tcn_filters),
            Conv1d.glorot(f"block{k}_conv2", spec.tcn_filters, spec.tcn_filters,
                        spec.kernel_width, dilation, rng),
            Relu(f"block{k}_relu2"),
            BatchNorm(f"block{k}_bn2", spec.tcn_filters),
            Dropout(f"block{k}_dropout", spec.dropout_p),
        ]
        channels = spec.tcn_filters
    return stack, channels


def _tcn_head(spec: NetworkSpec, channels: int, rng: RngStream | None) -> list:
    # Time-distributed dense first, then the pool, then the output sigmoid.
    return [
        Dense.glorot("head_dense", spec.n_labels, channels, rng),
        MaxPoolTime("pool"),
        Sigmoid("out_sigmoid"),
    ]


def build_network(spec: NetworkSpec, rng: RngStream | None) -> Network:
    """Initialize a network for the spec's topology; identical (spec, rng)
    pairs produce bitwise-identical parameters. ``rng=None`` draws nothing
    and leaves every parameter at zero, for a loader to fill."""
    c_in = spec.input_channels

    if spec.topology == "GRU_A":
        net_layers: list = [
            Gru.glorot("gru", spec.hidden_units, c_in, rng),
            MaxPoolTime("pool"),
            Dense.glorot("out_dense", spec.n_labels, spec.hidden_units, rng),
            Sigmoid("out_sigmoid"),
        ]
    elif spec.topology == "GRU_B":
        net_layers = [
            Conv1d.glorot("pre_conv", spec.pre_conv_filters, c_in, spec.kernel_width, 1, rng),
            BatchNorm("pre_bn", spec.pre_conv_filters),
            Gru.glorot("gru", spec.hidden_units, spec.pre_conv_filters, rng),
            MaxPoolTime("pool"),
            Dense.glorot("out_dense", spec.n_labels, spec.hidden_units, rng),
            Sigmoid("out_sigmoid"),
        ]
    elif spec.topology == "TCN_A":
        stack, channels = _tcn_stack(spec, c_in, rng)
        net_layers = stack + _tcn_head(spec, channels, rng)
    elif spec.topology == "TCN_B":
        pre = Conv1d.glorot("pre_conv", spec.pre_conv_filters, c_in, spec.kernel_width, 1, rng)
        stack, channels = _tcn_stack(spec, spec.pre_conv_filters, rng)
        net_layers = [pre] + stack + _tcn_head(spec, channels, rng)
    elif spec.topology == "GRU_TCN":
        front = [
            Gru.glorot("gru", spec.hidden_units, c_in, rng),
            Dense.glorot("gru_dense", spec.n_labels, spec.hidden_units, rng),
            Sigmoid("gru_sigmoid"),
        ]
        stack, channels = _tcn_stack(spec, spec.n_labels, rng)
        net_layers = front + stack + _tcn_head(spec, channels, rng)
    else:
        raise ValueError(f"unknown topology {spec.topology!r}")

    return Network(spec, net_layers)
