"""Minibatch training with per-layer optimizer variants.

Each trainable layer trains with one optimizer variant, its entry in the
network's ``optimizer_tags``, and one state of it over the layer's flat
parameter vector with one segment per tensor. A training step is: forward,
cross-entropy loss, backward (which leaves one gradient vector per layer),
joint L2 gradient clip, then one optimizer step per layer, which updates
the layer's parameter vector in place. A ``train_network`` call is one
``layers.reused_buffers`` scope: each GRU allocates its buffers on the
first minibatch and overwrites them on every later one, and on return or
raise the scope releases every layer's buffers, cache and gradients, so a
trained network holds no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import reused_buffers
from .metrics import bce_loss
from .network import GRU_FAMILY, Network
from .numerics import ConfigError, RngStream
from .optim import STOCHASTIC_POOL, VARIANTS, OptimizerState, clip_gradients_l2, optimizer_step


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; carries epoch and batch index."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol: high learning rate, heavy clipping, small batches.

    This class is the one home of the protocol defaults; ``RunConfig`` and
    the CLI flags inherit them. ``epochs=None`` resolves per topology
    family: 150 for recurrent topologies, 100 for convolutional ones.
    ``members`` networks are trained per topology, and ``optimizer`` is
    ``"stochastic"`` (one variant drawn per layer per member) or the name
    of a fixed variant.
    """

    learning_rate: float = 0.01
    rho1: float = 0.5
    rho2: float = 0.999
    clip_threshold: float = 1.0
    minibatch: int = 30
    epochs: int | None = None
    members: int = 10
    optimizer: str = "stochastic"

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError("field learning_rate: must be positive")
        for name in ("rho1", "rho2"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"field {name}: decay factors must lie in (0, 1)")
        if not self.clip_threshold > 0:
            raise ConfigError("field clip_threshold: must be positive")
        if self.minibatch < 1:
            raise ConfigError("field minibatch: must be >= 1")
        if self.epochs is not None and self.epochs < 0:
            raise ConfigError("field epochs: must be >= 0")
        if self.members < 1:
            raise ConfigError("field members: must be >= 1")
        if self.optimizer != "stochastic" and self.optimizer not in VARIANTS:
            raise ConfigError(f"field optimizer: {self.optimizer!r} is not "
                              f"'stochastic' or one of {VARIANTS}")

    def resolve_epochs(self, topology: str) -> int:
        if self.epochs is not None:
            return self.epochs
        return 150 if topology in GRU_FAMILY else 100


def assign_optimizers(net: Network, policy: str, rng: RngStream) -> dict:
    """One variant per trainable layer. The ``"stochastic"`` policy draws
    each layer's variant from ``rng``, uniformly from the stochastic pool
    (dgrad, cos1, exp, sto); a fixed variant name draws nothing."""
    if policy == "stochastic":
        return {layer.name: STOCHASTIC_POOL[int(rng.integers(len(STOCHASTIC_POOL)))]
                for layer in net.trainable_layers()}
    if policy not in VARIANTS:
        raise ValueError(f"unknown optimizer variant {policy!r}")
    return {layer.name: policy for layer in net.trainable_layers()}


def make_optimizer_states(net: Network, cfg: TrainConfig, rng: RngStream) -> list:
    """One state of its ``net.optimizer_tags`` variant per trainable layer,
    in ``net.trainable_layers()`` order, over the layer's parameter vector
    with one segment per tensor in ``PARAMS`` order. A layer without a tag
    raises ``ValueError``: ``assign_optimizers`` gives the tags.

    sto draws the tensor at position ``index`` of ``Network.param_items()``
    from ``rng.child(5000 + index)``.
    """
    states = []
    index = 0
    for layer in net.trainable_layers():
        variant = net.optimizer_tags.get(layer.name)
        if variant is None:
            raise ValueError(f"trainable layer {layer.name!r} has no optimizer tag; "
                             "assign_optimizers fills net.optimizer_tags")
        sizes = [arr.size for arr in layer.param_tensors().values()]
        streams = ([rng.child(5000 + index + i) for i in range(len(sizes))]
                   if variant == "sto" else None)
        states.append(OptimizerState.create(
            variant, layer.param_vector.shape, sizes, rho1=cfg.rho1, rho2=cfg.rho2,
            lr=cfg.learning_rate, streams=streams,
        ))
        index += len(sizes)
    return states


def train_network(net: Network, x, y, cfg: TrainConfig, rng: RngStream, *,
                  sample_weights=None) -> list:
    """Train in place with each layer's ``net.optimizer_tags`` variant and
    return the per-epoch mean losses.

    Minibatches are drawn by reshuffling every epoch from ``rng``; the same
    stream also feeds the dropout masks, so a (network with its tags, data,
    config, rng) tuple fully determines the trajectory. The call's
    ``reused_buffers`` scope releases every layer's training buffers and
    gradients when it returns or raises.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    trainable = net.trainable_layers()
    states = make_optimizer_states(net, cfg, rng)
    sizes = [state.sizes for state in states]
    weights = None if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)

    n = x.shape[0]
    epoch_losses: list[float] = []
    with reused_buffers(net.layers):
        for epoch in range(cfg.resolve_epochs(net.spec.topology)):
            order = rng.permutation(n)
            running = 0.0
            for batch_index, start in enumerate(range(0, n, cfg.minibatch)):
                idx = order[start:start + cfg.minibatch]
                wb = None if weights is None else weights[idx]
                scores = net.forward(x[idx], train=True, rng=rng)
                loss, d_scores = bce_loss(y[idx], scores, weights=wb)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, batch_index)
                net.backward(d_scores)

                grads = [layer.grad_vector for layer in trainable]
                clipped = clip_gradients_l2(grads, cfg.clip_threshold, sizes)
                for layer, state, grad in zip(trainable, states, clipped):
                    layer.param_vector[...] = optimizer_step(state, layer.param_vector, grad)
                running += loss * len(idx)
            epoch_losses.append(running / n)
    return epoch_losses
