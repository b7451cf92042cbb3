"""Minibatch training with per-layer optimizer variants.

Each trainable layer carries one optimizer variant; every parameter
tensor inside the layer gets its own state of that variant. A training
step is: forward, cross-entropy loss, backward, joint L2 gradient clip,
then one optimizer step per tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import bce_loss
from .network import GRU_FAMILY, Network
from .numerics import RngStream
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

    ``epochs=None`` resolves per topology family: 150 for recurrent
    topologies, 100 for convolutional ones.
    """

    learning_rate: float = 0.01
    rho1: float = 0.5
    rho2: float = 0.999
    clip_threshold: float = 1.0
    minibatch: int = 30
    epochs: int | None = None

    def __post_init__(self):
        if self.learning_rate <= 0 or self.clip_threshold <= 0 or self.minibatch < 1:
            raise ValueError("learning_rate, clip_threshold and minibatch must be positive")
        if not (0 < self.rho1 < 1 and 0 < self.rho2 < 1):
            raise ValueError("decay factors must lie in (0, 1)")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    def resolve_epochs(self, topology: str) -> int:
        if self.epochs is not None:
            return self.epochs
        return 150 if topology in GRU_FAMILY else 100


def assign_optimizers_stochastic(net: Network, rng: RngStream) -> dict:
    """Draw one variant per trainable layer, uniformly from the stochastic
    pool (dgrad, cos1, exp, sto)."""
    tags = {}
    for layer in net.trainable_layers():
        tags[layer.name] = STOCHASTIC_POOL[int(rng.integers(len(STOCHASTIC_POOL)))]
    return tags


def assign_optimizers_fixed(net: Network, variant: str) -> dict:
    if variant not in VARIANTS:
        raise ValueError(f"unknown optimizer variant {variant!r}")
    return {layer.name: variant for layer in net.trainable_layers()}


def make_optimizer_states(net: Network, tags: dict, cfg: TrainConfig,
                          rng: RngStream) -> dict:
    """One state per parameter tensor, keyed like Network.param_items()."""
    states = {}
    index = 0
    for layer in net.trainable_layers():
        variant = tags[layer.name]
        for tname, arr in layer.param_tensors().items():
            state_rng = rng.child(5000 + index) if variant == "sto" else None
            states[f"{layer.name}.{tname}"] = OptimizerState.create(
                variant, arr.shape, rho1=cfg.rho1, rho2=cfg.rho2,
                lr=cfg.learning_rate, rng=state_rng,
            )
            index += 1
    return states


def train_network(net: Network, x, y, cfg: TrainConfig, rng: RngStream,
                  optimizer_tags: dict | None = None,
                  sample_weights=None) -> list:
    """Train in place and return the per-epoch mean losses.

    Minibatches are drawn by reshuffling every epoch from ``rng``; the same
    stream also feeds the dropout masks, so a (network, data, config, rng)
    quadruple fully determines the trajectory.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    tags = optimizer_tags if optimizer_tags is not None else assign_optimizers_fixed(net, "adam")
    states = make_optimizer_states(net, tags, cfg, rng)
    weights = None if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)

    # Parameters are updated in place, so the (key, tensor) list holds for the run.
    params = net.param_items()
    trainable = net.trainable_layers()
    epochs = cfg.resolve_epochs(net.spec.topology)
    n = x.shape[0]
    epoch_losses: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        running = 0.0
        for batch_index, start in enumerate(range(0, n, cfg.minibatch)):
            idx = order[start:start + cfg.minibatch]
            wb = None if weights is None else weights[idx]
            scores = net.forward(x[idx], train=True, rng=rng)
            loss, d_scores = bce_loss(y[idx], scores, weights=wb, normalizer=len(idx))
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, batch_index)
            net.backward(d_scores)

            grads = [layer.grads[key] for layer in trainable for key in layer.PARAMS]
            clipped = clip_gradients_l2(grads, cfg.clip_threshold)
            for (key, arr), grad in zip(params, clipped):
                arr[...] = optimizer_step(states[key], arr, grad)
            running += loss * len(idx)
        epoch_losses.append(running / n)
    return epoch_losses
