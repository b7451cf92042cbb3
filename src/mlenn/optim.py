"""Adam-family update rules with per-element adaptive step modulation.

Six variants share the same moment machinery:

    m_t = rho1 * m_{t-1} + (1 - rho1) * g_t
    u_t = rho2 * u_{t-1} + (1 - rho2) * g_t^2
    theta <- theta - lr * xi * mhat / (sqrt(uhat) + eps)

with mhat = m_t / (1 - rho1^t), uhat = u_t / (1 - rho2^t). The variants
differ only in the modulation factor xi:

    adam      xi = 1
    diffgrad  xi = Sig(|g_{t-1} - g_t|)
    dgrad     xi = Sig(4 * dhat)             dhat = d / max(d), d = |g - avg|
    cos1      xi = Sig(4 * lr_t * dhat)      lr_t cyclic in (1, 2]
    exp       xi = 1.5 * v / max(v)          v = d * e^(-2 d)
    sto       xi = 1.5 * v / max(v)          v = d * e^(-4 d) * (U + 0.5)

where avg is the bias-corrected moving average of past gradients (decay
rho2, zero before the first step) and U is a fresh uniform draw per
element. A max(.) of zero gives dhat = 0 (dgrad, cos1) or xi = 0 (exp,
sto). The constants are fixed: eps = 1e-8, the cos1 period is 30 steps,
and the bump decays with k = 2 (exp) and k = 4 (sto). Each state governs
exactly one parameter tensor and is mutated only by its own step call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NonFiniteError, RngStream, ShapeError, as_tensor, logistic_in_place

VARIANTS = ("adam", "diffgrad", "dgrad", "cos1", "exp", "sto")
STOCHASTIC_POOL = ("dgrad", "cos1", "exp", "sto")

EPS = 1e-8
COS1_PERIOD = 30
EXP_K = 2.0


@dataclass
class OptimizerState:
    """Moments, step counter and the variant's own memory for one tensor.

    ``prev_grad`` (diffgrad) and ``avg`` (dgrad, cos1, exp, sto) are None
    for the variants that do not read them; ``rng`` is sto's stream.
    """

    variant: str
    m: np.ndarray
    u: np.ndarray
    rho1: float
    rho2: float
    lr: float
    prev_grad: np.ndarray | None = None
    avg: np.ndarray | None = None
    t: int = 0
    rng: RngStream | None = None

    @classmethod
    def create(cls, variant: str, shape, *, rho1: float, rho2: float, lr: float,
               rng: RngStream | None = None) -> "OptimizerState":
        """Zeroed state of ``variant`` for a tensor of ``shape``."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown optimizer variant {variant!r}")
        if variant == "sto" and rng is None:
            raise ValueError("sto variant requires an rng stream")
        shape = tuple(shape)
        return cls(variant, np.zeros(shape), np.zeros(shape), rho1, rho2, lr,
                   prev_grad=np.zeros(shape) if variant == "diffgrad" else None,
                   avg=np.zeros(shape) if variant in STOCHASTIC_POOL else None,
                   rng=rng)


def cyclic_lr(t: int) -> float:
    """Cyclic multiplier in (1, 2] with exact period ``COS1_PERIOD`` over
    the integer step counter."""
    phase = t % COS1_PERIOD
    return 2.0 - abs(math.cos(math.pi * (phase / COS1_PERIOD))) * math.exp(-0.01 * (phase + 1))


def modulation(state: OptimizerState, g: np.ndarray):
    """The factor xi for gradient ``g`` from the state before this step
    (None for adam). Advances the variant's memory: the previous gradient
    for diffgrad, the moving average for the others."""
    variant = state.variant
    if variant == "adam":
        return None
    if variant == "diffgrad":
        xi = logistic_in_place(np.abs(state.prev_grad - g))
        state.prev_grad = g.copy()
        return xi

    if state.t == 0:
        d = np.abs(g)
    else:
        d = np.abs(g - state.avg / (1.0 - state.rho2 ** state.t))
    # x is normalized to peak at 1 and then scaled; the temporaries are
    # updated in place, which gives the same bits as the textbook order.
    if variant in ("dgrad", "cos1"):
        x = d
        scale = 4.0 if variant == "dgrad" else 4.0 * cyclic_lr(state.t + 1)
    elif variant in ("exp", "sto"):
        x = np.exp(-(EXP_K if variant == "exp" else 4.0) * d)
        x *= d
        if variant == "sto":
            x *= state.rng.uniform(size=d.shape) + 0.5
        scale = 1.5
    else:
        raise ValueError(f"unknown optimizer variant {variant!r}")
    mx = x.max()
    if mx > 0.0:
        x /= mx
        x *= scale
    else:
        x = np.zeros_like(x)
    xi = logistic_in_place(x) if variant in ("dgrad", "cos1") else x

    state.avg *= state.rho2
    state.avg += (1.0 - state.rho2) * g
    return xi


def optimizer_step(state: OptimizerState, theta, g) -> np.ndarray:
    """Advance the state by one step and return the updated parameter."""
    theta = as_tensor(theta)
    g = as_tensor(g)
    if theta.shape != g.shape or theta.shape != state.m.shape:
        raise ShapeError(
            f"parameter {theta.shape}, gradient {g.shape} and state {state.m.shape} disagree"
        )
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("gradient contains NaN or infinite entries")

    xi = modulation(state, g)
    state.t += 1
    state.m *= state.rho1
    state.m += (1.0 - state.rho1) * g
    g2 = (1.0 - state.rho2) * g
    g2 *= g
    state.u *= state.rho2
    state.u += g2
    # lr * mhat / (sqrt(uhat) + eps), then * xi
    step = state.m / (1.0 - state.rho1 ** state.t)
    step *= state.lr
    denom = np.sqrt(state.u / (1.0 - state.rho2 ** state.t))
    denom += EPS
    step /= denom
    if xi is not None:
        step *= xi
    return theta - step


def clip_gradients_l2(grads: list, threshold: float) -> list:
    """Scale a network's gradient tensors so their joint L2 norm does not
    exceed ``threshold``; below the threshold the tensors pass through."""
    if threshold <= 0.0:
        raise ValueError(f"clip threshold must be positive, got {threshold}")
    grads = [as_tensor(g) for g in grads]
    total = 0.0
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteError("gradient contains NaN or infinite entries")
        flat = g.ravel()
        total += float(flat @ flat)
    norm = math.sqrt(total)
    if norm <= threshold:
        return grads
    scale = threshold / norm
    return [g * scale for g in grads]
