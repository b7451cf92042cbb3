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
    exp       xi = 1.5 * v / max(v)          v = d * e^(-k d)
    sto       xi = 1.5 * v / max(v)          v = d * e^(-4 d) * (U + 0.5)

where avg is a bias-corrected moving average of past gradients and U is a
fresh uniform draw per element. Each state governs exactly one parameter
tensor and is mutated only by its own step call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import sigmoid
from .numerics import NonFiniteError, RngStream, ShapeError, as_tensor

VARIANTS = ("adam", "diffgrad", "dgrad", "cos1", "exp", "sto")
STOCHASTIC_POOL = ("dgrad", "cos1", "exp", "sto")


@dataclass
class OptimizerState:
    """Moment and bookkeeping state for one parameter tensor.

    ``avg`` accumulates the gradient moving average that drives the
    dgrad/cos1/exp/sto modulation. The hyperparameter defaults are Adam's
    textbook values; training passes the protocol's rho1, rho2 and lr.
    """

    variant: str
    m: np.ndarray
    u: np.ndarray
    prev_grad: np.ndarray
    avg: np.ndarray
    t: int = 0
    rho1: float = 0.9
    rho2: float = 0.999
    lr: float = 0.01
    eps: float = 1e-8
    steps: int = 30
    k_exp: float = 2.0
    rng: RngStream | None = None

    @classmethod
    def create(cls, variant: str, shape, *, rng: RngStream | None = None,
               **hyper) -> "OptimizerState":
        """Zeroed state for a tensor of ``shape``; ``hyper`` overrides the
        field defaults (rho1, rho2, lr, eps, steps, k_exp)."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown optimizer variant {variant!r}")
        if variant == "sto" and rng is None:
            raise ValueError("sto variant requires an rng stream")
        shape = tuple(shape)
        zeros = lambda: np.zeros(shape)
        return cls(variant, zeros(), zeros(), zeros(), zeros(), rng=rng, **hyper)


def _corrected_avg(state: OptimizerState) -> np.ndarray:
    # Bias-corrected average of the gradients seen so far (zero before any).
    if state.t == 0:
        return np.zeros_like(state.avg)
    return state.avg / (1.0 - state.rho2 ** state.t)


def _advance_avg(state: OptimizerState, g: np.ndarray) -> None:
    state.avg = state.rho2 * state.avg + (1.0 - state.rho2) * g


def delta_avg_gradient(state: OptimizerState, g) -> np.ndarray:
    """|g - avg|: element-wise distance of the incoming gradient from its
    moving average (does not mutate the state)."""
    return np.abs(as_tensor(g) - _corrected_avg(state))


def _normalized_delta(state: OptimizerState, g: np.ndarray) -> np.ndarray:
    d = delta_avg_gradient(state, g)
    mx = d.max()
    return d / mx if mx > 0.0 else np.zeros_like(d)


def dgrad_xi(state: OptimizerState, g) -> np.ndarray:
    """Modulation from the max-normalized gradient-to-average distance;
    advances the moving average. Values lie in [Sig(0), Sig(4)]."""
    g = as_tensor(g)
    xi = sigmoid(4.0 * _normalized_delta(state, g))
    _advance_avg(state, g)
    return xi


def cyclic_lr(t: int, steps: int = 30) -> float:
    """Cyclic multiplier in (1, 2] with exact period ``steps`` over the
    integer step counter."""
    phase = t % steps
    return 2.0 - abs(math.cos(math.pi * (phase / steps))) * math.exp(-0.01 * (phase + 1))


def cos1_xi(state: OptimizerState, g) -> np.ndarray:
    """dgrad modulation scaled by the cyclic multiplier for the upcoming
    step; advances the moving average."""
    g = as_tensor(g)
    lr_t = cyclic_lr(state.t + 1, state.steps)
    xi = sigmoid(4.0 * lr_t * _normalized_delta(state, g))
    _advance_avg(state, g)
    return xi


def exp_xi(state: OptimizerState, g) -> np.ndarray:
    """Bump-shaped modulation d * e^(-k d), self-normalized to peak at 1.5;
    advances the moving average. All-zero distances yield an all-zero xi."""
    g = as_tensor(g)
    d = delta_avg_gradient(state, g)
    v = d * np.exp(-state.k_exp * d)
    mx = v.max()
    # Normalize before scaling so the peak lands on 1.5 exactly.
    xi = 1.5 * (v / mx) if mx > 0.0 else np.zeros_like(v)
    _advance_avg(state, g)
    return xi


def sto_xi(state: OptimizerState, g, uniform=None) -> np.ndarray:
    """Exp-style modulation (k = 4) jittered per element by a U(0.5, 1.5)
    multiplier; advances the moving average. ``uniform`` overrides the
    random draw for testing."""
    g = as_tensor(g)
    d = delta_avg_gradient(state, g)
    if uniform is None:
        if state.rng is None:
            raise ValueError("sto variant requires an rng stream")
        uniform = state.rng.uniform(size=d.shape)
    v = d * np.exp(-4.0 * d) * (uniform + 0.5)
    mx = v.max()
    xi = 1.5 * (v / mx) if mx > 0.0 else np.zeros_like(v)
    _advance_avg(state, g)
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

    if state.variant == "adam":
        xi = None
    elif state.variant == "diffgrad":
        xi = sigmoid(np.abs(state.prev_grad - g))
    elif state.variant == "dgrad":
        xi = dgrad_xi(state, g)
    elif state.variant == "cos1":
        xi = cos1_xi(state, g)
    elif state.variant == "exp":
        xi = exp_xi(state, g)
    elif state.variant == "sto":
        xi = sto_xi(state, g)
    else:
        raise ValueError(f"unknown optimizer variant {state.variant!r}")

    state.t += 1
    state.m = state.rho1 * state.m + (1.0 - state.rho1) * g
    state.u = state.rho2 * state.u + (1.0 - state.rho2) * g * g
    m_hat = state.m / (1.0 - state.rho1 ** state.t)
    u_hat = state.u / (1.0 - state.rho2 ** state.t)
    step = state.lr * m_hat / (np.sqrt(u_hat) + state.eps)
    if xi is not None:
        step = step * xi
    state.prev_grad = g.copy()
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
