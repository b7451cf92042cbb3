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
and the bump decays with k = 2 (exp) and k = 4 (sto).

A state governs one flat parameter vector, split into consecutive
segments: a layer's tensors, packed end to end, or one tensor alone. All
arithmetic is per element, except the max(.) above, which is taken per
segment, and sto's U, which each segment draws from its own stream. So
one step over a layer's vector gives the bits of one step per tensor. A
step builds its temporaries in a few C-ordered buffers, each updated in
place in the textbook operation order, and a state is mutated only by its
own step call. The step and the clip coerce nothing: arrays are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NonFiniteError, ShapeError, logistic_in_place

VARIANTS = ("adam", "diffgrad", "dgrad", "cos1", "exp", "sto")
STOCHASTIC_POOL = ("dgrad", "cos1", "exp", "sto")

EPS = 1e-8
COS1_PERIOD = 30
EXP_K = 2.0


@dataclass
class OptimizerState:
    """Moments, step counter and the variant's own memory for one
    parameter vector.

    ``sizes`` holds the element count of each segment, in order, and
    ``starts`` their offsets. ``prev_grad`` (diffgrad) and ``avg`` (dgrad,
    cos1, exp, sto) are None for the variants that do not read them, and
    ``streams`` holds sto's streams, one per segment.
    """

    variant: str
    m: np.ndarray
    u: np.ndarray
    rho1: float
    rho2: float
    lr: float
    sizes: tuple
    starts: np.ndarray
    prev_grad: np.ndarray | None = None
    avg: np.ndarray | None = None
    t: int = 0
    streams: tuple = ()

    @classmethod
    def create(cls, variant: str, shape, sizes, *, rho1: float, rho2: float, lr: float,
               streams=None) -> "OptimizerState":
        """Zeroed state of ``variant`` for a vector of ``shape`` whose
        elements, in C order, ``sizes`` splits into segments. sto needs
        ``streams``, one per segment; the other variants draw nothing."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown optimizer variant {variant!r}")
        shape = tuple(shape)
        total = math.prod(shape)
        sizes = tuple(int(n) for n in sizes)
        if sum(sizes) != total or min(sizes) < 1:
            raise ShapeError(f"segment sizes {sizes} do not split {total} elements")
        streams = () if variant != "sto" else tuple(streams or ())
        if variant == "sto" and len(streams) != len(sizes):
            raise ValueError(f"sto needs one stream per segment: {len(streams)} "
                             f"streams for {len(sizes)} segments")
        starts = np.cumsum((0,) + sizes[:-1])
        return cls(variant, np.zeros(shape), np.zeros(shape), rho1, rho2, lr, sizes, starts,
                   prev_grad=np.zeros(shape) if variant == "diffgrad" else None,
                   avg=np.zeros(shape) if variant in STOCHASTIC_POOL else None,
                   streams=streams)


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
        xi = np.subtract(state.prev_grad, g, out=np.empty(g.shape))
        logistic_in_place(np.abs(xi, out=xi))
        state.prev_grad[...] = g
        return xi

    # C order, so that the per-segment division below writes through the
    # flat view whatever the memory order of g.
    d = np.empty(g.shape)
    if state.t == 0:
        np.abs(g, out=d)
    else:
        np.divide(state.avg, 1.0 - state.rho2 ** state.t, out=d)
        np.subtract(g, d, out=d)
        np.abs(d, out=d)
    # x >= 0 is normalized to peak at 1 in each segment and then scaled; a
    # segment whose max is 0 holds only zeros and stays so.
    if variant in ("dgrad", "cos1"):
        x = d
        scale = 4.0 if variant == "dgrad" else 4.0 * cyclic_lr(state.t + 1)
    elif variant in ("exp", "sto"):
        x = np.multiply(d, -(EXP_K if variant == "exp" else 4.0), out=np.empty(d.shape))
        np.exp(x, out=x)
        x *= d
        if variant == "sto":
            draws = [stream.uniform(size=n) for stream, n in zip(state.streams, state.sizes)]
            noise = np.concatenate(draws).reshape(d.shape)
            noise += 0.5
            x *= noise
        scale = 1.5
    else:
        raise ValueError(f"unknown optimizer variant {variant!r}")
    flat = x.reshape(-1)
    tops = np.maximum.reduceat(flat, state.starts)
    for start, n, top in zip(state.starts, state.sizes, tops.tolist()):
        if top > 0.0:
            flat[start:start + n] /= top
    x *= scale
    xi = logistic_in_place(x) if variant in ("dgrad", "cos1") else x

    state.avg *= state.rho2
    state.avg += (1.0 - state.rho2) * g
    return xi


def optimizer_step(state: OptimizerState, theta, g) -> np.ndarray:
    """Advance the state by one step and return the updated parameter."""
    if theta.shape != g.shape or theta.shape != state.m.shape:
        raise ShapeError(
            f"parameter {theta.shape}, gradient {g.shape} and state {state.m.shape} disagree"
        )
    if not np.isfinite(g).all():
        raise NonFiniteError("gradient contains NaN or infinite entries")
    xi = modulation(state, g)
    state.t += 1
    tmp = np.multiply(g, 1.0 - state.rho1, out=np.empty(g.shape))
    state.m *= state.rho1
    state.m += tmp
    np.multiply(g, 1.0 - state.rho2, out=tmp)
    tmp *= g
    state.u *= state.rho2
    state.u += tmp
    # lr * mhat / (sqrt(uhat) + eps), then * xi
    step = np.divide(state.m, 1.0 - state.rho1 ** state.t, out=np.empty(g.shape))
    step *= state.lr
    denom = np.divide(state.u, 1.0 - state.rho2 ** state.t, out=tmp)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    if xi is not None:
        step *= xi
    return np.subtract(theta, step, out=step)


def clip_gradients_l2(grads: list, threshold: float, sizes: list | None = None) -> list:
    """Scale a network's gradient arrays so their joint L2 norm does not
    exceed ``threshold``; below the threshold the arrays pass through.

    The squared norm sums one ``float(t @ t)`` per tensor, in list order.
    An array may pack several tensors end to end, as a layer's gradient
    vector does; ``sizes[i]`` then gives the element counts of the tensors
    in ``grads[i]``. By default each array is one tensor. A NaN or infinite
    entry raises NonFiniteError.
    """
    if threshold <= 0.0:
        raise ValueError(f"clip threshold must be positive, got {threshold}")
    total = 0.0
    for i, g in enumerate(grads):
        flat = g.ravel()
        start = 0
        for n in (flat.size,) if sizes is None else sizes[i]:
            part = flat[start:start + n]
            total += float(part @ part)
            start += n
        if start != flat.size:
            raise ShapeError(f"tensor sizes {sizes[i]} do not split {flat.size} elements")
    # A finite sum proves every entry finite; an infinite one may also come
    # from squares of large finite entries, which clip to zero below.
    if not math.isfinite(total) and not all(np.isfinite(g).all() for g in grads):
        raise NonFiniteError("gradient contains NaN or infinite entries")
    norm = math.sqrt(total)
    if norm <= threshold:
        return grads
    scale = threshold / norm
    return [g * scale for g in grads]
