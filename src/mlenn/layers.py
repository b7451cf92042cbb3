"""Forward and reverse-mode kernels for the sequence-network layers.

All kernels operate on batched sequences shaped (batch, time, channels)
and come in pairs: ``*_forward`` returns the output plus a cache, and the
matching ``*_backward`` consumes that cache together with the upstream
gradient to produce exact reverse-mode gradients for every parameter
tensor and for the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, ShapeError, as_tensor


def sigmoid(x) -> np.ndarray:
    """Logistic function 1 / (1 + e^-x), overflow-safe on both tails."""
    x = as_tensor(x)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid_backward(y: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Input gradient given the forward output ``y``."""
    return upstream * y * (1.0 - y)


def relu(x) -> np.ndarray:
    return np.maximum(as_tensor(x), 0.0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    # Subgradient 0 at the kink.
    return upstream * (x > 0.0)


def dropout_mask(shape, p: float, rng: RngStream) -> np.ndarray:
    """Keep-mask with drop probability ``p``."""
    return rng.uniform(size=shape) >= p


def dropout_apply(x: np.ndarray, mask: np.ndarray, p: float) -> np.ndarray:
    # Inverted dropout: survivors are scaled so evaluation needs no rescale.
    return x * mask / (1.0 - p)


def dropout(x, p: float, rng: RngStream | None, train: bool):
    """Randomly zero elements with probability ``p`` during training.

    Returns (output, mask); evaluation mode is an exact identity with a
    ``None`` mask.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    x = as_tensor(x)
    if not train or p == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout requires an rng stream")
    mask = dropout_mask(x.shape, p, rng)
    return dropout_apply(x, mask, p), mask


def dropout_backward(mask: np.ndarray | None, p: float, upstream: np.ndarray) -> np.ndarray:
    if mask is None:
        return upstream
    return upstream * mask / (1.0 - p)


@dataclass
class LayerGradients:
    """Per-parameter gradients (shape-matched, keyed by field name) plus the
    gradient with respect to the layer input."""

    params: dict
    x: np.ndarray
    h0: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Gated recurrent unit
# ---------------------------------------------------------------------------

@dataclass
class GruParams:
    """Recurrent-unit parameters for n hidden units over d input channels.

    Update gate: z_t = sigmoid(wz x_t + uz h_{t-1} + bz)
    Reset gate:  r_t = sigmoid(wr x_t + ur h_{t-1} + br)
    Candidate:   c_t = tanh(wh x_t + uh (r_t * h_{t-1}) + bh)
    State:       h_t = (1 - z_t) * h_{t-1} + z_t * c_t
    """

    wz: np.ndarray
    uz: np.ndarray
    bz: np.ndarray
    wr: np.ndarray
    ur: np.ndarray
    br: np.ndarray
    wh: np.ndarray
    uh: np.ndarray
    bh: np.ndarray

    NAMES = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")

    @classmethod
    def glorot(cls, hidden: int, channels: int, rng: RngStream) -> "GruParams":
        """Glorot-uniform weights, zero biases, drawn in field order."""
        fields = {}
        for name in cls.NAMES:
            if name.startswith("w"):
                fields[name] = glorot_uniform((hidden, channels), rng)
            elif name.startswith("u"):
                fields[name] = glorot_uniform((hidden, hidden), rng)
            else:
                fields[name] = np.zeros(hidden)
        return cls(**fields)

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in self.NAMES}

    @property
    def hidden(self) -> int:
        return self.bz.shape[0]

    @property
    def channels(self) -> int:
        return self.wz.shape[1]


def glorot_uniform(shape: tuple, rng: RngStream) -> np.ndarray:
    """Glorot-uniform init; fan counts follow the trailing two axes."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 3:  # conv kernels (filters, channels, width)
        fan_out = shape[0] * shape[2]
        fan_in = shape[1] * shape[2]
    else:
        raise ShapeError(f"no fan convention for shape {shape}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniform(size=shape) * 2.0 - 1.0) * limit


@dataclass
class GruCache:
    x: np.ndarray       # (B, T, D)
    h0: np.ndarray      # (B, N)
    h: np.ndarray       # (B, T, N)
    z: np.ndarray
    r: np.ndarray
    hcand: np.ndarray


def gru_forward(params: GruParams, x, h0=None):
    """Run the recurrence over the full sequence.

    Returns the hidden-state sequence (B, T, N) and the cache needed by
    :func:`gru_backward`. ``h0`` defaults to zeros.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"gru_forward expects (B, T, C) input, got shape {x.shape}")
    b, t_steps, d = x.shape
    n = params.hidden
    if params.channels != d:
        raise ShapeError(f"input has {d} channels but params expect {params.channels}")
    h0 = np.zeros((b, n)) if h0 is None else as_tensor(h0)
    if h0.shape != (b, n):
        raise ShapeError(f"h0 must be ({b}, {n}), got {h0.shape}")

    h = np.empty((b, t_steps, n))
    z = np.empty((b, t_steps, n))
    r = np.empty((b, t_steps, n))
    hcand = np.empty((b, t_steps, n))
    h_prev = h0
    for t in range(t_steps):
        xt = x[:, t, :]
        z_t = sigmoid(xt @ params.wz.T + h_prev @ params.uz.T + params.bz)
        r_t = sigmoid(xt @ params.wr.T + h_prev @ params.ur.T + params.br)
        c_t = np.tanh(xt @ params.wh.T + (r_t * h_prev) @ params.uh.T + params.bh)
        h_prev = (1.0 - z_t) * h_prev + z_t * c_t
        z[:, t], r[:, t], hcand[:, t], h[:, t] = z_t, r_t, c_t, h_prev
    return h, GruCache(x, h0, h, z, r, hcand)


def gru_backward(params: GruParams, cache: GruCache, upstream) -> LayerGradients:
    """Full backpropagation through time for the recurrence in gru_forward."""
    upstream = as_tensor(upstream)
    if upstream.shape != cache.h.shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match output {cache.h.shape}"
        )
    b, t_steps, _ = cache.x.shape
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors().items()}
    dx = np.empty_like(cache.x)
    dh_next = np.zeros_like(cache.h0)

    for t in reversed(range(t_steps)):
        xt = cache.x[:, t, :]
        h_prev = cache.h0 if t == 0 else cache.h[:, t - 1]
        z_t, r_t, c_t = cache.z[:, t], cache.r[:, t], cache.hcand[:, t]

        dh = upstream[:, t] + dh_next
        dz = dh * (c_t - h_prev)
        dc = dh * z_t
        dh_prev = dh * (1.0 - z_t)

        dac = dc * (1.0 - c_t * c_t)
        grads["wh"] += dac.T @ xt
        grads["uh"] += dac.T @ (r_t * h_prev)
        grads["bh"] += dac.sum(axis=0)
        d_rh = dac @ params.uh
        dr = d_rh * h_prev
        dh_prev += d_rh * r_t

        daz = dz * z_t * (1.0 - z_t)
        dar = dr * r_t * (1.0 - r_t)
        grads["wz"] += daz.T @ xt
        grads["uz"] += daz.T @ h_prev
        grads["bz"] += daz.sum(axis=0)
        grads["wr"] += dar.T @ xt
        grads["ur"] += dar.T @ h_prev
        grads["br"] += dar.sum(axis=0)

        dh_prev += daz @ params.uz + dar @ params.ur
        dx[:, t] = daz @ params.wz + dar @ params.wr + dac @ params.wh
        dh_next = dh_prev

    return LayerGradients(grads, dx, h0=dh_next)


# ---------------------------------------------------------------------------
# Dilated 1-D convolution, zero-padded to preserve sequence length
# ---------------------------------------------------------------------------

@dataclass
class ConvParams:
    """Convolution bank: kernels (filters, in_channels, width), per-filter
    bias, dilation factor. Width must be odd so 'same' padding is symmetric.
    """

    kernels: np.ndarray
    bias: np.ndarray
    dilation: int = 1
    padding: str = "same"

    def __post_init__(self):
        if self.padding != "same":
            raise ValueError(f"only 'same' padding is supported, got {self.padding!r}")
        if self.kernels.shape[2] % 2 == 0:
            raise ShapeError("kernel width must be odd for symmetric same padding")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")

    @classmethod
    def glorot(cls, filters: int, in_channels: int, width: int,
               dilation: int, rng: RngStream) -> "ConvParams":
        kernels = glorot_uniform((filters, in_channels, width), rng)
        return cls(kernels, np.zeros(filters), dilation)

    def tensors(self) -> dict:
        return {"kernels": self.kernels, "bias": self.bias}


@dataclass
class ConvCache:
    x_padded: np.ndarray
    t_steps: int
    pad: int


def conv1d_forward(params: ConvParams, x):
    """y[b,t,f] = bias[f] + sum_{c,k} kernels[f,c,k] * x[b, t + d*(k - mid), c]
    with zeros outside the sequence; output length equals input length.

    Lowered to one 2-D GEMM per tap over the flattened (B*T) axis: the
    tap-k window of the padded input, reshaped to (B*T, C), is multiplied
    by kernels[:, :, k].T and accumulated into a (B*T, F) output. No
    (B*T, W*C) im2col matrix is built; the cache keeps only the padded
    input.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"conv1d_forward expects (B, T, C) input, got {x.shape}")
    filters, in_channels, width = params.kernels.shape
    if x.shape[2] != in_channels:
        raise ShapeError(f"input has {x.shape[2]} channels, kernels expect {in_channels}")
    b, t_steps, _ = x.shape
    pad = params.dilation * (width - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    y = np.tile(params.bias, (b * t_steps, 1))
    for k in range(width):
        start = k * params.dilation
        y += xp[:, start:start + t_steps].reshape(-1, in_channels) @ params.kernels[:, :, k].T
    return y.reshape(b, t_steps, filters), ConvCache(xp, t_steps, pad)


def conv1d_backward(params: ConvParams, cache: ConvCache, upstream) -> LayerGradients:
    """Exact gradients of :func:`conv1d_forward`.

    With u = upstream reshaped to (B*T, F) and seg_k the tap-k window of
    the padded input reshaped to (B*T, C), each tap costs two 2-D GEMMs:
    dkernels[:, :, k] = u.T @ seg_k, and u @ kernels[:, :, k] is added
    into the tap-k window of the padded input gradient.
    """
    upstream = as_tensor(upstream)
    filters, in_channels, width = params.kernels.shape
    b = cache.x_padded.shape[0]
    t_steps, pad = cache.t_steps, cache.pad
    if upstream.shape != (b, t_steps, filters):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match output {(b, t_steps, filters)}"
        )
    u = upstream.reshape(b * t_steps, filters)
    dkernels = np.empty_like(params.kernels)
    dxp = np.zeros_like(cache.x_padded)
    for k in range(width):
        start = k * params.dilation
        # The window copy is a temporary so that it is freed before u @ kernels
        # is allocated: both are (B*T, C), and holding both raises peak memory.
        dkernels[:, :, k] = u.T @ cache.x_padded[:, start:start + t_steps].reshape(
            -1, in_channels)
        dxp[:, start:start + t_steps] += (u @ params.kernels[:, :, k]).reshape(
            b, t_steps, in_channels)
    dbias = u.sum(axis=0)
    # A contiguous copy releases the padded buffer and lets the layer below
    # reshape the gradient without copying it again.
    dx = np.ascontiguousarray(dxp[:, pad:pad + t_steps])
    return LayerGradients({"kernels": dkernels, "bias": dbias}, dx)


# ---------------------------------------------------------------------------
# Batch normalization over (batch, time) per channel
# ---------------------------------------------------------------------------

@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> "BatchNormParams":
        return cls(np.ones(channels), np.zeros(channels),
                   np.zeros(channels), np.ones(channels), momentum, eps)

    def tensors(self) -> dict:
        return {"gamma": self.gamma, "beta": self.beta}


@dataclass
class BnCache:
    xhat: np.ndarray
    inv_std: np.ndarray
    train: bool


def batchnorm_forward(params: BatchNormParams, x, train: bool):
    """Standardize each channel over batch and time.

    Train mode uses batch statistics (biased variance) and folds them into
    the running estimates with the configured momentum; eval mode applies
    the running estimates.
    """
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[2] != params.gamma.shape[0]:
        raise ShapeError(
            f"batchnorm expects (B, T, {params.gamma.shape[0]}) input, got {x.shape}"
        )
    if train:
        b, t_steps, _ = x.shape
        if b * t_steps < 2:
            raise ShapeError("train-mode batchnorm needs at least 2 positions per channel")
        mean = x.mean(axis=(0, 1))
        var = x.var(axis=(0, 1))
        inv_std = 1.0 / np.sqrt(var + params.eps)
        xhat = (x - mean) * inv_std
        params.running_mean[:] = (1.0 - params.momentum) * params.running_mean + params.momentum * mean
        params.running_var[:] = (1.0 - params.momentum) * params.running_var + params.momentum * var
    else:
        inv_std = 1.0 / np.sqrt(params.running_var + params.eps)
        xhat = (x - params.running_mean) * inv_std
    return params.gamma * xhat + params.beta, BnCache(xhat, inv_std, train)


def batchnorm_backward(params: BatchNormParams, cache: BnCache, upstream) -> LayerGradients:
    """Exact gradients of :func:`batchnorm_forward`; the per-channel
    reductions run over the (B*T, C) view of the activations."""
    upstream = as_tensor(upstream)
    if upstream.shape != cache.xhat.shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match output {cache.xhat.shape}"
        )
    channels = upstream.shape[2]
    u = upstream.reshape(-1, channels)
    xhat = cache.xhat.reshape(-1, channels)
    dgamma = (u * xhat).sum(axis=0)
    dbeta = u.sum(axis=0)
    dxhat = u * params.gamma
    if cache.train:
        n = u.shape[0]
        dx = (cache.inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )
    else:
        dx = dxhat * cache.inv_std
    return LayerGradients({"gamma": dgamma, "beta": dbeta}, dx.reshape(upstream.shape))


# ---------------------------------------------------------------------------
# Max pooling over the time axis
# ---------------------------------------------------------------------------

def maxpool_time(x):
    """Collapse the time axis by per-channel max; returns (B, C) plus the
    argmax cache (first maximal index on ties)."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"maxpool_time expects (B, T, C) input, got {x.shape}")
    idx = x.argmax(axis=1)
    pooled = np.take_along_axis(x, idx[:, None, :], axis=1)[:, 0, :]
    return pooled, (idx, x.shape)


def maxpool_time_backward(cache, upstream) -> np.ndarray:
    idx, shape = cache
    upstream = as_tensor(upstream)
    if upstream.shape != (shape[0], shape[2]):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match pooled {(shape[0], shape[2])}"
        )
    dx = np.zeros(shape)
    np.put_along_axis(dx, idx[:, None, :], upstream[:, None, :], axis=1)
    return dx


# ---------------------------------------------------------------------------
# Dense layer (time-distributed on 3-D input)
# ---------------------------------------------------------------------------

def dense_forward(weights, bias, x):
    """Affine map y = x W^T + b applied per position; 3-D input shares the
    same weights at every time step."""
    weights = as_tensor(weights)
    bias = as_tensor(bias)
    x = as_tensor(x)
    if x.shape[-1] != weights.shape[1]:
        raise ShapeError(
            f"dense input has {x.shape[-1]} features, weights expect {weights.shape[1]}"
        )
    return x @ weights.T + bias, x


def dense_backward(weights, cache_x, upstream) -> LayerGradients:
    """Exact gradients of :func:`dense_forward`; 3-D input is flattened to
    (B*T, features) so both weight reductions are 2-D BLAS calls."""
    weights = as_tensor(weights)
    upstream = as_tensor(upstream)
    x = cache_x
    if x.ndim not in (2, 3):
        raise ShapeError(f"dense_backward supports 2-D or 3-D input, got {x.ndim}-D")
    if upstream.shape != x.shape[:-1] + (weights.shape[0],):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match input {x.shape}"
        )
    u = upstream.reshape(-1, weights.shape[0])
    dw = u.T @ x.reshape(-1, x.shape[-1])
    db = u.sum(axis=0)
    dx = (u @ weights).reshape(x.shape)
    return LayerGradients({"weights": dw, "bias": db}, dx)
