"""The sequence-network layers, one class per layer.

Each layer class owns its parameter tensors, the gradients of its last
backward pass and the cache that backward consumes. A layer with
parameters keeps them end to end in one flat vector, ``param_vector``, and
each tensor attribute is a view into it; its gradients live the same way
in ``grad_vector``, with ``grads`` mapping each tensor's name to its view.
So an optimizer can update a whole layer with one call. The arithmetic
lives in module-level kernels with one contract. A forward kernel returns
``(out, cache)``; only ``relu`` and ``sigmoid`` return ``out`` alone, and
their layers cache the input or the output. A backward kernel takes the
layer (when it has parameters), the cache and the upstream gradient, and
returns the input gradient as one array; the parametric backwards (GRU,
convolution, batchnorm, dense) also write exact reverse-mode gradients of
every parameter tensor into a fresh ``grad_vector``. So each ``_backward``
is one kernel call. Sequences are batched as (batch, time, channels).

The GRU kernels keep the three gates (z | r | c) along one axis and their
sequences time-major: the input projections of every step come from one
batched matmul call before the recurrence, written into a (T, 3, B, N)
buffer that each step then overwrites with its activations. The gate
gradients go into a gate-major (3, T, B, N) buffer, from which the weight
gradients and the input gradient are built by matmuls over all T*B rows
after the loop. Only the recurrent matmuls run once per step, and step 0,
which starts from h_0 = 0, runs none.

The convolution never builds a zero-padded copy of its input. Its taps
are stacked into one wide kernel matrix, so each block of whole sequences
is one 2-D GEMM into a reused buffer no larger than an activation; each
tap's columns are then added into the output shifted by the tap's dilated
offset, and the steps a shift moves outside the sequence are simply not
added. Train-mode batchnorm works on the (B*T, C) rows with two buffers:
the centred rows, scaled in place into the cached xhat, and the output.
Its backward takes the two sums the input gradient needs from dgamma and
dbeta. The pointwise backward kernels and dropout scale the one buffer
they allocate in place. No kernel writes into its input, its upstream
gradient or its cache.

Cache rule: a layer stores a cache only on a train-mode forward, and
backward drops it once used; backward without a cache raises
:class:`CacheError`. An eval-mode forward leaves nothing behind: the
eval-mode batchnorm cache is ``None``, and its backward kernel has only
the train-mode formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, ShapeError, as_tensor, logistic_in_place


class CacheError(RuntimeError):
    """backward was called on a layer that holds no train-mode forward cache."""


class Layer:
    """A named layer. ``PARAMS`` and ``STATE`` name the trained and the
    serialized-but-untrained tensor attributes, in model-format order.
    Subclasses implement ``_forward`` (returning output and cache) and
    ``_backward`` (returning the input gradient and setting ``grads``).

    A layer with ``PARAMS`` owns one contiguous float64 ``param_vector``
    that holds its parameter tensors end to end in ``PARAMS`` order, and
    each ``PARAMS`` attribute is a view into it: writing a tensor in place
    (a model load) writes the vector, and writing the vector (an optimizer
    step) updates every tensor. ``spans`` lists (name, start, stop, shape)
    of each tensor. The constructors copy the tensors they are given into
    the vector.
    """

    PARAMS: tuple = ()
    STATE: tuple = ()

    def __init__(self, name: str):
        self.name = name
        self.grads: dict = {}
        self.cache = None

    def _own_params(self, *tensors) -> None:
        """Copy ``tensors``, given in ``PARAMS`` order, into a new
        ``param_vector`` and bind each attribute to its view."""
        tensors = [as_tensor(t) for t in tensors]
        self.param_vector = np.empty(sum(t.size for t in tensors))
        self.spans = []
        start = 0
        for key, tensor in zip(self.PARAMS, tensors, strict=True):
            self.spans.append((key, start, start + tensor.size, tensor.shape))
            view = self.param_vector[start:start + tensor.size].reshape(tensor.shape)
            view[...] = tensor
            setattr(self, key, view)
            start += tensor.size

    def _new_grads(self) -> dict:
        """Allocate a fresh ``grad_vector`` laid out like ``param_vector``
        and return ``grads``, the per-tensor views a backward kernel fills."""
        self.grad_vector = np.empty(self.param_vector.size)
        self.grads = {key: self.grad_vector[start:stop].reshape(shape)
                      for key, start, stop, shape in self.spans}
        return self.grads

    def param_tensors(self) -> dict:
        return {key: getattr(self, key) for key in self.PARAMS}

    def state_tensors(self) -> dict:
        return {key: getattr(self, key) for key in self.STATE}

    def forward(self, x, train: bool = False, rng: RngStream | None = None):
        out, cache = self._forward(x, train, rng)
        self.cache = cache if train else None
        return out

    def backward(self, upstream):
        if self.cache is None:
            raise CacheError(f"layer {self.name!r}: backward needs a train-mode forward first")
        cache, self.cache = self.cache, None
        return self._backward(cache, upstream)


def glorot_uniform(shape: tuple, rng: RngStream | None) -> np.ndarray:
    """Glorot-uniform init; fan counts follow the trailing two axes. With
    ``rng=None`` the tensor is left undrawn, as zeros, for a caller that
    overwrites it (a model load)."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 3:  # conv kernels (filters, channels, width)
        fan_out = shape[0] * shape[2]
        fan_in = shape[1] * shape[2]
    else:
        raise ShapeError(f"no fan convention for shape {shape}")
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniform(size=shape) * 2.0 - 1.0) * limit


# ---------------------------------------------------------------------------
# Pointwise kernels
# ---------------------------------------------------------------------------

def sigmoid(x) -> np.ndarray:
    """Logistic function 1 / (1 + e^-x), overflow-safe on both tails."""
    x = as_tensor(x)
    t = np.exp(-np.abs(x))
    d = 1.0 + t
    return np.where(x >= 0, 1.0 / d, t / d)


def sigmoid_backward(y: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Input gradient given the forward output ``y``."""
    return upstream * y * (1.0 - y)


def relu(x) -> np.ndarray:
    return np.maximum(as_tensor(x), 0.0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    # Subgradient 0 at the kink. The 0/1 mask is written as float64 into the
    # result buffer and scaled in place: bitwise upstream * (x > 0).
    dx = np.greater(x, 0.0, out=np.empty(np.shape(x)))
    dx *= upstream
    return dx


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
    mask = rng.uniform(size=x.shape) >= p
    # Inverted dropout: survivors are scaled so evaluation needs no rescale.
    out = np.multiply(x, mask)
    out /= 1.0 - p
    return out, mask


def dropout_backward(mask: np.ndarray | None, p: float, upstream: np.ndarray) -> np.ndarray:
    if mask is None:
        return upstream
    dx = np.multiply(upstream, mask)
    dx /= 1.0 - p
    return dx


class Relu(Layer):
    def _forward(self, x, train, rng):
        x = as_tensor(x)
        return relu(x), x

    def _backward(self, cache, upstream):
        return relu_backward(cache, upstream)


class Sigmoid(Layer):
    def _forward(self, x, train, rng):
        y = sigmoid(x)
        return y, y

    def _backward(self, cache, upstream):
        return sigmoid_backward(cache, upstream)


class Dropout(Layer):
    def __init__(self, name: str, p: float):
        super().__init__(name)
        self.p = p

    def _forward(self, x, train, rng):
        out, mask = dropout(x, self.p, rng, train)
        # Wrapped because the mask of a p = 0 train-mode pass is None.
        return out, (mask,)

    def _backward(self, cache, upstream):
        return dropout_backward(cache[0], self.p, upstream)


# ---------------------------------------------------------------------------
# Gated recurrent unit
# ---------------------------------------------------------------------------

@dataclass
class GruCache:
    x: np.ndarray       # (B, T, D) input
    hs: np.ndarray      # (T+1, B, N) states, time-major; hs[0] is the zero h_0
    gates: np.ndarray   # (T, 3, B, N) activations z | r | c, time-major


class Gru(Layer):
    """Recurrent unit of n hidden units over d input channels, started from
    a zero state h_0 = 0.

    Update gate: z_t = sigmoid(wz x_t + uz h_{t-1} + bz)
    Reset gate:  r_t = sigmoid(wr x_t + ur h_{t-1} + br)
    Candidate:   c_t = tanh(wh x_t + uh (r_t * h_{t-1}) + bh)
    State:       h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    The nine tensors are serialized separately, in ``PARAMS`` order. That
    order makes the parameter vector gate-major: as a (3, N*D + N*N + N)
    array its rows hold (w, u, b) of z, r and c. So the kernels read the
    input weights [wz; wr; wh], the recurrences [uz; ur; uh] and the
    biases [bz; br; bh] as strided views (``gate_views``), and write the
    gradients the same way. Inside the kernels sequences are time-major,
    so that the rows one step reads or writes are contiguous.
    """

    PARAMS = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")

    def __init__(self, name: str, wz, uz, bz, wr, ur, br, wh, uh, bh):
        super().__init__(name)
        self._own_params(wz, uz, bz, wr, ur, br, wh, uh, bh)
        self.gate_params = self.gate_views(self.param_vector)

    def gate_views(self, vector: np.ndarray) -> tuple:
        """The (3, N, D) input weights, (3, N, N) recurrences and (3, N)
        biases of a vector laid out like ``param_vector``, gates in
        z | r | c order, as views."""
        n, d = self.bz.shape[0], self.wz.shape[1]
        rows = vector.reshape(3, -1)
        return (rows[:, :n * d].reshape(3, n, d), rows[:, n * d:n * (d + n)].reshape(3, n, n),
                rows[:, n * (d + n):])

    @classmethod
    def glorot(cls, name: str, hidden: int, channels: int, rng: RngStream) -> "Gru":
        """Glorot-uniform weights, zero biases, drawn in PARAMS order."""
        tensors = []
        for key in cls.PARAMS:
            if key[0] == "b":
                tensors.append(np.zeros(hidden))
            else:
                fan_in = channels if key[0] == "w" else hidden
                tensors.append(glorot_uniform((hidden, fan_in), rng))
        return cls(name, *tensors)

    @property
    def hidden(self) -> int:
        return self.bz.shape[0]

    @property
    def channels(self) -> int:
        return self.wz.shape[1]

    def _forward(self, x, train, rng):
        return gru_forward(self, x)

    def _backward(self, cache, upstream):
        return gru_backward(self, cache, upstream)


def gru_forward(layer: Gru, x):
    """Run the recurrence over the full sequence.

    The input projections of all T steps are computed before the loop, in
    one batched matmul call, into a (T, 3, B, N) buffer. Step t then adds
    h_{t-1} [uz; ur]^T to its z | r block, a contiguous (2, B, N) slab,
    applies the logistic 1 / (1 + e^-a) in place, adds
    (r_t * h_{t-1}) uh^T to its candidate block and applies tanh in place,
    so the buffer ends up holding z | r | c. States are written into a
    (T+1, B, N) buffer whose first step is the zero h_0. Step 0 skips both
    recurrent matmuls, whose input is h_0 = 0, and sets h_1 = z_1 * c_1.

    Returns the hidden-state sequence, a (B, T, N) view of that buffer, and
    the cache needed by :func:`gru_backward`.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"gru_forward expects (B, T, C) input, got shape {x.shape}")
    b, t_steps, d = x.shape
    n = layer.hidden
    if layer.channels != d:
        raise ShapeError(f"input has {d} channels but the layer expects {layer.channels}")

    w, u, bias = layer.gate_params
    gates = np.matmul(x.transpose(1, 0, 2)[:, None], w.transpose(0, 2, 1))
    gates += bias[:, None]
    u_zr = u[:2].transpose(0, 2, 1)
    uh = u[2].T
    hs = np.empty((t_steps + 1, b, n))
    hs[0] = 0.0
    proj = np.empty((2, b, n))
    rh = np.empty((b, n))
    # exp(-a) overflows to inf for a < -709, and 1 / (1 + inf) is the exact limit 0.
    with np.errstate(over="ignore"):
        logistic_in_place(gates[0, :2])
        np.tanh(gates[0, 2], out=gates[0, 2])
        np.multiply(gates[0, 2], gates[0, 0], out=hs[1])
        for t in range(1, t_steps):
            h_prev, h = hs[t], hs[t + 1]
            zr, c = gates[t, :2], gates[t, 2]
            zr += np.matmul(h_prev, u_zr, out=proj)
            logistic_in_place(zr)
            np.multiply(zr[1], h_prev, out=rh)
            c += np.matmul(rh, uh, out=proj[0])
            np.tanh(c, out=c)
            # h_t = h_{t-1} + z_t * (c_t - h_{t-1})
            np.subtract(c, h_prev, out=h)
            h *= zr[0]
            h += h_prev
    return hs[1:].transpose(1, 0, 2), GruCache(x, hs, gates)


def gru_backward(layer: Gru, cache: GruCache, upstream) -> np.ndarray:
    """Full backpropagation through time for the recurrence in gru_forward.

    The loop carries dL/dh_t back one step at a time, with two matmuls per
    step (dac uh and [daz; dar] [uz; ur]), and writes the pre-activation
    gradients daz | dar | dac of every step into a gate-major (3, T, B, N)
    buffer G. After the loop the weight gradients are batched matmuls over
    the T*B rows of G: d[wz; wr; wh] = G^T X, d[uz; ur] = G_zr^T H_prev and
    duh = G_c^T (r * H_prev), each written into its view of the layer's
    gradient vector. dx is the sum of the three per-gate matmuls
    G_z wz + G_r wr + G_c wh, and db = the row sums. At t = 0, where
    h_0 = 0, the step computes no dh_prev, which nothing reads, and sets
    dar = 0; at T = 1 the recurrent gradients are zero without a matmul.
    """
    upstream = as_tensor(upstream)
    x, hs, gates = cache.x, cache.hs, cache.gates
    b, t_steps, d = x.shape
    n = layer.hidden
    if upstream.shape != (b, t_steps, n):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match output {(b, t_steps, n)}"
        )
    w, u, _ = layer.gate_params
    u_zr = u[:2]
    g_all = np.empty((3, t_steps, b, n))
    dh = np.empty((b, n))
    dh_next = np.zeros((b, n))
    d_rh = np.empty((b, n))
    dsig = np.empty((2, b, n))
    proj = np.empty((2, b, n))
    for t in range(t_steps - 1, 0, -1):
        h_prev = hs[t]
        zr, z, r, c = gates[t, :2], gates[t, 0], gates[t, 1], gates[t, 2]
        g_zr, g_z, g_r, g_c = g_all[:2, t], g_all[0, t], g_all[1, t], g_all[2, t]
        np.add(upstream[:, t], dh_next, out=dh)
        # dac = dh * z * (1 - c^2)
        np.multiply(c, c, out=g_c)
        np.subtract(1.0, g_c, out=g_c)
        g_c *= z
        g_c *= dh
        np.matmul(g_c, layer.uh, out=d_rh)
        # [daz; dar] = [dh * (c - h_prev); d_rh * h_prev] * s * (1 - s), s = [z; r]
        np.subtract(c, h_prev, out=g_z)
        g_z *= dh
        np.multiply(d_rh, h_prev, out=g_r)
        np.subtract(1.0, zr, out=dsig)
        dh *= dsig[0]
        dsig *= zr
        g_zr *= dsig
        # dh_prev = dh * (1 - z) + d_rh * r + daz uz + dar ur
        np.matmul(g_zr, u_zr, out=proj)
        np.add(proj[0], proj[1], out=dh_next)
        dh_next += dh
        d_rh *= r
        dh_next += d_rh
    # Step 0, the same arithmetic with h_prev = h_0 = 0.
    z, c = gates[0, 0], gates[0, 2]
    g_z, g_c = g_all[0, 0], g_all[2, 0]
    np.add(upstream[:, 0], dh_next, out=dh)
    np.multiply(c, c, out=g_c)
    np.subtract(1.0, g_c, out=g_c)
    g_c *= z
    g_c *= dh
    np.multiply(c, dh, out=g_z)
    np.subtract(1.0, z, out=dsig[0])
    dsig[0] *= z
    g_z *= dsig[0]
    g_all[1, 0] = 0.0

    g = g_all.reshape(3, t_steps * b, n)
    x_rows = x.transpose(1, 0, 2).reshape(t_steps * b, d)
    layer._new_grads()
    dw, du, db = layer.gate_views(layer.grad_vector)
    np.matmul(g.transpose(0, 2, 1), x_rows, out=dw)
    if t_steps == 1:
        du[...] = 0.0
    else:
        np.matmul(g[:2].transpose(0, 2, 1), hs[:-1].reshape(t_steps * b, n), out=du[:2])
        np.matmul(g[2].T, (gates[:, 1] * hs[:-1]).reshape(t_steps * b, n), out=du[2])
    np.add.reduce(g, axis=1, out=db)
    dx = g[0] @ w[0]
    dx += g[1] @ w[1]
    dx += g[2] @ w[2]
    return np.ascontiguousarray(dx.reshape(t_steps, b, d).transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# Dilated 1-D convolution, zero-padded to preserve sequence length
# ---------------------------------------------------------------------------

class Conv1d(Layer):
    """Convolution bank: kernels (filters, in_channels, width), per-filter
    bias, dilation factor. Steps outside the sequence read as zeros, d*(W-1)/2
    on each side, so the output keeps its length; width W must be odd."""

    PARAMS = ("kernels", "bias")

    def __init__(self, name: str, kernels, bias, dilation: int = 1):
        if kernels.shape[2] % 2 == 0:
            raise ShapeError("kernel width must be odd so the output keeps the input length")
        if dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {dilation}")
        super().__init__(name)
        self._own_params(kernels, bias)
        self.dilation = dilation

    @classmethod
    def glorot(cls, name: str, filters: int, in_channels: int, width: int,
               dilation: int, rng: RngStream) -> "Conv1d":
        kernels = glorot_uniform((filters, in_channels, width), rng)
        return cls(name, kernels, np.zeros(filters), dilation)

    def _forward(self, x, train, rng):
        return conv1d_forward(self, x)

    def _backward(self, cache, upstream):
        return conv1d_backward(self, cache, upstream)


def _taps(layer: Conv1d, t_steps: int) -> list:
    """(k, s) for every tap k whose time shift s = d*(k - mid) leaves part
    of the sequence (|s| < T), the centre tap (s = 0) first."""
    width = layer.kernels.shape[2]
    mid = width // 2
    side = [(k, layer.dilation * (k - mid)) for k in range(width) if k != mid]
    return [(mid, 0)] + [(k, s) for k, s in side if abs(s) < t_steps]


def _block_size(b: int, n_taps: int) -> int:
    """Sequences per block, B // n_taps (one at least), so that a
    (rows, n_taps * width) block is no larger than a (B*T, width) activation."""
    return max(1, b // n_taps)


def _overlap(s: int, t_steps: int) -> tuple:
    """Time slices (at, src) pairing each step t with t + s, for the t with
    both inside the sequence."""
    if s >= 0:
        return slice(0, t_steps - s), slice(s, t_steps)
    return slice(-s, t_steps), slice(0, t_steps + s)


def conv1d_forward(layer: Conv1d, x):
    """y[b,t,f] = bias[f] + sum_{c,k} kernels[f,c,k] * x[b, t + d*(k - mid), c]
    with zeros outside the sequence; output length equals input length.

    The taps with shift s = d*(k - mid), |s| < T, are stacked into one
    (C, taps*F) matrix; taps with |s| >= T touch no step and are left out.
    The unpadded input runs through it in blocks of whole sequences, one
    GEMM per block into one reused (rows, taps*F) buffer that is no larger
    than the output. The centre tap's columns plus the bias start the
    output block, and each side tap's columns, shifted by s in time, are
    added into it. The cache is the input itself.
    """
    x = np.ascontiguousarray(as_tensor(x))
    if x.ndim != 3:
        raise ShapeError(f"conv1d_forward expects (B, T, C) input, got {x.shape}")
    filters, in_channels, width = layer.kernels.shape
    if x.shape[2] != in_channels:
        raise ShapeError(f"input has {x.shape[2]} channels, kernels expect {in_channels}")
    b, t_steps, _ = x.shape
    taps = _taps(layer, t_steps)
    n = len(taps)
    kept = [k for k, _ in taps]
    stacked = layer.kernels[:, :, kept].transpose(1, 2, 0).reshape(in_channels, n * filters)
    step = _block_size(b, n)
    # The output is allocated before the scratch buffer, so that the buffer
    # is freed at the top of the heap; in the other order the yeast_tcn
    # benchmark's peak RSS read ~6 MB higher, with no more live memory.
    y = np.empty((b, t_steps, filters))
    buf = np.empty((step * t_steps, n * filters))
    for start in range(0, b, step):
        x_rows = x[start:start + step].reshape(-1, in_channels)
        parts = np.matmul(x_rows, stacked, out=buf[:len(x_rows)]).reshape(-1, t_steps, n, filters)
        y_blk = y[start:start + step]
        np.add(parts[:, :, 0], layer.bias, out=y_blk)
        for j in range(1, n):
            at, src = _overlap(taps[j][1], t_steps)
            y_blk[:, at] += parts[:, src, j]
    return y, x


def conv1d_backward(layer: Conv1d, x: np.ndarray, upstream) -> np.ndarray:
    """Exact gradients of :func:`conv1d_forward`.

    The kernels of the taps that touch the sequence are stacked into one
    (F, taps*C) matrix. Per block of whole sequences, with u the (rows, F)
    upstream rows, one reused (rows, taps*C) buffer first holds the input
    shifted by each tap's s, zero-filled where t + s leaves the sequence,
    and u.T @ buffer adds the block's share of every tap's kernel gradient.
    Then it holds u @ stacked, and each tap's columns, shifted by -s in
    time, are summed into the input gradient. Taps that touch no step get a
    zero kernel gradient.
    """
    upstream = as_tensor(upstream)
    filters, in_channels, width = layer.kernels.shape
    b, t_steps, _ = x.shape
    if upstream.shape != (b, t_steps, filters):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match output {(b, t_steps, filters)}"
        )
    u = upstream.reshape(b * t_steps, filters)
    u_seq = u.reshape(b, t_steps, filters)
    taps = _taps(layer, t_steps)
    n = len(taps)
    kept = [k for k, _ in taps]
    stacked = layer.kernels[:, :, kept].transpose(0, 2, 1).reshape(filters, n * in_channels)
    dx = np.empty_like(x)  # before the scratch buffer, as in conv1d_forward
    d_stacked = np.zeros((filters, n * in_channels))
    step = _block_size(b, n)
    buf = np.empty((step * t_steps, n * in_channels))
    for start in range(0, b, step):
        x_blk = x[start:start + step]
        rows = buf[:x_blk.shape[0] * t_steps]
        parts = rows.reshape(-1, t_steps, n, in_channels)
        for j, (_, s) in enumerate(taps):
            # parts[:, t, j] = x[:, t + s], zero where t + s falls outside
            at, src = _overlap(s, t_steps)
            parts[:, at, j] = x_blk[:, src]
            parts[:, :at.start, j] = 0.0
            parts[:, at.stop:, j] = 0.0
        u_blk = u_seq[start:start + step].reshape(-1, filters)
        d_stacked += u_blk.T @ rows
        np.matmul(u_blk, stacked, out=rows)
        dx_blk = dx[start:start + step]
        dx_blk[...] = parts[:, :, 0]
        for j in range(1, n):
            at, src = _overlap(taps[j][1], t_steps)
            dx_blk[:, src] += parts[:, at, j]
    grads = layer._new_grads()
    if n < width:
        grads["kernels"][...] = 0.0
    grads["kernels"][:, :, kept] = d_stacked.reshape(filters, n, in_channels).transpose(0, 2, 1)
    np.add.reduce(u, axis=0, out=grads["bias"])
    return dx


# ---------------------------------------------------------------------------
# Batch normalization over (batch, time) per channel
# ---------------------------------------------------------------------------

class BatchNorm(Layer):
    """Per-channel affine normalization with running statistics, which are
    serialized but not trained."""

    PARAMS = ("gamma", "beta")
    STATE = ("running_mean", "running_var")
    momentum = 0.1
    eps = 1e-5

    def __init__(self, name: str, channels: int):
        super().__init__(name)
        self._own_params(np.ones(channels), np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def _forward(self, x, train, rng):
        return batchnorm_forward(self, x, train)

    def _backward(self, cache, upstream):
        return batchnorm_backward(self, cache, upstream)


def batchnorm_forward(layer: BatchNorm, x, train: bool):
    """Standardize each channel over batch and time.

    Train mode uses batch statistics (biased variance) and folds them into
    the running estimates with the layer's momentum. It works on the
    (B*T, C) rows with two buffers: the centred rows, which are scaled in
    place into xhat, and the output, which first holds their squares, whose
    column means are the variance. The cache is the pair (xhat, inv_std).
    A single position per channel has variance 0, so xhat = 0 and y = beta,
    with eps keeping inv_std finite.
    Eval mode applies the running estimates in one buffer and returns no
    cache, as it has no backward.
    """
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[2] != layer.gamma.shape[0]:
        raise ShapeError(
            f"batchnorm expects (B, T, {layer.gamma.shape[0]}) input, got {x.shape}"
        )
    rows = x.reshape(-1, x.shape[2])
    if not train:
        y = rows - layer.running_mean
        y *= 1.0 / np.sqrt(layer.running_var + layer.eps)
        y *= layer.gamma
        y += layer.beta
        return y.reshape(x.shape), None
    n = rows.shape[0]
    mean = rows.mean(axis=0)
    xhat = rows - mean
    y = np.multiply(xhat, xhat)
    var = y.sum(axis=0) / n
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    layer.running_mean[:] = (1.0 - layer.momentum) * layer.running_mean + layer.momentum * mean
    layer.running_var[:] = (1.0 - layer.momentum) * layer.running_var + layer.momentum * var
    xhat *= inv_std
    np.multiply(xhat, layer.gamma, out=y)
    y += layer.beta
    return y.reshape(x.shape), (xhat.reshape(x.shape), inv_std)


def batchnorm_backward(layer: BatchNorm, cache: tuple, upstream) -> np.ndarray:
    """Exact gradients of a train-mode :func:`batchnorm_forward` over the
    (B*T, C) rows.

    dgamma = sum(u * xhat) and dbeta = sum(u), per channel. The two sums
    the input gradient needs are these, scaled: sum(dxhat) = gamma * dbeta
    and sum(dxhat * xhat) = gamma * dgamma, so
    dx = gamma * inv_std / n * (n * u - dbeta - xhat * dgamma), computed as
    gamma * inv_std * (u - dbeta / n - xhat * dgamma / n) in the buffer
    that held u * xhat.
    """
    xhat, inv_std = cache
    upstream = as_tensor(upstream)
    if upstream.shape != xhat.shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match output {xhat.shape}"
        )
    channels = upstream.shape[2]
    u = upstream.reshape(-1, channels)
    xhat = xhat.reshape(-1, channels)
    n = u.shape[0]
    grads = layer._new_grads()
    dgamma, dbeta = grads["gamma"], grads["beta"]
    np.add.reduce(u, axis=0, out=dbeta)
    dx = np.multiply(u, xhat)
    np.add.reduce(dx, axis=0, out=dgamma)
    np.multiply(xhat, dgamma / -n, out=dx)
    dx -= dbeta / n
    dx += u
    dx *= layer.gamma * inv_std
    return dx.reshape(upstream.shape)


# ---------------------------------------------------------------------------
# Max pooling over the time axis
# ---------------------------------------------------------------------------

class MaxPoolTime(Layer):
    def _forward(self, x, train, rng):
        return maxpool_time(x)

    def _backward(self, cache, upstream):
        return maxpool_time_backward(cache, upstream)


def maxpool_time(x):
    """Collapse the time axis by per-channel max; returns (B, C) plus the
    cache: the argmax indices (first maximal index on ties) and the input
    shape.

    At T = 1 the output is the one step itself, a view, with zero indices.
    Otherwise the maxima are gathered with one flat index into x's memory,
    laid out (B, T, C) or, for the GRU's states, time-major (T, B, C).
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"maxpool_time expects (B, T, C) input, got {x.shape}")
    b, t_steps, c = x.shape
    if t_steps == 1:
        return x[:, 0], (np.zeros((b, c), dtype=np.intp), x.shape)
    idx = x.argmax(axis=1)
    time_major = x.transpose(1, 0, 2)
    if time_major.flags.c_contiguous:
        return time_major.reshape(-1)[_flat_index(idx, b * c, c)], (idx, x.shape)
    flat = _flat_index(idx, c, t_steps * c)
    return np.ascontiguousarray(x).reshape(-1)[flat], (idx, x.shape)


def maxpool_time_backward(cache, upstream) -> np.ndarray:
    """Route each upstream entry to its argmax step, through one flat
    index into the (B, T, C) result; at T = 1, a copy of upstream."""
    idx, shape = cache
    upstream = as_tensor(upstream)
    b, t_steps, c = shape
    if upstream.shape != (b, c):
        raise ShapeError(f"upstream shape {upstream.shape} does not match pooled {(b, c)}")
    if t_steps == 1:
        return upstream[:, None, :].copy()
    dx = np.zeros(b * t_steps * c)
    dx[_flat_index(idx, c, t_steps * c)] = upstream
    return dx.reshape(shape)


def _flat_index(idx: np.ndarray, t_stride: int, b_stride: int) -> np.ndarray:
    """Flat position of element (b, idx[b, c], c) in memory whose time,
    batch and channel strides are t_stride, b_stride and 1 elements."""
    b, c = idx.shape
    flat = idx * t_stride
    flat += np.arange(0, b * b_stride, b_stride)[:, None]
    flat += np.arange(c)
    return flat


# ---------------------------------------------------------------------------
# Dense layer (time-distributed on 3-D input)
# ---------------------------------------------------------------------------

class Dense(Layer):
    """Affine map; applied per time step when the input is a sequence."""

    PARAMS = ("weights", "bias")

    def __init__(self, name: str, weights, bias):
        super().__init__(name)
        self._own_params(weights, bias)

    @classmethod
    def glorot(cls, name: str, out_dim: int, in_dim: int, rng: RngStream) -> "Dense":
        return cls(name, glorot_uniform((out_dim, in_dim), rng), np.zeros(out_dim))

    def _forward(self, x, train, rng):
        return dense_forward(self, x)

    def _backward(self, cache, upstream):
        return dense_backward(self, cache, upstream)


def dense_forward(layer: Dense, x):
    """Affine map y = x W^T + b applied per position; 3-D input shares the
    same weights at every time step. The cache is the input."""
    x = as_tensor(x)
    if x.shape[-1] != layer.weights.shape[1]:
        raise ShapeError(
            f"dense input has {x.shape[-1]} features, weights expect {layer.weights.shape[1]}"
        )
    return x @ layer.weights.T + layer.bias, x


def dense_backward(layer: Dense, x: np.ndarray, upstream) -> np.ndarray:
    """Exact gradients of :func:`dense_forward`; 3-D input is flattened to
    (B*T, features) so both weight reductions are 2-D BLAS calls."""
    weights = layer.weights
    upstream = as_tensor(upstream)
    if x.ndim not in (2, 3):
        raise ShapeError(f"dense_backward supports 2-D or 3-D input, got {x.ndim}-D")
    if upstream.shape != x.shape[:-1] + (weights.shape[0],):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match input {x.shape}"
        )
    u = upstream.reshape(-1, weights.shape[0])
    grads = layer._new_grads()
    np.matmul(u.T, x.reshape(-1, x.shape[-1]), out=grads["weights"])
    np.add.reduce(u, axis=0, out=grads["bias"])
    return (u @ weights).reshape(x.shape)
