"""Reference implementations that the vectorised library code must match
bit for bit.

These are the straightforward forms: Lloyd k-means with distances from an
explicit (n, c, d) difference tensor and one boolean mask per center, the
ranking indicators as one Python-level pass per row, the GRU kernels
with their gate weights stacked into fresh arrays on every call and a
full step 0, the eval-mode network forward with every layer's output in
a fresh array, the Adam variants as one modulation function each over a
state that keeps every field, the training loop with one optimizer state
and one step call per parameter tensor, the cross-entropy loss through
``np.clip`` and ``np.sum``, and the dataset and score loaders
as one float() call per field. The library's faster forms promise the
same floats, ties and skipped rows included, so the tests compare with
``==`` rather than a tolerance.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from mlenn.harness import DatasetFormatError, _parse_header
from mlenn.layers import sigmoid
from mlenn.metrics import bce_loss
from mlenn.network import encode_features
from mlenn.numerics import KMeansModel, RngStream, as_tensor
from mlenn.pipeline import Dataset


def bce_loss_reference(y, p, weights=None):
    """``metrics.bce_loss`` written out with ``np.clip`` and ``np.sum``."""
    y = np.asarray(y, dtype=np.float64)
    norm = float(y.shape[0])
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    row_terms = np.sum(y * np.log(pc) + (1.0 - y) * np.log1p(-pc), axis=1)
    grad = -(y / pc - (1.0 - y) / (1.0 - pc)) / norm
    if weights is not None:
        row_terms = row_terms * weights
        grad = grad * weights[:, None]
    return float(-row_terms.sum() / norm), grad


def pairwise_sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, c) squared euclidean distances.
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("ncd,ncd->nc", diff, diff)


def kmeans(x, c: int, rng, max_iter: int = 300) -> KMeansModel:
    """Farthest-point seeding, then Lloyd iteration; an emptied cluster
    takes the point farthest from its own center out of a cluster with at
    least two members."""
    x = as_tensor(x)
    n = x.shape[0]
    if c == n:
        return KMeansModel(x.copy(), np.arange(n), 0.0, (0.0,))

    chosen = [int(rng.integers(n))]
    min_d2 = np.einsum("nd,nd->n", x - x[chosen[0]], x - x[chosen[0]])
    while len(chosen) < c:
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        d2 = np.einsum("nd,nd->n", x - x[nxt], x - x[nxt])
        min_d2 = np.minimum(min_d2, d2)
    centers = x[chosen].copy()

    assignments = np.full(n, -1, dtype=np.int64)
    trace: list[float] = []
    for _ in range(max_iter):
        d2 = pairwise_sq_dists(x, centers)
        new_assignments = np.argmin(d2, axis=1)

        present = np.bincount(new_assignments, minlength=c)
        for j in np.flatnonzero(present == 0):
            own = d2[np.arange(n), new_assignments]
            own[present[new_assignments] < 2] = -np.inf
            thief = int(np.argmax(own))
            new_assignments[thief] = j
            d2[thief, :] = np.inf
            d2[thief, j] = 0.0
            present = np.bincount(new_assignments, minlength=c)

        for j in range(c):
            centers[j] = x[new_assignments == j].mean(axis=0)

        diff = x - centers[new_assignments]
        trace.append(float(np.einsum("nd,nd->", diff, diff)))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments

    return KMeansModel(centers, new_assignments, trace[-1], tuple(trace))


def cluster_label_means(y: np.ndarray, assignments: np.ndarray, c: int) -> np.ndarray:
    t = np.empty((c, y.shape[1]))
    for j in range(c):
        t[j] = y[assignments == j].mean(axis=0)
    return t


def ranking_loss(ps) -> float:
    total = 0.0
    counted = 0
    for i in range(ps.n_samples):
        rel = ps.y[i] == 1.0
        if not rel.any() or rel.all():
            continue
        fr = ps.f[i, rel][:, None]
        fi = ps.f[i, ~rel][None, :]
        bad = np.sum(fr < fi) + 0.5 * np.sum(fr == fi)
        total += bad / (fr.size * fi.size)
        counted += 1
    if counted == 0:
        raise ValueError("ranking_loss is undefined")
    return total / counted


def coverage(ps) -> float:
    total = 0.0
    for i in range(ps.n_samples):
        rel = np.flatnonzero(ps.y[i] == 1.0)
        if rel.size == 0:
            continue
        worst = max(int(np.sum(ps.f[i] >= ps.f[i, j])) for j in rel)
        total += worst - 1
    return total / ps.n_samples


def average_precision(ps) -> float:
    total = 0.0
    counted = 0
    for i in range(ps.n_samples):
        rel = np.flatnonzero(ps.y[i] == 1.0)
        if rel.size == 0:
            continue
        order = np.argsort(-ps.f[i], kind="stable")
        rank = np.empty(ps.n_labels, dtype=np.int64)
        rank[order] = np.arange(1, ps.n_labels + 1)
        rel_ranks = np.sort(rank[rel])
        total += np.mean(np.arange(1, rel_ranks.size + 1) / rel_ranks)
        counted += 1
    if counted == 0:
        raise ValueError("average_precision is undefined")
    return total / counted


@dataclass
class AdamState:
    """Every variant keeps the previous gradient and the moving average."""

    variant: str
    m: np.ndarray
    u: np.ndarray
    prev_grad: np.ndarray
    avg: np.ndarray
    rho1: float
    rho2: float
    lr: float
    t: int = 0
    eps: float = 1e-8
    steps: int = 30
    k_exp: float = 2.0
    rng: RngStream | None = None

    @classmethod
    def create(cls, variant, shape, *, rho1, rho2, lr, rng=None, **fixed):
        z = lambda: np.zeros(tuple(shape))
        return cls(variant, z(), z(), z(), z(), rho1, rho2, lr, rng=rng, **fixed)


def delta_avg_gradient(state: AdamState, g) -> np.ndarray:
    # |g - avg| with avg bias-corrected, zero before any step.
    if state.t == 0:
        corrected = np.zeros_like(state.avg)
    else:
        corrected = state.avg / (1.0 - state.rho2 ** state.t)
    return np.abs(as_tensor(g) - corrected)


def _advance_avg(state: AdamState, g) -> None:
    state.avg = state.rho2 * state.avg + (1.0 - state.rho2) * g


def _normalized_delta(state: AdamState, g) -> np.ndarray:
    d = delta_avg_gradient(state, g)
    mx = d.max()
    return d / mx if mx > 0.0 else np.zeros_like(d)


def cyclic_lr(t: int, steps: int = 30) -> float:
    phase = t % steps
    return 2.0 - abs(math.cos(math.pi * (phase / steps))) * math.exp(-0.01 * (phase + 1))


def dgrad_xi(state: AdamState, g) -> np.ndarray:
    xi = sigmoid(4.0 * _normalized_delta(state, g))
    _advance_avg(state, g)
    return xi


def cos1_xi(state: AdamState, g) -> np.ndarray:
    lr_t = cyclic_lr(state.t + 1, state.steps)
    xi = sigmoid(4.0 * lr_t * _normalized_delta(state, g))
    _advance_avg(state, g)
    return xi


def exp_xi(state: AdamState, g) -> np.ndarray:
    d = delta_avg_gradient(state, g)
    v = d * np.exp(-state.k_exp * d)
    mx = v.max()
    xi = 1.5 * (v / mx) if mx > 0.0 else np.zeros_like(v)
    _advance_avg(state, g)
    return xi


def sto_xi(state: AdamState, g) -> np.ndarray:
    d = delta_avg_gradient(state, g)
    uniform = state.rng.uniform(size=d.shape)
    v = d * np.exp(-4.0 * d) * (uniform + 0.5)
    mx = v.max()
    xi = 1.5 * (v / mx) if mx > 0.0 else np.zeros_like(v)
    _advance_avg(state, g)
    return xi


def optimizer_step(state: AdamState, theta, g) -> np.ndarray:
    theta = as_tensor(theta)
    g = as_tensor(g)
    if state.variant == "adam":
        xi = None
    elif state.variant == "diffgrad":
        xi = sigmoid(np.abs(state.prev_grad - g))
    else:
        xi = {"dgrad": dgrad_xi, "cos1": cos1_xi, "exp": exp_xi, "sto": sto_xi}[state.variant](state, g)
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


def network_forward(net, features) -> np.ndarray:
    """The eval-mode forward of all of ``features`` at once, layer by layer."""
    x = encode_features(features, net.spec.input_encoding)
    for layer in net.layers:
        x = layer.forward(x)
    return x


def gru_forward(layer, x):
    """The recurrence with the gate weights stacked per call and h_0 = 0
    entering step 0 like any other state. Returns (h, hs, gates)."""
    b, t_steps, _ = x.shape
    n = layer.hidden
    w = np.stack((layer.wz.T, layer.wr.T, layer.wh.T))
    gates = np.matmul(x.transpose(1, 0, 2)[:, None], w)
    gates += np.stack((layer.bz, layer.br, layer.bh))[:, None]
    u_zr = np.stack((layer.uz.T, layer.ur.T))
    hs = np.empty((t_steps + 1, b, n))
    hs[0] = 0.0
    proj = np.empty((2, b, n))
    rh = np.empty((b, n))
    with np.errstate(over="ignore"):
        for t in range(t_steps):
            h_prev, h = hs[t], hs[t + 1]
            zr, c = gates[t, :2], gates[t, 2]
            zr += np.matmul(h_prev, u_zr, out=proj)
            np.negative(zr, out=zr)
            np.exp(zr, out=zr)
            zr += 1.0
            np.reciprocal(zr, out=zr)
            np.multiply(zr[1], h_prev, out=rh)
            c += np.matmul(rh, layer.uh.T, out=proj[0])
            np.tanh(c, out=c)
            np.subtract(c, h_prev, out=h)
            h *= zr[0]
            h += h_prev
    return hs[1:].transpose(1, 0, 2), hs, gates


def gru_backward(layer, x, hs, gates, upstream):
    """Backpropagation through time for ``gru_forward`` with stacked
    recurrences and the full dh_prev work at every step. Returns (dx, grads)."""
    b, t_steps, d = x.shape
    n = layer.hidden
    u_zr = np.stack((layer.uz, layer.ur))
    g_all = np.empty((3, t_steps, b, n))
    dh = np.empty((b, n))
    dh_next = np.zeros((b, n))
    d_rh = np.empty((b, n))
    dsig = np.empty((2, b, n))
    proj = np.empty((2, b, n))
    for t in reversed(range(t_steps)):
        h_prev = hs[t]
        zr, z, r, c = gates[t, :2], gates[t, 0], gates[t, 1], gates[t, 2]
        g_zr, g_z, g_r, g_c = g_all[:2, t], g_all[0, t], g_all[1, t], g_all[2, t]
        np.add(upstream[:, t], dh_next, out=dh)
        np.multiply(c, c, out=g_c)
        np.subtract(1.0, g_c, out=g_c)
        g_c *= z
        g_c *= dh
        np.matmul(g_c, layer.uh, out=d_rh)
        np.subtract(c, h_prev, out=g_z)
        g_z *= dh
        np.multiply(d_rh, h_prev, out=g_r)
        np.subtract(1.0, zr, out=dsig)
        dh *= dsig[0]
        dsig *= zr
        g_zr *= dsig
        np.matmul(g_zr, u_zr, out=proj)
        np.add(proj[0], proj[1], out=dh_next)
        dh_next += dh
        d_rh *= r
        dh_next += d_rh
    g = g_all.reshape(3, t_steps * b, n)
    x_rows = x.transpose(1, 0, 2).reshape(t_steps * b, d)
    h_prev = hs[:-1].reshape(t_steps * b, n)
    dw = np.matmul(g.transpose(0, 2, 1), x_rows)
    du = np.matmul(g[:2].transpose(0, 2, 1), h_prev)
    duh = g[2].T @ (gates[:, 1] * hs[:-1]).reshape(t_steps * b, n)
    db = g.sum(axis=1)
    dx = g[0] @ layer.wz
    dx += g[1] @ layer.wr
    dx += g[2] @ layer.wh
    grads = {"wz": dw[0], "uz": du[0], "bz": db[0], "wr": dw[1], "ur": du[1], "br": db[1],
             "wh": dw[2], "uh": duh, "bh": db[2]}
    return np.ascontiguousarray(dx.reshape(t_steps, b, d).transpose(1, 0, 2)), grads


def train_network(net, x, y, cfg, rng: RngStream, optimizer_tags: dict,
                  sample_weights=None) -> list:
    """The training loop with one optimizer state per parameter tensor.

    Tensor ``index`` of ``net.param_items()`` gets its own state of its
    layer's variant, sto drawing from ``rng.child(5000 + index)``. The clip
    sums one dot product per tensor in that order, and each tensor takes
    its own step call. Returns the per-epoch mean losses.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    params = net.param_items()
    states = [AdamState.create(optimizer_tags[key.split(".")[0]], arr.shape, rho1=cfg.rho1,
                               rho2=cfg.rho2, lr=cfg.learning_rate, rng=rng.child(5000 + index))
              for index, (key, arr) in enumerate(params)]
    weights = None if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    n = x.shape[0]
    losses = []
    for _ in range(cfg.resolve_epochs(net.spec.topology)):
        order = rng.permutation(n)
        running = 0.0
        for start in range(0, n, cfg.minibatch):
            idx = order[start:start + cfg.minibatch]
            scores = net.forward(x[idx], train=True, rng=rng)
            loss, d_scores = bce_loss(y[idx], scores,
                                      weights=None if weights is None else weights[idx])
            net.backward(d_scores)
            grads = [layer.grads[key] for layer in net.trainable_layers() for key in layer.PARAMS]
            norm = math.sqrt(sum(float(g.ravel() @ g.ravel()) for g in grads))
            if norm > cfg.clip_threshold:
                grads = [g * (cfg.clip_threshold / norm) for g in grads]
            for (_, arr), state, grad in zip(params, states, grads):
                arr[...] = optimizer_step(state, arr, grad)
            running += loss * len(idx)
        losses.append(running / n)
    return losses


def load_dataset(path) -> Dataset:
    """Parse a dataset file, reporting malformed rows with line numbers."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    n, d, l, sparse = _parse_header(lines[0], path)
    # (file line number, line) for every non-blank line after the header
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != n:
        raise DatasetFormatError(f"{path}: header declares n={n} but found {len(body)} rows")

    x = np.empty((n, d))
    y = np.empty((n, l))
    for i, (lineno, line) in enumerate(body):
        fields = line.split(",")
        if len(fields) != d + l:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {d + l} fields, found {len(fields)}"
            )
        try:
            row = np.asarray([float(v) for v in fields], dtype=np.float64)
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: non-numeric field") from None
        if not np.all(np.isfinite(row[:d])):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite feature value")
        labels = row[d:]
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DatasetFormatError(f"{path}:{lineno}: labels must be 0 or 1")
        x[i] = row[:d]
        y[i] = labels

    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(x, y, name=name, sparse=sparse)


def load_external_scores(path, n: int, l: int) -> np.ndarray:
    """Parse an n-row matrix of l comma-separated reals per line. Scores
    outside [0, 1] are accepted with a warning (external classifiers may
    emit margins)."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        body = [(i, ln) for i, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if len(body) != n:
        raise DatasetFormatError(f"{path}: expected {n} rows of scores, found {len(body)}")
    out = np.empty((n, l))
    for i, (lineno, line) in enumerate(body):
        fields = line.split(",")
        if len(fields) != l:
            raise DatasetFormatError(f"{path}:{lineno}: expected {l} fields, found {len(fields)}")
        try:
            row = np.asarray([float(v) for v in fields], dtype=np.float64)
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: non-numeric score") from None
        if not np.all(np.isfinite(row)):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite score")
        out[i] = row
    if out.size and (out.min() < 0.0 or out.max() > 1.0):
        warnings.warn(f"{path}: scores fall outside [0, 1]; using them as-is")
    return out
