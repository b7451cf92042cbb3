"""Reference implementations that the vectorised library code must match
bit for bit.

These are the straightforward forms: Lloyd k-means with distances from an
explicit (n, c, d) difference tensor and one boolean mask per center, the
ranking indicators as one Python-level pass per row, and the Adam variants
as one modulation function each over a state that keeps every field, and
the dataset and score loaders as one float() call per field. The
library's faster forms promise the same floats, ties and skipped rows
included, so the tests compare with ``==`` rather than a tolerance.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from mlenn.harness import DatasetFormatError, _parse_header
from mlenn.layers import sigmoid
from mlenn.numerics import KMeansModel, RngStream, as_tensor
from mlenn.pipeline import Dataset


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
