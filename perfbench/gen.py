"""Seeded input generator for the benchmark workloads.

Writes ``mlkit-dataset v1`` files and aligned external-score files. The
same (shape, seed) pair always gives the same bytes. Labels come from a
linear teacher whose per-label thresholds sit at staggered quantiles, and
every row is forced to carry at least one relevant and one irrelevant
label, so ``ranking_loss`` and ``average_precision`` are defined on every
fold and test split. The files are written here rather than with
``mlenn.save_dataset``, so the inputs do not change with the program
under test.
"""

from __future__ import annotations

import numpy as np

HEADER = "mlkit-dataset v1, n={n}, d={d}, l={l}, sparse={sparse}"


def _mixed_labels(rng: np.random.Generator, x: np.ndarray, l: int,
                  quantiles: np.ndarray) -> np.ndarray:
    w = rng.normal(size=(l, x.shape[1]))
    scores = x @ w.T
    thresholds = np.array([np.quantile(scores[:, j], quantiles[j]) for j in range(l)])
    y = (scores > thresholds).astype(np.int64)
    for i in np.flatnonzero(y.sum(axis=1) == 0):
        y[i, int(np.argmax(scores[i] - thresholds))] = 1
    for i in np.flatnonzero(y.sum(axis=1) == l):
        y[i, int(np.argmin(scores[i] - thresholds))] = 0
    return y


def yeast_like(seed: int, n: int, d: int = 103, l: int = 14):
    """Dense real features; label cardinality around 4 of 14, as in yeast."""
    rng = np.random.default_rng([seed, 1])
    x = rng.normal(size=(n, d)) * 0.1
    y = _mixed_labels(rng, x, l, np.linspace(0.45, 0.9, l))
    return x, y


def scene_like(seed: int, n: int, d: int = 294, l: int = 6, rank: int = 24,
               noise: float = 0.02):
    """Features in [0, 1] built as low rank plus noise, so a 99% PCA drops
    most of the d dimensions; label cardinality just above 1, as in scene."""
    rng = np.random.default_rng([seed, 2])
    latent = rng.normal(size=(n, rank))
    basis = rng.normal(size=(rank, d)) / np.sqrt(rank)
    x = latent @ basis + noise * rng.normal(size=(n, d))
    x = (x - x.min(axis=0)) / (x.max(axis=0) - x.min(axis=0))
    y = _mixed_labels(rng, latent, l, np.full(l, 0.8))
    return x, y


def external_scores(seed: int, y: np.ndarray) -> np.ndarray:
    """Scores in [0, 1] that agree with the labels more often than not."""
    rng = np.random.default_rng([seed, 3])
    return np.clip(0.25 + 0.5 * y + 0.2 * rng.normal(size=y.shape), 0.0, 1.0)


def _rows(matrix: np.ndarray, fmt: str) -> list:
    return [",".join(fmt % v for v in row) for row in matrix.tolist()]


def write_dataset(path: str, x: np.ndarray, y: np.ndarray, sparse: bool) -> None:
    n, d = x.shape
    head = HEADER.format(n=n, d=d, l=y.shape[1], sparse=int(sparse))
    lines = [f"{feats},{labels}" for feats, labels in zip(_rows(x, "%.6f"), _rows(y, "%d"))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([head] + lines) + "\n")


def write_scores(path: str, scores: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_rows(scores, "%.6f")) + "\n")
