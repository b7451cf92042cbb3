"""Synthetic multilabel tasks shared by the training and acceptance suites,
and ``save_dataset``, which writes them as dataset files.

All tasks share one construction: a linear teacher scores each sample,
per-label thresholds sit at staggered quantiles of the score, and samples
too close to any threshold are rejected, so the clean problem is linearly
separable with an explicit margin (expressed in score-standard-deviations).
"""

import numpy as np

from mlenn.harness import HEADER_MAGIC


def save_dataset(ds, path) -> None:
    """Write a Dataset in the file format ``mlenn.load_dataset`` reads, each
    feature as its shortest round-tripping repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{HEADER_MAGIC}, n={ds.n_samples}, d={ds.n_features}, "
                 f"l={ds.n_labels}, sparse={1 if ds.sparse else 0}\n")
        for xi, yi in zip(ds.x, ds.y):
            feats = ",".join(repr(float(v)) for v in xi)
            labels = ",".join(str(int(v)) for v in yi)
            fh.write(f"{feats},{labels}\n")


def separable_task(seed: int, n: int = 200, d: int = 10, l: int = 3):
    """Noise-free task with wide margins (thresholds nearly coincide, so the
    surviving rows form two well-separated groups). Returns (x, y)."""
    x, y, _ = _teacher_task(seed, n, d, l, span=(0.55, 0.45), margin_sigma=0.5)
    return x, y


def banded_task(seed: int, n: int, d: int, l: int):
    """Task with spread-out thresholds and small margins: rows carry mixed
    prefix labels, so every ranking indicator is well defined."""
    x, y, _ = _teacher_task(seed, n, d, l, span=(0.80, 0.20), margin_sigma=0.08)
    return x, y


def noisy_teacher_task(seed: int, n: int = 500, d: int = 20, l: int = 5,
                       noisy_rows: float = 0.10):
    """Mixed-label task where a fraction of rows carry one flipped label.

    Returns (x, y, teacher_scores); the teacher scores are the clean linear
    margins, i.e. the best possible ranking signal for the noisy labels.
    """
    x, y, scores = _teacher_task(seed, n, d, l, span=(0.80, 0.20),
                                 margin_sigma=0.15)
    rng = np.random.default_rng(seed + 1)
    flip_rows = np.flatnonzero(rng.uniform(size=n) < noisy_rows)
    flip_cols = rng.integers(0, l, size=n)
    for i in flip_rows:
        y[i, flip_cols[i]] = 1.0 - y[i, flip_cols[i]]
    return x, y, scores


def _teacher_task(seed, n, d, l, span, margin_sigma):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.8, 1.2, size=(l, d))
    pool = rng.uniform(size=(max(8 * n, 4000), d))
    raw = pool @ w.T
    quantiles = np.linspace(span[0], span[1], l) if l > 1 else [0.5]
    b = -np.array([np.quantile(raw[:, j], quantiles[j]) for j in range(l)])
    margin = margin_sigma * float(raw.std())

    def accept(cand):
        m = cand @ w.T + b
        return cand[np.all(np.abs(m) > margin, axis=1)]

    x = accept(pool)
    while len(x) < n:
        x = np.concatenate([x, accept(rng.uniform(size=(4 * n, d)))])
    x = x[:n]
    scores = x @ w.T + b
    y = (scores > 0).astype(np.float64)
    return x, y, scores


def logistic_regression_bce(x, y, steps: int = 20000, lr: float = 2.0) -> float:
    """Training BCE of a plain full-batch logistic regression; the reference
    for what a linear model achieves on the same data."""
    n, _ = x.shape
    l = y.shape[1]
    w = np.zeros((l, x.shape[1]))
    b = np.zeros(l)
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(x @ w.T + b)))
        w -= lr * (p - y).T @ x / n
        b -= lr * (p - y).mean(axis=0)
    p = np.clip(1.0 / (1.0 + np.exp(-(x @ w.T + b))), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=1)))
