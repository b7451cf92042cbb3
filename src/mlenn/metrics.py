"""Multilabel performance indicators and the binary cross-entropy loss.

Conventions, shared with the report format:

- example-based set indicators (hamming_loss, aiming, recall, accuracy_ml,
  absolute_true, absolute_false) operate on the binary matrices Y and H;
  rows with an empty denominator contribute 0 to the average;
- ranking indicators (one_error, ranking_loss, coverage,
  average_precision) operate on the confidence matrix F; argmax ties break
  to the lowest index, tied pairs in ranking_loss count half, coverage
  assigns tied scores their worst (competition) rank, average_precision
  ranks ties stably by index;
- ranking_loss and average_precision skip rows where they are undefined
  and raise if every row is skipped.

The ranking indicators work on blocks of rows with array operations, yet
return the bits of a plain per-row loop: each row's term is computed by
the same float operations as that loop, the terms are added left to
right (``np.cumsum(...)[-1]``) as a running total would add them, and
average_precision's per-row means are taken over rows grouped by their
relevant-label count, so numpy reduces each row exactly as it reduces a
lone row of that length. ``tests/oracles.py`` keeps the loops, and the
tests compare against them with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, as_tensor

METRIC_NAMES = (
    "hamming_loss",
    "one_error",
    "ranking_loss",
    "coverage",
    "average_precision",
    "aiming",
    "recall",
    "accuracy",
    "absolute_true",
    "absolute_false",
)


def _as_binary(m, name: str) -> np.ndarray:
    m = as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError(f"{name} must contain only 0/1 entries")
    return m


@dataclass(frozen=True)
class PredictionSet:
    """Ground truth y, thresholded predictions h and confidences f for a
    batch of samples (rows) over l labels (columns)."""

    y: np.ndarray
    h: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        y = _as_binary(self.y, "y")
        h = _as_binary(self.h, "h")
        f = as_tensor(self.f)
        if y.shape != h.shape or y.shape != f.shape:
            raise ShapeError(
                f"y {y.shape}, h {h.shape} and f {f.shape} must share one shape"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "f", f)

    @classmethod
    def from_scores(cls, y, f, threshold: float = 0.5) -> "PredictionSet":
        """Derive h from f at the given threshold (score >= threshold -> 1)."""
        f = as_tensor(f)
        return cls(y, (f >= threshold).astype(np.float64), f)

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]

    @property
    def n_labels(self) -> int:
        return self.y.shape[1]


def hamming_loss(ps: PredictionSet) -> float:
    """Fraction of label slots where prediction and truth disagree."""
    return float(np.mean(ps.y != ps.h))


def one_error(ps: PredictionSet) -> float:
    """Fraction of samples whose single most confident label is not relevant."""
    top = ps.f.argmax(axis=1)
    return float(np.mean(ps.y[np.arange(ps.n_samples), top] != 1.0))


# ranking_loss and coverage compare every label with every other in a
# (rows, l, l) tensor; blocks of rows keep it near this many elements.
_BLOCK_ELEMS = 1 << 18


def _row_blocks(n: int, l: int):
    step = max(1, _BLOCK_ELEMS // max(1, l * l))
    return (slice(start, start + step) for start in range(0, n, step))


def ranking_loss(ps: PredictionSet) -> float:
    """Average fraction of (relevant, irrelevant) label pairs ranked in the
    wrong order; tied pairs count half. Rows lacking either label kind are
    skipped."""
    rel = ps.y == 1.0
    n_rel = rel.sum(axis=1)
    kept = np.flatnonzero((n_rel > 0) & (n_rel < ps.n_labels))
    if kept.size == 0:
        raise ValueError("ranking_loss is undefined: no row has both a relevant and an irrelevant label")
    f, rel, n_rel = ps.f[kept], rel[kept], n_rel[kept]
    bad = np.empty(kept.size)
    for rows in _row_blocks(kept.size, ps.n_labels):
        fb, rb = f[rows], rel[rows]
        pairs = rb[:, :, None] & ~rb[:, None, :]
        below = np.count_nonzero(pairs & (fb[:, :, None] < fb[:, None, :]), axis=(1, 2))
        tied = np.count_nonzero(pairs & (fb[:, :, None] == fb[:, None, :]), axis=(1, 2))
        bad[rows] = below + 0.5 * tied
    terms = bad / (n_rel * (ps.n_labels - n_rel))
    return float(np.cumsum(terms)[-1] / kept.size)


def coverage(ps: PredictionSet) -> float:
    """Average number of steps down the confidence-ranked label list needed
    to reach every relevant label (0 when the worst relevant label is at the
    top). Ties take the worst rank; rows without relevant labels add 0."""
    rel = ps.y == 1.0
    worst = np.empty(ps.n_samples, dtype=np.int64)
    for rows in _row_blocks(ps.n_samples, ps.n_labels):
        fb = ps.f[rows]
        # [i, j]: how many labels score at least as high as label j
        rank = np.count_nonzero(fb[:, None, :] >= fb[:, :, None], axis=2)
        worst[rows] = np.where(rel[rows], rank, 0).max(axis=1, initial=0)
    return int(np.sum(worst[rel.any(axis=1)] - 1)) / ps.n_samples


def average_precision(ps: PredictionSet) -> float:
    """For each relevant label, the fraction of labels ranked at or above it
    that are relevant, averaged over relevant labels and then over samples.
    Ties rank stably by index; rows without relevant labels are skipped."""
    rel = ps.y == 1.0
    n_rel = rel.sum(axis=1)
    kept = np.flatnonzero(n_rel > 0)
    if kept.size == 0:
        raise ValueError("average_precision is undefined: no row has a relevant label")
    n_rel = n_rel[kept]
    order = np.argsort(-ps.f[kept], axis=1, kind="stable")
    # hits[i, p]: the label ranked p + 1 in row i is relevant
    hits = np.take_along_axis(rel[kept], order, axis=1)
    precision = np.cumsum(hits, axis=1) / np.arange(1, ps.n_labels + 1)
    per_row = np.empty(kept.size)
    for count in np.flatnonzero(np.bincount(n_rel)):
        rows = np.flatnonzero(n_rel == count)
        per_row[rows] = precision[rows][hits[rows]].reshape(rows.size, count).mean(axis=1)
    return float(np.cumsum(per_row)[-1] / kept.size)


def _row_sets(ps: PredictionSet):
    inter = np.sum(ps.h * ps.y, axis=1)
    union = np.sum(np.maximum(ps.h, ps.y), axis=1)
    return inter, union


def aiming(ps: PredictionSet) -> float:
    """Correctly predicted labels over predicted labels (0 for empty rows)."""
    inter, _ = _row_sets(ps)
    hs = ps.h.sum(axis=1)
    return float(np.mean(np.where(hs > 0, inter / np.maximum(hs, 1.0), 0.0)))


def recall(ps: PredictionSet) -> float:
    """Correctly predicted labels over actual labels (0 for empty rows)."""
    inter, _ = _row_sets(ps)
    ys = ps.y.sum(axis=1)
    return float(np.mean(np.where(ys > 0, inter / np.maximum(ys, 1.0), 0.0)))


def accuracy_ml(ps: PredictionSet) -> float:
    """Correctly predicted labels over the union of predicted and actual."""
    inter, union = _row_sets(ps)
    return float(np.mean(np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)))


def absolute_true(ps: PredictionSet) -> float:
    """Fraction of samples predicted perfectly."""
    return float(np.mean(np.all(ps.h == ps.y, axis=1)))


def absolute_false(ps: PredictionSet) -> float:
    """Average fraction of labels in the union but not the intersection."""
    inter, union = _row_sets(ps)
    return float(np.mean((union - inter) / ps.n_labels))


def compute_all(ps: PredictionSet) -> dict:
    """All ten indicators keyed by their report field names."""
    return {
        "hamming_loss": hamming_loss(ps),
        "one_error": one_error(ps),
        "ranking_loss": ranking_loss(ps),
        "coverage": coverage(ps),
        "average_precision": average_precision(ps),
        "aiming": aiming(ps),
        "recall": recall(ps),
        "accuracy": accuracy_ml(ps),
        "absolute_true": absolute_true(ps),
        "absolute_false": absolute_false(ps),
    }


def format_record(dataset: str, model: str, fold, values: dict) -> str:
    """One flat text record per (dataset, model, fold), 6-decimal fields."""
    head = f"dataset={dataset} model={model} fold={fold}"
    body = " ".join(f"{name}={values[name]:.6f}" for name in METRIC_NAMES)
    return f"{head} {body}"


def bce_loss(y, p, weights=None):
    """Binary cross entropy between targets ``y`` (binary or soft, in [0, 1])
    and predicted probabilities ``p``.

        loss = -(1/n) * sum_i w_i * sum_j
               [ y_ij log p_ij + (1 - y_ij) log(1 - p_ij) ]

    ``n`` is the number of rows, zero-weight rows included; ``w`` defaults
    to ones.
    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs.
    Returns (loss, gradient w.r.t. p).
    """
    y = as_tensor(y)
    p = as_tensor(p)
    if y.shape != p.shape or y.ndim != 2:
        raise ShapeError(f"targets {y.shape} and predictions {p.shape} must be equal 2-D shapes")
    norm = float(y.shape[0])
    pc = np.minimum(np.maximum(p, 1e-12), 1.0 - 1e-12)
    q = 1.0 - y
    row_terms = (y * np.log(pc) + q * np.log1p(-pc)).sum(axis=1)
    grad = -(y / pc - q / (1.0 - pc)) / norm
    if weights is not None:
        w = as_tensor(weights)
        if w.shape != (y.shape[0],):
            raise ShapeError(f"weights must have shape ({y.shape[0]},), got {w.shape}")
        row_terms = row_terms * w
        grad = grad * w[:, None]
    return float(-row_terms.sum() / norm), grad
