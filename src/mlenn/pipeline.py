"""The dataset container, min-max normalization and cluster-center
augmentation for training folds.

Fold hygiene is enforced by the interfaces: every transform fits its
statistics on a training tensor and applies them to a second tensor, so
test rows can never leak into the fit. ``imcc_augment`` returns a fold's
virtual rows; ``harness.fit_training_set`` appends them to the fold's real
rows at the augmentation weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# pca_fit is not used here, but perfbench/tracer.py wraps mlenn.pipeline.pca_fit.
from .numerics import RngStream, ShapeError, as_tensor, group_means, kmeans, pca_fit  # noqa: F401


@dataclass(frozen=True)
class Dataset:
    """Feature matrix x (n, d) with binary label matrix y (n, l)."""

    x: np.ndarray
    y: np.ndarray
    name: str = ""
    sparse: bool = False

    def __post_init__(self):
        x = as_tensor(self.x)
        y = as_tensor(self.y)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ShapeError(f"features {x.shape} and labels {y.shape} disagree")
        if x.shape[0] < 1 or x.shape[1] < 1 or y.shape[1] < 1:
            raise ShapeError("dataset needs at least one row, feature and label")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"dataset {self.name!r} has non-finite feature values")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError(f"dataset {self.name!r} has non-binary labels")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_labels(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class AugmentedSet:
    """Virtual examples: cluster centers z (c, d) with soft labels t (c, l)
    equal to the per-cluster label means."""

    z: np.ndarray
    t: np.ndarray


def minmax_normalize(train, apply_to) -> np.ndarray:
    """Map each column of ``apply_to`` through the [0, 1] range observed in
    ``train``; constant columns go to 0 and out-of-range values clip."""
    train = as_tensor(train)
    apply_to = as_tensor(apply_to)
    if train.ndim != 2 or apply_to.ndim != 2 or train.shape[1] != apply_to.shape[1]:
        raise ShapeError(f"column counts disagree: {train.shape} vs {apply_to.shape}")
    return minmax_scale(apply_to, train.min(axis=0), train.max(axis=0))


def minmax_scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map each column of ``x`` from [lo, hi] to [0, 1]; constant columns
    (lo == hi) go to 0 and out-of-range values clip."""
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    out = (x - lo) / safe
    out[:, span == 0] = 0.0
    return np.clip(out, 0.0, 1.0)


def imcc_augment(x, y, c: int, rng: RngStream) -> AugmentedSet:
    """Cluster the feature rows ``x`` (n, d) into ``c`` groups and emit one
    virtual example per cluster: the center paired with the mean of its
    members' rows of ``y`` (n, l). ``kmeans`` requires 1 <= c <= n, and with
    c = n this reproduces the rows exactly."""
    y = as_tensor(y)
    km = kmeans(x, c, rng)
    if y.ndim != 2 or y.shape[0] != km.assignments.shape[0]:
        raise ShapeError(f"labels {y.shape} do not match {km.assignments.shape[0]} feature rows")
    return AugmentedSet(km.centers, group_means(y, km.assignments, c))
