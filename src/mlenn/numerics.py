"""Dense float64 tensors, deterministic random streams, PCA and k-means.

Everything downstream builds on this module: tensors are plain numpy
float64 arrays, randomness always flows through an explicit RngStream,
and the two statistics primitives (principal components, Lloyd k-means)
are implemented directly so their behaviour is fully pinned by seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Tensor shapes do not line up for the requested operation."""


class ConfigError(ValueError):
    """A run configuration field failed validation."""


class NonFiniteError(FloatingPointError):
    """A NaN or infinity appeared where finite values are required."""


def as_tensor(values) -> np.ndarray:
    """Coerce to a float64 array, copying only when necessary."""
    return np.asarray(values, dtype=np.float64)


def require_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{what} contains NaN or infinite entries")
    return x


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(a: int, b: int) -> int:
    # SplitMix64 finalizer over a combination of parent id and child index.
    z = (a ^ (b + _GOLDEN + ((a << 6) & _MASK64) + (a >> 2))) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """Deterministic random stream identified by (seed, stream_id).

    The same pair always produces the same draw sequence, and streams
    derived via :meth:`child` with distinct indices are independent.
    A stream is single-owner: share the (seed, id) pair, not the object.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id) & _MASK64
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def child(self, index: int) -> "RngStream":
        """Derive an independent stream, deterministic in (seed, id, index)."""
        return RngStream(self.seed, _mix64(self.stream_id, int(index)))

    def uniform(self, size=None):
        """U(0, 1) draws."""
        return self._gen.uniform(0.0, 1.0, size=size)

    def integers(self, high: int, size=None):
        """Uniform integers in [0, high)."""
        return self._gen.integers(0, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


@dataclass(frozen=True)
class PcaModel:
    """Principal-component basis fitted to a data matrix.

    ``components`` rows are orthonormal and sorted by descending explained
    variance. A zero-variance fit yields zero components; callers treat
    such a model as a pass-through.
    """

    mean: np.ndarray                      # (d,)
    components: np.ndarray                # (k, d)
    explained_variance_ratio: np.ndarray  # (k,)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def pca_fit(x, retain: float = 0.99) -> PcaModel:
    """Fit a PCA basis keeping the fewest components that explain ``retain``.

    The basis comes from an eigendecomposition of the sample covariance
    (divisor n - 1) of the column-centered data. The component count is
    capped at the numeric rank, so rank-deficient input is handled
    gracefully; an all-constant matrix yields an empty (k = 0) model.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"pca_fit expects an (n, d) matrix, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ShapeError("pca_fit needs at least 2 rows")
    if not 0.0 < retain <= 1.0:
        raise ValueError(f"retain must lie in (0, 1], got {retain}")
    require_finite(x, "pca_fit input")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]

    total = eigvals.sum()
    if total <= 0.0:
        return PcaModel(mean, np.zeros((0, d)), np.zeros(0))

    ratio = eigvals / total
    rank = int(np.sum(eigvals > eigvals[0] * 1e-12))
    cumulative = np.cumsum(ratio)
    k = int(np.searchsorted(cumulative, retain - 1e-9) + 1)
    k = min(k, rank)

    components = eigvecs[:, :k].T.copy()
    # Deterministic orientation: largest-magnitude entry of each row positive.
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(mean, components, ratio[:k].copy())


def pca_transform(model: PcaModel, x) -> np.ndarray:
    """Project rows of ``x`` onto the fitted components."""
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != model.mean.shape[0]:
        raise ShapeError(
            f"pca_transform expects (n, {model.mean.shape[0]}), got {x.shape}"
        )
    return (x - model.mean) @ model.components.T


@dataclass(frozen=True)
class KMeansModel:
    """Result of Lloyd k-means: centers, per-point assignments, final inertia.

    ``inertia_trace`` holds the end-of-iteration inertia values and is
    non-increasing; at convergence every center equals the mean of its
    assigned points.
    """

    centers: np.ndarray       # (c, d)
    assignments: np.ndarray   # (n,) int
    inertia: float
    inertia_trace: tuple = ()


def _pairwise_sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, c) squared euclidean distances.
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("ncd,ncd->nc", diff, diff)


def kmeans(x, c: int, rng: RngStream, max_iter: int = 300) -> KMeansModel:
    """Partition rows of ``x`` into ``c`` clusters by Lloyd iteration.

    Seeding picks a random first center from ``rng`` and then repeatedly
    takes the point farthest from the chosen set. Iteration stops when the
    assignment vector is a fixed point (or at ``max_iter``); an emptied
    cluster is reseeded with the point farthest from its own center.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"kmeans expects an (n, d) matrix, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"cluster count must satisfy 1 <= c <= {n}, got {c}")
    require_finite(x, "kmeans input")

    if c == n:
        # Singleton partition: the unique zero-inertia optimum.
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
        d2 = _pairwise_sq_dists(x, centers)
        new_assignments = np.argmin(d2, axis=1)

        present = np.bincount(new_assignments, minlength=c)
        for j in np.flatnonzero(present == 0):
            own = d2[np.arange(n), new_assignments]
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
