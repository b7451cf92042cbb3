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


class NonFiniteError(ValueError):
    """A NaN or infinity appeared where finite values are required."""


def as_tensor(values) -> np.ndarray:
    """Coerce to a float64 array, copying only when necessary."""
    return np.asarray(values, dtype=np.float64)


def logistic_in_place(x) -> np.ndarray:
    """1 / (1 + e^-x) written into x's own buffer, which it returns. For
    x >= 0 it gives the bits of ``layers.sigmoid`` without its temporaries.
    For x < -709 e^-x overflows to inf, and the result is the exact limit 0;
    a caller that expects such x silences the overflow warning."""
    x = np.asarray(x)  # np.abs of a 0-d array returns a scalar
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


def require_finite(x: np.ndarray, what: str = "tensor") -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{what} contains NaN or infinite entries")


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


PCA_RETAIN = 0.99  # the share of the variance that a fitted PCA basis explains


def pca_fit(x) -> PcaModel:
    """Fit a PCA basis keeping the fewest components that explain ``PCA_RETAIN``.

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
    k = min(int(np.searchsorted(np.cumsum(ratio), PCA_RETAIN - 1e-9)) + 1, rank)

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


# The exact difference-form distances run over blocks of rows; a block's
# (rows, c, d) difference tensor holds about this many elements (512 KiB).
_EXACT_BLOCK_ELEMS = 1 << 16


def _exact_sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, c) squared distances in the difference form sum_k (x_k - c_k)^2.

    Each row's values depend only on that row, not on the blocking, so any
    subset of rows gets the same bits as the full matrix.
    """
    c, d = centers.shape
    step = max(1, _EXACT_BLOCK_ELEMS // max(1, c * d))
    out = np.empty((x.shape[0], c))
    for start in range(0, x.shape[0], step):
        diff = x[start:start + step, None, :] - centers[None, :, :]
        out[start:start + step] = np.einsum("ncd,ncd->nc", diff, diff)
    return out


def _nearest_centers(x: np.ndarray, xx: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each row's nearest center, lowest index on ties, equal to
    ``argmin(_exact_sq_dists(x, centers), axis=1)``; ``xx`` holds the
    squared row norms of ``x``."""
    c, d = centers.shape
    cc = np.einsum("cd,cd->c", centers, centers)
    d2 = x @ centers.T
    d2 *= -2.0
    d2 += xx[:, None]
    d2 += cc
    nearest = np.argmin(d2, axis=1)
    rows = np.arange(x.shape[0])
    best = d2[rows, nearest]
    d2[rows, nearest] = np.inf
    gap = d2.min(axis=1) - best
    scale = (np.sqrt(xx) + np.sqrt(cc.max())) ** 2
    tol = 4.0 * (d + 4) * (np.finfo(np.float64).eps * scale + np.finfo(np.float64).tiny)
    # NaN gaps (overflowed norms) fail the test too and take the exact path.
    unsure = np.flatnonzero(~(gap > tol))
    if unsure.size:
        nearest[unsure] = np.argmin(_exact_sq_dists(x[unsure], centers), axis=1)
    return nearest


def group_means(v: np.ndarray, assignments: np.ndarray, c: int) -> np.ndarray:
    """(c, k) matrix whose row j is the mean of the rows of ``v`` assigned
    to group j.

    One stable sort gathers each group's rows, in their original order, into
    a contiguous slice, so each row is bitwise ``v[assignments == j].mean(0)``:
    the slice's sum, written into the row, divided by the row count, which
    is ``np.mean``'s own arithmetic without its Python wrapper. A single
    ``np.add.reduceat`` would sum in another order and change the bits.
    """
    order = np.argsort(assignments, kind="stable")
    ends = np.cumsum(np.bincount(assignments, minlength=c))
    grouped = v[order]
    out = np.empty((c, v.shape[1]))
    start = 0
    for j, end in enumerate(ends):
        np.add.reduce(grouped[start:end], axis=0, out=out[j])
        out[j] /= end - start
        start = end
    return out


def kmeans(x, c: int, rng: RngStream, max_iter: int = 300) -> KMeansModel:
    """Partition rows of ``x`` into ``c`` clusters by Lloyd iteration.

    Seeding picks a random first center from ``rng``, then repeatedly the
    point farthest (by ``_exact_sq_dists``) from the chosen set. Iteration
    stops when the assignment vector is a fixed point (or at ``max_iter``);
    an emptied cluster is reseeded with the point farthest from its own
    center among the clusters that keep a member after giving it up.

    The assignments are those of the difference form
    ``D_ij = sum_k (x_ik - c_jk)^2`` with ties to the lowest index, but
    most rows never build a difference. One GEMM screens all rows with
    ``||x||^2 - 2 x.c + ||c||^2`` (``||x||^2`` is computed once per call).
    Both forms are within ``gamma_(d+3) (||x|| + ||c||)^2`` of the exact
    distance (``gamma_k = k u / (1 - k u)``, ``u = eps / 2``). So when a
    row's two smallest screened distances differ by more than

        tol = 4 (d + 4) (eps (||x|| + max_j ||c_j||)^2 + tiny)

    (``tiny`` covers underflow), the screen's winner is the difference
    form's unique minimum. Rows within ``tol``, ties included, are
    recomputed in the difference form over small row blocks. An iteration
    that empties a cluster computes the difference form for every row, as
    the reseed reads each row's own distance. Centers are the cluster means
    of ``group_means``. Peak memory is O(n (c + d)) floats.
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
    min_d2 = _exact_sq_dists(x, x[chosen[0]:chosen[0] + 1])[:, 0]
    while len(chosen) < c:
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        np.minimum(min_d2, _exact_sq_dists(x, x[nxt:nxt + 1])[:, 0], out=min_d2)
    centers = x[chosen].copy()

    xx = np.einsum("nd,nd->n", x, x)
    assignments = np.full(n, -1, dtype=np.int64)
    trace: list[float] = []
    for _ in range(max_iter):
        new_assignments = _nearest_centers(x, xx, centers)

        present = np.bincount(new_assignments, minlength=c)
        if not present.all():
            own = _exact_sq_dists(x, centers)[np.arange(n), new_assignments]
            for j in np.flatnonzero(present == 0):
                # Only a cluster with two or more members can give a point
                # without emptying; c < n leaves one for every empty cluster.
                donor = present[new_assignments] >= 2
                thief = int(np.argmax(np.where(donor, own, -np.inf)))
                present[new_assignments[thief]] -= 1
                present[j] = 1
                new_assignments[thief] = j

        centers = group_means(x, new_assignments, c)

        diff = x - centers[new_assignments]
        trace.append(float(np.einsum("nd,nd->", diff, diff)))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments

    return KMeansModel(centers, new_assignments, trace[-1], tuple(trace))
