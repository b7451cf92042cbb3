"""Reference implementations that the vectorised library code must match
bit for bit.

These are the straightforward forms: Lloyd k-means with distances from an
explicit (n, c, d) difference tensor and one boolean mask per center, and
the ranking indicators as one Python-level pass per row. The library's
faster forms promise the same floats, ties and skipped rows included, so
the tests compare with ``==`` rather than a tolerance.
"""

from __future__ import annotations

import numpy as np

from mlenn.numerics import KMeansModel, as_tensor


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
