"""Centroid state, accumulators, initialization, and the deterministic merge."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import block_distances, rowwise_distances
from .matrix import check_matrix

INIT_METHODS = ("forgy", "random-partition", "kmeanspp", "given")

# Rows per block in the kmeans++ distance scans.
_INIT_CHUNK = 8192


@dataclass
class CentroidSet:
    """Current and previous centroid positions plus per-centroid drift.

    ``drift[j]`` is the distance centroid j moved in the last update; it is
    what the pruning bounds are inflated by.
    """

    means: np.ndarray       # (k, d)
    prev_means: np.ndarray  # (k, d)
    counts: np.ndarray      # (k,) int64 members after the last finalize
    drift: np.ndarray       # (k,) float64

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @classmethod
    def from_means(cls, means: np.ndarray) -> "CentroidSet":
        means = np.ascontiguousarray(means, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError("centroid means must be a (k, d) array")
        if not np.isfinite(means).all():
            raise ValueError("centroid means must be finite")
        k = means.shape[0]
        return cls(
            means=means.copy(),
            prev_means=means.copy(),
            counts=np.zeros(k, dtype=np.int64),
            drift=np.zeros(k, dtype=np.float64),
        )

    def state_bytes(self) -> int:
        return self.means.nbytes + self.prev_means.nbytes + self.counts.nbytes + self.drift.nbytes


@dataclass
class Accumulator:
    """Running sums used to rebuild centroids.

    ``sums`` and ``sq`` are taken relative to the run's shift s: they hold
    the per-cluster sums of ``x - s`` and of ``|x - s|^2``.  With s near the
    data, the centroid ``s + sums / count`` and the within-cluster sum of
    squares ``sq - |sums|^2 / count`` keep their precision however far the
    data lie from the origin (Chan, Golub and LeVeque, 1983).  In full
    passes the fields hold plain totals; pruned iterations use the same
    structure for signed reassignment deltas, in which case counts may be
    negative.
    """

    sums: np.ndarray    # (k, d)
    counts: np.ndarray  # (k,) int64
    sq: np.ndarray      # (k,) per-cluster sums of squared row norms

    @classmethod
    def zeros(cls, k: int, d: int) -> "Accumulator":
        return cls(
            sums=np.zeros((k, d), dtype=np.float64),
            counts=np.zeros(k, dtype=np.int64),
            sq=np.zeros(k, dtype=np.float64),
        )

    def add_(self, other: "Accumulator") -> None:
        self.sums += other.sums
        self.counts += other.counts
        self.sq += other.sq

    def state_bytes(self) -> int:
        return self.sums.nbytes + self.counts.nbytes + self.sq.nbytes


def merge_accumulators(accs: list[Accumulator]) -> Accumulator:
    """Pairwise tree reduction of accumulators in the order given.

    Each round adds accumulator 2i+1 into 2i; an odd trailing accumulator is
    carried to the next round.  The fixed pairing makes the floating-point
    summation order, and therefore the result, reproducible for a given
    input order.  Mutates the inputs.
    """
    if not accs:
        raise ValueError("cannot merge an empty accumulator list")
    level = list(accs)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            level[i].add_(level[i + 1])
            nxt.append(level[i])
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def finalize_centroids(merged: Accumulator, prev: CentroidSet, shift: np.ndarray) -> CentroidSet:
    """Turn merged totals, summed relative to ``shift``, into the next centroid set.

    An occupied cluster's mean is ``shift + sums / count``.  Empty clusters
    keep their previous position (drift 0); drift is the distance each
    centroid moved.
    """
    k, d = merged.sums.shape
    means = np.empty((k, d), dtype=np.float64)
    occupied = merged.counts > 0
    means[occupied] = shift + merged.sums[occupied] / merged.counts[occupied, None]
    means[~occupied] = prev.means[~occupied]
    drift = rowwise_distances(means, prev.means)
    drift[~occupied] = 0.0
    return CentroidSet(
        means=means,
        prev_means=prev.means.copy(),
        counts=merged.counts.copy(),
        drift=drift,
    )


def init_centroids(m: np.ndarray, k: int, method: str = "forgy", seed: int = 0,
                   initial: np.ndarray | None = None) -> CentroidSet:
    """Seeded initial centroids drawn from an in-memory matrix."""
    m = check_matrix(m)
    n, d = m.shape
    return init_from_rows(lambda ids: m[ids], lambda lo, hi: m[lo:hi],
                          n, d, k, method, seed, initial)


def init_from_rows(take, block, n: int, d: int, k: int, method: str, seed: int,
                   initial: np.ndarray | None) -> CentroidSet:
    """Seeded initial centroids from n rows of width d, wherever they live.

    ``take(ids)`` returns the rows at ``ids`` in that order; ``block(lo, hi)``
    returns rows lo..hi-1.  In-memory and on-disk runs share this one
    implementation, so both draw exactly the same centroids.

    forgy samples k distinct rows; random-partition splits a seeded
    permutation of the rows into k balanced groups and uses group means
    (groups left empty when k > n take the mean of all rows); kmeanspp
    applies the usual squared-distance weighting; given takes caller-supplied
    (k, d) values.
    """
    if method not in INIT_METHODS:
        raise ValueError(f"unknown init method {method!r}")
    if k < 1:
        raise ValueError("k must be >= 1")

    if method == "given":
        if initial is None:
            raise ValueError("init method 'given' requires initial centroids")
        initial = np.ascontiguousarray(initial, dtype=np.float64)
        if initial.shape != (k, d):
            raise ValueError(f"initial centroids must be ({k}, {d}), got {initial.shape}")
        if not np.isfinite(initial).all():
            raise ValueError("initial centroids must be finite")
        return CentroidSet.from_means(initial)

    rng = np.random.default_rng(seed)
    if method == "forgy":
        if k > n:
            raise ValueError(f"forgy needs k <= n (k={k}, n={n})")
        rows = rng.choice(n, size=k, replace=False)
        return CentroidSet.from_means(take(np.sort(rows)))

    if method == "random-partition":
        order = rng.permutation(n)
        groups = np.array_split(order, k)
        means = np.empty((k, d), dtype=np.float64)
        for j, g in enumerate(groups):
            if g.size == 0:
                means[j] = block(0, n).mean(axis=0)
            else:
                means[j] = take(np.sort(g)).mean(axis=0)
        return CentroidSet.from_means(means)

    # kmeanspp
    if k > n:
        raise ValueError(f"kmeanspp needs k <= n (k={k}, n={n})")

    def sqdist_to(idx: int) -> np.ndarray:
        center = take(np.array([idx]))
        d2 = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _INIT_CHUNK):
            hi = min(lo + _INIT_CHUNK, n)
            d2[lo:hi] = block_distances(block(lo, hi), center)[:, 0] ** 2
        return d2

    chosen = [int(rng.integers(n))]
    d2 = sqdist_to(chosen[-1])
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        np.minimum(d2, sqdist_to(idx), out=d2)
    return CentroidSet.from_means(take(np.array(chosen)))
