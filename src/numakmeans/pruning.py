"""Triangle-inequality pruning with O(n) per-point state.

The scheme keeps one upper bound per point on its distance to the assigned
centroid, plus a k x k half-distance matrix between centroids.  Three tests
skip work without changing any assignment:

* point skip: if the bound is at most half the distance from the assigned
  centroid to its nearest other centroid, no other centroid can be strictly
  closer, so the whole point is skipped (and in out-of-core mode its row is
  never read);
* stale-bound candidate prune: a candidate centroid x is skipped when the
  bound (as carried over from the previous iteration) is at most half the
  distance between the assigned centroid and x;
* tight-bound candidate prune: same test after the bound has been tightened
  to the exact current distance.

Half distances are what make the tests sound: d(v, x) >= d(a, x) - d(v, a),
so d(v, a) <= d(a, x)/2 guarantees d(v, x) >= d(v, a).  There is no lower
bound matrix; memory stays O(n + k^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroids import CentroidSet
from .distance import block_distances, rowwise_distances


@dataclass
class CentroidGeometry:
    """Pairwise half-distances between centroids and per-centroid row minima.

    ``half_dist[a, b]`` is d(c_a, c_b) / 2; ``half_min[a]`` is the smallest
    off-diagonal entry of row a (+inf when k == 1, so single-cluster runs
    always take the point-skip path).  Rebuilt every iteration.
    """

    half_dist: np.ndarray  # (k, k) symmetric, zero diagonal
    half_min: np.ndarray   # (k,)

    def state_bytes(self) -> int:
        return self.half_dist.nbytes + self.half_min.nbytes


def centroid_geometry(c: CentroidSet) -> CentroidGeometry:
    """Exact centroid-to-centroid distances, halved once at storage.

    Symmetric bit for bit: d(a, b) and d(b, a) square the same differences,
    which differ only in sign.
    """
    k = c.k
    half = block_distances(c.means, c.means) * 0.5
    if k == 1:
        half_min = np.array([np.inf])
    else:
        masked = half + np.diag(np.full(k, np.inf))
        half_min = masked.min(axis=1)
    return CentroidGeometry(half_dist=half, half_min=half_min)


@dataclass
class PruneState:
    """Per-point assignment, distance upper bound, and bound tightness."""

    assignment: np.ndarray  # (n,) int32
    upper: np.ndarray       # (n,) float64, >= distance to assigned centroid
    tight: np.ndarray       # (n,) bool, True when upper is the exact distance


@dataclass
class PruneCounters:
    """Work avoided (or spent) during one scan."""

    skips: int = 0          # whole points skipped by the point-skip test
    pruned_stale: int = 0   # candidates pruned by the carried-over bound
    pruned_tight: int = 0   # candidates pruned only after tightening
    computed: int = 0       # point-to-centroid distances actually evaluated

    def add(self, other: "PruneCounters") -> None:
        self.skips += other.skips
        self.pruned_stale += other.pruned_stale
        self.pruned_tight += other.pruned_tight
        self.computed += other.computed


def inflate_bounds(st: PruneState, drift: np.ndarray) -> None:
    """Loosen every bound by its centroid's drift after a centroid update.

    A bound stays tight only if it was tight before and its centroid did not
    move; a zero drift must never resurrect a bound that was already stale.
    """
    moved = drift[st.assignment]
    st.upper += moved
    np.logical_and(st.tight, moved == 0.0, out=st.tight)


def scan_block(rows: np.ndarray, c: CentroidSet, geo: CentroidGeometry,
               assign: np.ndarray, upper: np.ndarray, tight: np.ndarray,
               counters: PruneCounters):
    """Reassign the non-skipped rows of one task, all rows at once.

    Each row's bound is tightened once, then candidates are visited in
    ascending id order, each pruned against half the gap to the row's current
    assignment, switching on strict improvement.  The original centroid is
    never revisited: its exact distance is the tightened bound itself.
    ``assign``, ``upper`` and ``tight`` are the survivors' slices; the arrays
    are updated in place and ``counters`` accumulates the work done.  Returns
    the survivors' original assignments (before any reassignment).
    """
    m = rows.shape[0]
    k = c.k
    stale = upper.copy()
    loose = ~tight
    idx = np.flatnonzero(loose)
    if idx.size:
        upper[idx] = rowwise_distances(rows[idx], c.means[assign[idx]])
        counters.computed += int(idx.size)
    tight[:] = True
    orig = assign.copy()
    cur = assign
    for x in range(k):
        consider = (cur != x) & (orig != x)
        if not consider.any():
            continue
        gap = geo.half_dist[cur, x]
        pruned = consider & (upper <= gap)
        n_pruned = int(pruned.sum())
        if n_pruned:
            n_stale = int((pruned & (stale <= gap)).sum())
            counters.pruned_stale += n_stale
            counters.pruned_tight += n_pruned - n_stale
        comp = np.flatnonzero(consider & ~pruned)
        if comp.size == 0:
            continue
        dx = rowwise_distances(rows[comp], c.means[x])
        counters.computed += int(comp.size)
        better = dx < upper[comp]
        if better.any():
            sel = comp[better]
            cur[sel] = x
            upper[sel] = dx[better]
    return orig
