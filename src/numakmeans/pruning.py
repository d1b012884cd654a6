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

Ties go to the lower centroid id, as in a full pass: against an x below
the assigned centroid each test is strict, which is the inclusive test
against the half distance moved one ulp down (``_tie_gaps``), and an equal
distance switches to x.

The candidate scan of the rows that fail the point skip runs in a few rounds
over whole blocks, not one pass per centroid: each round tests every row
against every centroid with a handful of large array operations, evaluates
all surviving candidates at once, and sends only the rows that switched to
the next round.  A round takes at most ``CHUNK_ELEMS`` (row, centroid)
pairs, which caps its scratch whatever the task size.  The result, bounds
and counters are those of a sequential per-row scan, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroids import CentroidSet
from .distance import CHUNK_ELEMS, block_distances, rowwise_distances


@dataclass
class CentroidGeometry:
    """Pairwise half-distances between centroids and per-centroid row minima.

    ``half_dist[a, b]`` is d(c_a, c_b) / 2; ``half_min[a]`` is the smallest
    off-diagonal entry of row a of ``_tie_gaps(half_dist)``, so a point
    exactly halfway to a lower-id centroid is not skipped (+inf when k == 1,
    so single-cluster runs always take the point-skip path).  Rebuilt every
    iteration.
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
        masked = _tie_gaps(half) + np.diag(np.full(k, np.inf))
        half_min = masked.min(axis=1)
    return CentroidGeometry(half_dist=half, half_min=half_min)


def _tie_gaps(half: np.ndarray) -> np.ndarray:
    """``half`` with each entry [a, x], x < a, moved one ulp down.

    Testing ``u <= gap`` against this table prunes a lower-id x only when
    ``u < half[a, x]``, so an x exactly as close as a is still examined.
    """
    lower = np.tri(half.shape[0], k=-1, dtype=bool)
    return np.where(lower, np.nextafter(half, -np.inf), half)


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


# Candidate distances are evaluated in slices of at most this many row
# elements (512 KB), which keeps their operands in cache.
_PAIR_SLICE_ELEMS = 65536


def scan_block(rows: np.ndarray, c: CentroidSet, geo: CentroidGeometry,
               assign: np.ndarray, upper: np.ndarray, tight: np.ndarray,
               counters: PruneCounters):
    """Reassign the non-skipped rows of one task, all rows at once.

    The result is that of a sequential scan of each row: tighten its bound
    once, then visit candidates in ascending id order, each pruned against
    half the gap to the row's current assignment, switching on strict
    improvement, or on an equal distance to a centroid below the original
    one (ties go to the lower id).  The original centroid is never
    revisited: its exact distance is the tightened bound itself.

    The scan runs in rounds over whole blocks of rows.  A round gathers each
    row's gaps to every centroid as one (rows, k) block, evaluates all of
    its unpruned candidates at once and finds each row's first strict
    improvement.  Rows that improved switch there and are queued for another
    round, which scans only the columns after the switch; all others are
    final.  A row takes one round more than it switches.  Counters count
    only the pairs the sequential scan reaches, so they equal its counters.
    A round takes at most ``CHUNK_ELEMS // k`` rows.

    ``assign``, ``upper`` and ``tight`` are the survivors' slices; the arrays
    are updated in place and ``counters`` accumulates the work done.  Returns
    the survivors' original assignments (before any reassignment).
    """
    k = c.k
    orig = assign.copy()
    stale = upper.copy()
    loose = np.flatnonzero(~tight)
    upper[loose] = _pair_distances(rows, loose, c.means, orig[loose])
    counters.computed += int(loose.size)
    tight[:] = True
    cols = np.arange(k)
    # Row a of gaps holds half the distances from centroid a, with the tie
    # rule's strict tests below a; row k + a the same with every column up to
    # a made infinite, which prunes them.  A row assigned to a reads row a in
    # its first round; once it has switched to a it has scanned every column
    # up to a, so it reads row k + a.
    half = geo.half_dist
    gaps = np.concatenate((_tie_gaps(half), np.where(cols > cols[:, None], half, np.inf)))
    act = np.arange(rows.shape[0])   # rows queued for a round
    start = np.full(act.size, -1)    # the column each last switched to
    step = max(1, CHUNK_ELEMS // k)
    while act.size:
        ids, st = act[:step], start[:step]
        at = np.arange(ids.size)
        og = orig[ids]
        u = upper[ids]
        gap = np.take(gaps, np.where(st < 0, assign[ids], k + st), axis=0)
        cand = gap < u[:, None]
        cand[at, og] = False
        # pruned by both the tightened and the carried bound
        stale_pruned = gap >= np.maximum(u, stale[ids])[:, None]
        stale_pruned[at, og] = False
        del gap  # the largest block; free it before the distances
        r, x = np.divmod(np.flatnonzero(cand), k)
        dx = _pair_distances(rows, ids[r], c.means, x)
        # in its first round a row also switches to a lower id at a tie
        ties = (st[r] < 0) & (x < og[r])
        better = np.flatnonzero((dx < u[r]) | (ties & (dx == u[r])))
        first = np.full(ids.size, k)
        np.minimum.at(first, r[better], x[better])
        # the sequential scan reaches the columns after st up to the first
        # improvement (or the last column), except the original centroid
        last = np.minimum(first, k - 1)
        n_live = int((last - st).sum()) - int(np.count_nonzero((og > st) & (og <= last)))
        n_comp = int(np.count_nonzero(x <= first[r]))
        # stale prunes outside those columns, in rows that switched before
        # or during this round, are not the sequential scan's
        part = np.flatnonzero((st >= 0) | (first < k - 1))
        outside = (cols <= st[part, None]) | (cols > first[part, None])
        n_stale = int(np.count_nonzero(stale_pruned)) \
            - int(np.count_nonzero(stale_pruned[part] & outside))
        counters.computed += n_comp
        counters.pruned_stale += n_stale
        counters.pruned_tight += n_live - n_comp - n_stale
        switch = better[x[better] == first[r[better]]]
        moved = ids[r[switch]]
        assign[moved] = x[switch]
        upper[moved] = dx[switch]
        act = np.concatenate((act[step:], moved))
        start = np.concatenate((start[step:], x[switch]))
    return orig


def _pair_distances(rows, ri, means, x):
    # rowwise_distances(rows[ri], means[x]), in slices that stay in cache
    out = np.empty(ri.size)
    step = max(1, _PAIR_SLICE_ELEMS // rows.shape[1])
    for lo in range(0, ri.size, step):
        hi = lo + step
        buf = np.take(rows, ri[lo:hi], axis=0)
        rowwise_distances(buf, np.take(means, x[lo:hi], axis=0), buf=buf, out=out[lo:hi])
    return out
