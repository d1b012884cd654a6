"""Triangle-inequality pruning with O(n) per-point state.

The scheme keeps one upper bound per point on its distance to the assigned
centroid, plus one k x k gap table between centroids, built once per
iteration.  Three tests skip work without changing any assignment:

* point skip: if the bound is at most the smallest gap in the assigned
  centroid's row, no other centroid can beat it, so the whole point is
  skipped (and in out-of-core mode its row is never read);
* stale-bound candidate prune: a candidate centroid x is skipped when the
  bound (as carried over from the previous iteration) is at most the gap
  between the assigned centroid and x;
* tight-bound candidate prune: same test after the bound has been tightened
  to the exact current distance.

A gap is half a centroid-to-centroid distance, which is what makes the
tests sound: d(v, x) >= d(a, x) - d(v, a), so d(v, a) <= d(a, x)/2
guarantees d(v, x) >= d(v, a).  There is no lower bound matrix; memory
stays O(n + k^2).

Ties go to the lower centroid id, as in a full pass: against an x below
the assigned centroid each test must be strict, so the table holds that
half distance moved one ulp down and every test stays ``u <= gap``; an
equal distance switches to x.  The diagonal is infinite, since a row's own
centroid is never a candidate.

The rows that fail the point skip are scanned in one pass over whole blocks,
not one pass per centroid: every candidate is tested against the row's
assigned centroid with a handful of large array operations, and the
surviving candidates are evaluated at once.  A row reads only the window
of its centroid's gaps that the largest bound of the call can reach, w
columns instead of k, and a block takes at most ``CHUNK_ELEMS`` (row,
column) pairs, which caps its scratch whatever the task size.  The result
and bounds are those of a sequential per-row scan, bit for bit; the
counters count the work the pass does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroids import CentroidSet
from .distance import CHUNK_ELEMS, block_distances, rowwise_distances


@dataclass
class CentroidGeometry:
    """The gap table that every bound test reads, and its row minima.

    ``gaps[a, x]`` is d(c_a, c_x) / 2, one ulp lower when x < a, and +inf
    when x == a; ``half_min[a]`` is the minimum of row a, so a point exactly
    halfway to a lower-id centroid is not skipped (+inf when k == 1, so
    single-cluster runs always take the point-skip path).  Rebuilt every
    iteration.
    """

    gaps: np.ndarray      # (k, k)
    half_min: np.ndarray  # (k,)

    def state_bytes(self) -> int:
        return self.gaps.nbytes + self.half_min.nbytes


def centroid_geometry(c: CentroidSet) -> CentroidGeometry:
    """Exact centroid-to-centroid distances, halved once, with the tie rule.

    Symmetric bit for bit before the tie rule: d(a, b) and d(b, a) square
    the same differences, which differ only in sign.
    """
    half = block_distances(c.means, c.means) * 0.5
    gaps = np.where(np.tri(c.k, k=-1, dtype=bool), np.nextafter(half, -np.inf), half)
    np.fill_diagonal(gaps, np.inf)
    return CentroidGeometry(gaps=gaps, half_min=gaps.min(axis=1))


@dataclass
class PruneState:
    """Per-point assignment, distance upper bound, and bound tightness."""

    assignment: np.ndarray  # (n,) int32
    upper: np.ndarray       # (n,) float64, >= distance to assigned centroid
    tight: np.ndarray       # (n,) bool, True when upper is the exact distance


@dataclass
class PruneCounters:
    """Work avoided (or spent) during one scan.

    Each scanned row adds one computed distance when its bound was loose,
    and each of its k - 1 other centroids to exactly one of ``computed``,
    ``pruned_stale`` and ``pruned_tight``.
    """

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
    """Reassign the non-skipped rows of one task in one pass over each block.

    Each loose bound is tightened to the exact distance u to the row's
    assigned centroid a.  The candidates are the centroids x that the test
    against a leaves standing, ``geo.gaps[a, x] < u``, read from the table
    that ``centroid_geometry`` built for this iteration.  Each is evaluated
    once, and the row takes the closest candidate that beats (u, a),
    strictly closer or as close with a lower id; a tie between
    candidates goes to the lower id.  Any centroid that beats (u, a) passes
    that test, so the row ends where a sequential scan in id order, switching
    on each improvement, would leave it.

    No bound of the call reaches a gap at or above ``bmax``, the largest
    tightened or carried bound, so each row of the table is cut to a window
    of w columns: its gaps below ``bmax`` in ascending id order, padded with
    its other gaps, which are never candidates and always pruned by both
    bounds.  w is the widest such row, k - 1 when a bound reaches every
    gap, and a block holds at most ``CHUNK_ELEMS // w`` rows.

    ``assign``, ``upper`` and ``tight`` are the survivors' slices; the arrays
    are updated in place and ``counters`` accumulates the work done: every
    (row, x != a) pair is either a computed candidate or pruned.  Returns
    the survivors' original assignments (before any reassignment).
    """
    k = c.k
    orig = assign.copy()
    stale = upper.copy()
    loose = np.flatnonzero(~tight)
    upper[loose] = _pair_distances(rows, loose, c.means, orig[loose])
    counters.computed += int(loose.size)
    tight[:] = True
    # the window: row a's w columns are ids[a], their gaps window[a]
    bmax = max(upper.max(initial=-np.inf), stale.max(initial=-np.inf))
    near = geo.gaps < bmax
    w = max(1, int(near.sum(axis=1).max()))
    ids = np.argsort(~near, axis=1, kind="stable")[:, :w]
    window = np.take_along_axis(geo.gaps, ids, axis=1)
    step = max(1, CHUNK_ELEMS // w)
    for lo in range(0, rows.shape[0], step):
        og = orig[lo:lo + step]
        u = upper[lo:lo + step]
        gap = np.take(window, og, axis=0)
        cand = gap < u[:, None]
        # every x != a is pruned by the carried bound too, unless its gap lies
        # below both bounds; each such gap is in the window
        both = np.maximum(u, stale[lo:lo + step])
        n_stale = og.size * (k - 1) - int(np.count_nonzero(gap < both[:, None]))
        del gap  # the largest block; free it before the distances
        f = np.flatnonzero(cand)
        r = f // w
        # f indexes the (rows, w) block; moved from row r to row og[r] of ids
        f += np.take((og - np.arange(og.size)) * w, r)
        x = np.take(ids, f)
        del f
        dx = _pair_distances(rows, lo + r, c.means, x)
        counters.computed += int(r.size)
        counters.pruned_stale += n_stale
        counters.pruned_tight += og.size * (k - 1) - int(r.size) - n_stale
        ur = u[r]
        better = np.flatnonzero((dx < ur) | ((dx == ur) & (x < og[r])))
        # by row, then distance; the sort is stable, so equal distances stay
        # in ascending id order and each row's first entry is its winner
        better = better[np.lexsort((dx[better], r[better]))]
        best = better[np.unique(r[better], return_index=True)[1]]
        assign[lo + r[best]] = x[best]
        u[r[best]] = dx[best]
    return orig


def _pair_distances(rows, ri, means, x):
    # rowwise_distances(rows[ri], means[x]), in slices of CHUNK_ELEMS elements
    out = np.empty(ri.size)
    step = max(1, CHUNK_ELEMS // rows.shape[1])
    for lo in range(0, ri.size, step):
        hi = lo + step
        buf = np.take(rows, ri[lo:hi], axis=0)
        rowwise_distances(buf, np.take(means, x[lo:hi], axis=0), buf=buf, out=out[lo:hi])
    return out
