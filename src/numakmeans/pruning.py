"""Triangle-inequality pruning with O(n) per-point state.

The scheme keeps two float32 bounds per point, in memory and on disk alike:
an upper bound on its distance to the assigned centroid, rounded up, and a
lower bound on its distance to every other centroid (Hamerly's bound, SDM
2010), rounded down; plus one k x k gap table between centroids, built once
per iteration.  No flag marks an upper bound exact: each scanned row's
bound is recomputed first, which costs a distance more only where the row's
centroid did not move.  Four tests skip work without changing any
assignment:

* point skip: if the bound is at most the smallest gap in the assigned
  centroid's row (rounded down to float32), no other centroid can beat it,
  so the whole point is skipped (and in out-of-core mode its row is never
  read);
* lower-bound skip: if the bound is at most the point's lower bound, the
  point is not scanned either.  Out of core its row is still fetched when
  the point skip fails, so the reads and the rows a cache refresh keeps
  are those of the point skip alone;
* stale-bound candidate prune: a candidate centroid x is skipped when the
  bound (as carried over from the previous iteration) is at most the gap
  between the assigned centroid and x;
* tight-bound candidate prune: same test after the bound has been tightened
  to the exact current distance.

A gap is half a centroid-to-centroid distance, which is what makes the
tests sound: d(v, x) >= d(a, x) - d(v, a), so d(v, a) <= d(a, x)/2
guarantees d(v, x) >= d(v, a).  There is no lower bound matrix; memory
stays O(n + k^2), 8 bytes of bounds per point.

Every test must hold for the distances as computed, not only for exact
ones: a full pass gives an exact tie to the lower centroid id and takes a
centroid one ulp closer by rounding.  So the table holds each half distance
lowered by a rounding margin (derived at ``centroid_geometry``), each upper
bound is rounded up to float32 (derived beside the margin), each lower
bound is lowered by a margin of its own (derived at ``_lowered_f32``), a
test that passes proves the candidate's computed distance strictly larger,
and a row within the margin of a bound is scanned, where the recipe's
distances and the lower-id rule decide it.  The diagonal is infinite, since
a row's own centroid is never a candidate.

Each task loosens its own rows' bounds by the centroids' drift before its
skip test (:func:`inflate_bounds`), so the work between iterations that
falls on one thread is only the O(k^2) gap table.

The rows that fail both skips are scanned in one pass over whole blocks,
not one pass per centroid: every candidate is tested against the row's
assigned centroid with a handful of large array operations, and the
surviving candidates are evaluated at once.  A row reads only the window
of its centroid's gaps that the largest bound of the call can reach, w
columns instead of k, and a block takes at most ``CHUNK_ELEMS`` (row,
column) pairs, which caps its scratch whatever the task size.  The scan
decides in float64 and stores each bound as float32 at the end; the result
and bounds are those of a sequential per-row scan, bit for bit, and the
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

    ``gaps[a, x]`` is d(c_a, c_x) / 2 lowered by the rounding margin, and
    +inf when x == a; ``half_min[a]`` is the minimum of row a (+inf when
    k == 1, so single-cluster runs always take the point-skip path).
    Rebuilt every iteration.
    """

    gaps: np.ndarray      # (k, k)
    half_min: np.ndarray  # (k,)

    def state_bytes(self) -> int:
        return self.gaps.nbytes + self.half_min.nbytes


# Why ``u <= gaps[a, x]`` proves that x loses to a row's centroid a.  Let D(p, q)
# be exact distances and r(p, q) the recipe's; each rounding is within eps / 2
# (relative), and to first order in eps:
# - recipe: fl(p - q) squared and summed by vecdot is within gamma_(d+2) of
#   D^2 in any summation order (Higham, sec. 3.1), and the rounded sqrt adds
#   eps / 2, so |r - D| <= e*D + a with e = (d + 4) eps / 4; a = sqrt(d) * 2^-537
#   bounds what gradual underflow of the d squares (2^-1075 each) adds after
#   the sqrt;
# - gap: g^ = r(c_a, c_x) / 2 is within e*g + a of g = D(c_a, c_x) / 2;
# - bound: a stored u is r(v, c_a) rounded up to float32 (+inf past its
#   range), so D(v, c_a) <= (1 + e) u + a.  :func:`inflate_bounds` adds the
#   recipe's drift o rounded up to float32, and the float32 sum, rounded to
#   nearest, lies within half an ulp of the exact one (exact where it is
#   subnormal), so one ulp up it is at least u + o; a sum past the range is
#   +inf, which every test scans.  The centroid moves by D <= (1 + e) o + a,
#   so each update adds one more a and no relative error, and rounding only
#   ever raises u;
# - test: the table's entry G = fl(fl(g^ (1 - m)) - A) takes two roundings.
# - point skip: u <= fl32_down(min_x G), which is at most every G of row a
#   (float32 and float64 compare exactly).
# By the triangle inequality D(v, c_x) >= 2g - D(v, c_a), and both errors of r
# then give r(v, c_x) > r(v, c_a) once D(v, c_a) < (1 - e) g - a.  With u <= G
# that holds when m > 3e + eps = (3d + 16) eps / 4 and A covers the a's: m =
# (d + 6) eps leaves at least 2 eps for the second-order terms, and A = 2^-500
# covers 2^37 / sqrt(d) of them, more updates of one bound than a run makes.
# Where the subtraction rounds A away, g^ is so large that the a's fall
# within that spare 2 eps.  A passing test then makes x strictly farther as
# computed, an exact tie included, whichever of the two ids is lower.
_GAP_ABS = 2.0 ** -500


# Why ``u <= lower`` proves that every centroid x other than a row's a is
# strictly farther as computed.  With D, r, e, eps, m and a as in the gaps'
# comment above, and u0 the row's tightened r(v, c_a0) to its centroid a0
# before the scan, each source of l0, the minimum that :func:`scan_block`
# takes, bounds D(v, c_x) from below:
# - a computed r (a candidate's, or u0 when the row moved): D >= (1 - e) r - a;
# - a pruned x, whose entry G >= u0 lies under its exact half gap g with the
#   table's margin to spare, g >= (1 + m - e - eps) G: then D(v, c_x) >=
#   2g - D(v, c_a0) >= fl(2G - u0) + (2m - 3e - 3 eps) G, and m makes that
#   last term positive.
# The stored l = fl32_down(fl(fl(l0 (1 - n)) - A)) is then at most
# L - l0 (n - e - eps) - A / 2 for L = min D(v, c_x), to first order.  Each
# update takes o >= r(drift) of every other centroid off l, rounded down, and
# moves D(v, c_x) by at most (1 + e) o + a, while D(v, c_a) <= (1 + e) u + a
# holds for the inflated u as the gaps' comment says.  At a test u <= l the
# drifts sum to at most l0 - u, so D(v, c_x) - D(v, c_a) >= l0 (n - e - eps)
# - e (l0 - u) - e u, less the a's, and both roundings of r give r(v, c_x) >
# r(v, c_a) once that is above 2e u and the a's.  With u <= l0 this holds when
# n > 4e + eps = (d + 5) eps: n = (d + 7) eps leaves 2 eps for the
# second-order terms, and A = 2^-500 covers the a's as it does for the gaps.
# A passing test then makes every other centroid strictly farther as
# computed, an exact tie included, whichever id is lower.
def _lowered_f32(low, d):
    """``low`` lowered in place by the margin derived above, then as float32
    one ulp under its nearest float32, which is at most it; a value past
    float32's range becomes its largest finite value."""
    low *= 1.0 - (d + 7) * np.finfo(np.float64).eps
    low -= _GAP_ABS
    with np.errstate(over="ignore"):
        f = low.astype(np.float32)
    return np.nextafter(f, np.float32(-np.inf), out=f)


_INF_BITS = np.float32(np.inf).view(np.int32)


def _step_up(f: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Move the float32 ``f``, each at least +0, one ulp up in place where
    ``step`` is true.  Such values order as their bit patterns do as
    integers, so one ulp up is the pattern plus one: the step of
    ``np.nextafter``, subnormals included, at a fraction of its masked cost.
    +inf plus one would be a NaN's pattern and is clamped back to +inf."""
    bits = f.view(np.int32)
    bits += step
    np.minimum(bits, _INF_BITS, out=bits)
    return f


def f32_up(x: np.ndarray) -> np.ndarray:
    """``x``, each at least 0, rounded up to float32: at least it, and +inf
    past the range."""
    with np.errstate(over="ignore"):
        f = x.astype(np.float32)
    return _step_up(f, f < x)


def f32_down(x: np.ndarray) -> np.ndarray:
    """``x`` rounded down to float32: at most it, and the largest finite
    value past the range."""
    with np.errstate(over="ignore"):
        f = x.astype(np.float32)
    return np.nextafter(f, np.float32(-np.inf), out=f, where=f > x)


def centroid_geometry(c: CentroidSet) -> CentroidGeometry:
    """Exact centroid-to-centroid distances, halved once and lowered by the
    margin derived at ``_GAP_ABS``.

    The absolute part of the margin sets a scale floor: on data whose half
    distances between centroids fall below 2^-500 (about 3e-151) every gap
    is negative, so no row is skipped and no candidate pruned.  Such runs
    stay exact; they only scan every candidate.

    Symmetric bit for bit: d(a, b) and d(b, a) square the same differences,
    which differ only in sign.
    """
    half = block_distances(c.means, c.means) * 0.5
    gaps = half * (1.0 - (c.means.shape[1] + 6) * np.finfo(np.float64).eps) - _GAP_ABS
    np.fill_diagonal(gaps, np.inf)
    return CentroidGeometry(gaps=gaps, half_min=gaps.min(axis=1))


@dataclass
class PruneCounters:
    """Work avoided (or spent) during one scan.

    Each scanned row adds one computed distance for its bound, and each of
    its k - 1 other centroids to exactly one of ``computed``,
    ``pruned_stale`` and ``pruned_tight``.
    """

    skips: int = 0          # points not scanned: skipped by the gap table or lower bound
    pruned_stale: int = 0   # candidates pruned by the carried-over bound
    pruned_tight: int = 0   # candidates pruned only after tightening
    computed: int = 0       # point-to-centroid distances actually evaluated

    def add(self, other: "PruneCounters") -> None:
        self.skips += other.skips
        self.pruned_stale += other.pruned_stale
        self.pruned_tight += other.pruned_tight
        self.computed += other.computed


def other_drift(drift: np.ndarray) -> np.ndarray:
    """For each centroid a, the largest drift of any other centroid, rounded
    up to float32: what a lower bound of a point in cluster a must lose.
    Built from the two largest drifts, in O(k)."""
    top = int(np.argmax(drift))
    out = np.full(drift.size, drift[top])
    out[top] = np.max(np.delete(drift, top), initial=0.0)
    return f32_up(out)


def inflate_bounds(upper: np.ndarray, assign: np.ndarray, drift: np.ndarray,
                   lower: np.ndarray, lower_drift: np.ndarray) -> None:
    """Loosen every float32 bound ``upper[i]`` by the drift of its centroid
    ``assign[i]`` after a centroid update, and lower ``lower[i]`` by
    ``lower_drift[assign[i]]`` (:func:`other_drift`), in place.

    A bound whose centroid moved gets the drift rounded up to float32, and
    the sum is taken one float32 ulp up, so it is never under the exact sum
    (the ulp step of ``np.nextafter`` moves a subnormal sum too, where a
    factor 1 + eps would not); one whose centroid did not move keeps its
    bits.  No bound is taken as exact afterwards: the scan recomputes every
    survivor's.  A lower bound is taken one float32 ulp down after the
    subtraction, under the exact difference, which lies within half an ulp
    of the rounded one.  The update is elementwise, so a task may run it on
    its own slice.
    """
    lower -= np.take(lower_drift, assign)
    np.nextafter(lower, np.float32(-np.inf), out=lower)
    with np.errstate(over="ignore"):
        upper += np.take(f32_up(drift), assign)
    _step_up(upper, np.take(drift > 0.0, assign))


def scan_block(rows: np.ndarray, c: CentroidSet, geo: CentroidGeometry,
               assign: np.ndarray, upper: np.ndarray, counters: PruneCounters,
               lower: np.ndarray):
    """Reassign the non-skipped rows of one task in one pass over each block.

    Every bound is first tightened to the exact distance u to the row's
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
    of w columns: its w smallest gaps in ascending order, all its gaps below
    ``bmax`` and then gaps that are never candidates and always pruned by
    both bounds.  w is the widest such row, k - 1 when a bound reaches every
    gap, and a block holds at most ``CHUNK_ELEMS // w`` rows.  A row's
    candidates are thus the first columns of its window.

    ``assign``, ``upper`` and ``lower`` are the survivors' slices, the
    bounds float32; the arrays are updated in place and ``counters``
    accumulates the work done: every (row, x != a) pair is either a
    computed candidate or pruned.  Every test and every distance is float64;
    only the results are stored as float32.  Each row's upper bound is its
    final distance rounded up, and its lower bound on its distance to every
    centroid but its final one is the smaller of the second smallest among
    u and its computed candidates' distances (a multiset, so a tie keeps the
    bound at the row's final distance) and 2 * (its smallest pruned gap) -
    u, lowered as :func:`_lowered_f32` says.  Returns the survivors'
    original assignments (before any reassignment).
    """
    k = c.k
    orig = assign.copy()
    stale = upper.astype(np.float64)
    dist = _pair_distances(rows, None, c.means, orig)
    counters.computed += dist.size
    # row a's window is the first w of its gaps in ascending order, ranked[a],
    # whose ids are order[a] (equal gaps in any order: they are candidates
    # alike); reach[j], the smallest j-th gap of any row, is below bmax
    # exactly when some row has more than j gaps below bmax
    order = np.argsort(geo.gaps, axis=1)
    ranked = np.take(geo.gaps, order + np.arange(0, k * k, k)[:, None])
    reach = ranked.min(axis=0)
    bmax = max(dist.max(initial=-np.inf), stale.max(initial=-np.inf))
    w = max(1, int(np.searchsorted(reach, bmax)))
    window = np.ascontiguousarray(ranked[:, :w])
    step = max(1, CHUNK_ELEMS // w)
    for lo in range(0, rows.shape[0], step):
        og = orig[lo:lo + step]
        u = dist[lo:lo + step]
        gap = np.take(window, og, axis=0)
        cand = gap < u[:, None]
        # every x != a is pruned by the carried bound too, unless its gap lies
        # below both bounds; each such gap is in the window
        both = np.maximum(u, stale[lo:lo + step])
        n_stale = og.size * (k - 1) - int(np.count_nonzero(gap < both[:, None]))
        del gap  # the largest block; free it before the distances
        f = np.flatnonzero(cand)
        del cand
        r = f // w
        # f indexes the (rows, w) block; moved from row r to row og[r] of order
        f += np.take(og.astype(np.intp) * k - np.arange(og.size) * w, r)
        x = np.take(order, f)
        del f
        # a row's candidates are its first columns, so the next one holds its
        # smallest pruned gap, in the window or beyond it; the bound is
        # 2 * that gap - u, before any move
        at = og * k
        at += np.bincount(r, minlength=og.size)
        low = np.take(ranked, at)
        low *= 2.0
        low -= u
        dx = _pair_distances(rows, lo + r, c.means, x)
        counters.computed += int(r.size)
        counters.pruned_stale += n_stale
        counters.pruned_tight += og.size * (k - 1) - int(r.size) - n_stale
        ur = u[r]
        # the candidates that beat (u, a): strictly closer, or as close with a
        # lower id
        better = np.flatnonzero(dx <= ur)
        better = better[(dx[better] < ur[better]) | (x[better] < og[r[better]])]
        # by row, then distance, then id: each row's first entry is its winner
        better = better[np.lexsort((x[better], dx[better], r[better]))]
        best = better[np.unique(r[better], return_index=True)[1]]
        moved = r[best]
        assign[lo + moved] = x[best]
        u[moved] = dx[best]
        if r.size:
            # the second smallest of u and the candidates' distances: the
            # smallest candidate but a moved row's winner, or its old u
            dx[best] = np.inf
            first = np.flatnonzero(np.diff(r, prepend=-1))
            rows_with = r[first]
            low[rows_with] = np.minimum(low[rows_with], np.minimum.reduceat(dx, first))
            low[moved] = np.minimum(low[moved], ur[best])
        lower[lo:lo + step] = _lowered_f32(low, c.means.shape[1])
    upper[:] = f32_up(dist)
    return orig


def _pair_distances(rows, ri, means, x):
    # rowwise_distances(rows[ri], means[x]), in slices of CHUNK_ELEMS elements;
    # ri None reads rows in order, in place.  The gathered means are the
    # difference buffer, and a slice's buffers go before the next one's.
    out = np.empty(x.size)
    step = max(1, CHUNK_ELEMS // rows.shape[1])
    for lo in range(0, x.size, step):
        hi = lo + step
        sub = rows[lo:hi] if ri is None else np.take(rows, ri[lo:hi], axis=0)
        near = np.take(means, x[lo:hi], axis=0)
        rowwise_distances(sub, near, buf=near, out=out[lo:hi])
        del sub, near
    return out
