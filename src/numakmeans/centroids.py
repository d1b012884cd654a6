"""Centroid state, accumulators, initialization, and the deterministic merge."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .distance import (
    CHUNK_ELEMS,
    SqDistanceFilter,
    row_sqnorms,
    rowwise_distances,
    seed_sq_distances,
    single_thread_blas,
)
from .matrix import check_matrix

INIT_METHODS = ("forgy", "random-partition", "kmeanspp", "given")


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

    ``sums`` and ``sq`` are taken relative to the run's shift s (the engine
    uses the initial centroids' mean): they hold the per-cluster sums of
    ``x - s`` and of ``|x - s|^2``.  With s near the data, the centroid
    ``s + sums / count`` and the within-cluster sum of squares
    ``sq - |sums|^2 / count`` keep their precision however far the data lie
    from the origin (Chan, Golub and LeVeque, 1983).  :meth:`add_rows` adds
    a block of rows with one flat ``bincount``, each cluster's rows in row
    order; the engine builds its totals that way in iteration 0 only.  Every
    later iteration, pruned or not, adds each task's signed reassignment
    deltas from :meth:`move_rows` (their counts may be negative), so runs
    that assign alike hold bit-equal totals.
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

    def add_rows(self, ids: np.ndarray, rows: np.ndarray, shift: np.ndarray) -> None:
        """Add ``rows`` to clusters ``ids``: ``rows - shift`` by one
        ``bincount`` over the flat index ``id * d + column``, and its squared
        norms by one ``bincount`` over ``ids``."""
        x = rows - shift
        self._add_shifted(ids, x, row_sqnorms(x), np.add)

    def move_rows(self, to_ids: np.ndarray, from_ids: np.ndarray, rows: np.ndarray,
                  shift: np.ndarray) -> None:
        """Move ``rows`` from clusters ``from_ids`` to ``to_ids``: the same
        ``bincount`` updates as ``add_rows``, added for ``to_ids`` and then
        subtracted for ``from_ids``, with ``rows - shift`` and its squared
        norms computed once."""
        x = rows - shift
        sqn = row_sqnorms(x)
        self._add_shifted(to_ids, x, sqn, np.add)
        self._add_shifted(from_ids, x, sqn, np.subtract)

    def _add_shifted(self, ids, x, sqn, op) -> None:
        k, d = self.sums.shape
        flat = np.take(np.arange(k * d).reshape(k, d), ids, axis=0)
        sums = np.bincount(flat.ravel(), weights=x.ravel(), minlength=k * d)
        op(self.sums, sums.reshape(k, d), out=self.sums)
        op(self.counts, np.bincount(ids, minlength=k), out=self.counts)
        op(self.sq, np.bincount(ids, weights=sqn, minlength=k), out=self.sq)

    def wcss(self) -> float:
        """Within-cluster sum of squares of the totals, ``sq - |sums|^2 / count``
        over the occupied clusters, each term clamped at 0."""
        occupied = self.counts > 0
        terms = self.sq[occupied] - (self.sums[occupied] ** 2).sum(axis=1) / self.counts[occupied]
        return float(np.maximum(terms, 0.0).sum())

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
    centroid moved, and at least the smallest subnormal for a centroid that
    moved by less than the recipe can see (its squared length underflows),
    so the upper bounds of its points still grow.
    """
    k, d = merged.sums.shape
    means = np.empty((k, d), dtype=np.float64)
    occupied = merged.counts > 0
    means[occupied] = shift + merged.sums[occupied] / merged.counts[occupied, None]
    means[~occupied] = prev.means[~occupied]
    drift = rowwise_distances(means, prev.means)
    drift[~occupied] = 0.0
    # a move whose squared length underflows still moves: its bounds must grow
    drift[(drift == 0.0) & np.any(means != prev.means, axis=1)] = np.nextafter(0.0, 1.0)
    return CentroidSet(
        means=means,
        prev_means=prev.means.copy(),
        counts=merged.counts.copy(),
        drift=drift,
    )


def _draw(rng: np.random.Generator, d2: np.ndarray, total: float, cdf: np.ndarray) -> int:
    """The row ``rng.choice(d2.size, p=d2 / total)`` draws, by choice's own
    steps in ``cdf``, a buffer of d2's size, without its checks and copies."""
    np.divide(d2, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def init_centroids(m: np.ndarray, k: int, method: str = "forgy", seed: int = 0,
                   initial: np.ndarray | None = None, *,
                   ranges: list[range] | None = None) -> CentroidSet:
    """Seeded initial centroids drawn from an in-memory matrix.

    ``ranges`` splits kmeans++'s distance passes as :func:`init_from_rows`
    does; the default is one range over all rows.
    """
    m = check_matrix(m)
    n, d = m.shape
    return init_from_rows(lambda ids: m[ids], lambda lo, hi: m[lo:hi],
                          n, d, k, method, seed, initial,
                          [range(n)] if ranges is None else ranges)


def init_from_rows(take, block, n: int, d: int, k: int, method: str, seed: int,
                   initial: np.ndarray | None, ranges: list[range]) -> CentroidSet:
    """Seeded initial centroids from n rows of width d, wherever they live.

    ``take(ids)`` returns the rows at ``ids`` in that order and
    ``block(lo, hi)`` rows lo..hi-1; any thread may call either, and their
    results are only read.  In-memory and on-disk runs share this one
    implementation, so both draw exactly the same centroids.

    forgy samples k distinct rows; random-partition splits a seeded
    permutation of the rows into k balanced groups and uses group means
    (groups left empty when k > n take the mean of all rows); kmeanspp
    applies the usual squared-distance weighting; given takes caller-supplied
    (k, d) values.

    kmeanspp's squared distances d2 to each centre but the last are computed
    on one thread per non-empty range of ``ranges``, the first on the calling
    thread, each with its own scratch, in blocks of ``CHUNK_ELEMS // (2 * d)``
    rows, so that a block and its scratch stay within ``CHUNK_ELEMS``
    elements; the ranges must cover rows 0..n-1 in order, as
    ``partition_rows(n, T)`` does.  The first centre's pass runs the
    recipe on every row and keeps each row's sum for the
    :class:`~numakmeans.distance.SqDistanceFilter` of every later centre, which
    settles most rows by one matrix-vector product and sends the rest through
    the recipe, under :func:`~numakmeans.distance.single_thread_blas`.  Each
    row's value is the recipe's, the same for any split, and each draw reads
    the whole array as ``rng.choice(n, p=d2 / d2.sum())`` would, so the centres
    do not depend on the ranges.  A d2 total that is not finite raises
    ``FloatingPointError``.  Every thread is joined before this returns or
    raises; when several ranges fail, the lowest range's error is raised.
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
    bounds = [0, *(r.stop for r in ranges)]
    if bounds[-1] != n or any(r != range(lo, hi) for r, lo, hi in zip(ranges, bounds, bounds[1:])):
        raise ValueError(f"ranges must cover rows 0..{n - 1} in order, got {ranges}")
    ranges = [r for r in ranges if len(r)]
    step = max(1, CHUNK_ELEMS // (2 * d))
    # q: the first pass's lowered sums; cdf: the draws' buffer.  One block,
    # so that it goes back to the system whole when init ends.
    d2, q, cdf = np.empty((3, n))
    scratch = [(np.empty((min(step, len(r)), d)), np.empty(min(step, len(r)))) for r in ranges]

    def lower_d2(i: int, lower) -> None:
        buf, tbuf = scratch[i]
        for lo in range(ranges[i].start, ranges[i].stop, step):
            hi = min(lo + step, ranges[i].stop)
            lower(block(lo, hi), q[lo:hi], d2[lo:hi], buf[:hi - lo], tbuf[:hi - lo])

    def lower_to(lower) -> None:
        errors: list[BaseException | None] = [None] * len(ranges)

        def run(i: int) -> None:
            try:
                lower_d2(i, lower)
            except BaseException as e:
                errors[i] = e

        helpers = [threading.Thread(target=run, args=(i,), name=f"kmeanspp-{i}")
                   for i in range(1, len(ranges))]
        for t in helpers:
            t.start()
        run(0)  # the first range on the calling thread
        for t in helpers:
            t.join()
        for e in errors:  # in range order: the lowest failing range raises
            if e is not None:
                raise e

    chosen = [int(rng.integers(n))]
    with single_thread_blas():
        for _ in range(1, k):
            centre = take(np.array(chosen[-1:]))[0]
            if len(chosen) == 1:
                shift = centre
                lower_to(lambda rows, sums, sq, buf, _: seed_sq_distances(rows, shift, sums, sq, buf))
            else:
                lower_to(SqDistanceFilter(centre, shift))
            total = d2.sum()
            if not np.isfinite(total):
                raise FloatingPointError(
                    f"kmeans++ squared distances sum to {total}, not finite "
                    f"(the data overflow float64)")
            chosen.append(_draw(rng, d2, total, cdf) if total > 0 else int(rng.integers(n)))
    return CentroidSet.from_means(take(np.array(chosen)))
