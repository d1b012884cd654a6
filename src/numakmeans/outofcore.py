"""Out-of-core execution: disk-resident rows, page-granular I/O, row caching.

Row data stays on disk and is read through :class:`numakmeans.matrix.RowStore`,
which owns the file layout, pages included; only O(n) per-point state lives
in memory.  Reads happen at page granularity (4KB by default, any positive
number of bytes), so fetching scattered rows pulls in more bytes than
requested; the accounting here tracks both quantities.  ``RowStore.page_runs``
groups the rows to fetch into coalesced page runs, and one
``RowStore.read_rows`` call reads each run and views it as rows, so rows need
not align with pages.  Every row read from the file is checked finite each
time it is read; rows served from the cache are not checked again.
A row cache pins active rows in memory at row granularity and is refreshed
lazily on an exponential schedule, because rows that stay active tend to
keep staying active.  The cache keeps one (ids, rows) slot per task: a task
covers the same rows every iteration, so it searches only its own slot.
Each task has a fixed quota, its rows' share of the capacity, and a refresh
replaces each slot with that task's own fetch, made read-only and cut to
the quota's head, so the cache never holds more than its capacity.  A task
fetches the rows that the point skip leaves, and the engine scans those the
lower bounds leave too.  In the steady state the fetched ids are the slot's
ids, and the fetch returns the slot's rows themselves; other fetches copy
their hits out of the slot.  In a kmeans++ run, the slots before the first
refresh hold the rows that initialization pinned: each task's head up to
its quota, read once, which kmeans++ reads in place rather than from disk
once per centre.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .centroids import CentroidSet, init_from_rows
from .engine import EngineConfig, IoDelta, KmeansResult, _Engine
from .matrix import MatrixFormatError, RowStore

DEFAULT_CACHE_BYTES = 64 * 1024 * 1024
DEFAULT_REFRESH_START = 5


def fetch_rows(store: RowStore, ids: np.ndarray,
               cached: tuple[np.ndarray, np.ndarray] | None = None,
               stats: IoDelta | None = None) -> np.ndarray:
    """Row data for ascending ids; rows[i] corresponds to ids[i].

    Ids in ``cached``, one ``(ids, rows)`` pair such as a task's cache slot,
    are served from it; hits and misses are counted only when it is given.
    When ``ids`` are exactly the cached ids, the cached row block itself is
    returned: no search, no copy and no read.  Otherwise one search over
    the cached ids finds the hits, which are copied out of the cached rows,
    and the misses are read one coalesced page run at a time, each run's
    ids gathered from the rows it holds.  Every row a run reads is checked
    finite, unrequested ones between two misses too; cached rows are not.
    ``bytes_requested`` grows by one row width per id, ``bytes_read`` by
    page_size per distinct uncached page, the payload's last page counting
    only up to the end of the payload.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size:
        if np.any(np.diff(ids) < 0):
            raise ValueError("row ids must be sorted ascending")
        if ids[0] < 0 or ids[-1] >= store.n:
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise IndexError(f"row id {int(bad)} out of range [0, {store.n})")
    if stats is not None:
        stats.bytes_requested += store.row_bytes * int(ids.size)
    if cached is not None and cached[0].size and np.array_equal(cached[0], ids):
        if stats is not None:
            stats.cache_hits += ids.size
        return cached[1]
    out = np.empty((ids.size, store.d), dtype=np.float64)
    miss_ids = ids
    if cached is not None and cached[0].size:
        cached_ids, cached_rows = cached
        pos = np.searchsorted(cached_ids, ids)
        hit = pos < cached_ids.size
        hit[hit] = cached_ids[pos[hit]] == ids[hit]
        out[hit] = cached_rows[pos[hit]]
        miss_pos = np.flatnonzero(~hit)
        miss_ids = ids[miss_pos]
    else:
        miss_pos = np.arange(ids.size, dtype=np.int64)
    if cached is not None and stats is not None:
        stats.cache_hits += ids.size - miss_ids.size
        stats.cache_misses += miss_ids.size
    if miss_ids.size == 0:
        return out

    cuts = store.page_runs(miss_ids)
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        r0 = int(miss_ids[lo])
        view, nbytes = store.read_rows(r0, int(miss_ids[hi - 1]) + 1)
        if stats is not None:
            stats.bytes_read += nbytes
        p0 = int(miss_pos[lo])
        if miss_pos[hi - 1] - p0 == hi - lo - 1:
            # contiguous output (always so without cache hits): gather in place
            np.take(view, miss_ids[lo:hi] - r0, axis=0, out=out[p0:p0 + hi - lo], mode="clip")
        else:
            out[miss_pos[lo:hi]] = view[miss_ids[lo:hi] - r0]
    return out


class RowCache:
    """Row cache kept as one ``(ids, rows)`` slot per task, each within a quota.

    The task layout is fixed for a run, so task i covers the same rows every
    iteration and looks up only ``slot(i)``.  A task's quota is its rows'
    share of the capacity, so the quotas sum to at most the capacity, and
    each is at least its task's length when all n rows fit.  A refresh
    iteration's fetches replace their tasks' slots through :meth:`store`;
    :meth:`rebuild` then drops the slots of the tasks that did not fetch.
    """

    def __init__(self, n: int, capacity_bytes: int, row_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.n = n
        self.capacity_bytes = capacity_bytes
        self.row_bytes = row_bytes
        self.capacity_rows = capacity_bytes // row_bytes
        self.slots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._empty = (np.empty(0, dtype=np.int64), np.empty((0, row_bytes // 8)))

    def slot(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self.slots.get(index, self._empty)

    def cached_bytes(self) -> int:
        return sum(ids.size for ids, _ in self.slots.values()) * self.row_bytes

    def quota(self, task) -> int:
        return self.capacity_rows * (task.stop - task.start) // self.n

    def store(self, task, ids: np.ndarray, rows: np.ndarray) -> None:
        """Make ``rows``, read-only from now on, the task's slot; one over
        the task's quota leaves a read-only copy of its head instead."""
        # a slot is handed out as it is, so nothing may write through it
        rows.flags.writeable = False
        keep = self.quota(task)
        if ids.size > keep:
            ids, rows = ids[:keep].copy(), rows[:keep].copy()
            rows.flags.writeable = False
        self.slots[task.index] = ids, rows

    def rebuild(self, fetched) -> None:
        """Keep the slots of the task indices ``fetched``, drop the rest."""
        self.slots = {index: self.slots[index] for index in fetched}


def should_refresh(iteration: int, start: int) -> bool:
    """True at iterations start, 3*start, 7*start, 15*start, ...: the first
    refresh at ``start``, then with doubling gaps (2*start, 4*start, ...)."""
    if iteration < start or iteration % start != 0:
        return False
    q = iteration // start + 1
    return q & (q - 1) == 0


class _DiskSource:
    """Engine row source backed by a RowStore, cache, and I/O accounting."""

    def __init__(self, store: RowStore, cache_enabled: bool,
                 cache_capacity: int, refresh_start: int):
        self.store = store
        self.n, self.d = store.n, store.d
        self.refresh_start = refresh_start
        self.cache = (
            RowCache(store.n, cache_capacity, store.row_bytes) if cache_enabled else None
        )
        # A task fetches at most once per iteration, and alone writes its
        # counts here and, in a refresh iteration, its cache slot.
        self._io: dict = {}
        self._refresh = False

    def _fetch(self, task, ids: np.ndarray) -> np.ndarray:
        local = self._io[task] = IoDelta()
        slot = None if self.cache is None else self.cache.slot(task.index)
        rows = fetch_rows(self.store, ids, slot, local)
        if self._refresh:
            self.cache.store(task, ids, rows)
        return rows

    def task_rows(self, task) -> np.ndarray:
        return self._fetch(task, np.arange(task.start, task.stop, dtype=np.int64))

    def rows_by_ids(self, tasks, fetch_ids, scan) -> np.ndarray:
        """The rows of the ascending ``fetch_ids`` that the mask ``scan`` marks.

        Each task fetches its own share of ``fetch_ids`` through its cache
        slot, and its marked rows are copied out before the next task
        fetches; a lone task whose fetched rows are all marked hands its
        fetch over as it is.
        """
        if len(tasks) == 1 and scan.all():
            return self._fetch(tasks[0], fetch_ids)
        cuts = np.searchsorted(fetch_ids, [task.stop for task in tasks]).tolist()
        out = np.empty((int(np.count_nonzero(scan)), self.d))
        f0 = s0 = 0
        for task, f1 in zip(tasks, cuts):
            if f1 > f0:
                rows = self._fetch(task, fetch_ids[f0:f1])
                pos = np.flatnonzero(scan[f0:f1])
                np.take(rows, pos, axis=0, out=out[s0:s0 + pos.size], mode="clip")
                del rows  # before the next task's fetch
                s0 += pos.size
            f0 = f1
        return out

    def finish_iteration(self, next_t: int) -> IoDelta:
        """This iteration's counts, with every row never requested counted as
        elided; a refresh iteration's slots become the cache."""
        io = IoDelta()
        for local in self._io.values():
            io += local
        io.rows_elided = self.n - io.bytes_requested // self.store.row_bytes
        if self._refresh:
            self.cache.rebuild(task.index for task in self._io)
        self._io = {}
        self._refresh = (self.cache is not None and self.cache.capacity_rows > 0
                         and should_refresh(next_t, self.refresh_start))
        return io

    def state_bytes(self) -> int:
        # Row data lives on disk; the cache and fetch buffers are accounted
        # separately from resident engine state.
        return 0

    def init_centroids(self, cfg: EngineConfig, ranges: list[range], tasks) -> CentroidSet:
        # Initialization reads pass no counter: their reads are setup cost
        # and stay out of the per-iteration I/O report and the run totals.
        if self.cache is None or cfg.init != "kmeanspp":
            return _init_from_store(self.store, cfg, ranges)
        # kmeans++ reads every row once per centre, so read once each task's
        # head up to its quota, in one read-only array of its own: the
        # task's slot until its fetch in the first refresh replaces it.
        try:
            for task in tasks:
                stop = min(task.start + self.cache.quota(task), task.stop)
                if stop > task.start:
                    self.cache.store(task, np.arange(task.start, stop, dtype=np.int64),
                                     self.store.read_rows(task.start, stop)[0])
        except MatrixFormatError:
            # the pins read in task order, not kmeans++'s: let the uncached
            # init raise, for the lowest range's bad row
            self.cache.slots.clear()
            return _init_from_store(self.store, cfg, ranges)
        return _init_from_store(self.store, cfg, ranges, list(self.cache.slots.values()))


def _init_from_store(store: RowStore, cfg: EngineConfig, ranges: list[range],
                     pinned: list[tuple[np.ndarray, np.ndarray]] = ()) -> CentroidSet:
    """Seeded initialization from disk; the draws are the in-memory path's.

    ``pinned`` holds (ids, rows) blocks of consecutive rows already in
    memory, in ascending id order.  A block of rows is a view into the
    pinned block that holds it, put together from several when it spans
    them, and only its rows outside every pinned block are read from disk,
    each run of them into an array of its own.
    """
    starts = [int(ids[0]) for ids, _ in pinned]
    stops = [int(ids[-1]) + 1 for ids, _ in pinned]

    def block(lo, hi):
        parts = []
        while lo < hi:
            i = bisect_right(starts, lo) - 1
            if i >= 0 and lo < stops[i]:
                stop = min(hi, stops[i])
                parts.append(pinned[i][1][lo - starts[i]:stop - starts[i]])
            else:
                stop = min(hi, starts[i + 1]) if i + 1 < len(starts) else hi
                parts.append(store.read_rows(lo, stop)[0])
            lo = stop
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def take(ids):
        unique, inverse = np.unique(ids, return_inverse=True)
        return fetch_rows(store, unique)[inverse]

    return init_from_rows(take, block, store.n, store.d, cfg.k, cfg.init, cfg.seed,
                          cfg.initial_centroids, ranges)


def kmeans_ondisk(store: RowStore, cfg: EngineConfig, *,
                  cache_enabled: bool = True,
                  cache_capacity: int = DEFAULT_CACHE_BYTES,
                  refresh_start: int = DEFAULT_REFRESH_START) -> KmeansResult:
    """Cluster a disk-resident matrix with O(n) in-memory state.

    Produces exactly the same per-iteration assignments as the in-memory
    engine on the same configuration; with pruning enabled, rows skipped by
    the point-skip test are never read.  The row cache, when enabled, never
    holds more than ``cache_capacity`` bytes: each task keeps at most its
    rows' share of it.  It starts a kmeans++ run with each task's head that
    initialization read, any other run empty, and is refreshed at the
    iterations where ``should_refresh(t, refresh_start)``.
    """
    if cfg.mode != "sem":
        raise ValueError("kmeans_ondisk() runs in sem mode; set cfg.mode='sem'")
    if refresh_start < 1:
        raise ValueError("refresh_start must be >= 1")
    source = _DiskSource(store, cache_enabled, cache_capacity, refresh_start)
    return _Engine(source, cfg).run()
