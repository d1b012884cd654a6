"""Out-of-core execution: disk-resident rows, page-granular I/O, row caching.

Row data stays on disk and is read through :class:`numakmeans.matrix.RowStore`,
which owns the file layout; only O(n) per-point state lives in memory.
Reads happen at page granularity (4KB by default, any positive number of
bytes), so fetching scattered rows pulls in more bytes than requested; the
accounting here tracks both quantities.  Each coalesced run of pages is read
in one call and viewed as the whole rows that start inside it, so rows need
not align with pages, and the fetched rows are checked finite once per call.
A partitioned row cache pins active rows in memory at row granularity and is
refreshed lazily on an exponential schedule, because rows that stay active
tend to keep staying active.  The cache is one sorted id array and one row
block, searched in a single call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .centroids import CentroidSet, init_from_rows
from .engine import EngineConfig, IoDelta, KmeansResult, _Engine
from .matrix import ROW_DTYPE, MatrixFormatError, RowStore

DEFAULT_CACHE_BYTES = 64 * 1024 * 1024
DEFAULT_REFRESH_START = 5


def page_runs(ids: np.ndarray, row_bytes: int, page_size: int):
    """Coalesced runs of distinct pages covering the given ascending row ids.

    Returns arrays (first_page, n_pages, cuts): run r reads pages
    first_page[r] .. first_page[r] + n_pages[r] - 1, adjacent pages merged, and
    serves ids[cuts[r]:cuts[r + 1]].  Empty ids give zero runs and cuts [0].
    """
    ids = np.asarray(ids, dtype=np.int64)
    starts = ids * row_bytes
    first = starts // page_size
    last = (starts + row_bytes - 1) // page_size
    opens = np.ones(ids.size, dtype=bool)
    opens[1:] = first[1:] > last[:-1] + 1
    lo = np.flatnonzero(opens)
    cuts = np.append(lo, ids.size)
    return first[lo], last[cuts[1:] - 1] - first[lo] + 1, cuts


def fetch_rows(store: RowStore, ids: np.ndarray, cache: "RowCache | None" = None,
               stats: IoDelta | None = None) -> np.ndarray:
    """Row data for ascending ids; rows[i] corresponds to ids[i].

    Cached rows are served from the published cache.  The rest are read one
    coalesced page run at a time, and each run's ids are gathered from the
    whole rows that start inside it.  One finiteness check per call rejects a
    non-finite row.  ``bytes_requested`` grows by one row width per id,
    ``bytes_read`` by page_size per distinct uncached page, the payload's
    last page counting only up to the end of the payload.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size:
        if np.any(np.diff(ids) < 0):
            raise ValueError("row ids must be sorted ascending")
        if ids[0] < 0 or ids[-1] >= store.n:
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise IndexError(f"row id {int(bad)} out of range [0, {store.n})")
    d = store.d
    out = np.empty((ids.size, d), dtype=np.float64)
    if stats is not None:
        stats.bytes_requested += store.row_bytes * int(ids.size)
    if ids.size == 0:
        return out

    if cache is not None:
        cached_ids, cached_rows = cache.published
        pos = np.searchsorted(cached_ids, ids)
        hit = pos < cached_ids.size
        hit[hit] = cached_ids[pos[hit]] == ids[hit]
        out[hit] = cached_rows[pos[hit]]
        hits = int(np.count_nonzero(hit))
        if stats is not None:
            stats.cache_hits += hits
            stats.cache_misses += ids.size - hits
        if hits == ids.size:
            return out
        miss_pos = np.flatnonzero(~hit)
        miss_ids = ids[miss_pos]
    else:
        # No cache configured: hit/miss counters stay untouched.
        miss_pos = np.arange(ids.size, dtype=np.int64)
        miss_ids = ids

    first_pages, n_pages, cuts = page_runs(miss_ids, store.row_bytes, store.page_size)
    for first_page, pages, lo, hi in zip(first_pages.tolist(), n_pages.tolist(),
                                         cuts[:-1].tolist(), cuts[1:].tolist()):
        blob = store.read_pages(first_page, pages)
        if stats is not None:
            stats.bytes_read += len(blob)
        # Whole rows starting inside the run begin at row r0, skip bytes in.
        start = first_page * store.page_size
        r0 = -(-start // store.row_bytes)
        skip = r0 * store.row_bytes - start
        whole = (len(blob) - skip) // store.row_bytes
        view = np.frombuffer(blob, ROW_DTYPE, whole * d, skip).reshape(whole, d)
        out[miss_pos[lo:hi]] = view[miss_ids[lo:hi] - r0]
    if not np.isfinite(out).all():
        bad = int(ids[~np.isfinite(out).all(axis=1)][0])
        raise MatrixFormatError(f"non-finite value in row {bad}")
    return out


class RowCache:
    """Partitioned row cache published as one sorted id array and one row block.

    Each partition holds its owner's active rows up to an equal share of the
    byte capacity, admitted in ascending id order.  ``published = (ids, rows)``
    holds ascending int64 ids and their contiguous (len(ids), d) row block; it
    is replaced in one store at refresh barriers and read lock-free between.
    """

    def __init__(self, n_partitions: int, capacity_bytes: int, row_bytes: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.n_partitions = n_partitions
        self.capacity_bytes = capacity_bytes
        self.row_bytes = row_bytes
        self.rows_per_partition = (capacity_bytes // n_partitions) // row_bytes
        self.rebuild([])

    def cached_rows(self) -> int:
        return self.published[0].size

    def cached_bytes(self) -> int:
        return self.cached_rows() * self.row_bytes

    def rebuild(self, collected: list[list[tuple[np.ndarray, np.ndarray]]]) -> None:
        """Flush and repopulate each partition from its active rows, then publish.

        Partition p's ids must lie below partition p+1's, as the engine's
        per-worker row ranges do, so the concatenation stays sorted.
        """
        ids = [np.empty(0, dtype=np.int64)]
        rows = [np.empty((0, self.row_bytes // 8), dtype=np.float64)]
        for chunks in collected:
            if chunks and self.rows_per_partition > 0:
                part_ids = np.concatenate([c[0] for c in chunks])
                keep = np.argsort(part_ids, kind="stable")[: self.rows_per_partition]
                ids.append(part_ids[keep])
                rows.append(np.concatenate([c[1] for c in chunks], axis=0)[keep])
        self.published = (np.concatenate(ids), np.concatenate(rows, axis=0))


@dataclass(frozen=True)
class CacheSchedule:
    """Refresh at iteration ``start``, then with doubling gaps (2*start, 4*start, ...)."""

    start: int = DEFAULT_REFRESH_START

    def __post_init__(self):
        if self.start < 1:
            raise ValueError("refresh start must be >= 1")


def should_refresh(iteration: int, sched: CacheSchedule) -> bool:
    """True at iterations start, 3*start, 7*start, 15*start, ..."""
    if iteration < sched.start or iteration % sched.start != 0:
        return False
    q = iteration // sched.start + 1
    return q & (q - 1) == 0


class _DiskSource:
    """Engine row source backed by a RowStore, cache, and I/O accounting."""

    def __init__(self, store: RowStore, T: int, cache_enabled: bool,
                 cache_capacity: int, schedule: CacheSchedule):
        self.store = store
        self.n, self.d = store.n, store.d
        self.schedule = schedule
        self.cache = (
            RowCache(T, cache_capacity, store.row_bytes) if cache_enabled else None
        )
        self.stats = IoDelta()  # the current iteration's counts
        self._lock = threading.Lock()
        self._iteration = 0
        self._collecting = False
        self._pending: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(T)]

    def _fetch(self, task, ids: np.ndarray) -> np.ndarray:
        local = IoDelta()
        rows = fetch_rows(self.store, ids, self.cache, local)
        with self._lock:
            self.stats += local
            if self._collecting:
                self._pending[task.owner].append((ids, rows))
        return rows

    def task_rows(self, task) -> np.ndarray:
        return self._fetch(task, np.arange(task.start, task.stop, dtype=np.int64))

    def rows_by_ids(self, task, ids) -> np.ndarray:
        return self._fetch(task, np.asarray(ids, dtype=np.int64))

    def finish_iteration(self) -> IoDelta:
        """This iteration's counts; refreshes the cache from the rows it collected."""
        if self._collecting:
            self.cache.rebuild(self._pending)
            self._pending = [[] for _ in range(len(self._pending))]
        self._iteration += 1
        self._collecting = self.cache is not None and should_refresh(self._iteration,
                                                                     self.schedule)
        io, self.stats = self.stats, IoDelta()
        return io

    def state_bytes(self) -> int:
        # Row data lives on disk; the cache and fetch buffers are accounted
        # separately from resident engine state.
        return 0

    def init_centroids(self, cfg: EngineConfig) -> CentroidSet:
        # Initialization fetches pass no counter: their reads are setup cost
        # and stay out of the per-iteration I/O report and the run totals.
        return _init_from_store(self.store, cfg)


def _init_from_store(store: RowStore, cfg: EngineConfig) -> CentroidSet:
    """Seeded initialization from disk; the draws are the in-memory path's."""

    def take(ids):
        order = np.argsort(ids, kind="stable")
        rows = np.empty((ids.size, store.d), dtype=np.float64)
        rows[order] = fetch_rows(store, ids[order])
        return rows

    def block(lo, hi):
        return fetch_rows(store, np.arange(lo, hi, dtype=np.int64))

    return init_from_rows(take, block, store.n, store.d, cfg.k, cfg.init, cfg.seed,
                          cfg.initial_centroids)


def kmeans_ondisk(store: RowStore, cfg: EngineConfig, *,
                  cache_enabled: bool = True,
                  cache_capacity: int = DEFAULT_CACHE_BYTES,
                  schedule: CacheSchedule | None = None) -> KmeansResult:
    """Cluster a disk-resident matrix with O(n) in-memory state.

    Produces exactly the same per-iteration assignments as the in-memory
    engine on the same configuration; with pruning enabled, rows skipped by
    the point-skip test are never read.
    """
    if cfg.mode != "sem":
        raise ValueError("kmeans_ondisk() runs in sem mode; set cfg.mode='sem'")
    source = _DiskSource(
        store, cfg.T, cache_enabled, cache_capacity, schedule or CacheSchedule()
    )
    return _Engine(source, cfg).run()
