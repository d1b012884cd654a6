"""Out-of-core execution: disk-resident rows, page-granular I/O, row caching.

Row data stays on disk in the raw row-major float64 layout; only O(n)
per-point state lives in memory.  Reads happen at page granularity (4KB by
default), so fetching scattered rows pulls in more bytes than requested; the
accounting here tracks both quantities.  A partitioned row cache pins active
rows in memory at row granularity and is refreshed lazily on an exponential
schedule, because rows that stay active tend to keep staying active.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .centroids import CentroidSet, init_from_rows
from .engine import EngineConfig, IoDelta, KmeansResult, _Engine
from .matrix import HEADER_SIZE, ROW_DTYPE, MatrixFormatError, parse_header

DEFAULT_PAGE_SIZE = 4096
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024
DEFAULT_REFRESH_START = 5


class RowStore:
    """Raw on-disk row matrix read through positional I/O.

    ``payload_offset`` lets a header-carrying file be streamed as well; page
    arithmetic is always relative to the payload.  Safe for concurrent
    readers: reads use pread on a shared descriptor.
    """

    def __init__(self, path, n: int, d: int, page_size: int = DEFAULT_PAGE_SIZE,
                 payload_offset: int = 0):
        if n < 1 or d < 1:
            raise ValueError("n and d must be >= 1")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.path = str(path)
        self.n = n
        self.d = d
        self.page_size = page_size
        self.payload_offset = payload_offset
        self.row_bytes = 8 * d
        expected = payload_offset + n * d * 8
        actual = os.path.getsize(path)
        if actual != expected:
            raise MatrixFormatError(
                f"{path}: expected {expected} bytes for {n}x{d} (+{payload_offset} offset), got {actual}"
            )
        self._fd = os.open(self.path, os.O_RDONLY)

    @classmethod
    def open(cls, path, raw: bool = False, n: int | None = None, d: int | None = None,
             page_size: int = DEFAULT_PAGE_SIZE) -> "RowStore":
        """Open a matrix file for streaming; header files supply their own shape."""
        if raw:
            if n is None or d is None:
                raise MatrixFormatError("raw files carry no shape; pass n and d explicitly")
            return cls(path, n, d, page_size=page_size)
        with open(path, "rb") as fh:
            n, d = parse_header(path, fh.read(HEADER_SIZE))
        return cls(path, n, d, page_size=page_size, payload_offset=HEADER_SIZE)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _pread(self, offset: int, size: int) -> bytes:
        # Single override point so tests can shim in byte-level counting.
        return os.pread(self._fd, size, offset)

    def read_pages(self, first_page: int, n_pages: int) -> bytes:
        """Raw bytes of a contiguous page run, truncated at end of payload."""
        start = first_page * self.page_size
        end = min((first_page + n_pages) * self.page_size, self.n * self.row_bytes)
        if end <= start:
            return b""
        blob = self._pread(self.payload_offset + start, end - start)
        if len(blob) != end - start:
            raise MatrixFormatError(
                f"{self.path}: short read at page {first_page} "
                f"(wanted {end - start} bytes, got {len(blob)})"
            )
        return blob


def page_runs(ids: np.ndarray, row_bytes: int, page_size: int):
    """Coalesced runs of distinct pages covering the given ascending row ids.

    Returns (runs, total_pages) where each run is (first_page, n_pages) and
    adjacent pages are merged into one run.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return [], 0
    starts = ids * row_bytes
    first = starts // page_size
    last = (starts + row_bytes - 1) // page_size
    brk = np.flatnonzero(first[1:] > last[:-1] + 1)
    run_lo = np.concatenate(([0], brk + 1))
    run_hi = np.concatenate((brk, [ids.size - 1]))
    runs = []
    total = 0
    for lo, hi in zip(run_lo, run_hi):
        fp = int(first[lo])
        np_ = int(last[hi]) - fp + 1
        runs.append((fp, np_))
        total += np_
    return runs, total


# Run totals and per-iteration deltas are one counter type; this is its
# public name for the counter passed to fetch_rows.
IoStats = IoDelta


def fetch_rows(store: RowStore, ids: np.ndarray, cache: "RowCache | None" = None,
               stats: IoDelta | None = None) -> np.ndarray:
    """Row data for ascending ids; rows[i] corresponds to ids[i].

    Cached rows are served from the published index; the rest are read in
    batched, coalesced page runs.  ``bytes_requested`` grows by one row width
    per id, ``bytes_read`` by page_size per distinct uncached page.
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
        index = cache.published
        miss_pos = []
        hits = 0
        for i, rid in enumerate(ids):
            row = index.get(int(rid))
            if row is None:
                miss_pos.append(i)
            else:
                out[i] = row
                hits += 1
        if stats is not None:
            stats.cache_hits += hits
            stats.cache_misses += len(miss_pos)
        if not miss_pos:
            return out
        miss_pos = np.asarray(miss_pos, dtype=np.int64)
        miss_ids = ids[miss_pos]
    else:
        # No cache configured: hit/miss counters stay untouched.
        miss_pos = np.arange(ids.size, dtype=np.int64)
        miss_ids = ids

    runs, total_pages = page_runs(miss_ids, store.row_bytes, store.page_size)
    if stats is not None:
        stats.bytes_read += store.page_size * total_pages
    cursor = 0
    for first_page, n_pages in runs:
        run_start = first_page * store.page_size
        run_stop = (first_page + n_pages) * store.page_size
        blob = store.read_pages(first_page, n_pages)
        flat = np.frombuffer(blob, dtype=ROW_DTYPE)
        take = cursor
        while take < miss_ids.size and miss_ids[take] * store.row_bytes < run_stop:
            take += 1
        batch = miss_ids[cursor:take]
        offsets = (batch * store.row_bytes - run_start) // 8
        out[miss_pos[cursor:take]] = flat[offsets[:, None] + np.arange(d)]
        cursor = take
    assert cursor == miss_ids.size
    return out


class RowCache:
    """Partitioned row cache with an immutable published index.

    Each partition holds its owner's active rows up to an equal share of the
    byte capacity, admitted in ascending id order.  The merged id->row index
    is republished atomically at refresh barriers and read lock-free between
    them.
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
        self.partitions: list[dict[int, np.ndarray]] = [{} for _ in range(n_partitions)]
        self.published: dict[int, np.ndarray] = {}
        self.refresh_count = 0

    def cached_rows(self) -> int:
        return len(self.published)

    def cached_bytes(self) -> int:
        return len(self.published) * self.row_bytes

    def rebuild(self, collected: list[list[tuple[np.ndarray, np.ndarray]]]) -> None:
        """Flush and repopulate each partition from its active rows, then publish."""
        merged: dict[int, np.ndarray] = {}
        for p in range(self.n_partitions):
            part: dict[int, np.ndarray] = {}
            chunks = collected[p]
            if chunks and self.rows_per_partition > 0:
                all_ids = np.concatenate([c[0] for c in chunks])
                all_rows = np.concatenate([c[1] for c in chunks], axis=0)
                order = np.argsort(all_ids, kind="stable")[: self.rows_per_partition]
                for i in order:
                    part[int(all_ids[i])] = all_rows[i].copy()
            self.partitions[p] = part
            merged.update(part)
        self.published = merged
        self.refresh_count += 1


@dataclass(frozen=True)
class CacheSchedule:
    """Refresh at iteration ``start``, then with doubling gaps (start, 2*start, ...)."""

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
        self.stats = IoDelta()
        self._lock = threading.Lock()
        self._collecting = False
        self._pending: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(T)]
        self._last = IoDelta()

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

    def note_elided(self, task, count: int) -> None:
        if count:
            with self._lock:
                self.stats.rows_elided += count

    def begin_iteration(self, t: int) -> None:
        self._collecting = self.cache is not None and should_refresh(t, self.schedule)

    def finish_iteration(self) -> IoDelta:
        if self._collecting:
            self.cache.rebuild(self._pending)
            self._pending = [[] for _ in range(len(self._pending))]
            self._collecting = False
        delta = self.stats - self._last
        self._last += delta
        return delta

    def total_io(self) -> IoDelta:
        return self.stats

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
