"""Out-of-core execution: disk-resident rows, page-granular I/O, row caching.

Row data stays on disk and is read through :class:`numakmeans.matrix.RowStore`,
which owns the file layout; only O(n) per-point state lives in memory.
Reads happen at page granularity (4KB by default, any positive number of
bytes), so fetching scattered rows pulls in more bytes than requested; the
accounting here tracks both quantities.  Each coalesced run of pages is read
in one call and viewed as the whole rows that start inside it, so rows need
not align with pages, and each row is checked finite once, when it is read.
A partitioned row cache pins active rows in memory at row granularity and is
refreshed lazily on an exponential schedule, because rows that stay active
tend to keep staying active.  The cache keeps one (ids, rows) slot per task:
a task covers the same rows every iteration, so it searches only its own
slot, and a refresh replaces each slot with that task's own fetch, made
read-only.  In the steady state a task's survivors are its slot's ids, and
the fetch returns the slot's rows themselves; other fetches copy their
hits out of the slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroids import CentroidSet, init_from_rows
from .engine import EngineConfig, IoDelta, KmeansResult, _Engine
from .matrix import ROW_DTYPE, RowStore, check_finite

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
    ids gathered from the whole rows that start inside it.  Only the rows
    read here are checked finite; cached rows were checked when they were
    read.
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
    d = store.d
    out = np.empty((ids.size, d), dtype=np.float64)
    if ids.size == 0:
        return out

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
        p0 = int(miss_pos[lo])
        if miss_pos[hi - 1] - p0 == hi - lo - 1:
            # contiguous output (always so without cache hits): gather in place
            block = out[p0:p0 + hi - lo]
            np.take(view, miss_ids[lo:hi] - r0, axis=0, out=block, mode="clip")
            check_finite(block, miss_ids[lo:hi])
        else:
            out[miss_pos[lo:hi]] = check_finite(view[miss_ids[lo:hi] - r0], miss_ids[lo:hi])
    return out


def _read_range(store: RowStore, lo: int, hi: int, buf: np.ndarray | None = None) -> np.ndarray:
    """Rows lo..hi-1, checked finite, as a read-only view of the one page run
    that holds them, read into the start of ``buf`` when it is given (see
    :meth:`RowStore.read_pages`): no gather and no output buffer."""
    start = lo * store.row_bytes
    first = start // store.page_size
    last = (hi * store.row_bytes - 1) // store.page_size
    blob = store.read_pages(first, last - first + 1, buf)
    rows = np.frombuffer(blob, ROW_DTYPE, (hi - lo) * store.d, start - first * store.page_size)
    rows.flags.writeable = False
    return check_finite(rows.reshape(hi - lo, store.d), range(lo, hi))


def _range_reader(store: RowStore):
    """A ``block(lo, hi)`` for one initialization thread: :func:`_read_range`
    into one buffer that it keeps, replaced only by a larger one when a block
    needs more."""
    buf = np.empty(0, dtype=np.uint8)

    def block(lo, hi):
        nonlocal buf
        need = (hi - lo) * store.row_bytes + 2 * store.page_size
        if buf.size < need:
            buf = np.empty(need, dtype=np.uint8)
        return _read_range(store, lo, hi, buf)

    return block


class RowCache:
    """Partitioned row cache kept as one ``(ids, rows)`` slot per task.

    The task layout is fixed for a run, so task i covers the same rows every
    iteration and looks up only ``slot(i)``.  A refresh iteration's fetches
    replace their tasks' slots; :meth:`rebuild` then trims each partition to
    an equal share of the byte capacity, admitted in ascending id order.
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
        self.slots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._empty = (np.empty(0, dtype=np.int64), np.empty((0, row_bytes // 8)))

    def slot(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self.slots.get(index, self._empty)

    def cached_bytes(self) -> int:
        return sum(ids.size for ids, _ in self.slots.values()) * self.row_bytes

    def rebuild(self, owners: dict[int, int]) -> None:
        """Keep the slots of ``owners`` (task index -> partition), drop the rest.

        In task order, i.e. ascending ids, each partition keeps rows until it
        holds ``rows_per_partition``; a slot cut short keeps a read-only copy
        of its head.
        """
        room = [self.rows_per_partition] * self.n_partitions
        slots = {}
        for index in sorted(owners):
            ids, rows = self.slots[index]
            keep = min(ids.size, room[owners[index]])
            room[owners[index]] -= keep
            if keep == ids.size:
                slots[index] = ids, rows
            elif keep:
                head = rows[:keep].copy()
                head.flags.writeable = False
                slots[index] = ids[:keep].copy(), head
        self.slots = slots


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
        # A task fetches at most once per iteration, and alone writes its
        # counts here and, in a refresh iteration, its cache slot.
        self._io: dict = {}
        self._refresh = False

    def _fetch(self, task, ids: np.ndarray) -> np.ndarray:
        local = self._io[task] = IoDelta()
        slot = None if self.cache is None else self.cache.slot(task.index)
        rows = fetch_rows(self.store, ids, slot, local)
        if self._refresh:
            # a slot is handed out as it is, so nothing may write through it
            rows.flags.writeable = False
            self.cache.slots[task.index] = ids, rows
        return rows

    def task_rows(self, task) -> np.ndarray:
        return self._fetch(task, np.arange(task.start, task.stop, dtype=np.int64))

    def rows_by_ids(self, task, ids) -> np.ndarray:
        return self._fetch(task, np.asarray(ids, dtype=np.int64))

    def finish_iteration(self, next_t: int) -> IoDelta:
        """This iteration's counts; a refresh iteration's slots become the cache."""
        io = IoDelta()
        for local in self._io.values():
            io += local
        if self._refresh:
            self.cache.rebuild({task.index: task.owner for task in self._io})
        self._io = {}
        self._refresh = (self.cache is not None and self.cache.rows_per_partition > 0
                         and should_refresh(next_t, self.schedule))
        return io

    def state_bytes(self) -> int:
        # Row data lives on disk; the cache and fetch buffers are accounted
        # separately from resident engine state.
        return 0

    def init_centroids(self, cfg: EngineConfig, ranges: list[range]) -> CentroidSet:
        # Initialization fetches pass no counter: their reads are setup cost
        # and stay out of the per-iteration I/O report and the run totals.
        return _init_from_store(self.store, cfg, ranges)


def _init_from_store(store: RowStore, cfg: EngineConfig, ranges: list[range]) -> CentroidSet:
    """Seeded initialization from disk; the draws are the in-memory path's.

    A block of rows is read once, into its thread's buffer, and used as a
    view of the page run that holds it.
    """

    def take(ids):
        unique, inverse = np.unique(ids, return_inverse=True)
        return fetch_rows(store, unique)[inverse]

    return init_from_rows(take, lambda: _range_reader(store),
                          store.n, store.d, cfg.k, cfg.init, cfg.seed,
                          cfg.initial_centroids, ranges)


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
