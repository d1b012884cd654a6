import re
import threading
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numakmeans.engine import EngineConfig, IoDelta, kmeans
from numakmeans.matrix import (
    MatrixFormatError,
    SyntheticSpec,
    gen_synthetic,
    partition_rows,
    save_matrix,
)
from numakmeans.outofcore import (
    DEFAULT_CACHE_BYTES,
    RowCache,
    RowStore,
    _DiskSource,
    _init_from_store,
    fetch_rows,
    kmeans_ondisk,
    should_refresh,
)

from numakmeans.scheduler import Task, split_tasks

from conftest import run_with_history


@pytest.fixture
def store_8(tmp_path):
    """512 x 8 matrix: rows are 64B, payload is exactly 8 pages."""
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    with RowStore(path, 512, 8) as store:
        yield store, m


class CountingStore(RowStore):
    """Shim that records what actually hits the file."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.physical_bytes = 0
        self.calls = 0

    def _pread_into(self, offset, view):
        self.calls += 1
        self.physical_bytes += len(view)
        return super()._pread_into(offset, view)


def test_page_aligned_row_reads_one_page(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 4, 512, seed=1))  # 4096B rows
    path = tmp_path / "w.raw"
    save_matrix(m, path, raw=True)
    stats = IoDelta()
    with RowStore(path, 4, 512) as store:
        rows = fetch_rows(store, np.array([0]), None, stats)
    assert stats.bytes_requested == 4096
    assert stats.bytes_read == 4096
    assert np.array_equal(rows[0], m[0])


def test_small_row_amplifies_to_full_page(store_8):
    store, m = store_8
    stats = IoDelta()
    rows = fetch_rows(store, np.array([0]), None, stats)
    assert stats.bytes_requested == 64
    assert stats.bytes_read == 4096
    assert np.array_equal(rows[0], m[0])


def test_full_page_of_rows_reads_once(store_8):
    store, m = store_8
    stats = IoDelta()
    rows = fetch_rows(store, np.arange(64), None, stats)
    assert stats.bytes_read == 4096
    assert rows.tobytes() == m[:64].tobytes()


def test_adjacent_pages_coalesce(store_8):
    store, _ = store_8
    # rows 0 and 64 live on pages 0 and 1: one two-page run
    assert store.page_runs(np.array([0, 64])).tolist() == [0, 2]
    # rows 0 and 128 live on pages 0 and 2: two runs
    assert store.page_runs(np.array([0, 128])).tolist() == [0, 1, 2]
    # rows on one page share its run; a gap of one page opens a new run
    ids = np.array([0, 5, 63, 64, 200, 255, 400])
    assert store.page_runs(ids).tolist() == [0, 4, 6, 7]
    assert store.page_runs(np.array([], dtype=np.int64)).tolist() == [0]


def test_row_straddling_pages_counts_both(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 10, 300, seed=2))  # 2400B rows
    path = tmp_path / "s.raw"
    save_matrix(m, path, raw=True)
    stats = IoDelta()
    with RowStore(path, 10, 300) as store:
        rows = fetch_rows(store, np.array([1]), None, stats)
    # row 1 spans bytes [2400, 4800): pages 0 and 1
    assert stats.bytes_read == 8192
    assert np.array_equal(rows[0], m[1])
    # most rows straddle a page boundary; the runs start mid-row
    for ids in (np.arange(10), np.array([1, 4, 8])):
        stats = IoDelta()
        store = CountingStore(path, 10, 300)
        rows = fetch_rows(store, ids, None, stats)
        store.close()
        assert rows.tobytes() == m[ids].tobytes()
        assert stats.bytes_read == store.physical_bytes


def test_fetch_validates_ids(store_8):
    store, _ = store_8
    with pytest.raises(IndexError):
        fetch_rows(store, np.array([512]))
    with pytest.raises(ValueError, match="ascending"):
        fetch_rows(store, np.array([5, 3]))


def test_short_read_reports_page(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    path = tmp_path / "t.raw"
    save_matrix(m, path, raw=True)
    store = RowStore(path, 512, 8)
    with open(path, "r+b") as fh:  # truncate behind the store's back
        fh.truncate(1000)
    with pytest.raises(Exception, match="page"):
        fetch_rows(store, np.arange(512))
    store.close()


class PartialReads(RowStore):
    """Returns at most 1000 bytes per pread, as a kernel may for a large run."""

    def _pread_into(self, offset, view):
        return super()._pread_into(offset, view[:1000])


def test_partial_preads_are_read_to_the_end(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    path = tmp_path / "p.raw"
    save_matrix(m, path, raw=True)
    for ids in (np.array([0, 3, 64, 65, 300, 511]), np.arange(512)):
        want, got = IoDelta(), IoDelta()
        with RowStore(path, 512, 8) as store:
            fetch_rows(store, ids, None, want)
        with PartialReads(path, 512, 8) as store:
            rows = fetch_rows(store, ids, None, got)
        assert rows.tobytes() == m[ids].tobytes()
        assert got.bytes_read == want.bytes_read


def test_store_rejects_wrong_length(tmp_path):
    path = tmp_path / "w.raw"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(Exception, match="expected"):
        RowStore(path, 4, 4)


@pytest.mark.parametrize("n,page_size,error,message", [
    (4, 0, ValueError, "page_size must be >= 1"),
    (0, 4096, MatrixFormatError, "matrix must be at least 1x1, got 0x4"),
])
def test_store_rejects_no_rows_and_pages_below_one_byte(tmp_path, n, page_size, error, message):
    path = tmp_path / "w.raw"
    path.write_bytes(b"\x00" * 128)
    with pytest.raises(ValueError) as excinfo:
        RowStore(path, n, 4, page_size=page_size)
    assert excinfo.type is error and str(excinfo.value) == message


def test_read_pages_rejects_a_buffer_too_small_for_the_run(store_8):
    store, _ = store_8
    with pytest.raises(ValueError, match="^buffer of 4095 bytes cannot hold 8192$"):
        store.read_pages(3, 2, np.empty(4095, dtype=np.uint8))


def test_store_open_header_file(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 100, 4, seed=9))
    path = tmp_path / "h.knrm"
    save_matrix(m, path)
    with RowStore.open(path) as store:
        assert (store.n, store.d) == (100, 4)
        rows = fetch_rows(store, np.arange(100))
        assert rows.tobytes() == m.tobytes()


@pytest.mark.parametrize("page_size", [4096, 100, 12, 7])
def test_bytes_read_matches_physical_shim(tmp_path, page_size):
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    path = tmp_path / "c.raw"
    save_matrix(m, path, raw=True)  # 32768B = exactly 8 pages of 4096
    stats = IoDelta()
    store = CountingStore(path, 512, 8, page_size=page_size)
    ids = np.array([0, 1, 100, 101, 200, 511])
    rows = fetch_rows(store, ids, None, stats)
    assert rows.tobytes() == m[ids].tobytes()
    assert stats.bytes_read == store.physical_bytes
    store.close()


def test_refresh_schedule_start_five():
    on = [t for t in range(1, 80) if should_refresh(t, 5)]
    assert on == [5, 15, 35, 75]


def test_refresh_schedule_start_one():
    on = [t for t in range(1, 16) if should_refresh(t, 1)]
    assert on == [1, 3, 7, 15]


def test_refresh_before_start_is_false():
    assert not any(should_refresh(t, 5) for t in range(1, 5))


def test_refresh_start_below_one_is_rejected(store_8):
    store, _ = store_8
    with pytest.raises(ValueError, match="refresh_start"):
        kmeans_ondisk(store, EngineConfig(k=2, mode="sem"), refresh_start=0)


@pytest.mark.parametrize("mode,options,message", [
    ("im", {}, "kmeans_ondisk() runs in sem mode; set cfg.mode='sem'"),
    ("sem", {"cache_capacity": -1}, "capacity must be >= 0"),
])
def test_kmeans_ondisk_rejects_im_mode_and_a_negative_capacity(store_8, mode, options, message):
    store, _ = store_8
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kmeans_ondisk(store, EngineConfig(k=2, mode=mode), **options)


def _published(cache):
    """The cached ids and rows of every slot, in task order."""
    order = sorted(cache.slots)
    ids = np.concatenate([cache.slots[i][0] for i in order] + [np.empty(0, np.int64)])
    rows = np.concatenate([cache.slots[i][1] for i in order]
                          + [np.empty((0, cache.row_bytes // 8))])
    return ids, rows


def test_row_cache_rejects_a_negative_capacity():
    with pytest.raises(ValueError, match="capacity must be >= 0"):
        RowCache(2, -1, 64)


def test_cache_keeps_each_fetch_within_its_quota(rng):
    rows = rng.normal(size=(6, 8))
    tasks = [Task(0, 10, 0, 0), Task(10, 20, 0, 1), Task(20, 40, 1, 2), Task(40, 80, 1, 3)]
    cache = RowCache(n=80, capacity_bytes=8 * 64, row_bytes=64)
    assert [cache.quota(task) for task in tasks] == [1, 1, 2, 4]
    # task 3 holds a slot from an earlier refresh and fetched nothing since
    cache.slots[3] = (np.array([50, 60]), rng.normal(size=(2, 8)))
    fetched = {0: (np.array([1]), rows[2:3]), 1: (np.array([15, 19]), rows[0:2]),
               2: (np.array([20, 30, 35]), rows[3:6])}
    for index in (2, 0, 1):  # fetches stored in any completion order
        cache.store(tasks[index], *fetched[index])
        assert cache.cached_bytes() <= cache.capacity_bytes
    cache.rebuild([2, 0, 1])
    assert sorted(cache.slots) == [0, 1, 2]
    ids, cached = _published(cache)
    assert ids.tolist() == [1, 15, 20, 30]
    assert cached.tobytes() == rows[[2, 0, 3, 4]].tobytes()
    # a fetch within its quota is kept as fetched; one over it keeps a copy
    # of its head, and every slot and every fetch stored from is read-only
    assert cache.slots[0][1] is fetched[0][1]
    assert cache.slots[1][1].base is None and cache.slots[2][1].base is None
    for _, block in list(cache.slots.values()) + list(fetched.values()):
        assert not block.flags.writeable


@given(n=st.integers(1, 5000), T=st.integers(1, 8), task_size=st.integers(1, 3000),
       capacity_bytes=st.integers(0, 50_000), row_bytes=st.sampled_from([8, 24, 64]))
@settings(max_examples=200, deadline=None)
def test_quotas_share_the_capacity_and_cover_a_fitting_file(n, T, task_size, capacity_bytes,
                                                            row_bytes):
    cache = RowCache(n, capacity_bytes, row_bytes)
    tasks = split_tasks(partition_rows(n, T), task_size)
    quotas = [cache.quota(task) for task in tasks]
    assert sum(quotas) <= capacity_bytes // row_bytes
    if capacity_bytes >= n * row_bytes:
        # a fitting file is cached whole, so kmeans++ reads it once per run
        assert all(q >= task.stop - task.start for q, task in zip(quotas, tasks))


def test_fetch_through_partly_filled_cache(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    path = tmp_path / "p.raw"
    save_matrix(m, path, raw=True)  # 64B rows, 64 rows per 4KB page
    # below, equal to, between and above the cached ids 10, 11, 200, 300
    ids = np.array([0, 5, 10, 11, 100, 200, 250, 300, 400, 511])
    with RowStore(path, 512, 8) as store:
        plain = fetch_rows(store, ids)
    cache = RowCache(n=512, capacity_bytes=512 * 64, row_bytes=64)
    cache.slots[0] = (np.array([10, 11, 200, 300]), m[[10, 11, 200, 300]])
    cache.rebuild([0])
    # misses 0, 5 | 100 | 250 | 400 | 511 sit on pages 0, 1, 3, 6, 7; page 4
    # holds only the cached row 300 and must not be read
    for slot, hits, pages in ((cache.slot(0), 4, 5), (RowCache(512, 0, 64).slot(0), 0, 6)):
        stats = IoDelta()
        store = CountingStore(path, 512, 8)
        rows = fetch_rows(store, ids, slot, stats)
        store.close()
        assert rows.tobytes() == plain.tobytes()
        assert (stats.cache_hits, stats.cache_misses) == (hits, ids.size - hits)
        assert stats.bytes_read == store.physical_bytes == pages * 4096


def test_fetch_gathers_page_runs_in_place(tmp_path):
    n, d = 40000, 16
    m = gen_synthetic(SyntheticSpec("uniform", n, d, seed=3))
    path = tmp_path / "f.raw"
    save_matrix(m, path, raw=True)
    ids = np.arange(8192, 16384)
    with RowStore(path, n, d) as store:
        tracemalloc.start()
        try:
            rows = fetch_rows(store, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.tobytes() == m[ids].tobytes()
        # the page run's bytes and the output, plus a few per-id index
        # arrays; a gathered temporary would add another rows.nbytes
        assert peak <= 2 * rows.nbytes + store.page_size + 6 * ids.nbytes
        # a cache hit inside a page run leaves its misses scattered in out
        cached = (ids[1:4096:3], m[ids[1:4096:3]])
        stats = IoDelta()
        rows = fetch_rows(store, ids, cached, stats)
        assert rows.tobytes() == m[ids].tobytes()
        assert stats.cache_hits == cached[0].size


def test_fetch_of_exactly_the_slot_returns_the_slot(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    path = tmp_path / "s.raw"
    save_matrix(m, path, raw=True)
    ids = np.array([3, 64, 65, 300])
    slot = (ids.copy(), m[ids])
    stats = IoDelta()
    with CountingStore(path, 512, 8) as store:
        rows = fetch_rows(store, ids, slot, stats)
    assert rows is slot[1]
    assert store.calls == 0
    assert (stats.cache_hits, stats.cache_misses, stats.bytes_read) == (4, 0, 0)
    assert stats.bytes_requested == 4 * 64


def test_fetch_through_random_partial_caches_counts_what_it_reads(tmp_path, rng):
    m = gen_synthetic(SyntheticSpec("uniform", 2000, 8, seed=5))
    path = tmp_path / "r.raw"
    save_matrix(m, path, raw=True)  # 64B rows, 64 rows per 4KB page
    for _ in range(40):
        ids = np.flatnonzero(rng.random(2000) < rng.uniform(0.01, 0.6))
        cached = np.flatnonzero(rng.random(2000) < rng.uniform(0.0, 0.9))
        slot = (cached, m[cached])
        miss = np.setdiff1d(ids, cached)
        stats = IoDelta()
        with CountingStore(path, 2000, 8) as store:
            rows = fetch_rows(store, ids, slot, stats)
        assert rows.tobytes() == m[ids].tobytes()
        assert stats.cache_hits == np.intersect1d(ids, cached).size
        assert stats.cache_misses == miss.size
        starts = 4096 * np.unique(np.concatenate([miss * 64 // 4096, (miss * 64 + 63) // 4096]))
        # the last page holds only the end of the 128000-byte payload
        want = int((np.minimum(starts + 4096, m.nbytes) - starts).sum())
        assert stats.bytes_read == store.physical_bytes == want


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fetch_rejects_a_non_finite_miss_among_hits(tmp_path, bad):
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    m[130, 4] = bad
    path = tmp_path / "bad.raw"
    m.tofile(path)
    ids = np.array([10, 20, 100, 130, 200, 300])
    cached = np.array([10, 20, 100, 200, 300])  # every id but 130 is a hit
    with RowStore(path, 512, 8) as store:
        with pytest.raises(MatrixFormatError, match="non-finite value in row 130"):
            fetch_rows(store, ids, (cached, m[cached]), IoDelta())
        # the cached rows are served unchecked; the finite misses pass
        assert np.array_equal(fetch_rows(store, ids[:3], (cached, m[cached])), m[ids[:3]])
        stale = m[cached]
        stale[1, 0] = bad
        rows = fetch_rows(store, ids[:3], (cached, stale))
        assert rows.tobytes() == stale[:3].tobytes()
        # a miss run checks every row it reads: 130 lies between 128 and 140
        with pytest.raises(MatrixFormatError, match="non-finite value in row 130"):
            fetch_rows(store, np.array([128, 140]))
        # and only those: this run reads row 130's page but ends before it
        assert np.array_equal(fetch_rows(store, np.array([120, 129])), m[[120, 129]])


def test_cache_slots_are_read_only(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 3000, 8, seed=5))
    path = tmp_path / "ro.raw"
    save_matrix(m, path, raw=True)
    task = Task(start=0, stop=3000, owner=0, index=0)
    with RowStore(path, 3000, 8) as store:
        source = _DiskSource(store, True, 1000 * 64, 1)
        source.finish_iteration(1)  # iteration 1 refreshes
        ids = np.arange(0, 3000, 2)
        rows = source.rows_by_ids([task], ids, np.ones(ids.size, bool))
        source.finish_iteration(2)
        cached_ids, cached = source.cache.slot(0)
        assert cached_ids.tolist() == ids[:1000].tolist()  # trimmed to the quota
        for block in (rows, cached):
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
        # the next fetch of exactly the slot is the slot itself
        assert source.rows_by_ids([task], cached_ids, np.ones(cached_ids.size, bool)) is cached


def test_fetch_follows_the_fetch_ids_and_returns_the_scanned_rows(tmp_path):
    # two tasks in one call: each fetches its own share of the fetch ids
    # through its slot, and only the rows marked for the scan come back
    m = gen_synthetic(SyntheticSpec("uniform", 3000, 8, seed=5))
    path = tmp_path / "sub.raw"
    save_matrix(m, path, raw=True)
    tasks = [Task(start=0, stop=1500, owner=0, index=0),
             Task(start=1500, stop=3000, owner=0, index=1)]
    fetch_ids = np.arange(0, 3000, 3)
    scan = (fetch_ids % 2 == 0) & (fetch_ids != 1500)
    with RowStore(path, 3000, 8) as store:
        source = _DiskSource(store, True, 3000 * 64, 1)
        source.finish_iteration(1)  # iteration 1 refreshes
        rows = source.rows_by_ids(tasks, fetch_ids, scan)
        assert np.array_equal(rows, m[fetch_ids[scan]])
        io = source.finish_iteration(2)
        assert io.bytes_requested == fetch_ids.size * 64
        assert io.rows_elided == 3000 - fetch_ids.size
        # each task's slot holds its whole fetch, not only the scanned rows
        assert source.cache.slot(0)[0].tolist() == fetch_ids[fetch_ids < 1500].tolist()
        assert source.cache.slot(1)[0].tolist() == fetch_ids[fetch_ids >= 1500].tolist()
        # a task with nothing to scan still fetches
        assert source.rows_by_ids(tasks, fetch_ids, np.zeros_like(scan)).shape == (0, 8)
        assert source.finish_iteration(3).cache_hits == fetch_ids.size


def test_pruned_runs_on_read_only_slots(tmp_path, monkeypatch):
    spec = SyntheticSpec("gaussian-mixture", 6000, 8, seed=3, k_true=6, separation=4.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = dict(k=6, seed=2, T=2, max_iters=30, task_size=1024)
    seen = []
    fetch = _DiskSource.rows_by_ids

    def spy(self, tasks, fetch_ids, scan):
        rows = fetch(self, tasks, fetch_ids, scan)
        seen.append(rows.flags.writeable)
        return rows

    monkeypatch.setattr(_DiskSource, "rows_by_ids", spy)
    with RowStore(path, *m.shape) as store:
        disk = kmeans_ondisk(store, EngineConfig(mode="sem", **cfg), refresh_start=1)
    assert not all(seen) and any(seen)  # read-only slots and fresh fetches both ran
    mem = kmeans(m, EngineConfig(**cfg))
    assert np.array_equal(disk.assignments, mem.assignments)
    assert np.array_equal(disk.centroids.means, mem.centroids.means)


@pytest.mark.parametrize("page_size", [4096, 100])
def test_init_block_read_is_a_view_of_one_page_run(tmp_path, page_size):
    n, d = 4001, 8  # the payload ends inside a page of either size
    m = gen_synthetic(SyntheticSpec("uniform", n, d, seed=3))
    path = tmp_path / "v.raw"
    save_matrix(m, path, raw=True)
    with CountingStore(path, n, d, page_size=page_size) as store:
        tracemalloc.start()
        try:
            rows, nbytes = store.read_rows(1000, 2999)  # starts and ends inside a page
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rows, m[1000:2999])
        assert not rows.flags.writeable  # the page run's own bytes
        pages = (2999 * 64 - 1) // page_size - 1000 * 64 // page_size + 1
        assert store.calls == 1
        assert nbytes == store.physical_bytes == pages * page_size
        # one page run's bytes and the finiteness check's masks, no copy of rows
        assert peak <= rows.nbytes + 2 * page_size + rows.size + 3 * (2999 - 1000)
        # the payload's last page counts only up to the end of the payload
        rows, nbytes = store.read_rows(3990, n)
        assert np.array_equal(rows, m[3990:])
        assert nbytes == n * 64 - 3990 * 64 // page_size * page_size
        assert nbytes % page_size  # the run ends in a partial page
        assert store.physical_bytes == pages * page_size + nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sem_rejects_non_finite_rows(tmp_path, bad):
    m = gen_synthetic(SyntheticSpec("uniform", 300, 4, seed=8))
    m[137, 2] = bad
    path = tmp_path / "bad.raw"
    m.tofile(path)  # save_matrix would refuse it
    with pytest.raises(MatrixFormatError, match="non-finite value in row 137"):
        kmeans(m, EngineConfig(k=3))
    for init in ("forgy", "kmeanspp"):
        for cache_enabled in (True, False):
            cfg = EngineConfig(k=3, init=init, seed=1, T=2, mode="sem")
            with RowStore(path, 300, 4) as store:
                with pytest.raises(MatrixFormatError, match="non-finite value in row 137"):
                    kmeans_ondisk(store, cfg, cache_enabled=cache_enabled,
                                  refresh_start=1)


def test_kmeanspp_error_names_the_lowest_bad_row_and_joins_its_threads(tmp_path):
    cases = [
        # cache off; on at the default capacity, which pins every row; and
        # on with a quota of 750 rows for each of the two tasks, which pins
        # rows 0..749 and 1500..2249
        ([700, 2300], [dict(cache_enabled=False), {}, dict(cache_capacity=2 * 750 * 4 * 8)]),
        # quotas of 500 rows pin rows 0..499 and 1500..1999: row 1600 is
        # pinned and row 700 is not
        ([700, 1600], [dict(cache_capacity=2 * 500 * 4 * 8)]),
    ]
    cfg = EngineConfig(k=3, init="kmeanspp", seed=1, T=2, mode="sem")
    before = threading.active_count()
    for bad, options in cases:
        m = gen_synthetic(SyntheticSpec("uniform", 3000, 4, seed=8))
        m[bad, 1] = np.nan  # one in each of the two ranges
        path = tmp_path / "bad.raw"
        m.tofile(path)
        for kw in options:
            for _ in range(20):
                with RowStore(path, 3000, 4) as store:
                    with pytest.raises(MatrixFormatError, match="non-finite value in row 700$"):
                        kmeans_ondisk(store, cfg, **kw)
                assert threading.active_count() == before


class ShortInSecondHalf(RowStore):
    """Returns one byte short for any read that starts in the second half."""

    def _pread_into(self, offset, view):
        got = super()._pread_into(offset, view)
        return max(got - 1, 0) if offset - self.payload_offset >= self.payload_bytes // 2 else got


def test_kmeanspp_short_read_in_the_second_range_raises(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 3000, 4, seed=8))
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=3, init="kmeanspp", seed=1, T=2, mode="sem")
    before = threading.active_count()
    with ShortInSecondHalf(path, 3000, 4) as store:
        with pytest.raises(MatrixFormatError, match="short read"):
            kmeans_ondisk(store, cfg, cache_enabled=False)
    assert threading.active_count() == before


def test_cache_zero_capacity_stays_empty(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 1500, 6, seed=3, k_true=4, separation=6.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    base_cfg = dict(k=4, seed=2, T=2, max_iters=40, mode="sem")
    with RowStore(path, 1500, 6) as store:
        no_cache, no_cache_hist = run_with_history(kmeans_ondisk, store,
                                                   EngineConfig(**base_cfg),
                                                   cache_enabled=False)
    with RowStore(path, 1500, 6) as store:
        zero, zero_hist = run_with_history(kmeans_ondisk, store, EngineConfig(**base_cfg),
                                           cache_capacity=0, refresh_start=1)
    assert zero.io_totals.cache_hits == 0
    for a, b in zip(no_cache_hist, zero_hist):
        assert np.array_equal(a, b)
    assert np.array_equal(no_cache.centroids.means, zero.centroids.means)


def test_sem_matches_in_memory_and_capacity_is_transparent(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 2000, 8, seed=13, k_true=4, separation=5.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    data_bytes = 2000 * 8 * 8

    im, im_hist = run_with_history(kmeans, m, EngineConfig(k=4, seed=6, T=2, max_iters=50))
    for capacity in (0, data_bytes // 4, data_bytes):
        cfg = EngineConfig(k=4, seed=6, T=2, max_iters=50, mode="sem")
        with RowStore(path, 2000, 8) as store:
            sem, sem_hist = run_with_history(kmeans_ondisk, store, cfg,
                                             cache_capacity=capacity,
                                             refresh_start=2)
        assert sem.n_iterations == im.n_iterations
        for a, b in zip(sem_hist, im_hist):
            assert np.array_equal(a, b)
        assert np.array_equal(sem.centroids.means, im.centroids.means)


@pytest.mark.parametrize("page_size", [12, 100])
def test_sem_matches_in_memory_at_unaligned_page_size(tmp_path, page_size):
    # 40-byte rows: pages neither hold whole rows nor a whole number of floats
    spec = SyntheticSpec("gaussian-mixture", 3000, 5, seed=4, k_true=4, separation=2.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    im = kmeans(m, EngineConfig(k=4, seed=2, T=2))
    cfg = EngineConfig(k=4, seed=2, T=2, mode="sem")
    with RowStore(path, 3000, 5, page_size=page_size) as store:
        sem = kmeans_ondisk(store, cfg, refresh_start=1)
    assert sem.io_totals.cache_hits > 0
    assert np.array_equal(sem.assignments, im.assignments)
    assert np.array_equal(sem.centroids.means, im.centroids.means)


def test_cached_rows_bit_identical_to_disk(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 1200, 8, seed=7, k_true=3, separation=4.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=3, seed=1, T=2, max_iters=30, mode="sem")
    with RowStore(path, 1200, 8) as store:
        source_holder = {}
        from numakmeans import outofcore

        orig = outofcore._DiskSource

        class Spy(orig):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                source_holder["src"] = self

        outofcore._DiskSource = Spy
        try:
            kmeans_ondisk(store, cfg, cache_capacity=10**7, refresh_start=1)
        finally:
            outofcore._DiskSource = orig
        ids, rows = _published(source_holder["src"].cache)
        assert ids.size
        for rid, row in zip(ids, rows):
            assert row.tobytes() == m[rid].tobytes()


def test_elided_rows_generate_no_fetch(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 1600, 8, seed=19, k_true=4, separation=50.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=4, seed=3, T=2, max_iters=40, mode="sem")
    for cache_enabled in (False, True):
        with RowStore(path, 1600, 8) as store:
            res = kmeans_ondisk(store, cfg, cache_enabled=cache_enabled,
                                refresh_start=1)
        for st in res.iterations:
            io = st.io
            # the gap test elides rows from the fetch; the lower bounds skip
            # more rows from the scan, but not from the fetch
            assert io.rows_elided <= st.skips
            assert io.bytes_requested == (1600 - io.rows_elided) * 64
        assert any(st.io.rows_elided < st.skips for st in res.iterations)
        # the run's totals are the per-iteration counts summed
        for f in fields(IoDelta):
            assert getattr(res.io_totals, f.name) == \
                sum(getattr(st.io, f.name) for st in res.iterations), (cache_enabled, f.name)
    im = kmeans(m, EngineConfig(k=4, seed=3, T=2, max_iters=40))
    assert im.io_totals is None
    assert all(st.io is None for st in im.iterations)


def pruned_state_overhead(mode, tmp_path):
    """Peak resident state of a pruned run less that of an unpruned one."""
    n, d, k = 6000, 5, 7
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=29, k_true=k, separation=4.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    peaks = {}
    for pruning in (True, False):
        cfg = EngineConfig(k=k, seed=2, T=2, task_size=500, max_iters=20, pruning=pruning,
                           mode=mode)
        if mode == "im":
            res = kmeans(m, cfg)
        else:
            with RowStore(path, n, d) as store:
                res = kmeans_ondisk(store, cfg)
        assert res.n_iterations > 2
        peaks[pruning] = res.peak_state_bytes
    # per row two float32 bounds; the (k, k) gap table and its k row minima
    # in float64, the minima again in float32 for the point skip and the
    # float32 k-vector of other drifts; nothing else
    return peaks[True] - peaks[False], 8 * n + 8 * (k * k + k) + 4 * k + 4 * k


def test_pruning_on_disk_keeps_one_bound_per_row_and_the_gap_table(tmp_path):
    got, want = pruned_state_overhead("sem", tmp_path)
    assert got == want


def test_pruning_in_memory_keeps_the_on_disk_bound_state(tmp_path):
    got, want = pruned_state_overhead("im", tmp_path)
    assert got == want


def test_requested_vs_read_fragmentation(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 2000, 8, seed=23, k_true=5, separation=2.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=7, seed=4, T=2, max_iters=40, mode="sem")
    with RowStore(path, 2000, 8) as store:
        res = kmeans_ondisk(store, cfg, cache_enabled=False)
    mid = [st for st in res.iterations[1:] if 0 < st.io.bytes_requested]
    assert mid, "expected at least one partially-active iteration"
    # scattered 64B rows on 4KB pages: reads exceed requests
    assert any(st.io.bytes_read > st.io.bytes_requested for st in mid)


def test_sem_init_matches_in_memory_bitwise(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 700, 5, seed=31))
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    from numakmeans.centroids import init_centroids

    with RowStore(path, 700, 5) as store:
        for method in ("forgy", "random-partition", "kmeanspp"):
            cfg = EngineConfig(k=6, init=method, seed=17, mode="sem")
            disk = _init_from_store(store, cfg, [range(store.n)])
            mem = init_centroids(m, 6, method, seed=17)
            assert np.array_equal(disk.means, mem.means), method

    long = gen_synthetic(SyntheticSpec("uniform", 2 * 8192 + 37, 5, seed=32))
    flat = np.full((40, 5), 2.5)
    cases = [(long, 6, method, None) for method in ("forgy", "random-partition", "kmeanspp")]
    cases += [
        (m, 6, "given", m[::100][:6] + 0.25),
        (flat, 6, "kmeanspp", None),           # every d2 total is zero
        (m[:5], 9, "random-partition", None),  # k > n leaves empty groups
    ]
    for i, (rows, k, method, initial) in enumerate(cases):
        path = tmp_path / f"case{i}.raw"
        save_matrix(rows, path, raw=True)
        cfg = EngineConfig(k=k, init=method, seed=17, mode="sem", initial_centroids=initial)
        with RowStore(path, *rows.shape) as store:
            disk = _init_from_store(store, cfg, [range(store.n)])
        mem = init_centroids(rows, k, method, seed=17, initial=initial)
        assert np.array_equal(disk.means, mem.means), (method, rows.shape, k)


def test_quarter_capacity_hit_rate_tracks_stable_active_rows(tmp_path):
    n, d, k = 20000, 8, 8
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=61, k_true=k, separation=4.0)
    m = gen_synthetic(spec)
    path = tmp_path / "q.raw"
    save_matrix(m, path, raw=True)
    capacity = (n * d * 8) // 4
    cfg = EngineConfig(k=k, seed=13, T=2, max_iters=40, pruning=True, mode="sem")
    with RowStore(path, n, d) as store:
        res = kmeans_ondisk(store, cfg, cache_capacity=capacity,
                            refresh_start=5)
    cached_rows = capacity // (d * 8)  # the task quotas sum to at most this
    post = [st for st in res.iterations if st.t > 5]
    assert post
    for st in post:
        io = st.io
        active = io.cache_hits + io.cache_misses
        assert io.cache_hits <= min(active, cached_rows)
        # the stable active set fits in a quarter-capacity cache here, so
        # between refreshes nearly every non-elided fetch is served by it
        assert io.cache_hits / max(1, active) >= 0.9


def test_bytes_read_covers_uncached_requests(tmp_path):
    n, d = 6000, 8
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=3, k_true=4, separation=5.0)
    m = gen_synthetic(spec)
    path = tmp_path / "inv.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=4, seed=2, T=2, max_iters=40, pruning=True, mode="sem")
    with RowStore(path, n, d) as store:
        res = kmeans_ondisk(store, cfg, cache_capacity=n * d * 8,
                            refresh_start=2)
    for st in res.iterations:
        io = st.io
        assert io.bytes_read >= io.bytes_requested - io.cache_hits * d * 8


def test_cache_hits_accumulate_after_refresh(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 2400, 8, seed=37, k_true=6, separation=3.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=6, seed=9, T=2, max_iters=60, mode="sem")
    with RowStore(path, 2400, 8) as store:
        res = kmeans_ondisk(store, cfg, cache_capacity=2400 * 64,
                            refresh_start=2)
    refreshes = [t for t in range(1, res.n_iterations) if should_refresh(t, 2)]
    assert refreshes, "run too short to exercise the cache"
    first = refreshes[0]
    post = [st for st in res.iterations if st.t > first]
    assert post
    hits = sum(st.io.cache_hits for st in post)
    misses = sum(st.io.cache_misses for st in post)
    assert hits > 0
    assert hits / max(1, hits + misses) > 0.5


@pytest.mark.parametrize("d, T, task_size, share", [
    (16, 1, 8192, 2),
    (16, 2, 8192, 2),
    (16, 3, 8192, 2),
    (24, 2, 8192, 2),   # kmeans++ blocks of 5461 rows cross the pinned edge
    (24, 3, 8192, 3),
    (16, 2, 5000, 1),   # the file fits; blocks of 8192 rows span tasks of 5000
    (16, 3, 5000, 3),
])
def test_pinned_rows_give_the_in_memory_results(tmp_path, monkeypatch, d, T, task_size, share):
    n = 20000
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=41, k_true=16, separation=3.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    capacity = n * d * 8 // share
    cfg = dict(k=16, init="kmeanspp", seed=5, T=T, max_iters=12, task_size=task_size)
    im, im_hist = run_with_history(kmeans, m, EngineConfig(**cfg))
    pinned = []  # the cache slots as init leaves them
    init = _DiskSource.init_centroids

    def spy(self, cfg, ranges, tasks):
        centroids = init(self, cfg, ranges, tasks)
        pinned.append(dict(self.cache.slots))
        return centroids

    monkeypatch.setattr(_DiskSource, "init_centroids", spy)
    with RowStore(path, n, d) as store:
        sem, sem_hist = run_with_history(kmeans_ondisk, store,
                                         EngineConfig(mode="sem", **cfg),
                                         cache_capacity=capacity)
    assert sem.n_iterations == im.n_iterations > 5
    for a, b in zip(sem_hist, im_hist):
        assert np.array_equal(a, b)
    assert np.array_equal(sem.centroids.means, im.centroids.means)

    # each task's head up to its quota, its rows' share of the capacity,
    # one array per task
    (slots,) = pinned
    cap_rows = capacity // (d * 8)
    heads = [(t.start, t.stop - t.start) for t in split_tasks(partition_rows(n, T), task_size)]
    want = np.concatenate([np.arange(lo, lo + min(size, cap_rows * size // n))
                           for lo, size in heads])
    assert np.array_equal(np.concatenate([ids for ids, _ in slots.values()]), want)
    assert (want.size == n) == (share == 1)
    for ids, rows in slots.values():
        assert np.array_equal(rows, m[ids]) and not rows.flags.writeable
    # slots the pins fill serve iteration 0 without a read
    assert sem.iterations[0].io.cache_hits == want.size


def test_init_reads_a_fitting_file_once_and_iteration_0_reads_nothing(tmp_path, monkeypatch):
    n, d, k, T = 20000, 16, 16, 2
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=41, k_true=16, separation=3.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=k, init="kmeanspp", seed=3, T=T, max_iters=12, mode="sem")
    read = []
    read_pages = RowStore.read_pages

    def counting(self, first_page, n_pages, out=None):
        blob = read_pages(self, first_page, n_pages, out)
        read.append(blob.size)
        return blob

    monkeypatch.setattr(RowStore, "read_pages", counting)
    payload = n * d * 8
    ranges = partition_rows(n, T)
    tasks = split_tasks(ranges, cfg.task_size)
    with RowStore(path, n, d) as store:
        for cache_enabled, capacity, pins in ((True, DEFAULT_CACHE_BYTES, n),
                                              (True, 0, 0), (False, DEFAULT_CACHE_BYTES, 0)):
            read.clear()
            source = _DiskSource(store, cache_enabled, capacity, 5)
            source.init_centroids(cfg, ranges, tasks)
            held = 0 if source.cache is None else source.cache.cached_bytes()
            assert held == pins * d * 8
            if pins:
                # the pinned rows once, with at most a page more at either
                # end of each of the 4 tasks, and a page for each of the
                # k - 1 centres taken during the draws and the k taken at the end
                assert payload <= sum(read) <= payload + (2 * 4 + 2 * k - 1) * store.page_size
            else:
                # the first pass and the filter's k - 2 later ones read every row
                assert sum(read) >= (k - 1) * payload
        res = kmeans_ondisk(store, cfg)
    assert res.n_iterations > 5
    first = res.iterations[0].io
    assert (first.bytes_read, first.cache_hits, first.cache_misses) == (0, n, 0)
    # until the first refresh, every survivor is copied out of its pinned slot
    assert all(st.io.bytes_read == 0 for st in res.iterations[:6])


@pytest.mark.parametrize("init", ["forgy", "given", "random-partition"])
def test_init_pins_rows_only_for_kmeanspp(tmp_path, init):
    # the other methods read the file at most once in init, so they pin
    # nothing and iteration 0 reads the whole file, as with no pins
    n, d, k = 6000, 8, 8
    m = gen_synthetic(SyntheticSpec("gaussian-mixture", n, d, seed=41, k_true=8))
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    given = m[:k].copy() if init == "given" else None
    cfg = EngineConfig(k=k, init=init, seed=3, T=2, max_iters=4, mode="sem",
                       initial_centroids=given)
    ranges = partition_rows(n, 2)
    with RowStore(path, n, d) as store:
        source = _DiskSource(store, True, DEFAULT_CACHE_BYTES, 5)
        source.init_centroids(cfg, ranges, split_tasks(ranges, cfg.task_size))
        assert source.cache.slots == {}
        res = kmeans_ondisk(store, cfg)
    first = res.iterations[0].io
    assert (first.cache_hits, first.cache_misses) == (0, n)
    assert first.bytes_read >= n * d * 8


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Traced-memory peaks of three kmeans_ondisk runs, the cache once init has
    pinned its slots and after each rebuild, and whether each run's first
    rebuild let go of every pinned array its refresh did not refetch whole.

    A peak moves by up to about 1 MB with how the two workers' temporaries
    happen to overlap, so the tests compare the lowest peak of a cache run
    with the highest of three cache-off runs.
    """
    n, d = 40000, 16
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=11, k_true=32, separation=6.0)
    path = tmp_path_factory.mktemp("mem") / "m.raw"
    save_matrix(gen_synthetic(spec), path, raw=True)
    cfg = EngineConfig(k=64, init="kmeanspp", seed=1, T=2, max_iters=16, mode="sem")

    def runs(**kw):
        peaks, sizes, dropped = [], [], []
        rebuild, init = RowCache.rebuild, _DiskSource.init_centroids
        pinned = {}

        def spy(self, owners):
            rebuild(self, owners)
            sizes.append(self.cached_bytes())
            if pinned:
                # the first rebuild: a pinned array outlives it only as the
                # slot of a task whose refresh fetch returned it whole
                slots = {i: rows for i, (_, rows) in self.slots.items()}
                dropped.append(all(ref() is None or slots.get(i) is ref()
                                   for i, ref in pinned.items()))
                pinned.clear()

        def spy_init(self, cfg, ranges, tasks):
            centroids = init(self, cfg, ranges, tasks)
            if self.cache is not None and self.cache.slots:
                sizes.append(self.cache.cached_bytes())
                pinned.update((i, weakref.ref(rows)) for i, (_, rows) in self.cache.slots.items())
            return centroids

        RowCache.rebuild, _DiskSource.init_centroids = spy, spy_init
        try:
            for _ in range(3):
                with RowStore(path, n, d) as store:
                    tracemalloc.start()
                    try:
                        res = kmeans_ondisk(store, cfg, refresh_start=1, **kw)
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
                assert res.n_iterations == 16
        finally:
            RowCache.rebuild, _DiskSource.init_centroids = rebuild, init
        return peaks, sizes, dropped

    return runs, max(runs(cache_enabled=False)[0]), n * d * 8


def test_cache_costs_its_rows_plus_one_task(traced_runs):
    runs, off, data_bytes = traced_runs
    peaks, sizes, dropped = runs(cache_capacity=data_bytes)
    # the cache at its largest, pinned slots included, plus one 8192-row
    # task fetched while the slot it replaces is still held
    assert min(peaks) - off <= max(sizes) + 8192 * 16 * 8
    # every row pinned in init, then refreshes at iterations 1, 3, 7 and 15
    assert len(sizes) == 3 * 5 and sizes[0] == data_bytes
    assert dropped == [True] * 3


@pytest.mark.parametrize("share", [8, 4])
def test_cache_below_the_survivors_stays_within_its_capacity(traced_runs, monkeypatch, share):
    runs, off, data_bytes = traced_runs
    capacity = data_bytes // share
    held = []  # the cache's bytes after each fetch
    fetch = _DiskSource._fetch

    def spy(self, task, ids):
        rows = fetch(self, task, ids)
        held.append(self.cache.cached_bytes())
        return rows

    monkeypatch.setattr(_DiskSource, "_fetch", spy)
    peaks, sizes, _ = runs(cache_capacity=capacity)
    # after init's pins, every fetch and every rebuild
    assert held and sizes and max(held + sizes) <= capacity
    # the cache at its capacity, plus one 8192-row task fetched while the
    # slot it replaces is still held
    assert min(peaks) - off <= capacity + 8192 * 16 * 8


def test_zero_capacity_cache_collects_nothing(traced_runs):
    runs, off, _ = traced_runs
    peaks, sizes, _ = runs(cache_capacity=0)
    assert min(peaks) - off <= 250_000
    assert sizes == []
