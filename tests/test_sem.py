import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from numakmeans.engine import EngineConfig, IoDelta, kmeans
from numakmeans.matrix import MatrixFormatError, SyntheticSpec, gen_synthetic, save_matrix
from numakmeans.outofcore import (
    CacheSchedule,
    RowCache,
    RowStore,
    _DiskSource,
    _init_from_store,
    _read_range,
    fetch_rows,
    kmeans_ondisk,
    page_runs,
    should_refresh,
)

from numakmeans.scheduler import Task

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
    first, pages, cuts = page_runs(np.array([0, 64]), store.row_bytes, store.page_size)
    assert list(zip(first.tolist(), pages.tolist())) == [(0, 2)]
    assert pages.sum() == 2
    assert cuts.tolist() == [0, 2]
    # rows 0 and 128 live on pages 0 and 2: two runs
    first, pages, cuts = page_runs(np.array([0, 128]), store.row_bytes, store.page_size)
    assert list(zip(first.tolist(), pages.tolist())) == [(0, 1), (2, 1)]
    assert pages.sum() == 2
    assert cuts.tolist() == [0, 1, 2]
    first, pages, cuts = page_runs(np.array([], dtype=np.int64), store.row_bytes,
                                   store.page_size)
    assert (first.size, pages.sum(), cuts.tolist()) == (0, 0, [0])


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
    sched = CacheSchedule(5)
    on = [t for t in range(1, 80) if should_refresh(t, sched)]
    assert on == [5, 15, 35, 75]


def test_refresh_schedule_start_one():
    sched = CacheSchedule(1)
    on = [t for t in range(1, 16) if should_refresh(t, sched)]
    assert on == [1, 3, 7, 15]


def test_refresh_before_start_is_false():
    sched = CacheSchedule(5)
    assert not any(should_refresh(t, sched) for t in range(1, 5))


def _published(cache):
    """The cached ids and rows of every slot, in task order."""
    order = sorted(cache.slots)
    ids = np.concatenate([cache.slots[i][0] for i in order] + [np.empty(0, np.int64)])
    rows = np.concatenate([cache.slots[i][1] for i in order]
                          + [np.empty((0, cache.row_bytes // 8))])
    return ids, rows


def test_cache_rebuild_truncates_by_ascending_id(rng):
    rows = rng.normal(size=(6, 8))
    # tasks 0 and 1 belong to partition 0, tasks 2 and 3 to partition 1
    fetched = {0: (np.array([1]), rows[2:3]), 1: (np.array([5, 9]), rows[0:2]),
               2: (np.array([20, 30, 40]), rows[3:6])}
    owners = {0: 0, 1: 0, 2: 1}
    for reverse in (False, True):  # slots handed over in either completion order
        order = sorted(fetched, reverse=reverse)
        cache = RowCache(n_partitions=2, capacity_bytes=4 * 64, row_bytes=64)
        assert cache.rows_per_partition == 2
        # task 3 holds a slot from an earlier refresh and fetched nothing since
        cache.slots[3] = (np.array([50, 60]), rng.normal(size=(2, 8)))
        for index in order:
            cache.slots[index] = fetched[index]
        cache.rebuild({index: owners[index] for index in order})
        ids, cached = _published(cache)
        assert ids.tolist() == [1, 5, 20, 30]
        assert cache.cached_bytes() <= cache.capacity_bytes
        assert np.array_equal(cached[0], rows[2])
        assert cached.tobytes() == rows[[2, 0, 3, 4]].tobytes()
        assert 3 not in cache.slots
        # a whole slot is kept as fetched; a trimmed one owns a copy of its head
        assert cache.slots[0][1] is fetched[0][1]
        assert cache.slots[1][1].base is None and cache.slots[2][1].base is None


def test_fetch_through_partly_filled_cache(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    path = tmp_path / "p.raw"
    save_matrix(m, path, raw=True)  # 64B rows, 64 rows per 4KB page
    # below, equal to, between and above the cached ids 10, 11, 200, 300
    ids = np.array([0, 5, 10, 11, 100, 200, 250, 300, 400, 511])
    with RowStore(path, 512, 8) as store:
        plain = fetch_rows(store, ids)
    cache = RowCache(n_partitions=1, capacity_bytes=512 * 64, row_bytes=64)
    cache.slots[0] = (np.array([10, 11, 200, 300]), m[[10, 11, 200, 300]])
    cache.rebuild({0: 0})
    # misses 0, 5 | 100 | 250 | 400 | 511 sit on pages 0, 1, 3, 6, 7; page 4
    # holds only the cached row 300 and must not be read
    for slot, hits, pages in ((cache.slot(0), 4, 5), (RowCache(2, 0, 64).slot(0), 0, 6)):
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


def test_cache_slots_are_read_only(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 3000, 8, seed=5))
    path = tmp_path / "ro.raw"
    save_matrix(m, path, raw=True)
    task = Task(start=0, stop=3000, owner=0, index=0)
    with RowStore(path, 3000, 8) as store:
        source = _DiskSource(store, 1, True, 1000 * 64, CacheSchedule(1))
        source.finish_iteration(1)  # iteration 1 refreshes
        ids = np.arange(0, 3000, 2)
        rows = source.rows_by_ids(task, ids)
        source.finish_iteration(2)
        cached_ids, cached = source.cache.slot(0)
        assert cached_ids.tolist() == ids[:1000].tolist()  # trimmed to capacity
        for block in (rows, cached):
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
        # the next fetch of exactly the slot is the slot itself
        assert source.rows_by_ids(task, cached_ids) is cached


def test_pruned_runs_on_read_only_slots(tmp_path, monkeypatch):
    spec = SyntheticSpec("gaussian-mixture", 6000, 8, seed=3, k_true=6, separation=4.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = dict(k=6, seed=2, T=2, max_iters=30, task_size=1024)
    seen = []
    fetch = _DiskSource.rows_by_ids

    def spy(self, task, ids):
        rows = fetch(self, task, ids)
        seen.append(rows.flags.writeable)
        return rows

    monkeypatch.setattr(_DiskSource, "rows_by_ids", spy)
    with RowStore(path, *m.shape) as store:
        disk = kmeans_ondisk(store, EngineConfig(mode="sem", **cfg), schedule=CacheSchedule(1))
    assert not all(seen) and any(seen)  # read-only slots and fresh fetches both ran
    mem = kmeans(m, EngineConfig(**cfg))
    assert np.array_equal(disk.assignments, mem.assignments)
    assert np.array_equal(disk.centroids.means, mem.centroids.means)


@pytest.mark.parametrize("page_size", [4096, 100])
def test_init_block_read_is_a_view_of_one_page_run(tmp_path, page_size):
    n, d = 4000, 8
    m = gen_synthetic(SyntheticSpec("uniform", n, d, seed=3))
    path = tmp_path / "v.raw"
    save_matrix(m, path, raw=True)
    with CountingStore(path, n, d, page_size=page_size) as store:
        tracemalloc.start()
        try:
            rows = _read_range(store, 1000, 2999)  # starts and ends inside a page
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rows, m[1000:2999])
        assert not rows.flags.writeable  # the page run's own bytes
        pages = (2999 * 64 - 1) // page_size - 1000 * 64 // page_size + 1
        assert store.calls == 1
        assert store.physical_bytes == pages * page_size
        # one page run's bytes and the finiteness check's masks, no copy of rows
        assert peak <= rows.nbytes + 2 * page_size + rows.size + 3 * (2999 - 1000)


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
                                  schedule=CacheSchedule(1))


def test_kmeanspp_error_names_the_lowest_bad_row_and_joins_its_threads(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 3000, 4, seed=8))
    m[[700, 2300], 1] = np.nan  # one in each of the two ranges
    path = tmp_path / "bad.raw"
    m.tofile(path)
    cfg = EngineConfig(k=3, init="kmeanspp", seed=1, T=2, mode="sem")
    before = threading.active_count()
    for _ in range(20):
        with RowStore(path, 3000, 4) as store:
            with pytest.raises(MatrixFormatError, match="non-finite value in row 700$"):
                kmeans_ondisk(store, cfg, cache_enabled=False)
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
                                           cache_capacity=0, schedule=CacheSchedule(1))
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
                                             schedule=CacheSchedule(2))
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
        sem = kmeans_ondisk(store, cfg, schedule=CacheSchedule(1))
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
            kmeans_ondisk(store, cfg, cache_capacity=10**7, schedule=CacheSchedule(1))
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
                                schedule=CacheSchedule(1))
        for st in res.iterations:
            io = st.io
            assert io.rows_elided == st.skips
            # requested bytes exactly cover the non-elided rows
            assert io.bytes_requested == (1600 - st.skips) * 64
        # the run's totals are the per-iteration counts summed
        for f in fields(IoDelta):
            assert getattr(res.io_totals, f.name) == \
                sum(getattr(st.io, f.name) for st in res.iterations), (cache_enabled, f.name)
    im = kmeans(m, EngineConfig(k=4, seed=3, T=2, max_iters=40))
    assert im.io_totals is None
    assert all(st.io is None for st in im.iterations)


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
                            schedule=CacheSchedule(5))
    cached_rows = (capacity // 2) // (d * 8) * 2  # per-partition shares
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
                            schedule=CacheSchedule(2))
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
                            schedule=CacheSchedule(2))
    refreshes = [t for t in range(1, res.n_iterations) if should_refresh(t, CacheSchedule(2))]
    assert refreshes, "run too short to exercise the cache"
    first = refreshes[0]
    post = [st for st in res.iterations if st.t > first]
    assert post
    hits = sum(st.io.cache_hits for st in post)
    misses = sum(st.io.cache_misses for st in post)
    assert hits > 0
    assert hits / max(1, hits + misses) > 0.5


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Traced-memory peaks of three kmeans_ondisk runs, and the cache after each rebuild.

    A peak moves by up to about 1 MB with how the two workers' temporaries
    happen to overlap, so the tests compare the lowest peak of a cache run
    with the highest of three cache-off runs.
    """
    n, d = 40000, 16
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=11, k_true=32, separation=6.0)
    path = tmp_path_factory.mktemp("mem") / "m.raw"
    save_matrix(gen_synthetic(spec), path, raw=True)
    cfg = EngineConfig(k=64, seed=1, T=2, max_iters=16, mode="sem")

    def runs(**kw):
        peaks, sizes = [], []
        rebuild = RowCache.rebuild

        def spy(self, owners):
            rebuild(self, owners)
            sizes.append(self.cached_bytes())

        RowCache.rebuild = spy
        try:
            for _ in range(3):
                with RowStore(path, n, d) as store:
                    tracemalloc.start()
                    try:
                        res = kmeans_ondisk(store, cfg, schedule=CacheSchedule(1), **kw)
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
                assert res.n_iterations == 16
        finally:
            RowCache.rebuild = rebuild
        return peaks, sizes

    return runs, max(runs(cache_enabled=False)[0]), n * d * 8


def test_cache_costs_its_rows_plus_one_task(traced_runs):
    runs, off, data_bytes = traced_runs
    peaks, sizes = runs(cache_capacity=data_bytes)
    # the cache at its largest, plus one 8192-row task fetched while the
    # slot it replaces is still held
    assert min(peaks) - off <= max(sizes) + 8192 * 16 * 8
    assert len(sizes) == 3 * 4  # refreshes at iterations 1, 3, 7 and 15


def test_zero_capacity_cache_collects_nothing(traced_runs):
    runs, off, _ = traced_runs
    peaks, sizes = runs(cache_capacity=0)
    assert min(peaks) - off <= 250_000
    assert sizes == []
