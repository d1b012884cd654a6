import numpy as np
import pytest

from numakmeans.engine import EngineConfig, kmeans
from numakmeans.matrix import SyntheticSpec, gen_synthetic, save_matrix
from numakmeans.outofcore import (
    CacheSchedule,
    IoStats,
    RowCache,
    RowStore,
    _init_from_store,
    fetch_rows,
    kmeans_ondisk,
    page_runs,
    should_refresh,
)


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

    def _pread(self, offset, size):
        self.calls += 1
        self.physical_bytes += size
        return super()._pread(offset, size)


def test_page_aligned_row_reads_one_page(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 4, 512, seed=1))  # 4096B rows
    path = tmp_path / "w.raw"
    save_matrix(m, path, raw=True)
    stats = IoStats()
    with RowStore(path, 4, 512) as store:
        rows = fetch_rows(store, np.array([0]), None, stats)
    assert stats.bytes_requested == 4096
    assert stats.bytes_read == 4096
    assert np.array_equal(rows[0], m[0])


def test_small_row_amplifies_to_full_page(store_8):
    store, m = store_8
    stats = IoStats()
    rows = fetch_rows(store, np.array([0]), None, stats)
    assert stats.bytes_requested == 64
    assert stats.bytes_read == 4096
    assert np.array_equal(rows[0], m[0])


def test_full_page_of_rows_reads_once(store_8):
    store, m = store_8
    stats = IoStats()
    rows = fetch_rows(store, np.arange(64), None, stats)
    assert stats.bytes_read == 4096
    assert rows.tobytes() == m[:64].tobytes()


def test_adjacent_pages_coalesce(store_8):
    store, _ = store_8
    # rows 0 and 64 live on pages 0 and 1: one two-page run
    runs, total = page_runs(np.array([0, 64]), store.row_bytes, store.page_size)
    assert runs == [(0, 2)]
    assert total == 2
    # rows 0 and 128 live on pages 0 and 2: two runs
    runs, total = page_runs(np.array([0, 128]), store.row_bytes, store.page_size)
    assert runs == [(0, 1), (2, 1)]
    assert total == 2


def test_row_straddling_pages_counts_both(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 10, 300, seed=2))  # 2400B rows
    path = tmp_path / "s.raw"
    save_matrix(m, path, raw=True)
    stats = IoStats()
    with RowStore(path, 10, 300) as store:
        rows = fetch_rows(store, np.array([1]), None, stats)
    # row 1 spans bytes [2400, 4800): pages 0 and 1
    assert stats.bytes_read == 8192
    assert np.array_equal(rows[0], m[1])


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


def test_bytes_read_matches_physical_shim(tmp_path):
    m = gen_synthetic(SyntheticSpec("uniform", 512, 8, seed=5))
    path = tmp_path / "c.raw"
    save_matrix(m, path, raw=True)  # 32768B = exactly 8 pages
    stats = IoStats()
    store = CountingStore(path, 512, 8)
    ids = np.array([0, 1, 100, 101, 200, 511])
    fetch_rows(store, ids, None, stats)
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


def test_cache_rebuild_truncates_by_ascending_id(rng):
    cache = RowCache(n_partitions=2, capacity_bytes=4 * 64, row_bytes=64)
    assert cache.rows_per_partition == 2
    rows = rng.normal(size=(6, 8))
    collected = [
        [(np.array([5, 9]), rows[0:2]), (np.array([1]), rows[2:3])],
        [(np.array([20, 30, 40]), rows[3:6])],
    ]
    cache.rebuild(collected)
    assert sorted(cache.published) == [1, 5, 20, 30]
    assert cache.cached_bytes() <= cache.capacity_bytes
    assert np.array_equal(cache.published[1], rows[2])


def test_cache_zero_capacity_stays_empty(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 1500, 6, seed=3, k_true=4, separation=6.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    base_cfg = dict(k=4, seed=2, T=2, max_iters=40, mode="sem", collect_assignments=True)
    with RowStore(path, 1500, 6) as store:
        no_cache = kmeans_ondisk(store, EngineConfig(**base_cfg), cache_enabled=False)
    with RowStore(path, 1500, 6) as store:
        zero = kmeans_ondisk(store, EngineConfig(**base_cfg), cache_capacity=0,
                             schedule=CacheSchedule(1))
    assert zero.io_totals.cache_hits == 0
    for a, b in zip(no_cache.assignment_history, zero.assignment_history):
        assert np.array_equal(a, b)
    assert np.array_equal(no_cache.centroids.means, zero.centroids.means)


def test_sem_matches_in_memory_and_capacity_is_transparent(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 2000, 8, seed=13, k_true=4, separation=5.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    data_bytes = 2000 * 8 * 8

    im = kmeans(m, EngineConfig(k=4, seed=6, T=2, max_iters=50, collect_assignments=True))
    for capacity in (0, data_bytes // 4, data_bytes):
        cfg = EngineConfig(k=4, seed=6, T=2, max_iters=50, mode="sem",
                           collect_assignments=True)
        with RowStore(path, 2000, 8) as store:
            sem = kmeans_ondisk(store, cfg, cache_capacity=capacity,
                                schedule=CacheSchedule(2))
        assert sem.n_iterations == im.n_iterations
        for a, b in zip(sem.assignment_history, im.assignment_history):
            assert np.array_equal(a, b)
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
        cache = source_holder["src"].cache
        for rid, row in cache.published.items():
            assert row.tobytes() == m[rid].tobytes()


def test_elided_rows_generate_no_fetch(tmp_path):
    spec = SyntheticSpec("gaussian-mixture", 1600, 8, seed=19, k_true=4, separation=50.0)
    m = gen_synthetic(spec)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=4, seed=3, T=2, max_iters=40, mode="sem")
    with RowStore(path, 1600, 8) as store:
        res = kmeans_ondisk(store, cfg, cache_enabled=False)
    for st in res.iterations:
        io = st.io
        assert io.rows_elided == st.skips
        # requested bytes exactly cover the non-elided rows
        assert io.bytes_requested == (1600 - st.skips) * 64


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
            disk = _init_from_store(store, cfg)
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
            disk = _init_from_store(store, cfg)
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
