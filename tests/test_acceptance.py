"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line into the pytest summary (see conftest).
Criterion 10 is a soft performance check and never gates the suite; it is
additionally conditioned on an 8-core machine.
"""

import os
import random
import threading
import time

import numpy as np
import pytest

from numakmeans.engine import EngineConfig, kmeans
from numakmeans.matrix import SyntheticSpec, gen_synthetic, save_matrix
from numakmeans.outofcore import (
    CacheSchedule,
    RowStore,
    kmeans_ondisk,
    should_refresh,
)
from numakmeans.scheduler import PartitionedTaskQueue, build_topology

from conftest import record_acceptance, run_with_history


def wcss_non_increasing(result) -> bool:
    seq = [s.wcss for s in result.iterations]
    return all(b <= a * (1 + 1e-9) for a, b in zip(seq, seq[1:]))


def criterion1_grid():
    """50 seeded instances over the spec'd grid, both families."""
    cases = []
    seq = 0
    for n in (1000, 100000):
        for d in (2, 8, 32):
            for k in (2, 10, 50):
                for family in ("gaussian-mixture", "uniform"):
                    cases.append((n, d, k, family, 100 + seq))
                    seq += 1
    extra = [(1000, d, k, fam, 500 + i)
             for i, (d, k, fam) in enumerate(
                 [(2, 2, "uniform"), (2, 10, "gaussian-mixture"), (2, 50, "uniform"),
                  (8, 2, "gaussian-mixture"), (8, 10, "uniform"), (8, 50, "gaussian-mixture"),
                  (32, 2, "uniform"), (32, 10, "gaussian-mixture"), (32, 50, "uniform"),
                  (2, 2, "gaussian-mixture"), (8, 10, "gaussian-mixture"),
                  (32, 50, "gaussian-mixture"), (2, 10, "uniform"), (8, 2, "uniform")])]
    cases.extend(extra)
    assert len(cases) == 50
    return cases


def test_criterion_1_and_8_oracle_exactness():
    """Pruned and unpruned runs agree exactly on 50 seeded instances."""
    started = time.perf_counter()
    wcss_ok = True
    checked = 0
    for n, d, k, family, seed in criterion1_grid():
        spec = SyntheticSpec(family, n, d, seed=seed, k_true=8, separation=8.0)
        m = gen_synthetic(spec)
        base = dict(k=k, seed=seed + 1, T=2, max_iters=8)
        pruned, pruned_hist = run_with_history(kmeans, m, EngineConfig(pruning=True, **base))
        plain, plain_hist = run_with_history(kmeans, m, EngineConfig(pruning=False, **base))
        assert pruned.n_iterations == plain.n_iterations, (n, d, k, family)
        for a, b in zip(pruned_hist, plain_hist):
            assert np.array_equal(a, b), (n, d, k, family)
        gap = float(np.max(np.abs(pruned.centroids.means - plain.centroids.means)))
        assert gap < 1e-9, (n, d, k, family, gap)
        wcss_ok = wcss_ok and wcss_non_increasing(pruned) and wcss_non_increasing(plain)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 50 and elapsed < 300.0
    record_acceptance(
        "criterion 1: pruned/unpruned oracle exactness on 50 instances",
        ok, f"{checked} instances in {elapsed:.0f}s (< 300s)")
    record_acceptance(
        "criterion 8a: WCSS non-increasing on all criterion-1 runs", wcss_ok)
    assert ok and wcss_ok


def test_criterion_2_mode_equivalence(tmp_path):
    data_bytes = 5000 * 8 * 8
    ok = True
    for family, seed, offset in (("gaussian-mixture", 3, 0.0), ("uniform", 4, 0.0),
                                 ("gaussian-mixture", 3, 1e8)):
        spec = SyntheticSpec(family, 5000, 8, seed=seed, k_true=6, separation=7.0)
        m = gen_synthetic(spec) + offset
        path = tmp_path / f"{family}-{offset:g}.raw"
        save_matrix(m, path, raw=True)

        for pruning in (True, False):
            cfg = dict(k=6, seed=seed + 10, T=2, max_iters=40, pruning=pruning)
            im, im_hist = run_with_history(kmeans, m, EngineConfig(**cfg))
            sem_runs = []
            with RowStore(path, 5000, 8) as store:
                sem_runs.append(run_with_history(kmeans_ondisk, store,
                                                 EngineConfig(mode="sem", **cfg),
                                                 cache_enabled=False))
            for capacity in (0, data_bytes // 4, data_bytes):
                with RowStore(path, 5000, 8) as store:
                    sem_runs.append(run_with_history(
                        kmeans_ondisk, store, EngineConfig(mode="sem", **cfg),
                        cache_capacity=capacity, schedule=CacheSchedule(2)))
            for sem, sem_hist in sem_runs:
                assert sem.n_iterations == im.n_iterations
                for a, b in zip(sem_hist, im_hist):
                    if not np.array_equal(a, b):
                        ok = False
                assert np.max(np.abs(sem.centroids.means - im.centroids.means)) < 1e-9
                ok = ok and wcss_non_increasing(sem)
    record_acceptance(
        "criterion 2: sem modes match in-memory; cache capacity transparent", ok)
    assert ok


def test_criterion_3_parallel_determinism():
    spec = SyntheticSpec("gaussian-mixture", 10000, 8, seed=5, k_true=8, separation=6.0)
    ok = True
    for offset in (0.0, 1e8):
        m = gen_synthetic(spec) + offset
        runs = {}
        for T in (1, 2, 4, 8):
            cfg = EngineConfig(k=8, seed=6, T=T, max_iters=30, pruning=True,
                               task_size=512)
            runs[T] = run_with_history(kmeans, m, cfg)
        base, base_hist = runs[1]
        for T in (2, 4, 8):
            r, r_hist = runs[T]
            ok = ok and r.n_iterations == base.n_iterations
            ok = ok and all(np.array_equal(a, b) for a, b in zip(r_hist, base_hist))
            ok = ok and float(np.max(np.abs(r.centroids.means - base.centroids.means))) < 1e-9
        for policy in ("fifo", "static"):
            cfg = EngineConfig(k=8, seed=6, T=4, max_iters=30, pruning=True,
                               task_size=512, scheduler=policy)
            r, r_hist = run_with_history(kmeans, m, cfg)
            ref, ref_hist = run_with_history(
                kmeans, m, EngineConfig(k=8, seed=6, T=4, max_iters=30, pruning=True,
                                        task_size=512, scheduler="numa"))
            ok = ok and all(np.array_equal(a, b) for a, b in zip(r_hist, ref_hist))
            ok = ok and float(np.max(np.abs(r.centroids.means - ref.centroids.means))) < 1e-9
    record_acceptance(
        "criterion 3: T in {1,2,4,8} and all schedulers give identical results", ok)
    assert ok


def test_criterion_4_pruning_effectiveness():
    n, d, k = 100000, 8, 8
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=51, k_true=k, separation=10.0)
    m = gen_synthetic(spec)
    pruned = kmeans(m, EngineConfig(k=k, seed=7, T=2, pruning=True, max_iters=12))
    plain = kmeans(m, EngineConfig(k=k, seed=7, T=2, pruning=False, max_iters=12))
    nk = n * k
    late = [s.dist_comps / nk for s in pruned.iterations if s.t >= 2]
    total_ratio = (sum(s.dist_comps for s in pruned.iterations)
                   / sum(s.dist_comps for s in plain.iterations))
    ok = bool(late) and max(late) < 0.2 and total_ratio < 0.5
    record_acceptance(
        "criterion 4: pruning effectiveness on separated gaussians",
        ok, f"max late fraction {max(late):.3f} (< 0.2), total ratio {total_ratio:.3f} (< 0.5)")
    assert ok


def test_criterion_5_io_accounting(tmp_path):
    n, d, k = 20000, 8, 32
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=3, k_true=k, separation=10.0)
    m = gen_synthetic(spec)
    path = tmp_path / "io.raw"
    save_matrix(m, path, raw=True)
    sched = CacheSchedule(5)

    def run(pruning, cache):
        cfg = EngineConfig(k=k, seed=2, T=2, max_iters=11, pruning=pruning, mode="sem")
        with RowStore(path, n, d) as store:
            return kmeans_ondisk(store, cfg, cache_enabled=cache,
                                 cache_capacity=n * d * 8, schedule=sched)

    plain = run(False, False)       # pruning off, cache off
    pruned_nc = run(True, False)    # pruning on, cache off
    pruned_c = run(True, True)      # pruning on, cache on

    exact = all(s.io.bytes_requested == 8 * d * n for s in plain.iterations)

    req = [s.io.bytes_requested for s in pruned_nc.iterations]
    pairs = [(t, t + 1) for t in range(2, len(req) - 1)
             if not should_refresh(t + 1, sched)]
    declining = bool(pairs) and all(req[b] < req[a] for a, b in pairs)

    fragmentation = all(s.io.bytes_read > s.io.bytes_requested
                        for s in pruned_nc.iterations if s.io.bytes_requested > 0)
    cached_reads_lower = pruned_c.io_totals.bytes_read < pruned_nc.io_totals.bytes_read

    ok = exact and declining and fragmentation and cached_reads_lower
    record_acceptance(
        "criterion 5: I/O accounting (exact unpruned, declining requests, cache wins)",
        ok,
        f"unpruned exact={exact}, {len(pairs)} strictly-declining pairs={declining}, "
        f"read>req={fragmentation}, cached {pruned_c.io_totals.bytes_read} < "
        f"uncached {pruned_nc.io_totals.bytes_read}")
    assert ok


def test_criterion_6_cache_hit_profile(tmp_path):
    n, d, k = 20000, 8, 8
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=61, k_true=k, separation=4.0)
    m = gen_synthetic(spec)
    path = tmp_path / "hits.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=k, seed=13, T=2, max_iters=40, pruning=True, mode="sem")
    with RowStore(path, n, d) as store:
        res = kmeans_ondisk(store, cfg, cache_capacity=n * d * 8,
                            schedule=CacheSchedule(5))

    def rate(st):
        total = st.io.cache_hits + st.io.cache_misses
        return st.io.cache_hits / total if total else 1.0

    post = [st for st in res.iterations if st.t > 5]
    assert post, "run ended before the first refresh"
    rates = [rate(st) for st in post]
    all_high = all(r >= 0.9 for r in rates)
    first_epoch = [rate(st) for st in post if st.t <= 14]
    last_epoch = [rate(st) for st in post if st.t >= 15]
    rising = (not last_epoch) or (
        np.mean(last_epoch) >= np.mean(first_epoch) and rates[-1] >= 0.99)
    ok = all_high and rising
    record_acceptance(
        "criterion 6: cache hit rate >= 90% after first refresh, rising toward 100%",
        ok, f"min rate {min(rates):.3f}, final rate {rates[-1]:.3f} over {len(rates)} iterations")
    assert ok


def test_criterion_7_memory_bounds(tmp_path):
    n, d, k, T = 1_000_000, 8, 10, 4
    spec = SyntheticSpec("gaussian-mixture", n, d, seed=71, k_true=8, separation=8.0)
    m = gen_synthetic(spec)
    C = 1 << 20

    cfg = EngineConfig(k=k, seed=1, T=T, max_iters=3, pruning=True, N=1)
    res_im = kmeans(m, cfg)
    bound_im = (n * d + T * k * d + 2 * n + k * k) * 8 + C
    im_ok = res_im.peak_state_bytes <= bound_im

    path = tmp_path / "big.raw"
    save_matrix(m, path, raw=True)
    cfg = EngineConfig(k=k, seed=1, T=T, max_iters=3, pruning=True, N=1, mode="sem")
    with RowStore(path, n, d) as store:
        res_sem = kmeans_ondisk(store, cfg, cache_capacity=64 << 20)
    bound_sem = (2 * n + T * k * d + k * k) * 8 + C
    sem_ok = res_sem.peak_state_bytes <= bound_sem

    ok = im_ok and sem_ok
    record_acceptance(
        "criterion 7: resident memory accounting within Table-1-style bounds",
        ok,
        f"in-memory {res_im.peak_state_bytes:,} <= {bound_im:,}; "
        f"sem {res_sem.peak_state_bytes:,} <= {bound_sem:,}")
    assert ok


def test_criterion_8_wcss_monotone_all_modes(tmp_path):
    """Dedicated spot-check on top of the monitoring in criteria 1 and 2."""
    spec = SyntheticSpec("uniform", 4000, 6, seed=81)
    m = gen_synthetic(spec)
    path = tmp_path / "w.raw"
    save_matrix(m, path, raw=True)
    ok = True
    for pruning in (False, True):
        cfg = EngineConfig(k=9, seed=8, T=2, max_iters=40, pruning=pruning)
        ok = ok and wcss_non_increasing(kmeans(m, cfg))
        cfg = EngineConfig(k=9, seed=8, T=2, max_iters=40, pruning=pruning, mode="sem")
        with RowStore(path, 4000, 6) as store:
            ok = ok and wcss_non_increasing(
                kmeans_ondisk(store, cfg, schedule=CacheSchedule(5)))
    record_acceptance("criterion 8b: WCSS non-increasing in im and sem modes", ok)
    assert ok


def test_criterion_9_scheduler_exactly_once_stress():
    T, n_tasks, reps = 8, 10000, 100
    ok = True
    for rep in range(reps):
        topo = build_topology(T, override_N=2)
        queue = PartitionedTaskQueue(topo)
        per = n_tasks // T
        ranges = [range(w * per, (w + 1) * per) for w in range(T)]
        queue.enqueue_iteration(ranges, task_size=1)
        seen: list[list[int]] = [[] for _ in range(T)]
        premature = []
        stop_rng = [random.Random(rep * 131 + w) for w in range(T)]

        def work(w):
            r = stop_rng[w]
            while True:
                task = queue.next_task(w, "numa")
                if task is None:
                    if queue.remaining():
                        premature.append(w)
                    return
                seen[w].append(task.index)
                if r.random() < 0.001:
                    time.sleep(r.random() * 0.001)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(T)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        got = [i for worker in seen for i in worker]
        if len(got) != n_tasks or len(set(got)) != n_tasks or premature:
            ok = False
            break
    record_acceptance(
        "criterion 9: exactly-once dispensation under stress (8 workers x 100 reps)", ok)
    assert ok


def test_criterion_10_soft_parallel_speedup():
    cores = os.cpu_count() or 1
    n, d, k = 1_000_000, 16, 10
    spec = SyntheticSpec("uniform", n, d, seed=91)
    m = gen_synthetic(spec)

    def per_iter_time(T):
        cfg = EngineConfig(k=k, seed=2, T=T, max_iters=3, pruning=False, N=1)
        started = time.perf_counter()
        res = kmeans(m, cfg)
        return (time.perf_counter() - started) / res.n_iterations

    t1 = per_iter_time(1)
    tp = per_iter_time(min(8, cores))
    speedup = t1 / tp
    if cores >= 8:
        ok = speedup >= 3.0
        detail = f"T=8 vs T=1 speedup {speedup:.2f}x (>= 3.0 required)"
    else:
        ok = True
        detail = (f"not gated: machine has {cores} cores (< 8); "
                  f"T={min(8, cores)} vs T=1 speedup {speedup:.2f}x")
    record_acceptance("criterion 10: soft performance check (non-gating)", ok, detail)
    # explicitly non-gating for CI; the summary line carries the measurement

    # the pruned path on clustered data at k=64, where most candidates are
    # pruned and the scan's work comes in many small pieces
    clustered = gen_synthetic(SyntheticSpec("gaussian-mixture", 100_000, 16, seed=91,
                                            k_true=32, separation=6.0))

    def pruned_iter_time(T):
        # iterations after the first: the first is a full pass in either path
        cfg = EngineConfig(k=64, seed=2, T=T, max_iters=6, pruning=True, N=1)
        res = kmeans(clustered, cfg)
        return sum(s.wall_s for s in res.iterations[1:]) / (res.n_iterations - 1)

    ratio = pruned_iter_time(2) / pruned_iter_time(1)
    record_acceptance("criterion 10: pruned path, T=2 vs T=1 (non-gating)", True,
                      f"per-iteration time T=2 / T=1 = {ratio:.2f} (speedup {1 / ratio:.2f}x)")
