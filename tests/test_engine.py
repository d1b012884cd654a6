import re
import threading

import numpy as np
import pytest

from numakmeans import distance, engine
from numakmeans.engine import EngineConfig, kmeans
from numakmeans.matrix import MatrixFormatError, SyntheticSpec, gen_synthetic, save_matrix
from numakmeans.outofcore import RowStore, kmeans_ondisk

from conftest import naive_assign_all, naive_lloyd, run_with_history


def test_hand_example_two_iterations():
    m = np.array([[0.0], [1.0], [10.0], [11.0]])
    cfg = EngineConfig(k=2, init="given", initial_centroids=np.array([[0.0], [10.0]]),
                       pruning=False, max_iters=20)
    res = kmeans(m, cfg)
    assert res.n_iterations == 2
    assert res.converged
    assert res.assignments.tolist() == [0, 0, 1, 1]
    assert np.allclose(res.centroids.means, [[0.5], [10.5]])
    # oracle: an independently coded Lloyd's run agrees
    means, assign, _ = naive_lloyd(m, np.array([[0.0], [10.0]]))
    assert np.allclose(means, res.centroids.means)
    assert np.array_equal(assign, res.assignments)


def test_k1_converges_in_one_iteration(rng):
    m = rng.normal(size=(100, 3))
    res = kmeans(m, EngineConfig(k=1, pruning=False, seed=0))
    assert res.n_iterations == 1
    assert res.converged
    assert np.allclose(res.centroids.means[0], m.mean(axis=0))
    res_p = kmeans(m, EngineConfig(k=1, pruning=True, seed=0))
    assert res_p.n_iterations == 1
    assert np.array_equal(res_p.centroids.means, res.centroids.means)


@pytest.mark.parametrize("pruning", [False, True])
def test_thread_count_invariance(pruning):
    spec = SyntheticSpec("gaussian-mixture", 2500, 5, seed=31, k_true=6, separation=6.0)
    m = gen_synthetic(spec)
    results = {}
    for T in (1, 2, 4):
        cfg = EngineConfig(k=6, seed=8, T=T, pruning=pruning, max_iters=40)
        results[T] = run_with_history(kmeans, m, cfg)
    base, base_hist = results[1]
    for T in (2, 4):
        r, r_hist = results[T]
        assert r.n_iterations == base.n_iterations
        for a, b in zip(r_hist, base_hist):
            assert np.array_equal(a, b)
        assert np.max(np.abs(r.centroids.means - base.centroids.means)) < 1e-9


@pytest.mark.parametrize("pruning", [False, True])
def test_task_size_invariance(pruning):
    # the wide rows make a task of 8192 rows longer than CHUNK_ELEMS // d;
    # a full pass still takes each task in one kernel call
    wide = SyntheticSpec("uniform", 16500, 48, seed=4)
    assert 8192 > distance.CHUNK_ELEMS // wide.d
    for spec, sizes in ((SyntheticSpec("uniform", 1500, 4, seed=2), (7, 64, 8192)),
                        (wide, (1000, 8192, 20000))):
        m = gen_synthetic(spec)
        results = []
        for ts in sizes:
            cfg = EngineConfig(k=5, seed=5, T=2, task_size=ts, pruning=pruning,
                               max_iters=25)
            results.append(run_with_history(kmeans, m, cfg))
        base, base_hist = results[0]
        for r, r_hist in results[1:]:
            assert r.n_iterations == base.n_iterations
            for a, b in zip(r_hist, base_hist):
                assert np.array_equal(a, b)
            assert np.max(np.abs(r.centroids.means - base.centroids.means)) < 1e-9


def test_scheduler_policy_does_not_change_results():
    spec = SyntheticSpec("gaussian-mixture", 3000, 4, seed=17, k_true=5, separation=7.0)
    m = gen_synthetic(spec)
    results = {}
    for policy in ("numa", "fifo", "static"):
        cfg = EngineConfig(k=5, seed=3, T=4, N=2, scheduler=policy, pruning=True,
                           max_iters=40, task_size=256)
        results[policy] = run_with_history(kmeans, m, cfg)
    base, base_hist = results["numa"]
    for policy in ("fifo", "static"):
        r, r_hist = results[policy]
        assert r.n_iterations == base.n_iterations
        for a, b in zip(r_hist, base_hist):
            assert np.array_equal(a, b)
        assert np.max(np.abs(r.centroids.means - base.centroids.means)) < 1e-9
    # static never steals
    for st in results["static"][0].iterations:
        assert st.sched.stolen_same_node == 0
        assert st.sched.stolen_remote == 0


def test_repeated_run_bit_identical():
    spec = SyntheticSpec("gaussian-mixture", 2000, 6, seed=23, k_true=4, separation=5.0)
    m = gen_synthetic(spec)
    cfg = EngineConfig(k=4, seed=11, T=4, pruning=True, max_iters=30, task_size=128)
    a = kmeans(m, cfg)
    b = kmeans(m, cfg)
    assert np.array_equal(a.centroids.means, b.centroids.means)
    assert np.array_equal(a.assignments, b.assignments)
    assert [s.wcss for s in a.iterations] == [s.wcss for s in b.iterations]
    assert [s.dist_comps for s in a.iterations] == [s.dist_comps for s in b.iterations]


@pytest.mark.parametrize("family", ["gaussian-mixture", "uniform"])
@pytest.mark.parametrize("pruning", [False, True])
def test_wcss_non_increasing(family, pruning):
    spec = SyntheticSpec(family, 2000, 4, seed=29, k_true=5, separation=4.0)
    m = gen_synthetic(spec)
    res = kmeans(m, EngineConfig(k=5, seed=7, T=2, pruning=pruning, max_iters=50))
    wcss = [s.wcss for s in res.iterations]
    for prev, nxt in zip(wcss, wcss[1:]):
        assert nxt <= prev * (1 + 1e-9)


def test_unpruned_final_assignment_matches_exhaustive_argmin(rng):
    m = rng.normal(size=(300, 3))
    res = kmeans(m, EngineConfig(k=7, seed=1, T=2, pruning=False, max_iters=60))
    want = naive_assign_all(m, res.centroids.prev_means)
    # prev_means are the centroids the last assignment was made against
    assert np.array_equal(res.assignments, want)


def test_unpruned_distance_count_is_exactly_nk(rng):
    m = rng.normal(size=(500, 4))
    res = kmeans(m, EngineConfig(k=6, seed=2, pruning=False, max_iters=10))
    for st in res.iterations:
        assert st.dist_comps == 500 * 6


def test_counts_sum_to_n(rng):
    m = rng.normal(size=(400, 3))
    for pruning in (False, True):
        res = kmeans(m, EngineConfig(k=5, seed=3, pruning=pruning, max_iters=15))
        assert int(res.centroids.counts.sum()) == 400
        for st in res.iterations:
            assert st.reassignments <= 400


def test_tolerance_stops_early(rng):
    spec = SyntheticSpec("uniform", 1200, 3, seed=41)
    m = gen_synthetic(spec)
    strict = kmeans(m, EngineConfig(k=6, seed=5, pruning=False, max_iters=80))
    loose = kmeans(m, EngineConfig(k=6, seed=5, pruning=False, max_iters=80, tolerance=50))
    assert loose.n_iterations <= strict.n_iterations
    assert loose.converged
    assert loose.iterations[-1].reassignments <= 50


def test_max_iters_cap(rng):
    m = gen_synthetic(SyntheticSpec("uniform", 1500, 6, seed=43))
    res = kmeans(m, EngineConfig(k=12, seed=5, pruning=False, max_iters=3))
    assert res.n_iterations == 3
    if res.iterations[-1].reassignments > 0:
        assert not res.converged


def test_more_workers_than_rows(rng):
    m = rng.normal(size=(3, 2))
    for pruning in (False, True):
        res = kmeans(m, EngineConfig(k=2, seed=1, T=8, pruning=pruning, max_iters=10))
        assert res.converged
        assert set(np.unique(res.assignments)) <= {0, 1}
        assert int(res.centroids.counts.sum()) == 3


def test_config_validation_errors(rng):
    m = rng.normal(size=(10, 2))
    with pytest.raises(ValueError):
        kmeans(m, EngineConfig(k=0))
    with pytest.raises(ValueError):
        kmeans(m, EngineConfig(k=2, max_iters=0))
    with pytest.raises(ValueError):
        kmeans(m, EngineConfig(k=2, task_size=0))
    with pytest.raises(ValueError):
        kmeans(m, EngineConfig(k=2, init="bogus"))
    with pytest.raises(ValueError):
        kmeans(m, EngineConfig(k=2, scheduler="bogus"))
    with pytest.raises(ValueError):
        kmeans(m, EngineConfig(k=2, mode="sem"))
    with pytest.raises(ValueError, match="k <= n"):
        kmeans(m, EngineConfig(k=11, init="forgy"))


@pytest.mark.parametrize("field,value,message", [
    ("T", 0, "T must be >= 1"),
    ("N", -1, "N must be >= 0"),
    ("tolerance", -1, "tolerance must be >= 0"),
    ("mode", "bogus", "unknown mode 'bogus'"),
])
def test_config_validate_rejects_each_bad_field(field, value, message):
    with pytest.raises(ValueError) as excinfo:
        EngineConfig(k=2, **{field: value}).validate()
    assert excinfo.type is ValueError and str(excinfo.value) == message


@pytest.mark.parametrize("m,message", [
    (np.ones(4), "expected a 2-D matrix, got ndim=1"),
    (np.ones((0, 3)), "matrix must be at least 1x1, got 0x3"),
])
def test_kmeans_rejects_a_1d_or_empty_matrix(m, message):
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(message)}$"):
        kmeans(m, EngineConfig(k=1))


def test_given_centroids_of_the_wrong_shape_raise(rng):
    # rejected on the calling thread, before any worker starts
    m = rng.normal(size=(50, 3))
    with pytest.raises(ValueError):
        kmeans(m, EngineConfig(k=2, init="given", initial_centroids=np.ones((2, 4))))


@pytest.mark.parametrize("init", ["forgy", "kmeanspp"])
def test_initial_centroids_without_init_given_raise(rng, init):
    # a run must not drop them without a word and draw other centroids
    m = rng.normal(size=(50, 3))
    with pytest.raises(ValueError, match="initial_centroids must be set exactly"):
        kmeans(m, EngineConfig(k=2, init=init, initial_centroids=m[:2]))


def assert_worker_error_ends_the_run(cfg, m, match):
    """``kmeans(m, cfg)`` raises ``match`` from a worker thread, and every
    worker has ended and the BLAS thread count is restored by then."""
    blas = distance._blas_threads()
    blas_before = blas[0]() if blas is not None else None
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match=match):
        kmeans(m, cfg)
    assert threading.active_count() == threads_before
    if blas is not None:
        assert blas[0]() == blas_before


@pytest.mark.parametrize("name", ["scan_block", "nearest_block_into"])
def test_worker_errors_propagate_and_every_thread_ends(monkeypatch, name):
    # the pruned scan or the full pass raises inside a worker thread, mid-run;
    # on separated clusters the scan runs in every iteration after the first
    spec = SyntheticSpec("gaussian-mixture", 4000, 4, seed=7, k_true=5, separation=8.0)
    m = gen_synthetic(spec)
    cfg = EngineConfig(k=5, seed=1, T=2, pruning=True, max_iters=10, task_size=1000)
    calls = []
    inner = getattr(engine, name)

    def failing(*args):
        calls.append(threading.current_thread().name)
        if len(calls) == 3:
            raise RuntimeError("third call fails")
        return inner(*args)

    monkeypatch.setattr(engine, name, failing)
    assert_worker_error_ends_the_run(cfg, m, "third call fails")
    assert calls[2].startswith("kmeans-worker-")


def test_lost_accumulator_count_raises_and_every_thread_ends(rng, monkeypatch):
    # a merge that loses one count in iteration 1 must end the run, not
    # finalize centroids from totals that miss a row
    m = rng.normal(size=(600, 3))
    cfg = EngineConfig(k=4, seed=1, T=2, pruning=False, max_iters=5, task_size=100)
    merges = []
    merge = engine.merge_accumulators

    def lossy_merge(accs):
        merged = merge(accs)
        merges.append(threading.current_thread().name)
        if len(merges) == 2:
            merged.counts[0] -= 1
        return merged

    monkeypatch.setattr(engine, "merge_accumulators", lossy_merge)
    assert_worker_error_ends_the_run(cfg, m,
                                     "^iteration 1: accumulator counts sum to 599, expected 600$")
    assert len(merges) == 2 and merges[1].startswith("kmeans-worker-")


@pytest.mark.skipif(distance._blas_threads() is None,
                    reason="numpy's bundled OpenBLAS thread calls not found")
def test_run_pins_blas_to_one_thread_and_restores_it(rng, monkeypatch):
    get_threads, set_threads = distance._blas_threads()
    m = rng.normal(size=(3000, 4))
    cfg = EngineConfig(k=5, seed=1, T=2, pruning=False, max_iters=4)
    seen = []
    kernel = engine.nearest_block_into

    def spy(rows, means):
        seen.append(get_threads())
        return kernel(rows, means)

    def unreadable(self, task):
        raise OSError("unreadable rows")

    before = get_threads()
    set_threads(2)
    try:
        want = get_threads()
        monkeypatch.setattr(engine, "nearest_block_into", spy)
        pinned = kmeans(m, cfg)
        assert get_threads() == want
        assert set(seen) == {1}
        with monkeypatch.context() as mp:
            mp.setattr(engine._MemorySource, "task_rows", unreadable)
            with pytest.raises(OSError, match="unreadable"):
                kmeans(m, cfg)
        assert get_threads() == want
        # without the thread calls the run goes on unpinned, with the same result
        monkeypatch.setattr(distance, "_blas_threads", lambda: None)
        seen.clear()
        unpinned = kmeans(m, cfg)
        assert set(seen) == {want}
        assert np.array_equal(unpinned.assignments, pinned.assignments)
        assert [s.wcss for s in unpinned.iterations] == [s.wcss for s in pinned.iterations]
    finally:
        set_threads(before)


def test_full_pass_goes_through_the_traced_kernel_name(rng, monkeypatch):
    # perfbench's tracer wraps engine.nearest_block_into by name and counts
    # rows x centroids from its first two arguments; a renamed call site
    # would read as a zero-cost full pass
    n, d, k = 3000, 5, 6
    m = rng.normal(size=(n, d))
    calls = []
    kernel = engine.nearest_block_into

    def counting(*args):
        calls.append((args[0].shape, args[1].shape))
        return kernel(*args)

    monkeypatch.setattr(engine, "nearest_block_into", counting)
    res = kmeans(m, EngineConfig(k=k, seed=1, T=2, pruning=False, max_iters=5, task_size=512))
    assert all(rows[1] == d and means == (k, d) for rows, means in calls)
    assert sum(rows[0] for rows, _ in calls) == n * res.n_iterations
    assert sum(rows[0] * means[0] for rows, means in calls) \
        == sum(st.dist_comps for st in res.iterations)


def exact_wcss(centred, assignment, k):
    """Within-cluster sum of squares about the member means, from rows
    centred near the origin."""
    total = 0.0
    for j in range(k):
        members = centred[assignment == j]
        if len(members):
            total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_offset_data_keeps_the_pruned_wcss_exact(offset):
    # far from the origin sq - |sum|^2 / count cancels unless the sums are
    # taken relative to a shift near the data
    base = gen_synthetic(SyntheticSpec("gaussian-mixture", 20000, 8, seed=5, k_true=8,
                                       separation=6.0))
    m = base + offset
    centred = m - offset  # exact: every row lies within a factor 2 of the offset
    cfg = dict(k=8, seed=3, T=2, max_iters=30)
    pruned, pruned_hist = run_with_history(kmeans, m, EngineConfig(pruning=True, **cfg))
    plain, plain_hist = run_with_history(kmeans, m, EngineConfig(pruning=False, **cfg))
    assert pruned.n_iterations == plain.n_iterations == 30
    for a, b in zip(pruned_hist, plain_hist):
        assert np.array_equal(a, b)
    for st, assignment in zip(pruned.iterations, pruned_hist):
        want = exact_wcss(centred, assignment, 8)
        assert abs(st.wcss - want) <= 1e-9 * want, st.t
    seq = [st.wcss for st in pruned.iterations]
    assert all(b <= a for a, b in zip(seq, seq[1:]))
    # both runs keep their sums as iteration 0's totals plus per-task deltas
    assert [st.wcss for st in plain.iterations] == seq
    assert plain.centroids.means.tobytes() == pruned.centroids.means.tobytes()


def test_long_signed_delta_run_keeps_the_means_exact(monkeypatch):
    # a slow uniform run far from the origin: every pruned iteration adds
    # signed deltas to the cluster sums, and none may drift off the member
    # means by more than a sliver of the data's spread
    offset = 1e8
    m = gen_synthetic(SyntheticSpec("uniform", 20000, 8, seed=5)) + offset
    centred = m - offset
    tol = 1e-9 * float(centred.std())
    gaps = []

    class Checked(engine._Engine):
        def _finish_iteration(self):
            super()._finish_iteration()
            for j in range(self.k):
                members = self.assignment == j
                if members.any():
                    want = offset + centred[members].mean(axis=0)
                    gaps.append(float(np.abs(self.centroids.means[j] - want).max()))

    monkeypatch.setattr(engine, "_Engine", Checked)
    res = kmeans(m, EngineConfig(k=8, seed=3, T=2, max_iters=200, tolerance=0))
    assert res.n_iterations > 100
    assert sum(st.reassignments for st in res.iterations[1:]) > 10000
    assert len(gaps) == 8 * res.n_iterations
    assert max(gaps) <= tol


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("mode,pruning,init", [
    pytest.param(mode, pruning, init, id=f"{mode}-{pruning}" + ("" if init == "forgy" else "-" + init))
    for init in ("forgy", "kmeanspp")
    for mode, pruning in (("im", True), ("im", False), ("sem", True))
])
def test_overflowing_data_ends_in_an_error(mode, pruning, init, tmp_path):
    # finite rows whose squares and sums overflow float64
    rng = np.random.default_rng(9)
    m = rng.choice([-1e305, 1e305], size=(4000, 4))
    cfg = EngineConfig(k=3, init=init, seed=1, T=2, pruning=pruning, mode=mode, max_iters=10)
    with pytest.raises(FloatingPointError, match="not finite"):
        if mode == "im":
            kmeans(m, cfg)
        else:
            path = tmp_path / "big.raw"
            save_matrix(m, path, raw=True)
            with RowStore(path, 4000, 4) as store:
                kmeans_ondisk(store, cfg)


def test_task_groups_take_whole_tasks_up_to_the_limit():
    # survivors per task: 3, 0, 7, 2
    ends = [0, 3, 3, 10, 12]
    assert list(engine._task_groups(ends, 5)) == [(0, 2), (2, 3), (3, 4)]
    assert list(engine._task_groups(ends, 12)) == [(0, 4)]
    # a limit of 0 gives each task with survivors a group of its own
    assert list(engine._task_groups(ends, 0)) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert list(engine._task_groups([0], 5)) == []
