import tracemalloc

import numpy as np
import pytest

from numakmeans import distance
from numakmeans.centroids import (
    Accumulator,
    CentroidSet,
    _draw,
    finalize_centroids,
    init_centroids,
    merge_accumulators,
)
from numakmeans.distance import CHUNK_ELEMS, block_distances, rowwise_distances
from numakmeans.engine import EngineConfig, _Engine, _MemorySource
from numakmeans.matrix import RowStore, SyntheticSpec, gen_synthetic, partition_rows, save_matrix
from numakmeans.outofcore import _init_from_store

from conftest import naive_distance


def make_acc(rng, k, d):
    acc = Accumulator.zeros(k, d)
    acc.sums += rng.normal(size=(k, d))
    acc.counts += rng.integers(0, 10, size=k)
    acc.sq += rng.random(size=k)
    return acc


def test_forgy_exhaustive_is_permutation(rng):
    m = rng.normal(size=(6, 3))
    c = init_centroids(m, k=6, method="forgy", seed=9)
    got = {tuple(row) for row in c.means}
    want = {tuple(row) for row in m}
    assert got == want


def test_init_deterministic(rng):
    m = rng.normal(size=(50, 4))
    for method in ("forgy", "random-partition", "kmeanspp"):
        a = init_centroids(m, k=5, method=method, seed=3)
        b = init_centroids(m, k=5, method=method, seed=3)
        assert np.array_equal(a.means, b.means)


def test_random_partition_single_group_is_global_mean():
    m = np.array([[0.0], [2.0], [4.0], [6.0]])
    c = init_centroids(m, k=1, method="random-partition", seed=0)
    assert c.means[0, 0] == pytest.approx(3.0)


def test_forgy_requires_k_at_most_n(rng):
    m = rng.normal(size=(4, 2))
    with pytest.raises(ValueError, match="k <= n"):
        init_centroids(m, k=5, method="forgy", seed=0)
    with pytest.raises(ValueError, match="k <= n"):
        init_centroids(m, k=5, method="kmeanspp", seed=0)


def reference_kmeanspp(m, k, seed):
    """kmeans++ as one sequential loop over 8192-row blocks, kept as the
    reference that the split distance passes must reproduce bit for bit."""
    n = m.shape[0]
    rng = np.random.default_rng(seed)

    def sqdist_to(idx):
        d2 = np.empty(n)
        for lo in range(0, n, 8192):
            d2[lo:lo + 8192] = block_distances(m[lo:lo + 8192], m[[idx]])[:, 0] ** 2
        return d2

    chosen = [int(rng.integers(n))]
    d2 = sqdist_to(chosen[-1])
    for _ in range(1, k):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
        chosen.append(idx)
        np.minimum(d2, sqdist_to(idx), out=d2)
    return m[chosen]


@pytest.mark.parametrize("case", ["blocks", "n-below-T", "all-equal", "offset", "tiny",
                                  "below-floor", "grid-ties", "duplicates"])
def test_kmeanspp_centres_are_equal_for_every_split(tmp_path, case):
    mixture = SyntheticSpec("gaussian-mixture", 2 * 8192 + 37, 5, seed=4, k_true=6,
                            separation=5.0)
    if case == "blocks":  # several blocks per range; n divisible by none of 2, 3, 5
        m = gen_synthetic(mixture)
        k = 9
    elif case == "n-below-T":
        m = gen_synthetic(SyntheticSpec("uniform", 3, 2, seed=4))
        k = 3
    elif case == "all-equal":  # every d2 total is zero
        m = np.full((40, 5), 2.5)
        k = 6
    elif case == "offset":  # far from the origin: the filter's cross term
        m = gen_synthetic(mixture) + 1e8
        k = 9
    elif case == "tiny":  # squared distances of a few hundred subnormals
        m = gen_synthetic(SyntheticSpec("uniform", 3001, 5, seed=4)) * 1e-160
        k = 40
    elif case == "below-floor":  # squared distances under the band's absolute part
        m = gen_synthetic(SyntheticSpec("uniform", 3001, 5, seed=4)) * 1e-161
        k = 40
    elif case == "grid-ties":  # many rows equidistant from two centres
        m = np.indices((9, 9, 3)).reshape(3, -1).T.astype(np.float64)
        k = 20
    else:  # k = n with duplicate rows: d2 totals reach zero before the last draw
        m = np.repeat(gen_synthetic(SyntheticSpec("uniform", 6, 3, seed=4)), 5, axis=0)
        k = 30
    n, d = m.shape
    want = reference_kmeanspp(m, k, seed=17)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    with RowStore(path, n, d) as store:
        for T in (1, 2, 3, 5):
            ranges = partition_rows(n, T)
            cfg = EngineConfig(k=k, init="kmeanspp", seed=17, T=T)
            im = init_centroids(m, k, "kmeanspp", seed=17, ranges=ranges)
            sem = _init_from_store(store, cfg, ranges)
            engine = _Engine(_MemorySource(m), cfg).centroids
            for got in (im, sem, engine):
                assert np.array_equal(got.means, want), (case, T)
        assert np.array_equal(init_centroids(m, k, "kmeanspp", seed=17).means, want)


def test_filter_sends_few_rows_through_the_recipe(monkeypatch):
    m = gen_synthetic(SyntheticSpec("gaussian-mixture", 40000, 8, seed=2, k_true=16,
                                    separation=6.0))
    n, k = m.shape[0], 32
    rows = []

    def counting(near, *args, **kwargs):
        rows.append(near.shape[0])
        return rowwise_distances(near, *args, **kwargs)

    monkeypatch.setattr(distance, "rowwise_distances", counting)
    got = init_centroids(m, k, "kmeanspp", seed=3)
    assert np.array_equal(got.means, reference_kmeanspp(m, k, seed=3))
    # a band that let no row keep its d2 would send n(k - 1) rows
    assert 0 < sum(rows) <= 0.25 * n * (k - 1)


def test_draw_is_rng_choice():
    gen = np.random.default_rng(0)
    tiny = np.finfo(np.float64).smallest_subnormal
    for i in range(1200):
        n = int(gen.integers(1, 400))
        d2 = gen.random(n) ** gen.integers(1, 6)
        kind = i % 4
        if kind == 1:
            d2[gen.random(n) < 0.8] = 0.0
            d2[gen.integers(n)] = gen.random() + tiny
        elif kind == 2:  # a single nonzero entry
            d2[:] = 0.0
            d2[gen.integers(n)] = gen.random() + tiny
        elif kind == 3:  # subnormal entries
            d2 = np.floor(d2 * 1000) * tiny
            d2[gen.integers(n)] += tiny
        total = d2.sum()
        a, b = np.random.default_rng(i), np.random.default_rng(i)
        assert _draw(a, d2, total, np.empty(n)) == int(b.choice(n, p=d2 / total)), i
        assert a.random() == b.random()  # the same draws consumed


@pytest.mark.parametrize("ranges", [partition_rows(99, 2), [range(0, 60), range(50, 100)],
                                    [range(50, 100), range(0, 50)], [range(0, 100, 2)], []])
def test_kmeanspp_rejects_ranges_that_do_not_cover_the_rows_in_order(ranges):
    m = np.arange(200.0).reshape(100, 2)
    with pytest.raises(ValueError, match="ranges must cover rows 0..99 in order"):
        init_centroids(m, 3, "kmeanspp", ranges=ranges)


@pytest.mark.parametrize("mode", ["im", "sem"])
def test_kmeanspp_scratch_is_bounded_by_the_chunk(tmp_path, mode):
    # at d=1024 a block of 8192 rows alone would take 64 MB
    n, d = 2048, 1024
    m = np.random.default_rng(3).normal(size=(n, d))
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    with RowStore(path, n, d) as store:
        tracemalloc.start()
        try:
            if mode == "im":
                got = init_centroids(m, 3, "kmeanspp", seed=5)
            else:
                got = _init_from_store(store, EngineConfig(k=3, init="kmeanspp", seed=5), [range(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.array_equal(got.means, reference_kmeanspp(m, 3, seed=5))
    # one block and its difference scratch, CHUNK_ELEMS float64 elements in all
    assert peak <= 2 * 8 * CHUNK_ELEMS


def test_given_validates_shape_and_finiteness(rng):
    m = rng.normal(size=(4, 2))
    with pytest.raises(ValueError):
        init_centroids(m, k=2, method="given", initial=np.ones((3, 2)))
    with pytest.raises(ValueError):
        init_centroids(m, k=2, method="given", initial=np.array([[np.inf, 0], [0, 0]]))
    c = init_centroids(m, k=2, method="given", initial=m[:2])
    assert np.array_equal(c.means, m[:2])
    assert (c.drift == 0).all()
    assert (c.counts == 0).all()
    assert np.array_equal(c.means, c.prev_means)


def test_merge_single_unchanged(rng):
    acc = make_acc(rng, 3, 2)
    sums = acc.sums.copy()
    merged = merge_accumulators([acc])
    assert merged is acc
    assert np.array_equal(merged.sums, sums)


def test_merge_adds_counts():
    a = Accumulator.zeros(2, 1)
    a.counts[:] = (3, 0)
    b = Accumulator.zeros(2, 1)
    b.counts[:] = (2, 5)
    merged = merge_accumulators([a, b])
    assert merged.counts.tolist() == [5, 5]


def test_merge_tree_matches_serial_fold_and_is_reproducible(rng):
    def fresh(seed):
        r = np.random.default_rng(seed)
        return [make_acc(r, 4, 3) for _ in range(8)]

    serial = fresh(7)
    want_sums = serial[0].sums.copy()
    want_counts = serial[0].counts.copy()
    for acc in serial[1:]:
        want_sums += acc.sums
        want_counts += acc.counts

    merged1 = merge_accumulators(fresh(7))
    merged2 = merge_accumulators(fresh(7))
    assert np.allclose(merged1.sums, want_sums, rtol=1e-9)
    assert np.array_equal(merged1.counts, want_counts)
    # same inputs, same tree: bit-identical across runs
    assert np.array_equal(merged1.sums, merged2.sums)


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        merge_accumulators([])


def test_finalize_empty_cluster_keeps_previous(rng):
    prev = CentroidSet.from_means(rng.normal(size=(3, 2)))
    acc = Accumulator.zeros(3, 2)
    acc.counts[:] = (4, 0, 2)
    acc.sums[0] = (4.0, 8.0)
    acc.sums[2] = (2.0, 2.0)
    c = finalize_centroids(acc, prev, np.zeros(2))
    assert np.array_equal(c.means[1], prev.means[1])
    assert c.drift[1] == 0.0
    assert np.allclose(c.means[0], (1.0, 2.0))


def test_finalize_mean_of_all_points():
    prev = CentroidSet.from_means(np.zeros((1, 2)))
    acc = Accumulator.zeros(1, 2)
    acc.counts[0] = 3
    acc.sums[0] = np.array([0.0, 0.0]) + np.array([2.0, 0.0]) + np.array([4.0, 0.0])
    c = finalize_centroids(acc, prev, np.zeros(2))
    assert np.allclose(c.means[0], (2.0, 0.0))


def test_finalize_adds_the_shift_back():
    shift = np.array([1e8, -3.0])
    prev = CentroidSet.from_means(np.zeros((2, 2)))
    acc = Accumulator.zeros(2, 2)
    acc.counts[:] = (2, 0)
    acc.sums[0] = (1.0, 4.0)  # members (1e8, -2) and (1e8 + 1, 0), less the shift
    c = finalize_centroids(acc, prev, shift)
    assert np.array_equal(c.means[0], (1e8 + 0.5, -1.0))
    assert np.array_equal(c.means[1], prev.means[1])


def test_finalize_drift_matches_recomputation(rng):
    prev = CentroidSet.from_means(rng.normal(size=(5, 4)))
    acc = Accumulator.zeros(5, 4)
    acc.counts += rng.integers(1, 20, size=5)
    acc.sums += rng.normal(size=(5, 4)) * acc.counts[:, None]
    c = finalize_centroids(acc, prev, np.zeros(4))
    for j in range(5):
        want = naive_distance(c.means[j], prev.means[j])
        assert c.drift[j] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_finalize_counts_an_underflowing_move_as_drift():
    prev = CentroidSet.from_means(np.array([[1e-170, 0.0], [3.0, 4.0]]))
    acc = Accumulator.zeros(2, 2)
    acc.add_rows(np.array([0, 1]), np.array([[2e-170, 0.0], [3.0, 4.0]]), np.zeros(2))
    c = finalize_centroids(acc, prev, np.zeros(2))
    assert c.drift[0] > 0.0 and c.drift[1] == 0.0


def test_add_rows_matches_a_per_cluster_loop(rng):
    k, d = 4, 3
    rows = rng.normal(size=(50, d)) + 1e6
    ids = rng.integers(0, k, size=50)
    shift = rows[:k].mean(axis=0)
    acc = Accumulator.zeros(k, d)
    acc.add_rows(ids, rows, shift)
    sums, counts, sq = np.zeros((k, d)), np.zeros(k, dtype=np.int64), np.zeros(k)
    for i, j in enumerate(ids):  # each cluster's rows in row order
        x = rows[i] - shift
        sums[j] += x
        counts[j] += 1
        sq[j] += x @ x
    assert np.array_equal(acc.sums, sums)
    assert np.array_equal(acc.counts, counts)
    assert np.allclose(acc.sq, sq, rtol=1e-12, atol=0.0)


def test_add_rows_then_take_them_away_leaves_exact_zeros(rng):
    rows = rng.normal(size=(40, 5)) * 1e3
    ids = rng.integers(0, 3, size=40)
    acc = Accumulator.zeros(3, 5)
    # move_rows adds the rows to ids and then takes them away from ids
    acc.move_rows(ids, ids, rows, rows.mean(axis=0))
    assert not acc.sums.any() and not acc.counts.any() and not acc.sq.any()


def test_move_rows_equals_adding_then_taking_away(rng):
    rows = rng.normal(size=(60, 4)) + 1e6
    to_ids, from_ids = rng.integers(0, 5, size=60), rng.integers(0, 5, size=60)
    shift = rows[:5].mean(axis=0)
    moved = make_acc(rng, 5, 4)
    twice = Accumulator(moved.sums.copy(), moved.counts.copy(), moved.sq.copy())
    moved.move_rows(to_ids, from_ids, rows, shift)
    away = Accumulator.zeros(5, 4)
    twice.add_rows(to_ids, rows, shift)
    away.add_rows(from_ids, rows, shift)
    # bincount sums are never -0, so 0 + s is s and the subtractions match
    twice.sums -= away.sums
    twice.counts -= away.counts
    twice.sq -= away.sq
    for a, b in ((moved.sums, twice.sums), (moved.counts, twice.counts), (moved.sq, twice.sq)):
        assert a.tobytes() == b.tobytes()


def test_add_rows_without_sq_leaves_sq_untouched(rng):
    acc = make_acc(rng, 3, 2)
    sq, counts = acc.sq.copy(), acc.counts.copy()
    acc.add_rows(np.array([0, 2, 2]), rng.normal(size=(3, 2)), np.zeros(2), sq=False)
    assert np.array_equal(acc.sq, sq)
    assert np.array_equal(acc.counts, counts + (1, 0, 2))


def test_wcss_matches_a_direct_sum_on_offset_data(rng):
    k, d = 3, 4
    rows = rng.normal(size=(300, d)) + 1e8
    ids = np.arange(300) % k
    acc = Accumulator.zeros(k, d)
    acc.add_rows(ids, rows, rows[:k].mean(axis=0))
    y = rows - 1e8  # exact, so the direct sum below loses nothing to the offset
    want = sum(((y[ids == j] - y[ids == j].mean(axis=0)) ** 2).sum() for j in range(k))
    assert acc.wcss() == pytest.approx(want, rel=1e-9)
