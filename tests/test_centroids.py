import numpy as np
import pytest

from numakmeans.centroids import (
    Accumulator,
    CentroidSet,
    finalize_centroids,
    init_centroids,
    merge_accumulators,
)

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
