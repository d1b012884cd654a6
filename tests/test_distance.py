import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numakmeans import distance
from numakmeans.distance import (
    CHUNK_ELEMS,
    block_distances,
    nearest_block_into,
    nearest_centroid,
    rowwise_distances,
)
from numakmeans.matrix import SyntheticSpec, gen_synthetic

from conftest import naive_distance, naive_nearest
from helpers import euclidean_distance


def test_three_four_five():
    assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_identity_is_zero(rng):
    a = rng.normal(size=8)
    assert euclidean_distance(a, a) == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        euclidean_distance(np.zeros(3), np.zeros(4))


def test_matches_naive_loop(rng):
    for _ in range(50):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        got = euclidean_distance(a, b)
        want = naive_distance(a, b)
        assert got == pytest.approx(want, rel=1e-12)


def test_kernels_are_bit_coherent(rng):
    """block, rowwise-gather, and scalar paths must agree bit for bit."""
    rows = rng.normal(size=(64, 16))
    means = rng.normal(size=(5, 16))
    dmat = block_distances(rows, means)
    for j in range(5):
        col = rowwise_distances(rows, np.broadcast_to(means[j], rows.shape))
        assert np.array_equal(dmat[:, j], col)
    ids = rng.integers(0, 5, size=64)
    gathered = rowwise_distances(rows, means[ids])
    assert np.array_equal(gathered, dmat[np.arange(64), ids])
    # the sub-block boundary must not change any value
    top = block_distances(rows[:17], means)
    assert np.array_equal(top, dmat[:17])
    for i in range(0, 64, 13):
        assert euclidean_distance(rows[i], means[2]) == dmat[i, 2]


def test_nearest_tie_goes_to_lowest_id():
    ids, dist = nearest_centroid(np.array([[0.0]]), np.array([[-1.0], [1.0]]))
    assert ids[0] == 0
    assert dist[0] == 1.0


def test_nearest_simple():
    ids, dist = nearest_centroid(np.array([[0.9]]), np.array([[0.0], [1.0]]))
    assert ids[0] == 1
    assert dist[0] == pytest.approx(0.1)


def test_nearest_matches_exhaustive_oracle(rng):
    rows = rng.normal(size=(100, 4))
    means = rng.normal(size=(5, 4))
    ids, dist = nearest_centroid(rows, means)
    for i in range(100):
        want_id, want_d = naive_nearest(rows[i], means)
        assert ids[i] == want_id
        assert dist[i] == pytest.approx(want_d, rel=1e-12)


def test_streaming_nearest_matches_materialized(rng):
    for m, d, k in ((1, 1, 1), (37, 3, 4), (777, 12, 9), (100, 16, 25),
                    (50, 4, 1), (50, 1, 5), (0, 3, 4)):
        assert_matches_oracle(rng.normal(size=(m, d)), rng.normal(size=(k, d)))


def assert_matches_oracle(rows, means):
    ids, dists = nearest_block_into(rows, means)
    want_ids, want_dists = nearest_centroid(rows, means)
    assert ids.dtype == np.int32
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(dists, want_dists)  # bit for bit, not approx
    return ids


@pytest.fixture
def rechecked(monkeypatch):
    """Rows the full pass hands back to ``nearest_centroid``."""
    count = [0]
    recipe = distance.nearest_centroid

    def counting(rows, centroids):
        count[0] += rows.shape[0]
        return recipe(rows, centroids)

    monkeypatch.setattr(distance, "nearest_centroid", counting)
    return count


def test_filter_defers_an_ulp_near_tie_to_the_recipe(rechecked):
    # equidistant in exact arithmetic; rounding puts id 1 one ulp closer
    rows = np.array([[1.0, 2.0]])
    means = np.array([[2.0, 4 / 3], [0.0, 8 / 3]])
    assert block_distances(rows, means).tolist() == [[1.2018504251546631, 1.201850425154663]]
    assert assert_matches_oracle(rows, means)[0] == 1
    assert rechecked[0] == 1


def test_near_ties_on_small_integer_grids(rechecked):
    r = np.random.default_rng(5)
    for case in range(400):
        d = 1 + case % 3
        rows = r.integers(0, 6, size=(40, d)).astype(np.float64)
        means = r.integers(0, 6, size=(2 + case % 4, d)) / 3.0
        assert_matches_oracle(rows, means)
    assert rechecked[0] > 0  # the recheck path was exercised


def test_duplicate_centroids_go_to_the_lower_id(rng):
    rows = rng.normal(size=(500, 3))
    means = rng.normal(size=(4, 3))
    means = np.concatenate([means[:2], means[:1], means[2:], means[1:2]])
    ids = assert_matches_oracle(rows, means)
    assert not np.isin(ids, [2, 5]).any()


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e8])
def test_offset_data_matches_the_recipe(offset):
    data = gen_synthetic(SyntheticSpec("gaussian-mixture", 5000, 16, seed=3,
                                       k_true=16, separation=6.0))
    means = data[np.random.default_rng(4).choice(5000, 64, replace=False)] + 0.25
    assert_matches_oracle(data + offset, means + offset)


def test_block_longer_than_one_filter_step(rng, rechecked):
    k = 64
    means = rng.normal(size=(k, 3))
    means[-1] = means[0]  # rows nearest to centroid 0 tie, in every filter step
    rows = rng.normal(size=(2 * (CHUNK_ELEMS // k) + 7, 3))
    ids = assert_matches_oracle(rows, means)
    assert rechecked[0] > 0
    assert not (ids == k - 1).any()


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_symmetry_and_nonnegativity(d, seed):
    r = np.random.default_rng(seed)
    a, b = r.normal(size=d), r.normal(size=d)
    dab = euclidean_distance(a, b)
    assert dab == euclidean_distance(b, a)
    assert dab >= 0.0
