import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numakmeans.distance import (
    block_distances,
    euclidean_distance,
    nearest_block_into,
    nearest_centroid,
    rowwise_distances,
)

from conftest import naive_distance, naive_nearest


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
    for m, d, k in ((1, 1, 1), (37, 3, 4), (777, 12, 9), (100, 16, 25)):
        rows = rng.normal(size=(m, d))
        means = rng.normal(size=(k, d))
        want_ids, want_dist = nearest_centroid(rows, means)
        ids, best = nearest_block_into(rows, means)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(best, want_dist)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_symmetry_and_nonnegativity(d, seed):
    r = np.random.default_rng(seed)
    a, b = r.normal(size=d), r.normal(size=d)
    dab = euclidean_distance(a, b)
    assert dab == euclidean_distance(b, a)
    assert dab >= 0.0
