import importlib.util
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from numakmeans import engine
from numakmeans.centroids import CentroidSet
from numakmeans.distance import CHUNK_ELEMS, block_distances, rowwise_distances
from numakmeans.engine import EngineConfig, kmeans
from numakmeans.matrix import RowStore, SyntheticSpec, gen_synthetic, save_matrix
from numakmeans.outofcore import kmeans_ondisk
from numakmeans.pruning import (
    CentroidGeometry,
    PruneCounters,
    centroid_geometry,
    inflate_bounds,
    other_drift,
    scan_block,
)

from conftest import naive_distance, naive_lloyd, naive_nearest, run_with_history


# Scalar reference for the vectorized scan_block: one point at a time, over
# its own per-point state.  It takes its half distances from the means, not
# from the geometry under test, and lowers them by the rounding margin itself.
@dataclass
class PointState:
    """Per-point assignment and distance upper bound."""

    assignment: np.ndarray  # (n,) int32
    upper: np.ndarray       # (n,) float32, >= distance to assigned centroid


def half_distances(means: np.ndarray) -> np.ndarray:
    """Half the centroid-to-centroid distances, by the package's recipe,
    lowered by the margin (d + 6) eps relative and 2^-500 absolute."""
    d = means.shape[1]
    half = block_distances(means, means) * 0.5
    return half * (1.0 - (d + 6) * np.finfo(np.float64).eps) - 2.0 ** -500


def can_skip_point(i: int, st: PointState, geo: CentroidGeometry) -> bool:
    """True when point i provably stays in its cluster this iteration."""
    return bool(st.upper[i] <= geo.half_min[st.assignment[i]])


def tighten_bound(i: int, v: np.ndarray, c: CentroidSet, st: PointState) -> float:
    """The exact distance, as the recipe computes it, from point i to its
    assigned centroid: what a scan decides by before it stores a bound."""
    return float(rowwise_distances(v[None, :], c.means[st.assignment[i]])[0])


def round_up_f32(x: float) -> np.float32:
    """The float32 nearest x, one ulp up when that is below x; past
    float32's range, +inf."""
    with np.errstate(over="ignore"):
        f = np.float32(x)
    return np.nextafter(f, np.float32(np.inf)) if float(f) < x else f


def scan_point(i: int, v: np.ndarray, c: CentroidSet, half: np.ndarray,
               st: PointState) -> tuple[int, PruneCounters]:
    """Reassign point i after it failed the point-skip test.

    Tightens the bound, then visits candidates in ascending id order,
    pruning each against half the gap to the current assignment and switching
    to a closer centroid, or to an equally close one with a lower id.  The
    original centroid is never revisited: its exact distance is the tightened
    bound itself.  Stores the final distance rounded up to float32.  Returns
    the final id and the work counters.
    """
    counters = PruneCounters()
    stale = float(st.upper[i])
    counters.computed += 1
    orig = int(st.assignment[i])
    cur = orig
    u = tighten_bound(i, v, c, st)
    for x in range(c.k):
        if x == cur or x == orig:
            continue
        gap = half[cur, x]
        if u <= gap:  # x is strictly farther as computed, whatever its id
            if stale <= gap:
                counters.pruned_stale += 1
            else:
                counters.pruned_tight += 1
            continue
        dx = rowwise_distances(v[None, :], c.means[x])[0]
        counters.computed += 1
        if (dx, x) < (u, cur):
            cur = x
            u = float(dx)
    st.assignment[i] = cur
    st.upper[i] = round_up_f32(u)
    return cur, counters



def geometry_of(means):
    return centroid_geometry(CentroidSet.from_means(np.asarray(means, dtype=float)))


def test_geometry_single_centroid_never_blocks_skip():
    geo = geometry_of([[5.0]])
    assert geo.half_min[0] == np.inf
    st = PointState(
        assignment=np.zeros(1, dtype=np.int32),
        upper=np.array([123.0], dtype=np.float32),
    )
    assert can_skip_point(0, st, geo)


def assert_gap_table(geo, means):
    """Off the diagonal the lowered half distance, symmetric bit for bit and
    below the half distance; infinite diagonal, and half_min the row minimum."""
    k = len(means)
    off = ~np.eye(k, dtype=bool)
    assert np.array_equal(geo.gaps[off], half_distances(means)[off])
    assert np.array_equal(geo.gaps, geo.gaps.T)
    assert (geo.gaps[off] < (block_distances(means, means) * 0.5)[off]).all()
    assert (np.diag(geo.gaps) == np.inf).all()
    assert np.array_equal(geo.half_min, geo.gaps.min(axis=1))


def test_geometry_hand_values():
    geo = geometry_of([[0.0], [2.0], [6.0]])
    # half distances 1, 3 and 2, each lowered by 7 eps relative (d = 1)
    low = 1.0 - 7 * np.finfo(np.float64).eps
    assert geo.gaps[0, 1] == geo.gaps[1, 0] == low
    assert geo.gaps[0, 2] == 3.0 * low
    assert geo.gaps[1, 2] == 2.0 * low
    assert_gap_table(geo, np.array([[0.0], [2.0], [6.0]]))
    # row minima: a point halfway to any other centroid is not skipped
    assert geo.half_min.tolist() == [low, low, 2.0 * low]


def test_geometry_matches_brute_force(rng):
    means = rng.normal(size=(10, 6))
    geo = geometry_of(means)
    for a in range(10):
        for b in range(a + 1, 10):
            want = 0.5 * naive_distance(means[a], means[b])
            assert geo.gaps[a, b] == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert_gap_table(geo, means)


def test_skip_test_is_inclusive():
    geo = geometry_of([[0.0], [4.0]])
    assert geo.half_min[0] < 2.0
    st = PointState(
        assignment=np.zeros(3, dtype=np.int32),
        upper=np.array([1.0, geo.half_min[0], 2.0]),
    )
    assert can_skip_point(0, st, geo)       # u < bound
    assert can_skip_point(1, st, geo)       # u == bound: inclusive
    assert not can_skip_point(2, st, geo)   # halfway: within the margin


def test_tighten_idempotent_and_exact(rng):
    c = CentroidSet.from_means(rng.normal(size=(3, 4)))
    v = rng.normal(size=4)
    st = PointState(
        assignment=np.array([2], dtype=np.int32),
        upper=np.array([naive_distance(v, c.means[2]) + 0.5], dtype=np.float32),
    )
    got = tighten_bound(0, v, c, st)
    assert got == pytest.approx(naive_distance(v, c.means[2]), rel=1e-12)
    again = tighten_bound(0, v, c, st)
    assert again == got


def test_scan_point_on_its_centroid_prunes_everything(rng):
    means = rng.normal(size=(5, 3))
    c = CentroidSet.from_means(means)
    v = means[2].copy()
    st = PointState(
        assignment=np.array([2], dtype=np.int32),
        upper=np.array([0.0], dtype=np.float32),
    )
    new_id, counters = scan_point(0, v, c, half_distances(c.means), st)
    assert new_id == 2
    assert counters.computed == 1  # the bound, recomputed
    assert counters.pruned_stale + counters.pruned_tight == 4


def test_scan_point_hand_trace():
    c = CentroidSet.from_means(np.array([[0.0], [6.0], [100.0]]))
    st = PointState(
        assignment=np.array([0], dtype=np.int32),
        upper=np.array([5.0], dtype=np.float32),
    )
    v = np.array([5.0])
    new_id, counters = scan_point(0, v, c, half_distances(c.means), st)
    # tighten gives u=5; half(0,1)=3 < 5 so centroid 1 is computed (d=1,
    # reassign); half(1,2)=47 >= 1 so centroid 2 is pruned.
    assert new_id == 1
    assert st.upper[0] == 1.0
    assert counters.computed == 2  # tighten + candidate 1
    assert counters.pruned_stale + counters.pruned_tight == 1


def round_down_f32(x: float) -> np.float32:
    """One float32 ulp under x's nearest float32, so at most x; past
    float32's range, its largest finite value."""
    with np.errstate(over="ignore"):
        return np.nextafter(np.float32(x), np.float32(-np.inf))


def one_pass(rows, c, half, assign, upper):
    """The work of one pass, row by row: tighten the bound, then prune
    each x other than the assigned centroid against the tightened bound u,
    counting it stale when the carried bound prunes it too, or compute it.
    Also each row's lower bound: the smaller of the second smallest of u and
    the computed distances, and twice the smallest pruned gap less u, lowered
    by (d + 7) eps relative and 2^-500 absolute and rounded down to float32
    as :func:`round_down_f32` does.
    Returns the counters and the bounds."""
    counters = PruneCounters()
    lower = np.empty(len(rows), dtype=np.float32)
    for i in range(len(rows)):
        # the row's distance to each centroid, as the scan computes it
        recipe = rowwise_distances(np.broadcast_to(rows[i], c.means.shape), c.means)
        orig = int(assign[i])
        stale, u = float(upper[i]), recipe[orig]
        counters.computed += 1
        dists, pruned_gap = [u], np.inf
        for x in range(c.k):
            if x == orig:
                continue
            gap = half[orig, x]
            if u > gap:
                counters.computed += 1
                dists.append(recipe[x])
                continue
            pruned_gap = min(pruned_gap, gap)
            if stale <= gap:
                counters.pruned_stale += 1
            else:
                counters.pruned_tight += 1
        runner_up = sorted(dists)[1] if len(dists) > 1 else np.inf
        low = min(runner_up, 2.0 * pruned_gap - u)
        low *= 1.0 - (c.means.shape[1] + 7) * np.finfo(np.float64).eps
        lower[i] = round_down_f32(low - 2.0 ** -500)
    return counters, lower


def assert_scan_matches_scalar(rows, means, assign, upper):
    """scan_block on the whole block equals scan_point row by row, and its
    counters and lower bounds those of one pass that tightens every bound.
    ``upper`` holds valid bounds, stored as float32 rounded up as the engine
    keeps them; both scans store their bounds that way too, and they are
    compared bit for bit."""
    upper = np.array([round_up_f32(x) for x in upper], dtype=np.float32)
    c = CentroidSet.from_means(means)
    half = half_distances(c.means)
    st = PointState(assignment=assign.copy(), upper=upper.copy())
    for i in range(len(rows)):
        scan_point(i, rows[i], c, half, st)

    want_counters, want_lower = one_pass(rows, c, half, assign, upper)
    a2, u2 = assign.copy(), upper.copy()
    l2 = np.full(len(rows), np.nan, dtype=np.float32)
    block_counters = PruneCounters()
    orig = scan_block(rows, c, centroid_geometry(c), a2, u2, block_counters, l2)

    assert np.array_equal(orig, assign)
    assert np.array_equal(a2, st.assignment)
    assert u2.tobytes() == st.upper.tobytes()
    assert l2.tobytes() == want_lower.tobytes()
    assert block_counters == want_counters
    work = block_counters.computed + block_counters.pruned_stale + block_counters.pruned_tight
    assert work == len(rows) * c.k
    return st.assignment


def test_scan_block_matches_scalar_scan(rng):
    for trial in range(20):
        k = int(rng.integers(2, 8))
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 40))
        means = rng.normal(size=(k, d)) * 3
        rows = rng.normal(size=(m, d)) * 3
        assign = rng.integers(0, k, size=m).astype(np.int32)
        true_d = np.array([naive_distance(rows[i], means[assign[i]]) for i in range(m)])
        upper = true_d + rng.random(m)  # valid, possibly loose bounds
        assert_scan_matches_scalar(rows, means, assign, upper)

    # k up to 70, with loose, exact and mixed bounds
    for k in (33, 64, 70):
        means = rng.normal(size=(k, 4)) * 3
        rows = rng.normal(size=(300, 4)) * 3
        assign = rng.integers(0, k, size=300).astype(np.int32)
        exact = rowwise_distances(rows, means[assign])
        for loose in (np.ones(300, bool), np.zeros(300, bool), rng.random(300) < 0.5):
            upper = np.where(loose, exact + rng.random(300), exact)
            assert_scan_matches_scalar(rows, means, assign, upper)

    # centroids on a line, every row assigned to the first: most rows switch
    # many times within one scan
    k = 70
    means = np.zeros((k, 2))
    means[:, 0] = 10.0 * np.arange(k)
    rows = np.zeros((200, 2))
    rows[:, 0] = rng.uniform(0, 10.0 * k, 200)
    assign = np.zeros(200, dtype=np.int32)
    final = assert_scan_matches_scalar(rows, means, assign, rowwise_distances(rows, means[assign]))
    assert np.count_nonzero(final >= 2) > 100  # each of them switched at least twice

    # duplicate centroids (zero half-distance) and integer rows and means,
    # for exact ties of distances with the bounds and between candidates;
    # bounds exact, loose by whole units, or below the exact distance (as
    # rounding can leave a carried bound)
    for trial in range(10):
        k = int(rng.integers(2, 40))
        means = rng.integers(-2, 3, size=(k, 2)).astype(float)
        means[rng.integers(0, k, size=k // 2)] = means[0]
        rows = rng.integers(-3, 4, size=(200, 2)).astype(float)
        assign = rng.integers(0, k, size=200).astype(np.int32)
        offset = rng.choice([-0.5, 0.0, 0.0, 1.0, 2.0], size=200)
        upper = rowwise_distances(rows, means[assign]) + offset
        assert_scan_matches_scalar(rows, means, assign, upper)

    # an empty block
    means = rng.normal(size=(5, 3))
    assert_scan_matches_scalar(np.zeros((0, 3)), means, np.zeros(0, dtype=np.int32), np.zeros(0))

    # a task longer than CHUNK_ELEMS // k rows; its bounds need not reach
    # every gap, so it may still fit in one block of the narrower window
    k = 64
    m = CHUNK_ELEMS // k + 700
    centers = rng.normal(size=(16, 3)) * 5
    rows = centers[rng.integers(0, 16, size=m)] + rng.normal(size=(m, 3))
    means = centers[np.arange(k) % 16] + rng.normal(size=(k, 3))
    assign = rng.integers(0, k, size=m).astype(np.int32)
    upper = rowwise_distances(rows, means[assign]) + rng.random(m)
    assert_scan_matches_scalar(rows, means, assign, upper)


def paired_case(rng, m, d, k=64):
    """Rows around k/2 far-apart pairs of close centroids, each row assigned
    to one of its pair, with exact or loose bounds: no bound reaches past
    the partner.  The ids are shuffled, so partners are not neighbours."""
    pairs = np.zeros((k // 2, d))
    pairs[:, 0] = 100.0 * np.arange(k // 2)
    offset = np.zeros(d)
    offset[-1] = 0.5
    perm = rng.permutation(k)
    means = np.empty((k, d))
    means[perm[0::2]] = pairs - offset
    means[perm[1::2]] = pairs + offset
    p = rng.integers(0, k // 2, size=m)
    rows = pairs[p] + rng.normal(size=(m, d)) * 0.4
    assign = perm[2 * p + rng.integers(0, 2, size=m)].astype(np.int32)
    loose = rng.random(m) < 0.5
    exact = rowwise_distances(rows, means[assign])
    upper = np.where(loose, exact + rng.random(m), exact)
    return rows, means, assign, upper


def window_width(means, upper, rows, assign):
    """The most gaps in one row of the table that a bound, carried or exact,
    can reach."""
    reach = np.maximum(upper, rowwise_distances(rows, means[assign])).max()
    return int((geometry_of(means).gaps < reach).sum(axis=1).max())


def test_scan_block_window_of_paired_centroids(rng):
    rows, means, assign, upper = paired_case(rng, 3000, 3)
    assert window_width(means, upper, rows, assign) <= 2
    final = assert_scan_matches_scalar(rows, means, assign, upper)
    assert np.count_nonzero(final != assign) > 100  # rows switch to the partner


@pytest.mark.parametrize("far", [1e300, np.inf])
def test_scan_block_one_far_bound_widens_the_window(rng, far):
    rows, means, assign, upper = paired_case(rng, 3000, 3)
    upper[17] = far  # 1e300 is stored as float32's +inf, as inf is
    assert window_width(means, upper, rows, assign) == len(means) - 1
    assert_scan_matches_scalar(rows, means, assign, upper)


def test_scan_block_dense_task_runs_several_blocks(rng):
    # nearly every pair is a candidate and the window is full, so a block
    # holds CHUNK_ELEMS // (k - 1) rows
    k, d = 64, 3
    m = CHUNK_ELEMS // (k - 1) + 700
    rows = rng.normal(size=(m, d)) * 3
    means = rng.normal(size=(k, d)) * 3
    assign = rng.integers(0, k, size=m).astype(np.int32)
    upper = rowwise_distances(rows, means[assign]) + rng.random(m)
    upper[0] += 100.0
    assert window_width(means, upper, rows, assign) == k - 1
    assert_scan_matches_scalar(rows, means, assign, upper)


def test_scan_block_runs_on_a_read_only_block(rng):
    # a cache slot is handed to the scan read-only: the bounds read it in
    # place, the candidates gather from it
    k, d, m = 9, 3, 500
    rows = rng.normal(size=(m, d)) * 3
    rows.flags.writeable = False
    means = rng.normal(size=(k, d)) * 3
    assign = rng.integers(0, k, size=m).astype(np.int32)
    exact = rowwise_distances(rows, means[assign])
    for loose in (np.ones(m, bool), rng.random(m) < 0.5):
        upper = np.where(loose, exact + rng.random(m), exact)
        assert_scan_matches_scalar(rows, means, assign, upper)


def test_scan_block_reads_the_geometry_it_is_given(rng):
    # a table of infinite gaps prunes every candidate: the scan must take
    # its tests from geo.gaps, not from gaps of its own
    m, d, k = 300, 3, 7
    rows = rng.normal(size=(m, d)) * 3
    c = CentroidSet.from_means(rng.normal(size=(k, d)) * 3)
    geo = CentroidGeometry(gaps=np.full((k, k), np.inf), half_min=np.full(k, np.inf))
    assign = rng.integers(0, k, size=m).astype(np.int32)
    loose = rng.random(m) < 0.5
    exact = rowwise_distances(rows, c.means[assign])
    upper = np.where(loose, exact + rng.random(m), exact).astype(np.float32)
    counters = PruneCounters()
    a2 = assign.copy()
    orig = scan_block(rows, c, geo, a2, upper, counters, np.zeros(m, dtype=np.float32))
    assert np.array_equal(orig, assign)
    assert np.array_equal(a2, assign)
    assert upper.tobytes() == np.array([round_up_f32(x) for x in exact], np.float32).tobytes()
    assert counters.computed == m
    assert counters.pruned_stale + counters.pruned_tight == m * (k - 1)


def test_scan_block_near_ties_on_small_integer_grids():
    # integer rows against means in thirds: distances to different
    # centroids that agree to within a few ulps, and exact ties
    r = np.random.default_rng(5)
    for case in range(400):
        d = 1 + case % 3
        k = 2 + case % 7
        rows = r.integers(0, 6, size=(40, d)).astype(np.float64)
        means = r.integers(0, 6, size=(k, d)) / 3.0
        assign = r.integers(0, k, size=40).astype(np.int32)
        offset = r.choice([0.0, 0.0, 1.0], size=40)
        upper = rowwise_distances(rows, means[assign]) + offset
        assert_scan_matches_scalar(rows, means, assign, upper)


def scan_peak(*args):
    """scan_block(*args) under tracemalloc; returns its peak traced bytes."""
    tracemalloc.start()
    try:
        scan_block(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_scan(rng):
    """scan_block on random rows and centroids with no carried bounds:
    nearly every pair is a candidate, the worst case for the candidate index
    and distance arrays.  Returns (rows, means, assign, lower, counters, peak)."""
    m, d, k = 20000, 16, 64
    rows = rng.normal(size=(m, d))
    c = CentroidSet.from_means(rng.normal(size=(k, d)))
    geo = centroid_geometry(c)
    assign = rng.integers(0, k, size=m).astype(np.int32)
    upper = np.full(m, np.inf, dtype=np.float32)
    lower = np.zeros(m, dtype=np.float32)
    counters = PruneCounters()
    peak = scan_peak(rows, c, geo, assign, upper, counters, lower)
    return rows, c.means, assign, lower, counters, peak


def test_scan_block_scratch_is_bounded_by_the_chunk(rng):
    rows, means, _, _, counters, peak = dense_scan(rng)
    m, k = rows.shape[0], means.shape[0]
    assert counters.computed > m * k // 2
    # the row block plus one chunk's (rows x w) float64 scratch, w <= k - 1
    # the window's width
    assert peak <= 4 * (rows.nbytes + 8 * CHUNK_ELEMS)


def test_scan_block_scratch_with_lower_bounds_is_bounded_by_the_chunk(rng):
    # the scan sets every row's lower bound within the same scratch: each
    # bound holds for every centroid but the row's final one, and the dense
    # case leaves most of them above zero
    rows, means, assign, lower, _, peak = dense_scan(rng)
    assert peak <= 4 * (rows.nbytes + 8 * CHUNK_ELEMS)
    dist = np.stack([np.linalg.norm(rows - mu, axis=1) for mu in means], axis=1)
    dist[np.arange(rows.shape[0]), assign] = np.inf
    assert np.all(lower.astype(np.float64) <= dist.min(axis=1))
    assert np.count_nonzero(lower > 0) > rows.shape[0] // 2


def test_scan_block_scratch_follows_the_window(rng):
    # every bound reaches only its partner, so the scan gathers (rows x w)
    # gaps with w <= 2, not a (rows x k) block
    m, d, k = 4096, 2, 64
    rows, means, assign, upper = paired_case(rng, m, d, k)
    c = CentroidSet.from_means(means)
    counters = PruneCounters()
    peak = scan_peak(rows, c, centroid_geometry(c), assign, upper.astype(np.float32), counters,
                     np.zeros(m, dtype=np.float32))
    assert counters.computed > 0
    assert peak < m * k * 8 / 2


def test_other_drift_is_the_largest_other_drift_rounded_up():
    up = np.nextafter(np.float32(0.7), np.float32(np.inf))
    assert float(np.float32(0.7)) < 0.7 <= float(up)
    # two centroids share the largest drift: each loses the other's
    assert other_drift(np.array([0.1, 0.7, 0.3, 0.7])).tolist() == [up] * 4
    # one largest drift: every other centroid loses it, and it the runner-up;
    # a drift past float32's range rounds up to infinity
    got = other_drift(np.array([0.1, 0.7, 1e300]))
    assert got.dtype == np.float32
    assert got.tolist() == [np.inf, np.inf, up]
    assert other_drift(np.array([0.5])).tolist() == [0.0]


def inflate(upper, assign, drift, lower=None):
    """inflate_bounds on float32 copies of the bounds, lower bounds 0 when
    not given; returns both."""
    upper = np.array(upper, dtype=np.float32)
    lower = np.zeros(upper.size, np.float32) if lower is None else np.array(lower, np.float32)
    inflate_bounds(upper, assign, drift, lower, other_drift(drift))
    return upper, lower


def test_inflate_lowers_the_lower_bounds_by_the_other_drift():
    assign = np.array([0, 1], dtype=np.int32)
    upper, lower = inflate([1.0, 2.0], assign, np.array([0.0, 0.25]), [3.0, 0.0])
    # row 0 loses centroid 1's drift, row 1 nothing; both one float32 ulp
    down = np.float32(-np.inf)
    assert lower.tolist() == [np.nextafter(np.float32(2.75), down),
                              np.nextafter(np.float32(0.0), down)]
    assert upper.tolist() == [1.0, np.nextafter(np.float32(2.25), np.float32(np.inf))]


def test_inflate_by_drift():
    upper, _ = inflate([1.0, 2.0], np.array([0, 1], dtype=np.int32), np.array([0.3, 0.0]))
    # a grown bound is the float32 sum with the drift rounded up, one float32
    # ulp up; a bound that did not grow keeps its bits
    step = round_up_f32(0.3)
    assert float(step) > 0.3
    assert upper.tolist() == [np.nextafter(np.float32(1.0) + step, np.float32(np.inf)), 2.0]


def test_inflate_zero_drift_is_fixed_point():
    upper, _ = inflate([1.0, 2.0], np.zeros(2, dtype=np.int32), np.zeros(1))
    assert upper.tolist() == [1.0, 2.0]


def test_inflate_moves_subnormal_and_saturates_past_the_float32_range():
    # a drift far under float32's smallest subnormal still grows a
    # subnormal bound by at least that subnormal, and one ulp more; a sum
    # past the range is +inf, and an infinite bound stays so
    tiny = np.float32(1e-45)
    upper, _ = inflate([tiny, 3e38, np.inf], np.array([0, 1, 2], dtype=np.int32),
                       np.array([1e-300, 1e38, 1.0]))
    assert upper[0] > tiny + round_up_f32(1e-300) > tiny
    assert upper.tolist()[1:] == [np.inf, np.inf]


def test_inflated_bounds_remain_valid_after_move(rng):
    # validity: u >= distance to the (possibly moved) assigned centroid
    n, d, k = 200, 4, 5
    rows = rng.normal(size=(n, d))
    means = rng.normal(size=(k, d))
    c = CentroidSet.from_means(means)
    from numakmeans.distance import nearest_centroid

    ids, dist = nearest_centroid(rows, c.means)
    upper = np.array([round_up_f32(x) for x in dist], dtype=np.float32)
    moved = means + rng.normal(size=(k, d)) * 0.1
    drift = np.array([naive_distance(moved[j], means[j]) for j in range(k)])
    c_next = CentroidSet(means=moved, prev_means=means, counts=c.counts, drift=drift)
    upper, _ = inflate(upper, ids, c_next.drift)
    for i in range(n):
        true_d = naive_distance(rows[i], moved[ids[i]])
        assert upper[i] >= true_d - 1e-9


def task_engine(rows, means, assign):
    """An in-memory pruned engine over ``rows`` in one task, centroids
    ``means``, its rows assigned by ``assign`` and their bounds not yet
    known (upper infinite, lower 0), so its next task scans every row."""
    means = np.asarray(means, dtype=float)
    eng = engine._Engine(engine._MemorySource(np.asarray(rows, dtype=float)), EngineConfig(
        k=len(means), init="given", initial_centroids=means))
    assert len(eng.tasks) == 1
    eng.assignment[:] = assign
    return eng


def run_task(eng, means):
    """One pruned iteration of the engine's task after the centroids move to
    ``means``, as the engine runs it; returns the task's counters."""
    prev = eng.centroids.means
    means = np.asarray(means, dtype=float)
    eng.centroids = CentroidSet(means=means, prev_means=prev, counts=eng.centroids.counts,
                                drift=rowwise_distances(means, prev))
    eng._prune_tables(eng.centroids)
    return eng._task_pruned(eng.tasks)[0].counters


def test_lower_bound_skips_a_row_that_half_min_cannot():
    # two sibling centroids 1 apart and a row 2 away on centroid 1's side:
    # the gap table never skips it, its lower bound does once it is scanned;
    # the other row is halfway and is scanned every time
    rows = [[3.0], [0.5]]
    eng = task_engine(rows, [[0.0], [1.0]], [1, 0])
    assert run_task(eng, [[0.0], [1.0]]).skips == 0
    assert eng.lower[0] > eng.upper[0]
    second = run_task(eng, [[-0.01], [1.01]])
    u, a = eng.upper[0], eng.assignment[0]
    assert u > eng.geometry.half_min[a]
    assert u <= eng.lower[0]
    assert second.skips == 1
    assert eng.assignment.tolist() == [naive_nearest(np.array(v), eng.centroids.means)[0]
                                       for v in rows]


def test_lower_bound_never_skips_an_exact_tie_with_a_lower_id():
    # a row on centroid 1's side is 1 from it and 2 from centroid 0; then
    # centroid 0 moves 1 closer, an exact tie, which goes to the lower id
    eng = task_engine([[0.0]], [[-2.0], [1.0]], [1])
    run_task(eng, [[-2.0], [1.0]])
    assert eng.assignment[0] == 1 and eng.lower[0] > eng.upper[0]  # skipped, had nothing moved
    counters = run_task(eng, [[-1.0], [1.0]])
    d = rowwise_distances(np.zeros((2, 1)), eng.centroids.means)
    assert d[0] == d[1] == 1.0
    assert counters.skips == 0
    assert eng.assignment[0] == 0 == naive_nearest(np.zeros(1), eng.centroids.means)[0]


def run_pair(m, k, seed, T=2, max_iters=40):
    """Pruned (oracle-checked every iteration) and unpruned runs, each with
    its assignment history."""
    base = dict(k=k, seed=seed, T=T, max_iters=max_iters)
    pruned = run_with_history(kmeans, m, EngineConfig(pruning=True, **base),
                              validate_bounds=True)
    plain = run_with_history(kmeans, m, EngineConfig(pruning=False, **base))
    return pruned, plain


@pytest.mark.parametrize("family,n,d,k", [
    ("gaussian-mixture", 3000, 4, 6),
    ("uniform", 2000, 3, 5),
])
def test_pruned_run_matches_unpruned_every_iteration(family, n, d, k):
    spec = SyntheticSpec(family, n, d, seed=21, k_true=k, separation=8.0)
    m = gen_synthetic(spec)
    (pruned, pruned_hist), (plain, plain_hist) = run_pair(m, k, seed=4)
    assert pruned.n_iterations == plain.n_iterations
    for a, b in zip(pruned_hist, plain_hist):
        assert np.array_equal(a, b)
    assert [s.reassignments for s in pruned.iterations] == \
           [s.reassignments for s in plain.iterations]
    assert np.max(np.abs(pruned.centroids.means - plain.centroids.means)) < 1e-9


@pytest.mark.parametrize("scale,prunes", [(1e-140, True), (1e-160, False)])
def test_pruned_run_on_tiny_data_matches_unpruned(scale, prunes):
    # Below the margin's 2^-500 floor every gap is negative: nothing is
    # skipped or pruned, and the run must still be the unpruned one.  There
    # the squared centroid moves underflow, so a moved centroid's drift must
    # not be 0: its points' bounds must still grow.
    spec = SyntheticSpec("gaussian-mixture", 2000, 4, seed=21, k_true=6, separation=8.0)
    m = gen_synthetic(spec) * scale
    (pruned, pruned_hist), (plain, plain_hist) = run_pair(m, 6, seed=4)
    assert pruned.n_iterations == plain.n_iterations > 10
    for a, b in zip(pruned_hist, plain_hist):
        assert np.array_equal(a, b)
    avoided = sum(s.skips + s.pruned_stale + s.pruned_tight for s in pruned.iterations)
    assert (avoided > 0) == prunes


@pytest.mark.parametrize("scale", [1e45, 1e-50])
def test_distances_past_float32_range_keep_runs_exact(scale, tmp_path):
    # At 1e45 every distance exceeds float32's range: each upper bound is
    # stored as +inf, so every row is scanned in every iteration.  At 1e-50
    # every distance is below float32's smallest subnormal: each upper bound
    # is that subnormal, above the float32 gaps (0) and the lower bounds
    # (one subnormal under 0), so every row is scanned too.  The scan still
    # prunes candidates in float64, and no cast or sum may warn.
    n, d, k = 2000, 4, 6
    m = gen_synthetic(SyntheticSpec("gaussian-mixture", n, d, seed=21, k_true=k,
                                    separation=8.0)) * scale
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)
    base = dict(k=k, seed=4, T=2, task_size=300, max_iters=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pruned, pruned_hist = run_with_history(kmeans, m, EngineConfig(pruning=True, **base),
                                               validate_bounds=True)
        plain, plain_hist = run_with_history(kmeans, m, EngineConfig(pruning=False, **base))
        with RowStore(path, n, d) as store:
            sem, sem_hist = run_with_history(kmeans_ondisk, store,
                                             EngineConfig(mode="sem", **base), refresh_start=2)
    assert pruned.n_iterations == plain.n_iterations == sem.n_iterations > 3
    for a, b, c in zip(pruned_hist, plain_hist, sem_hist):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    assert pruned.centroids.means.tobytes() == plain.centroids.means.tobytes()
    assert sem.centroids.means.tobytes() == plain.centroids.means.tobytes()
    for run in (pruned, sem):
        assert all(st.skips == 0 for st in run.iterations)
        assert sum(st.pruned_stale + st.pruned_tight for st in run.iterations) > 0
    assert all(st.io.rows_elided == 0 for st in sem.iterations)


# After iteration 0 the last row is exactly as far from centroid 0 as from
# centroid 1, to which it is assigned: a full pass moves it to the lower id.
EXACT_TIES = {
    "1d": ([[1.0], [4.0], [2.0]], [[0.5], [3.0]]),
    "2d": ([[3.0, 2.0], [2.0, 4.0], [2.0, 2.0]], [[3.0, 2.0], [2.0, 2.0]]),
}


@pytest.mark.parametrize("mode", ["im", "sem"])
@pytest.mark.parametrize("case", sorted(EXACT_TIES))
def test_exact_tie_goes_to_the_lower_id_every_iteration(case, mode, tmp_path):
    m, init = (np.array(v) for v in EXACT_TIES[case])
    base = dict(k=2, init="given", initial_centroids=init, mode=mode)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)

    def run(cfg):
        if mode == "im":  # the bound oracle reads the in-memory matrix
            return run_with_history(kmeans, m, cfg, validate_bounds=True)
        with RowStore(path, *m.shape) as store:
            return run_with_history(kmeans_ondisk, store, cfg)

    pruned, pruned_hist = run(EngineConfig(pruning=True, **base))
    plain, plain_hist = run(EngineConfig(pruning=False, **base))
    _, want, want_hist = naive_lloyd(m, init)
    assert [s.reassignments for s in plain.iterations] == [2, 1, 0]
    assert [s.reassignments for s in pruned.iterations] == [2, 1, 0]
    for got in (pruned_hist, plain_hist):
        assert len(got) == len(want_hist)
        for a, b in zip(got, want_hist):
            assert np.array_equal(a, b)
    assert want.tolist() == [0, 1, 0]
    assert np.array_equal(pruned.assignments, want)


# Row (1, 2) against centroids (2, 4/3) (id 0) and (0, 8/3) (id 3), the means
# of rows 0-2 and 3-5 after iteration 0: equally far mathematically, but the
# recipe puts id 3 one ulp closer, so a full pass moves the row in iteration 1.
# The initial centroids average to exactly 0, the engine's shift, so the
# means are exactly those.  In "candidate" centroid 0 moves in the update and
# the row is scanned against its candidates; in "skip" it stays, and the
# row's recomputed bound meets the point-skip test.
NEAR_TIES = {
    "candidate": ([[1, 2], [2, 0], [3, 2], [0, 2], [0, 3], [0, 3], [20, -30], [-22, 24.5]],
                  [[2, 2], [20, -30], [-22, 24.5], [0, 3.5]]),
    "skip": ([[1, 2], [2, 0], [3, 2], [0, 2], [0, 3], [0, 3], [20, -4 / 3], [-22, -3.5]],
             [[2, 4 / 3], [20, -4 / 3], [-22, -3.5], [0, 3.5]]),
}


@pytest.mark.parametrize("mode", ["im", "sem"])
@pytest.mark.parametrize("case", sorted(NEAR_TIES))
def test_ulp_near_tie_goes_to_the_recipe_every_iteration(case, mode, tmp_path):
    m, init = (np.array(v, dtype=float) for v in NEAR_TIES[case])
    pair = np.array([[2, 4 / 3], [0, 8 / 3]])
    d0, d3 = rowwise_distances(np.array([[1.0, 2.0]] * 2), pair)
    # id 3 one ulp closer, and id 0's distance equal to the unlowered half gap
    assert d3 == np.nextafter(d0, 0.0)
    assert d0 == block_distances(pair, pair)[0, 1] * 0.5
    base = dict(k=4, init="given", initial_centroids=init, mode=mode)
    path = tmp_path / "m.raw"
    save_matrix(m, path, raw=True)

    def run(cfg):
        if mode == "im":  # the bound oracle reads the in-memory matrix
            return run_with_history(kmeans, m, cfg, validate_bounds=True)
        with RowStore(path, *m.shape) as store:
            return run_with_history(kmeans_ondisk, store, cfg)

    pruned, pruned_hist = run(EngineConfig(pruning=True, **base))
    plain, plain_hist = run(EngineConfig(pruning=False, **base))
    assert [h[0] for h in plain_hist] == [0, 3, 3]
    assert len(pruned_hist) == len(plain_hist)
    for a, b in zip(pruned_hist, plain_hist):
        assert np.array_equal(a, b)
    assert [st.wcss for st in plain.iterations] == [st.wcss for st in pruned.iterations]
    assert plain.centroids.means.tobytes() == pruned.centroids.means.tobytes()


def test_near_tie_sweep_subset():
    # a seeded sample of tools/near_tie_sweep.py's datasets, with the five
    # that failed a bound test before the gap table carried a rounding margin
    # and the seven whose runs parted when only pruned runs summed by deltas
    path = Path(__file__).resolve().parent.parent / "tools" / "near_tie_sweep.py"
    spec = importlib.util.spec_from_file_location("near_tie_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    picked = np.random.default_rng(19).choice(20000, size=300, replace=False)
    known = [898, 1980, 3677, 4183, 4873, 8848, 12353, 12402, 14213, 14681, 15583, 17892]
    for i in sorted(set(picked.tolist()) | set(known)):
        rows, k = sweep.dataset(i)
        if k <= len(rows):
            assert sweep.check(rows, k, i) == "", i
    for rows, init in NEAR_TIES.values():
        assert sweep.check(np.array(rows, dtype=float), 4, 0, init="given",
                           initial_centroids=np.array(init, dtype=float)) == ""


def test_distance_computation_caps():
    spec = SyntheticSpec("gaussian-mixture", 4000, 6, seed=3, k_true=8, separation=12.0)
    m = gen_synthetic(spec)
    k = 8
    (pruned, _), _ = run_pair(m, k, seed=9)
    nk = 4000 * k
    assert pruned.iterations[0].dist_comps == nk
    for st in pruned.iterations[1:]:
        assert st.dist_comps <= nk
    # clustered data prunes hard once the centroids settle
    for st in pruned.iterations[2:]:
        assert st.dist_comps < nk


def test_skip_fraction_grows_on_clustered_data():
    spec = SyntheticSpec("gaussian-mixture", 5000, 8, seed=13, k_true=8, separation=12.0)
    m = gen_synthetic(spec)
    res = kmeans(m, EngineConfig(k=8, seed=2, T=2, pruning=True, max_iters=60))
    assert res.n_iterations >= 3
    frac = [s.skips / 5000 for s in res.iterations]
    assert frac[-1] >= frac[2]
