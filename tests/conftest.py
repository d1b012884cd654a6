"""Shared oracles and fixtures.

The reference implementations here are deliberately naive and independent of
the package internals: plain Python loops for distances, a from-scratch
Lloyd's iteration for clustering.  Tests freeze or derive expected values
from these, never from the code under test.

``run_with_history`` is the per-iteration window into a run: it records the
assignment after every iteration and can check the pruned engine's stored
assignments and bounds against an exhaustive pass before each update.  That
check, ``check_prune_state``, uses the package's block distance kernel.
"""

import math

import numpy as np
import pytest

from numakmeans import engine, outofcore
from numakmeans.distance import block_distances

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(criterion: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((criterion, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {criterion}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# independent oracles


def naive_distance(a, b) -> float:
    """Sequential-sum Euclidean distance, written apart from the package kernel."""
    total = 0.0
    for x, y in zip(a, b):
        diff = float(x) - float(y)
        total += diff * diff
    return math.sqrt(total)


def naive_nearest(v, means):
    """Exhaustive argmin with the lowest-id tie rule."""
    best_id, best = 0, naive_distance(v, means[0])
    for j in range(1, len(means)):
        dj = naive_distance(v, means[j])
        if dj < best:
            best, best_id = dj, j
    return best_id, best


def naive_assign_all(m, means):
    return np.array([naive_nearest(v, means)[0] for v in m], dtype=np.int32)


def naive_lloyd(m, means0, max_iters=100, tolerance=0):
    """From-scratch Lloyd's: fresh argmin each iteration, empty keeps previous.

    The assignment vector starts all-zero, matching the engine's documented
    reassignment-count semantics.  Returns (means, assignments, history).
    """
    m = np.asarray(m, dtype=np.float64)
    means = np.array(means0, dtype=np.float64, copy=True)
    k = means.shape[0]
    assign = np.zeros(m.shape[0], dtype=np.int32)
    history = []
    for _ in range(max_iters):
        new_assign = naive_assign_all(m, means)
        changed = int((new_assign != assign).sum())
        assign = new_assign
        history.append(assign.copy())
        new_means = means.copy()
        for j in range(k):
            members = m[assign == j]
            if len(members):
                new_means[j] = members.mean(axis=0)
        means = new_means
        if changed <= tolerance:
            break
    return means, assign, history


# ---------------------------------------------------------------------------
# per-iteration views of an engine run


def check_prune_state(eng) -> None:
    """Every stored assignment (skipped points included) must equal the
    exhaustive argmin, and every bound must dominate the true distance to the
    assigned centroid (tiny slack for FP reassociation).  Every lower bound,
    kept in memory, must be at most the computed distance to each other
    centroid, with no slack.  Needs the in-memory matrix and the centroids
    the iteration assigned against."""
    matrix = eng.source.matrix
    t = eng.iter_t
    for lo in range(0, eng.n, 8192):
        hi = min(lo + 8192, eng.n)
        dmat = block_distances(matrix[lo:hi], eng.centroids.means)
        ids = np.argmin(dmat, axis=1).astype(np.int32)
        if not np.array_equal(ids, eng.assignment[lo:hi]):
            raise AssertionError(
                f"iteration {t}: stored assignment differs from exhaustive argmin"
            )
        true_d = dmat[np.arange(hi - lo), eng.assignment[lo:hi]]
        slack = 1e-9 * np.maximum(1.0, true_d)
        if np.any(eng.upper[lo:hi] + slack < true_d):
            raise AssertionError(f"iteration {t}: upper bound below true distance")
        if eng.lower is not None:
            dmat[np.arange(hi - lo), eng.assignment[lo:hi]] = np.inf
            if np.any(eng.lower[lo:hi] > dmat.min(axis=1)):
                raise AssertionError(
                    f"iteration {t}: lower bound above the distance to another centroid")


def run_with_history(run, *args, validate_bounds=False, **kwargs):
    """``run(*args, **kwargs)`` (``kmeans`` or ``kmeans_ondisk``), returning
    ``(result, history)`` where ``history[t]`` is the assignment after
    iteration t.  With ``validate_bounds``, a pruned in-memory run is checked
    by :func:`check_prune_state` at every barrier; a failed check ends the run
    with its AssertionError."""
    history = []

    class Recording(engine._Engine):
        def _finish_iteration(self):
            if validate_bounds and self.cfg.pruning:
                check_prune_state(self)  # before the centroids are updated
            super()._finish_iteration()
            history.append(self.assignment.copy())

    saved = engine._Engine, outofcore._Engine
    engine._Engine = outofcore._Engine = Recording
    try:
        result = run(*args, **kwargs)
    finally:
        engine._Engine, outofcore._Engine = saved
    # an empty history would make every per-iteration comparison vacuous
    assert len(history) == result.n_iterations
    return result, history


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
