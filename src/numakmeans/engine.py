"""Merged-phase parallel Lloyd's algorithm.

Each iteration is a single super-phase: workers pull row-range tasks from the
partitioned queue, assign points and accumulate centroid contributions, then
meet at one barrier whose action merges accumulators, finalizes centroids,
records statistics, and releases the next iteration.  Workers never write
shared state at overlapping indices: assignments and bounds are sliced by row
range, and every task owns its own accumulator.

Accumulators are kept per task (not per thread) and reduced in task order at
the barrier.  Work stealing then has no effect on the floating-point
summation order, so a run is bit-reproducible for a fixed thread count and
task size regardless of scheduling policy or timing.

Iteration 0 is a full pass that sums every row into the run's cluster
totals (and, with pruning enabled, seeds the bounds).  Later iterations add
one signed delta per task for the rows whose assignment changed, in row
order, found by a full pass or by the triangle-inequality tests, so skipped
points cost neither distance work nor (out of core) any I/O.  Pruned and
unpruned runs that assign alike thus hold bit-equal totals, centroids and
WCSS at every iteration.

A pruned run keeps two float32 bounds per point, in memory and on disk
alike: an upper bound on its distance to its centroid, rounded up, and a
lower bound on its distance to every other centroid, rounded down, so a
point costs 12 bytes beside its row.  No flag marks an upper bound exact: a
survivor's bound is recomputed, which costs a distance more only where its
centroid did not move.  Each pruned task first loosens its own rows' bounds
by the last update's drift, so the barrier does O(k^2) work: merge,
finalize, the gap table with its row minima rounded down to float32, and
the k-vector of drifts that the lower bounds lose.

The run's layout is fixed when the engine is built: the node of each
worker, one task list split from the workers' row ranges, and each
worker's victim order under the run's policy.  The queue is filled with
that list for iteration 0 and refilled with it at each barrier.  A task
takes the pruned scan exactly when the iteration has a gap table, i.e. in
every pruned iteration after the first, and a full pass otherwise.  A
worker that takes a pruned task also takes up to half of the tasks left
behind it in the same partition (:meth:`PartitionedTaskQueue.follow`) and
runs them in one pass, since each array call of a pass hands the
interpreter lock to the other workers and back: one bound update and skip
test for all their rows, then scans of whole tasks with up to a task's
worth of survivors each (or one task).  The skip test is float32 and has
two parts.  A row whose bound is at most its centroid's smallest gap is
neither fetched nor scanned; any other row is scanned unless its bound is
at most its lower bound.  Out of core, just before a scan, its tasks fetch
every row that the first part did not skip, so the reads and the rows a
cache refresh keeps do not depend on the lower bounds.  A full pass is
one :func:`nearest_block_into` call over the task's rows, whose kernels
step in blocks of at most ``CHUNK_ELEMS`` elements.  Beside those blocks, a
task's transient scratch scales with its rows: their ids and distances,
and for its sums two (task_size, d) arrays of 8-byte elements, the shifted
rows and their flat bin index; out of core, also the rows it fetched.  The
resident-state accounting covers the arrays the engine keeps alive across
iterations.

The barrier takes the row source's I/O counts for the iteration (``None`` in
memory) and sums them into ``io_totals``.  Per-iteration test oracles live
in ``tests/conftest.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .centroids import (
    INIT_METHODS,
    Accumulator,
    CentroidSet,
    finalize_centroids,
    init_centroids,
    merge_accumulators,
)
from .distance import nearest_block_into, single_thread_blas
from .matrix import check_matrix, partition_rows
from .pruning import (
    PruneCounters,
    centroid_geometry,
    f32_down,
    f32_up,
    inflate_bounds,
    other_drift,
    scan_block,
)
from .scheduler import POLICIES, PartitionedTaskQueue, bind_to_node, build_topology, split_tasks

MODES = ("im", "sem")


@dataclass
class EngineConfig:
    """Knobs for one clustering run."""

    k: int
    max_iters: int = 100
    init: str = "forgy"
    seed: int = 0
    T: int = 1
    N: int = 0                # NUMA nodes; 0 = detect from the platform
    task_size: int = 8192
    pruning: bool = True
    mode: str = "im"
    tolerance: int = 0        # keep iterating while reassignments exceed this
    scheduler: str = "numa"
    initial_centroids: np.ndarray | None = None  # exactly when init == "given"

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.task_size < 1:
            raise ValueError("task_size must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.init not in INIT_METHODS:
            raise ValueError(f"unknown init {self.init!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.scheduler not in POLICIES:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if (self.initial_centroids is not None) != (self.init == "given"):
            raise ValueError(f"initial_centroids must be set exactly when init is 'given' "
                             f"(init={self.init!r})")


@dataclass
class IoDelta:
    """I/O counters for one iteration (or totals for a run).

    ``rows_elided`` counts the rows never requested: the point skip elided
    them.
    """

    bytes_requested: int = 0
    bytes_read: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rows_elided: int = 0

    def __iadd__(self, other: "IoDelta") -> "IoDelta":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass
class SchedCounters:
    taken_local: int = 0
    stolen_same_node: int = 0
    stolen_remote: int = 0


@dataclass
class IterationStats:
    """What one iteration did.

    ``wcss`` is the within-cluster sum of squared distances against the
    updated means: ``Accumulator.wcss`` of the run's cluster totals, so
    skipped points need no extra work.  The sequence is non-increasing, and
    pruned and unpruned runs report the same values.
    A run whose means or WCSS overflow to a non-finite value ends in
    ``FloatingPointError``.
    """

    t: int
    reassignments: int
    wcss: float
    dist_comps: int
    skips: int = 0
    pruned_stale: int = 0
    pruned_tight: int = 0
    wall_s: float = 0.0
    io: IoDelta | None = None
    sched: SchedCounters = field(default_factory=SchedCounters)


@dataclass
class KmeansResult:
    centroids: CentroidSet
    assignments: np.ndarray
    iterations: list[IterationStats]
    converged: bool
    io_totals: IoDelta | None = None
    peak_state_bytes: int = 0

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


class _MemorySource:
    """Row access backed by an in-memory matrix; tasks see zero-copy views."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.n, self.d = matrix.shape

    def init_centroids(self, cfg: "EngineConfig", ranges: list[range], tasks) -> CentroidSet:
        return init_centroids(self.matrix, cfg.k, cfg.init, cfg.seed, cfg.initial_centroids,
                              ranges=ranges)

    def task_rows(self, task):
        return self.matrix[task.start:task.stop]

    def rows_by_ids(self, tasks, fetch_ids, scan):
        return self.matrix[fetch_ids[scan]]

    def finish_iteration(self, next_t):
        return None

    def state_bytes(self):
        return self.matrix.nbytes


@dataclass
class _TaskResult:
    acc: Accumulator
    reassigned: int
    counters: PruneCounters


class _Engine:
    def __init__(self, source, cfg: EngineConfig):
        cfg.validate()
        self.source = source
        self.cfg = cfg
        self.n, self.d = source.n, source.d
        self.node_of = build_topology(cfg.T, cfg.N if cfg.N > 0 else None)
        ranges = partition_rows(self.n, cfg.T)
        self.tasks = split_tasks(ranges, cfg.task_size)
        self.queue = PartitionedTaskQueue(self.node_of, cfg.scheduler)
        self.queue.refill(self.tasks)
        self.centroids = source.init_centroids(cfg, ranges, self.tasks)
        self.k = self.centroids.k
        self.shift = self.centroids.means.mean(axis=0)

        # per point: its centroid and, when pruning, float32 bounds on its
        # distance to it (rounded up) and to every other centroid (rounded
        # down); per pruned iteration, the tables of :meth:`_prune_tables`
        self.assignment = np.zeros(self.n, dtype=np.int32)
        self.upper = np.full(self.n, np.inf, dtype=np.float32) if cfg.pruning else None
        self.lower = np.zeros(self.n, dtype=np.float32) if cfg.pruning else None
        self.totals = Accumulator.zeros(self.k, self.d)
        self.geometry = self.half_min = self.lower_drift = None

        self.task_results: list[_TaskResult | None] = [None] * len(self.tasks)
        self.iterations: list[IterationStats] = []
        self.io_totals: IoDelta | None = None
        self.iter_t = 0
        self.stop = False
        self.converged = False
        self.peak_state_bytes = 0
        self.error: BaseException | None = None
        self._error_lock = threading.Lock()
        self.barrier = threading.Barrier(cfg.T, action=self._finish_iteration)
        self._iter_start = 0.0

    # ---- worker side -----------------------------------------------------

    def _worker(self, w: int) -> None:
        try:
            bind_to_node(self.node_of, w)
            while True:
                while True:
                    task = self.queue.next_task(w)
                    if task is None:
                        break
                    self._process(task, w)
                self.barrier.wait()
                if self.stop:
                    return
        except threading.BrokenBarrierError:
            return
        except BaseException as exc:  # propagate the first failure to the driver
            with self._error_lock:
                if self.error is None:
                    self.error = exc
            self.barrier.abort()

    def _process(self, task, w: int) -> None:
        if self.geometry is None:
            self.task_results[task.index] = self._task_full(task)
            return
        # the tasks behind this one go with it in one pass: fewer and larger
        # array calls, each of which hands the interpreter lock to the other
        # workers and back
        tasks = [task] + self.queue.follow(w, task)
        for t, result in zip(tasks, self._task_pruned(tasks)):
            self.task_results[t.index] = result

    def _task_full(self, task) -> _TaskResult:
        lo, hi = task.start, task.stop
        rows = self.source.task_rows(task)
        acc = Accumulator.zeros(self.k, self.d)
        ids, ndist = nearest_block_into(rows, self.centroids.means)
        old = self.assignment[lo:hi]
        changed = np.flatnonzero(ids != old)
        if self.iter_t == 0:
            acc.add_rows(ids, rows, self.shift)
        elif changed.size:
            # the task's moved rows in one call, as the pruned scan makes it,
            # so that equal assignments give bit-equal sums in either run
            acc.move_rows(ids[changed], old[changed], rows[changed], self.shift)
        old[:] = ids
        if self.upper is not None:
            self.upper[lo:hi] = f32_up(ndist)
            self.lower[lo:hi] = 0.0
        return _TaskResult(acc, int(changed.size), PruneCounters(computed=(hi - lo) * self.k))

    def _task_pruned(self, tasks) -> list[_TaskResult]:
        """Consecutive tasks in one pass; each keeps its own accumulator, of
        its moved rows in row order, as if it ran alone."""
        lo, hi = tasks[0].start, tasks[-1].stop
        a = self.assignment[lo:hi]
        u = self.upper[lo:hi]
        lw = self.lower[lo:hi]
        inflate_bounds(u, a, self.centroids.drift, lw, self.lower_drift)
        # a row is fetched unless its bound is at most half_min, and scanned
        # unless it is also at most its lower bound
        fetch = u > np.take(self.half_min, a)
        scan = u > lw
        scan &= fetch
        fetched = np.flatnonzero(fetch)
        scanned = np.flatnonzero(scan)
        scan = np.take(scan, fetched)
        # the pass's work is counted once, with the first task
        results = [_TaskResult(Accumulator.zeros(self.k, self.d), 0, PruneCounters())
                   for _ in tasks]
        counters = results[0].counters
        counters.skips = a.size - scanned.size
        # task i's rows are fetched[fends[i]:fends[i + 1]], which scan marks,
        # and scanned[ends[i]:ends[i + 1]].  A scan takes whole tasks with at
        # most a task's worth of scanned rows (or one task), which keeps its
        # scratch that of one task, and fetches their rows just before it
        stops = [t.stop - lo for t in tasks]
        ends = [0, *np.searchsorted(scanned, stops).tolist()]
        fends = [0, *np.searchsorted(fetched, stops).tolist()]
        for i, j in _task_groups(ends, self.cfg.task_size):
            if fends[i] == fends[j]:
                continue
            sv = scanned[ends[i]:ends[j]]
            rows = self.source.rows_by_ids(tasks[i:j], lo + fetched[fends[i]:fends[j]],
                                           scan[fends[i]:fends[j]])
            if not sv.size:
                continue
            a_s = a[sv]
            u_s = u[sv]
            l_s = lw[sv]
            orig = scan_block(rows, self.centroids, self.geometry, a_s, u_s, counters, l_s)
            a[sv] = a_s
            u[sv] = u_s
            lw[sv] = l_s
            changed = np.flatnonzero(a_s != orig)
            cuts = np.searchsorted(changed, np.subtract(ends[i + 1:j], ends[i]))
            for res, c in zip(results[i:j], np.split(changed, cuts)):
                res.reassigned = int(c.size)
                if c.size:
                    res.acc.move_rows(a_s[c], orig[c], rows[c], self.shift)
            del rows  # before the next group's fetch
        return results

    # ---- barrier action --------------------------------------------------

    def _finish_iteration(self) -> None:
        cfg = self.cfg
        t = self.iter_t
        # every task has been processed by the time the barrier action runs
        results = self.task_results
        reassigned = sum(r.reassigned for r in results)
        counters = PruneCounters()
        for r in results:
            counters.add(r.counters)

        totals = self.totals
        totals.add_(merge_accumulators([r.acc for r in results]))
        got = int(totals.counts.sum())
        if got != self.n:
            raise RuntimeError(f"iteration {t}: accumulator counts sum to {got}, expected {self.n}")

        new_centroids = finalize_centroids(totals, self.centroids, self.shift)
        wcss = totals.wcss()
        if not (np.isfinite(new_centroids.means).all() and np.isfinite(wcss)):
            raise FloatingPointError(
                f"iteration {t}: centroid means or WCSS not finite (the data overflow float64)")

        io = self.source.finish_iteration(t + 1)
        if io is not None:
            if self.io_totals is None:
                self.io_totals = IoDelta()
            self.io_totals += io
        taken, same, remote = self.queue.counter_totals()
        stats = IterationStats(
            t=t,
            reassignments=reassigned,
            wcss=wcss,
            dist_comps=counters.computed,
            skips=counters.skips,
            pruned_stale=counters.pruned_stale,
            pruned_tight=counters.pruned_tight,
            io=io,
            sched=SchedCounters(taken, same, remote),
        )
        self.iterations.append(stats)

        self._track_state_bytes()
        self.centroids = new_centroids
        self.converged = reassigned <= cfg.tolerance
        if self.converged or t + 1 >= cfg.max_iters:
            self.stop = True
        else:
            # the tasks of iteration t + 1 loosen their bounds by this drift
            self.iter_t = t + 1
            if cfg.pruning:
                self._prune_tables(new_centroids)
            self.task_results = [None] * len(self.tasks)
            self.queue.refill(self.tasks)
        # the barrier's own work is part of the iteration it ends
        now = time.perf_counter()
        stats.wall_s = now - self._iter_start
        self._iter_start = now

    def _prune_tables(self, c: CentroidSet) -> None:
        """What the pruned tasks of the next iteration read beside their
        bounds: the gap table, its row minima rounded down to float32 for
        the point skip, and per cluster what the lower bounds lose."""
        self.geometry = centroid_geometry(c)
        self.half_min = f32_down(self.geometry.half_min)
        self.lower_drift = other_drift(c.drift)

    def _track_state_bytes(self) -> None:
        total = self.source.state_bytes()
        total += self.assignment.nbytes + self.totals.state_bytes()
        if self.cfg.pruning:
            total += self.upper.nbytes + self.lower.nbytes
            if self.geometry is not None:
                total += (self.geometry.state_bytes() + self.half_min.nbytes
                          + self.lower_drift.nbytes)
        total += self.centroids.state_bytes()
        for r in self.task_results:
            total += r.acc.state_bytes()
        if total > self.peak_state_bytes:
            self.peak_state_bytes = total

    # ---- driver ----------------------------------------------------------

    def run(self) -> KmeansResult:
        self._iter_start = time.perf_counter()
        threads = [
            threading.Thread(target=self._worker, args=(w,), name=f"kmeans-worker-{w}")
            for w in range(self.cfg.T)
        ]
        with single_thread_blas():
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        if self.error is not None:
            raise self.error
        return KmeansResult(
            centroids=self.centroids,
            assignments=self.assignment.copy(),
            iterations=self.iterations,
            converged=self.converged,
            io_totals=self.io_totals,
            peak_state_bytes=self.peak_state_bytes,
        )


def _task_groups(ends: list[int], limit: int):
    """``(i, j)`` for each run of consecutive tasks i..j-1, where task t's
    survivors are ``ends[t]:ends[t + 1]``: one task, or as many as hold at
    most ``limit`` survivors together."""
    i = 0
    while i < len(ends) - 1:
        j = i + 1
        while j < len(ends) - 1 and ends[j + 1] - ends[i] <= limit:
            j += 1
        yield i, j
        i = j


def kmeans(matrix: np.ndarray, cfg: EngineConfig) -> KmeansResult:
    """Cluster an in-memory matrix.

    ``cfg.pruning`` selects between the plain engine (every iteration is a
    full n*k assignment pass) and the pruned engine, which produces identical
    assignments, centroids and WCSS every iteration while skipping provably
    redundant distance computations.
    """
    if cfg.mode != "im":
        raise ValueError("kmeans() runs in-memory; use kmeans_ondisk() for sem mode")
    matrix = check_matrix(matrix)
    return _Engine(_MemorySource(matrix), cfg).run()
