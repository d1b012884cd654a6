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
task size regardless of scheduling policy or timing.  Rows are summed
relative to one shift per run, the initial centroids' mean, with one flat
``bincount`` per chunk that adds each cluster's rows in row order.

With pruning enabled, iteration 0 performs a full assignment pass to seed the
bounds; later iterations apply the triangle-inequality tests and maintain the
cluster sums incrementally through signed per-task deltas, so skipped points
cost neither distance work nor (out of core) any I/O.

The queue is filled for iteration 0 when the engine is built, which fixes
the task count, and refilled at each barrier.  Each task allocates its own
transient scratch, bounded by ``CHUNK_ELEMS``; the resident-state accounting
covers the arrays the engine keeps alive across iterations.

The barrier takes the row source's I/O counts for the iteration (``None`` in
memory), adds the rows the point-skip test elided, and sums them into
``io_totals``.  Per-iteration test oracles live in ``tests/conftest.py``.
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
from .distance import CHUNK_ELEMS, nearest_block_into, row_sqnorms, single_thread_blas
from .matrix import check_matrix, partition_rows
from .pruning import (
    PruneCounters,
    PruneState,
    centroid_geometry,
    inflate_bounds,
    scan_block,
)
from .scheduler import POLICIES, PartitionedTaskQueue, bind_to_node, build_topology

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
    initial_centroids: np.ndarray | None = None

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


@dataclass
class IoDelta:
    """I/O counters for one iteration (or totals for a run)."""

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

    ``wcss`` is the within-cluster sum of squared distances: against the
    centroids current at assignment time for unpruned runs (the distances are
    already in hand), and against the updated means for pruned runs (computed
    as ``sq - |sums|^2 / count`` from the incrementally maintained cluster
    sums, which are relative to the run's shift, so skipped points need no
    extra work and rows far from the origin lose no precision).  Both
    sequences are non-increasing.  A run whose means or WCSS overflow to a
    non-finite value ends in ``FloatingPointError``.
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


def _cluster_sums(ids: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """(k, d) per-cluster column sums of the rows of ``x``, each cluster's
    rows added in row order, by one ``bincount`` over the flat index
    ``id * d + column`` (gathered by row from a (k, d) table of them)."""
    d = x.shape[1]
    flat = np.take(np.arange(k * d).reshape(k, d), ids, axis=0)
    return np.bincount(flat.ravel(), weights=x.ravel(), minlength=k * d).reshape(k, d)


class _MemorySource:
    """Row access backed by an in-memory matrix; tasks see zero-copy views."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.n, self.d = matrix.shape

    def init_centroids(self, cfg: "EngineConfig") -> CentroidSet:
        return init_centroids(self.matrix, cfg.k, cfg.init, cfg.seed, cfg.initial_centroids)

    def task_rows(self, task):
        return self.matrix[task.start:task.stop]

    def rows_by_ids(self, task, ids):
        return self.matrix[ids]

    def finish_iteration(self, next_t):
        return None

    def state_bytes(self):
        return self.matrix.nbytes


@dataclass
class _TaskResult:
    acc: Accumulator
    reassigned: int
    counters: PruneCounters
    wcss_sq: float


class _Engine:
    def __init__(self, source, cfg: EngineConfig):
        cfg.validate()
        self.source = source
        self.cfg = cfg
        self.n, self.d = source.n, source.d
        self.topology = build_topology(cfg.T, cfg.N if cfg.N > 0 else None)
        self.ranges = partition_rows(self.n, cfg.T)
        self.queue = PartitionedTaskQueue(self.topology)
        self.queue.enqueue_iteration(self.ranges, cfg.task_size)
        self.n_tasks = self.queue.remaining()
        self.centroids = source.init_centroids(cfg)
        self.k = self.centroids.k
        self.shift = self.centroids.means.mean(axis=0)

        self.assignment = np.zeros(self.n, dtype=np.int32)
        if cfg.pruning:
            self.state = PruneState(
                assignment=self.assignment,
                upper=np.full(self.n, np.inf),
                tight=np.zeros(self.n, dtype=bool),
            )
            self.totals = Accumulator.zeros(self.k, self.d)
        else:
            self.state = None
        self.geometry = None

        self.chunk_rows = max(1, CHUNK_ELEMS // self.d)
        self.task_results: list[_TaskResult | None] = [None] * self.n_tasks
        self.iterations: list[IterationStats] = []
        self.io_totals: IoDelta | None = None
        self.iter_t = 0
        self.full_pass = True
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
            bind_to_node(self.topology, w)
            while True:
                while True:
                    task = self.queue.next_task(w, self.cfg.scheduler)
                    if task is None:
                        break
                    self._process_task(task)
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

    def _process_task(self, task) -> None:
        run = self._task_full if self.full_pass else self._task_pruned
        self.task_results[task.index] = run(task)

    def _task_full(self, task) -> _TaskResult:
        k, d = self.k, self.d
        lo, hi = task.start, task.stop
        rows = self.source.task_rows(task)
        m = hi - lo
        acc = Accumulator.zeros(k, d)
        reassigned = 0
        wcss_sq = 0.0
        want_sq = self.cfg.pruning
        means = self.centroids.means
        for base in range(0, m, self.chunk_rows):
            sub = rows[base:base + self.chunk_rows]
            ids, ndist = nearest_block_into(sub, means)
            gl = lo + base
            gh = gl + sub.shape[0]
            reassigned += int((ids != self.assignment[gl:gh]).sum())
            self.assignment[gl:gh] = ids
            x = sub - self.shift
            if want_sq:
                self.state.upper[gl:gh] = ndist
                self.state.tight[gl:gh] = True
                acc.sq += np.bincount(ids, weights=row_sqnorms(x), minlength=k)
            else:
                wcss_sq += float(np.vecdot(ndist, ndist))
            acc.counts += np.bincount(ids, minlength=k)
            acc.sums += _cluster_sums(ids, x, k)
        return _TaskResult(acc, reassigned, PruneCounters(computed=m * k), wcss_sq)

    def _task_pruned(self, task) -> _TaskResult:
        k, d = self.k, self.d
        lo, hi = task.start, task.stop
        a = self.assignment[lo:hi]
        u = self.state.upper[lo:hi]
        tg = self.state.tight[lo:hi]
        skip = u <= self.geometry.half_min[a]
        counters = PruneCounters(skips=int(skip.sum()))
        acc = Accumulator.zeros(k, d)
        reassigned = 0
        surv = np.flatnonzero(~skip)
        if surv.size:
            rows = self.source.rows_by_ids(task, lo + surv)
            a_s = a[surv]
            u_s = u[surv]
            t_s = tg[surv]
            orig = scan_block(rows, self.centroids, self.geometry, a_s, u_s, t_s, counters)
            a[surv] = a_s
            u[surv] = u_s
            tg[surv] = t_s
            changed = np.flatnonzero(a_s != orig)
            reassigned = int(changed.size)
            if changed.size:
                moved = rows[changed] - self.shift
                frm = orig[changed]
                to = a_s[changed]
                acc.sums += _cluster_sums(to, moved, k) - _cluster_sums(frm, moved, k)
                acc.counts += np.bincount(to, minlength=k) - np.bincount(frm, minlength=k)
                sq = row_sqnorms(moved)
                acc.sq += np.bincount(to, weights=sq, minlength=k) \
                    - np.bincount(frm, weights=sq, minlength=k)
        return _TaskResult(acc, reassigned, counters, 0.0)

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

        merged = merge_accumulators([r.acc for r in results])
        if cfg.pruning:
            self.totals.add_(merged)
            totals = self.totals
        else:
            totals = merged
        got = int(totals.counts.sum())
        if got != self.n:
            raise RuntimeError(f"iteration {t}: accumulator counts sum to {got}, expected {self.n}")

        new_centroids = finalize_centroids(totals, self.centroids, self.shift)
        if cfg.pruning:
            occupied = totals.counts > 0
            terms = totals.sq[occupied] - (totals.sums[occupied] ** 2).sum(axis=1) / totals.counts[occupied]
            wcss = float(np.maximum(terms, 0.0).sum())
        else:
            wcss = sum(r.wcss_sq for r in results)
        if not (np.isfinite(new_centroids.means).all() and np.isfinite(wcss)):
            raise FloatingPointError(
                f"iteration {t}: centroid means or WCSS not finite (the data overflow float64)")

        io = self.source.finish_iteration(t + 1)
        if io is not None:
            io.rows_elided = counters.skips
            if self.io_totals is None:
                self.io_totals = IoDelta()
            self.io_totals += io
        taken, same, remote = self.queue.counter_totals()
        now = time.perf_counter()
        self.iterations.append(IterationStats(
            t=t,
            reassignments=reassigned,
            wcss=wcss,
            dist_comps=counters.computed,
            skips=counters.skips,
            pruned_stale=counters.pruned_stale,
            pruned_tight=counters.pruned_tight,
            wall_s=now - self._iter_start,
            io=io,
            sched=SchedCounters(taken, same, remote),
        ))

        self._track_state_bytes()
        self.centroids = new_centroids
        self.converged = reassigned <= cfg.tolerance
        if self.converged or t + 1 >= cfg.max_iters:
            self.stop = True
            return

        self.iter_t = t + 1
        if cfg.pruning:
            inflate_bounds(self.state, new_centroids.drift)
            self.geometry = centroid_geometry(new_centroids)
            self.full_pass = False
        self.task_results = [None] * self.n_tasks
        self.queue.enqueue_iteration(self.ranges, cfg.task_size)
        self._iter_start = time.perf_counter()

    def _track_state_bytes(self) -> None:
        total = self.source.state_bytes()
        total += self.assignment.nbytes
        if self.cfg.pruning:
            total += self.state.upper.nbytes + self.state.tight.nbytes
            total += self.totals.state_bytes()
            if self.geometry is not None:
                total += self.geometry.state_bytes()
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


def kmeans(matrix: np.ndarray, cfg: EngineConfig) -> KmeansResult:
    """Cluster an in-memory matrix.

    ``cfg.pruning`` selects between the plain engine (every iteration is a
    full n*k assignment pass) and the pruned engine, which produces identical
    assignments every iteration while skipping provably redundant distance
    computations.
    """
    if cfg.mode != "im":
        raise ValueError("kmeans() runs in-memory; use kmeans_ondisk() for sem mode")
    matrix = check_matrix(matrix)
    return _Engine(_MemorySource(matrix), cfg).run()
