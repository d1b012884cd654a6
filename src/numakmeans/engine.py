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

With pruning enabled, iteration 0 performs a full assignment pass to seed the
bounds; later iterations apply the triangle-inequality tests and maintain the
cluster sums incrementally through signed per-task deltas, so skipped points
cost neither distance work nor (out of core) any I/O.

Per-task scratch buffers (distance blocks, fetched rows) are bounded and
transient; the resident-state accounting covers the arrays the engine keeps
alive across iterations.
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
from .distance import NearestScratch, block_distances, nearest_block_into, row_sqnorms
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

# Rows per vectorized chunk are capped so per-chunk scratch stays well under
# the fixed-constant budget of the resident-memory contract.
_CHUNK_ELEMS = 262144


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
    collect_assignments: bool = False
    validate_bounds: bool = False  # test mode: per-iteration oracle checks

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

    def __sub__(self, other: "IoDelta") -> "IoDelta":
        return IoDelta(*(getattr(self, f.name) - getattr(other, f.name) for f in fields(self)))


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
    from the incrementally maintained cluster sums, so skipped points need no
    extra work).  Both sequences are non-increasing.
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
    assignment_history: list[np.ndarray] | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


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

    def note_elided(self, task, count):
        pass

    def begin_iteration(self, t):
        pass

    def finish_iteration(self):
        return None

    def total_io(self):
        return None

    def state_bytes(self):
        return self.matrix.nbytes


@dataclass
class _TaskResult:
    acc: Accumulator
    reassigned: int
    counters: PruneCounters
    wcss_sq: float


class _Scratch(NearestScratch):
    """Per-worker reusable buffers for the assignment kernels."""

    def __init__(self, chunk_rows: int, d: int):
        super().__init__(chunk_rows, d)
        self.best = np.empty(chunk_rows, dtype=np.float64)
        self.ids = np.empty(chunk_rows, dtype=np.int32)


class _Engine:
    def __init__(self, source, cfg: EngineConfig):
        cfg.validate()
        self.source = source
        self.cfg = cfg
        self.n, self.d = source.n, source.d
        self.topology = build_topology(cfg.T, cfg.N if cfg.N > 0 else None)
        self.ranges = partition_rows(self.n, cfg.T, self.topology.n_nodes)
        self.queue = PartitionedTaskQueue(self.topology)
        self.n_tasks = sum(
            (len(r) + cfg.task_size - 1) // cfg.task_size for r in self.ranges
        )
        self.centroids = source.init_centroids(cfg)
        self.k = self.centroids.k

        self.assignment = np.zeros(self.n, dtype=np.int32)
        if cfg.pruning:
            self.state = PruneState(
                assignment=self.assignment,
                upper=np.full(self.n, np.inf),
                tight=np.zeros(self.n, dtype=bool),
            )
            self.run_sums = np.zeros((self.k, self.d), dtype=np.float64)
            self.run_counts = np.zeros(self.k, dtype=np.int64)
            self.run_sq = np.zeros(self.k, dtype=np.float64)
        else:
            self.state = None
        self.geometry = None

        self.chunk_rows = max(1, _CHUNK_ELEMS // self.d)
        self.task_results: list[_TaskResult | None] = [None] * self.n_tasks
        self.iterations: list[IterationStats] = []
        self.assignment_history: list[np.ndarray] | None = (
            [] if cfg.collect_assignments else None
        )
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
            scratch = _Scratch(self.chunk_rows, self.d)
            while True:
                while True:
                    task = self.queue.next_task(w, self.cfg.scheduler)
                    if task is None:
                        break
                    self._process_task(task, scratch)
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

    def _process_task(self, task, scratch) -> None:
        if self.full_pass:
            self.task_results[task.index] = self._task_full(task, scratch)
        else:
            self.task_results[task.index] = self._task_pruned(task)

    def _task_full(self, task, scratch) -> _TaskResult:
        k, d = self.k, self.d
        lo, hi = task.start, task.stop
        rows = self.source.task_rows(task)
        m = hi - lo
        acc = Accumulator.zeros(k, d, owner=task.index)
        reassigned = 0
        wcss_sq = 0.0
        want_sq = self.cfg.pruning
        means = self.centroids.means
        for base in range(0, m, self.chunk_rows):
            sub = rows[base:base + self.chunk_rows]
            ms = sub.shape[0]
            ids = scratch.ids[:ms]
            ndist = scratch.best[:ms]
            nearest_block_into(sub, means, scratch, ndist, ids)
            gl = lo + base
            gh = gl + ms
            reassigned += int((ids != self.assignment[gl:gh]).sum())
            self.assignment[gl:gh] = ids
            if want_sq:
                self.state.upper[gl:gh] = ndist
                self.state.tight[gl:gh] = True
                acc.sq += np.bincount(ids, weights=row_sqnorms(sub), minlength=k)
            else:
                wcss_sq += float(np.vecdot(ndist, ndist))
            acc.counts += np.bincount(ids, minlength=k)
            # segment-reduce the rows in ascending cluster order; sequential
            # within a segment, so the result is reproducible for this layout
            order = np.argsort(ids, kind="stable")
            seg_rows = sub[order]
            seg_ids = ids[order]
            starts = np.concatenate(([0], np.flatnonzero(np.diff(seg_ids)) + 1))
            acc.sums[seg_ids[starts]] += np.add.reduceat(seg_rows, starts, axis=0)
        return _TaskResult(acc, reassigned, PruneCounters(computed=m * k), wcss_sq)

    def _task_pruned(self, task) -> _TaskResult:
        k, d = self.k, self.d
        lo, hi = task.start, task.stop
        a = self.assignment[lo:hi]
        u = self.state.upper[lo:hi]
        tg = self.state.tight[lo:hi]
        skip = u <= self.geometry.half_min[a]
        counters = PruneCounters(skips=int(skip.sum()))
        self.source.note_elided(task, counters.skips)
        acc = Accumulator.zeros(k, d, owner=task.index)
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
                moved = rows[changed]
                frm = orig[changed]
                to = a_s[changed]
                np.add.at(acc.sums, to, moved)
                np.subtract.at(acc.sums, frm, moved)
                acc.counts += np.bincount(to, minlength=k) - np.bincount(frm, minlength=k)
                sq = row_sqnorms(moved)
                acc.sq += np.bincount(to, weights=sq, minlength=k) \
                    - np.bincount(frm, weights=sq, minlength=k)
        return _TaskResult(acc, reassigned, counters, 0.0)

    # ---- barrier action --------------------------------------------------

    def _finish_iteration(self) -> None:
        cfg = self.cfg
        t = self.iter_t
        results = [r for r in self.task_results if r is not None]
        reassigned = sum(r.reassigned for r in results)
        counters = PruneCounters()
        for r in results:
            counters.add(r.counters)

        if results:
            merged = merge_accumulators([r.acc for r in results])
        else:
            merged = Accumulator.zeros(self.k, self.d)
        if cfg.pruning:
            self.run_sums += merged.sums
            self.run_counts += merged.counts
            self.run_sq += merged.sq
            totals = Accumulator(self.run_sums, self.run_counts, self.run_sq)
        else:
            totals = merged
        got = int(totals.counts.sum())
        if got != self.n:
            raise RuntimeError(f"iteration {t}: accumulator counts sum to {got}, expected {self.n}")
        if cfg.validate_bounds and cfg.pruning and isinstance(self.source, _MemorySource):
            self._validate_prune_state()

        new_centroids = finalize_centroids(totals, self.centroids)
        if cfg.pruning:
            occupied = totals.counts > 0
            terms = totals.sq[occupied] - (totals.sums[occupied] ** 2).sum(axis=1) / totals.counts[occupied]
            wcss = float(np.maximum(terms, 0.0).sum())
        else:
            wcss = sum(r.wcss_sq for r in results)

        io = self.source.finish_iteration()
        taken, same, remote = self.queue.counter_totals()
        self.queue.reset_counters()
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
        if self.assignment_history is not None:
            self.assignment_history.append(self.assignment.copy())

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
        self.source.begin_iteration(self.iter_t)
        self._iter_start = time.perf_counter()

    def _validate_prune_state(self) -> None:
        # Test-mode oracle: every assignment (skipped points included) must
        # equal the exhaustive argmin, and every bound must dominate the true
        # distance to the assigned centroid (tiny slack for FP reassociation).
        matrix = self.source.matrix
        t = self.iter_t
        for lo in range(0, self.n, 8192):
            hi = min(lo + 8192, self.n)
            dmat = block_distances(matrix[lo:hi], self.centroids.means)
            ids = np.argmin(dmat, axis=1).astype(np.int32)
            if not np.array_equal(ids, self.assignment[lo:hi]):
                raise AssertionError(
                    f"iteration {t}: stored assignment differs from exhaustive argmin"
                )
            true_d = dmat[np.arange(hi - lo), self.assignment[lo:hi]]
            slack = 1e-9 * np.maximum(1.0, true_d)
            if np.any(self.state.upper[lo:hi] + slack < true_d):
                raise AssertionError(f"iteration {t}: upper bound below true distance")

    def _track_state_bytes(self) -> None:
        total = self.source.state_bytes()
        total += self.assignment.nbytes
        if self.cfg.pruning:
            total += self.state.upper.nbytes + self.state.tight.nbytes
            total += self.run_sums.nbytes + self.run_counts.nbytes + self.run_sq.nbytes
            if self.geometry is not None:
                total += self.geometry.state_bytes()
        total += self.centroids.state_bytes()
        for r in self.task_results:
            if r is not None:
                total += r.acc.state_bytes()
        if total > self.peak_state_bytes:
            self.peak_state_bytes = total

    # ---- driver ----------------------------------------------------------

    def run(self) -> KmeansResult:
        self.queue.enqueue_iteration(self.ranges, self.cfg.task_size)
        self.source.begin_iteration(0)
        self._iter_start = time.perf_counter()
        threads = [
            threading.Thread(target=self._worker, args=(w,), name=f"kmeans-worker-{w}")
            for w in range(self.cfg.T)
        ]
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
            io_totals=self.source.total_io(),
            peak_state_bytes=self.peak_state_bytes,
            assignment_history=self.assignment_history,
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
