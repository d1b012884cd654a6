"""Spans around the engine's calls into each module, and the per-layer metrics.

The engine imports its helpers by name, so the wrappers replace those names
in ``numakmeans.engine`` and ``numakmeans.outofcore``, and a few methods on
their classes, for the length of one run.  They must be installed before the
engine is constructed: the barrier captures ``_finish_iteration`` then.

Each span records its name, start and end (``perf_counter_ns``), thread,
iteration and parent span, plus a work count taken at the boundary.  Spans
stay in memory; a layer's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from numakmeans import engine, outofcore
from numakmeans.engine import IoDelta, _Engine
from numakmeans.outofcore import RowCache, RowStore
from numakmeans.scheduler import PartitionedTaskQueue

SETUP = -1  # iteration tag of spans before iteration 0 (initialization)

# (owner, attribute, span name, work count from (args, result))
TARGETS = (
    (engine, "init_centroids", "centroids.init", None),
    (outofcore, "_init_from_store", "centroids.init", None),
    (engine, "nearest_block_into", "distance.full_pass",
     lambda args, result: args[0].shape[0] * args[1].shape[0]),
    (engine, "scan_block", "pruning.scan", lambda args, result: args[0].shape[0]),
    (engine, "merge_accumulators", "centroids.merge", None),
    (engine, "finalize_centroids", "centroids.finalize", None),
    (engine, "centroid_geometry", "pruning.geometry", None),
    (engine, "inflate_bounds", "pruning.inflate", None),
    (outofcore, "fetch_rows", "outofcore.fetch", lambda args, result: len(result)),
    (_Engine, "_task_full", "engine.task", None),
    (_Engine, "_task_pruned", "engine.task", None),
    (_Engine, "_finish_iteration", "engine.barrier_action", None),
    (PartitionedTaskQueue, "next_task", "scheduler.next_task",
     lambda args, result: result is not None),
    (RowStore, "read_pages", "outofcore.read", lambda args, result: len(result)),
    (RowCache, "rebuild", "outofcore.rebuild", lambda args, result: args[0].cached_bytes()),
)

# Spans after which the iteration tag moves on: initialization ends the
# set-up phase, and the barrier action leaves ``iter_t`` at the next iteration.
NEXT_ITERATION = {
    "centroids.init": lambda args: 0,
    "engine.barrier_action": lambda args: args[0].iter_t,
}

LAYER_UNITS = {
    "matrix.load_ms": "ms",
    "centroids.init_ms": "ms",
    "outofcore.init_read_mb": "MB",
    "distance.full_pass_ms": "ms",
    "distance.dists": "count",
    "distance.dists_per_s": "1/s",
    "pruning.scan_ms": "ms",
    "pruning.scan_us_per_survivor": "us",
    "pruning.survivors": "count",
    "pruning.skip_frac": "ratio",
    "pruning.prune_frac": "ratio",
    "pruning.geometry_ms": "ms",
    "pruning.inflate_ms": "ms",
    "engine.task_self_ms": "ms",
    "engine.barrier_action_ms": "ms",
    "engine.barrier_wait_ms": "ms",
    "engine.busy_frac": "ratio",
    "centroids.merge_ms": "ms",
    "centroids.finalize_ms": "ms",
    "scheduler.next_task_ms": "ms",
    "scheduler.tasks": "count",
    "scheduler.steal_frac": "ratio",
    "outofcore.fetch_ms": "ms",
    "outofcore.read_ms": "ms",
    "outofcore.preads": "count",
    "outofcore.read_amp": "ratio",
    "outofcore.hit_rate": "ratio",
    "outofcore.elided_frac": "ratio",
    "outofcore.rebuild_ms": "ms",
    "outofcore.cache_mb": "MB",
    # set by the traced phase from the untraced and reference runs
    "trace_overhead_frac": "ratio",
    "engine.speedup_t2": "ratio",
    "outofcore.cache_speedup": "ratio",
    "pruning.k8_speedup": "ratio",
}


@dataclass
class Span:
    sid: int
    name: str
    start: int
    end: int
    thread: int
    iteration: int
    parent: int  # sid of the enclosing span on the same thread, -1 at the top
    count: int

    @property
    def dur(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = SETUP
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, name, fn, count):
        advance = NEXT_ITERATION.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            iteration = self.iteration
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            work = int(count(args, result)) if count else 0
            self.spans.append(Span(sid, name, start, end, threading.get_ident(),
                                   iteration, parent, work))
            if advance is not None:
                self.iteration = advance(args)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the block, restoring the originals after."""
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def nesting_problems(spans: list[Span]) -> list[str]:
    """Parents whose children (all on the parent's thread) outlast them."""
    by_id = {s.sid: s for s in spans}
    covered = defaultdict(int)
    problems = []
    for s in spans:
        if s.parent >= 0:
            parent = by_id[s.parent]
            covered[s.parent] += s.dur
            if s.thread != parent.thread:
                problems.append(f"{s.name} span {s.sid} is on another thread than its parent")
    for sid, ns in covered.items():
        if ns > by_id[sid].dur:
            problems.append(f"children of {by_id[sid].name} span {sid} cover {ns} ns "
                            f"of its {by_id[sid].dur} ns")
    return problems


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], record) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Times are ms per iteration summed over workers, except the set-up times
    ``matrix.load_ms`` and ``centroids.init_ms`` (ms per run).  Counts are
    per run.  A layer the workload never calls reads 0.
    """
    res = record.result
    stats = res.iterations
    iters = len(stats)
    n = len(res.assignments)
    k = res.centroids.k
    run = [s for s in spans if s.iteration >= 0]
    setup = [s for s in spans if s.iteration == SETUP]

    def total_ns(name, group=run):
        return sum(s.dur for s in group if s.name == name)

    def work(name, group=run):
        return sum(s.count for s in group if s.name == name)

    def per_iter_ms(ns):
        return ns / 1e6 / iters

    child_ns = defaultdict(int)
    for s in run:
        if s.parent >= 0:
            child_ns[s.parent] += s.dur
    task_self_ns = sum(s.dur - child_ns[s.sid] for s in run if s.name == "engine.task")

    # Iteration t spans from the end of barrier action t-1 (or the first
    # worker span) to the end of barrier action t.  A worker is busy inside
    # its top-level spans (task, next_task, barrier action) and waits the rest.
    top = [s for s in run if s.parent < 0]
    busy_by = defaultdict(int)
    for s in top:
        busy_by[s.thread, s.iteration] += s.dur
    threads = {s.thread for s in top}
    window_start = min(s.start for s in top)
    busy_ns = wait_ns = capacity_ns = 0
    for f in sorted((s for s in run if s.name == "engine.barrier_action"),
                    key=lambda s: s.iteration):
        window = f.end - window_start
        for th in threads:
            busy = busy_by[th, f.iteration]
            busy_ns += busy
            wait_ns += window - busy
        capacity_ns += window * len(threads)
        window_start = f.end

    survivors = work("pruning.scan")
    scan_ns = total_ns("pruning.scan")
    full_pass_ns = total_ns("distance.full_pass")
    pruned_iters = iters - 1 if record.workload.pruning else 0
    taken = sum(st.sched.taken_local for st in stats)
    stolen = sum(st.sched.stolen_same_node + st.sched.stolen_remote for st in stats)
    io = res.io_totals or IoDelta()
    rebuilds = [s for s in run if s.name == "outofcore.rebuild"]
    return {
        "matrix.load_ms": 1e3 * record.load_s,
        "centroids.init_ms": total_ns("centroids.init", setup) / 1e6,
        "outofcore.init_read_mb": work("outofcore.read", setup) / 1e6,
        "distance.full_pass_ms": per_iter_ms(full_pass_ns),
        "distance.dists": sum(st.dist_comps for st in stats),
        "distance.dists_per_s": _ratio(work("distance.full_pass"), full_pass_ns / 1e9),
        "pruning.scan_ms": per_iter_ms(scan_ns),
        "pruning.scan_us_per_survivor": _ratio(scan_ns / 1e3, survivors),
        "pruning.survivors": survivors,
        "pruning.skip_frac": _ratio(sum(st.skips for st in stats), n * pruned_iters),
        "pruning.prune_frac": _ratio(sum(st.pruned_stale + st.pruned_tight for st in stats),
                                     survivors * (k - 1)),
        "pruning.geometry_ms": per_iter_ms(total_ns("pruning.geometry")),
        "pruning.inflate_ms": per_iter_ms(total_ns("pruning.inflate")),
        "engine.task_self_ms": per_iter_ms(task_self_ns),
        "engine.barrier_action_ms": per_iter_ms(total_ns("engine.barrier_action")),
        "engine.barrier_wait_ms": per_iter_ms(wait_ns),
        "engine.busy_frac": _ratio(busy_ns, capacity_ns),
        "centroids.merge_ms": per_iter_ms(total_ns("centroids.merge")),
        "centroids.finalize_ms": per_iter_ms(total_ns("centroids.finalize")),
        "scheduler.next_task_ms": per_iter_ms(total_ns("scheduler.next_task")),
        "scheduler.tasks": work("scheduler.next_task"),
        "scheduler.steal_frac": _ratio(stolen, taken + stolen),
        "outofcore.fetch_ms": per_iter_ms(total_ns("outofcore.fetch")),
        "outofcore.read_ms": per_iter_ms(total_ns("outofcore.read")),
        "outofcore.preads": sum(1 for s in run if s.name == "outofcore.read"),
        "outofcore.read_amp": _ratio(io.bytes_read, io.bytes_requested),
        "outofcore.hit_rate": _ratio(io.cache_hits, io.cache_hits + io.cache_misses),
        "outofcore.elided_frac": _ratio(io.rows_elided, n * iters),
        "outofcore.rebuild_ms": per_iter_ms(total_ns("outofcore.rebuild")),
        "outofcore.cache_mb": rebuilds[-1].count / 1e6 if rebuilds else 0.0,
    }
