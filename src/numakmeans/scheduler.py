"""Partitioned task queue with local-first work stealing.

A run's layout is fixed when it starts: :func:`build_topology` gives the
node of each worker, :func:`split_tasks` the run's one task list, and the
queue each worker's victim order under the run's policy: its own partition
first, then (numa) the partitions of workers on the same node and only then
remote ones.  The queue holds one partition per worker, each under its own
lock, and :meth:`PartitionedTaskQueue.refill` puts the same task list back
at the start of every iteration; the front of a partition is its
highest-priority task.  A request tries each victim once, under that
victim's lock.  Tasks are only removed during an iteration, so one pass that
finds every victim empty is a safe exhaustion check.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass

POLICIES = ("numa", "fifo", "static")


def detect_node_count() -> int:
    """Number of NUMA nodes reported by the platform, 1 if unknown."""
    try:
        nodes = [
            name for name in os.listdir("/sys/devices/system/node")
            if name.startswith("node") and name[4:].isdigit()
        ]
        return max(1, len(nodes))
    except OSError:
        return 1


def node_cpus(node: int) -> set[int]:
    """CPU ids belonging to a node, empty when unknown."""
    try:
        with open(f"/sys/devices/system/node/node{node}/cpulist") as fh:
            text = fh.read().strip()
        cpus: set[int] = set()
        for part in text.split(","):
            if "-" in part:
                lo, hi = part.split("-")
                cpus.update(range(int(lo), int(hi) + 1))
            elif part:
                cpus.add(int(part))
        return cpus
    except (OSError, ValueError):
        return set()


def worker_nodes(T: int, N: int) -> list[int]:
    """Map worker ids to nodes in contiguous blocks of T/N, remainder to low nodes."""
    if T < 1 or N < 1:
        raise ValueError("T and N must be >= 1")
    if T < N:
        raise ValueError(f"need at least one worker per node (T={T} < N={N})")
    base, rem = divmod(T, N)
    out = []
    for node in range(N):
        out.extend([node] * (base + (1 if node < rem else 0)))
    return out


def build_topology(requested_T: int, override_N: int | None = None) -> tuple[int, ...]:
    """The node of each worker, in contiguous blocks of T/N.

    The node count is ``override_N`` when given, else detected (1 if
    unknown), and at most T; either way workers are laid out and bound the
    same way.
    """
    if requested_T < 1:
        raise ValueError("need at least one worker")
    if override_N is not None and override_N < 1:
        raise ValueError("node override must be >= 1")
    n_nodes = detect_node_count() if override_N is None else override_N
    return tuple(worker_nodes(requested_T, min(n_nodes, requested_T)))


def bind_to_node(node_of: tuple[int, ...], worker: int) -> bool:
    """Best-effort affinity of the calling thread to the worker's node CPUs.

    Binds whenever the layout has more than one node, detected or given,
    and the platform reports CPUs for the worker's node.
    """
    if max(node_of) == 0:
        return False
    cpus = node_cpus(node_of[worker])
    if not cpus:
        return False
    try:
        os.sched_setaffinity(0, cpus)
        return True
    except (AttributeError, OSError):
        return False


@dataclass(frozen=True)
class Task:
    start: int
    stop: int
    owner: int   # worker whose partition holds the task
    index: int   # global position, fixes the deterministic reduce order


def split_tasks(ranges: list[range], task_size: int) -> list[Task]:
    """Worker w's range split into blocks of ``task_size`` rows (the last
    one shorter) owned by w, indexed in row order."""
    if task_size < 1:
        raise ValueError("task_size must be >= 1")
    tasks: list[Task] = []
    for w, rr in enumerate(ranges):
        for lo in range(rr.start, rr.stop, task_size):
            tasks.append(Task(lo, min(lo + task_size, rr.stop), w, len(tasks)))
    return tasks


class PartitionedTaskQueue:
    """One locked partition of tasks per worker, with per-partition counters."""

    def __init__(self, node_of: tuple[int, ...], policy: str = "numa"):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.node_of = node_of
        T = len(node_of)
        self._parts: list[deque[Task]] = [deque() for _ in range(T)]
        self._locks = [threading.Lock() for _ in range(T)]
        # a worker's own partition, then (numa) same-node partitions and then
        # remote ones, (fifo) all others, (static) none; the sort is stable,
        # so each group stays in worker order
        self._victims = []
        for w in range(T):
            others = [] if policy == "static" else [p for p in range(T) if p != w]
            if policy == "numa":
                others.sort(key=lambda p: node_of[p] != node_of[w])
            self._victims.append([w] + others)
        self.refill([])

    def counter_totals(self) -> tuple[int, int, int]:
        return (sum(self.taken_local), sum(self.stolen_same_node), sum(self.stolen_remote))

    def remaining(self) -> int:
        return sum(len(p) for p in self._parts)

    def refill(self, tasks: list[Task]) -> None:
        """Put each task at the back of its owner's partition, in order, and
        zero the dispensing counters."""
        if self.remaining():
            raise RuntimeError("queue must be empty before it is refilled")
        T = len(self.node_of)
        self.taken_local = [0] * T
        self.stolen_same_node = [0] * T
        self.stolen_remote = [0] * T
        for task in tasks:
            self._parts[task.owner].append(task)

    def _pop_from(self, p: int, w: int) -> Task | None:
        with self._locks[p]:
            if not self._parts[p]:
                return None
            return self._take(p, w)

    def _take(self, p: int, w: int) -> Task:
        # the front of partition p, counted for worker w; p's lock is held
        if p == w:
            self.taken_local[p] += 1
        elif self.node_of[p] == self.node_of[w]:
            self.stolen_same_node[p] += 1
        else:
            self.stolen_remote[p] += 1
        return self._parts[p].popleft()

    def follow(self, worker: int, task: Task) -> list[Task]:
        """Dispense to ``worker`` the tasks that directly follow ``task`` in
        its partition, at most half (rounded up) of those left there.

        With ``task`` they cover consecutive rows, so the worker can take
        them in one pass; the rest stay for their owner and thieves, in
        ever smaller shares (guided self-scheduling, Polychronopoulos and
        Kuck, 1987).  Stops early where another worker took the next task.
        """
        p = task.owner
        out: list[Task] = []
        with self._locks[p]:
            part = self._parts[p]
            stop = task.stop
            for _ in range((len(part) + 1) // 2):
                if part[0].start != stop:
                    break
                out.append(self._take(p, worker))
                stop = out[-1].stop
        return out

    def next_task(self, worker: int) -> Task | None:
        """Dispense one task to ``worker`` or None when every victim is empty.

        Each of the worker's victims is tried once, in the policy's order.
        Tasks are removed, never added, during an iteration, so a victim
        found empty stays empty and one pass proves exhaustion.
        """
        for p in self._victims[worker]:
            task = self._pop_from(p, worker)
            if task is not None:
                return task
        return None
