"""Topology-aware partitioned task queue with local-first work stealing.

The topology lays workers out over NUMA nodes.  The queue holds one
partition per worker, each under its own lock, and gives every worker a
fixed victim order per policy: its own partition first, then (numa) the
partitions of workers on the same node and only then remote ones; the front
of a partition is its highest-priority task.  A request tries each victim
once, under that victim's lock.  Tasks are only removed during an iteration,
so one pass that finds every victim empty is a safe exhaustion check.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass

POLICIES = ("numa", "fifo", "static")


@dataclass(frozen=True)
class Topology:
    n_nodes: int
    n_workers: int
    node_of: tuple[int, ...]


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


def build_topology(requested_T: int, override_N: int | None = None) -> Topology:
    """Assign workers to nodes in contiguous blocks of T/N.

    The node count is ``override_N`` when given, else detected (1 if
    unknown); either way workers are laid out and bound the same way.
    """
    if requested_T < 1:
        raise ValueError("need at least one worker")
    if override_N is not None:
        if override_N < 1:
            raise ValueError("node override must be >= 1")
        n_nodes = min(override_N, requested_T)
    else:
        n_nodes = min(detect_node_count(), requested_T)
    node_of = tuple(worker_nodes(requested_T, n_nodes))
    return Topology(n_nodes=n_nodes, n_workers=requested_T, node_of=node_of)


def bind_to_node(topology: Topology, worker: int) -> bool:
    """Best-effort affinity of the calling thread to the worker's node CPUs.

    Binds whenever the topology has more than one node, detected or given,
    and the platform reports CPUs for the worker's node.
    """
    if topology.n_nodes <= 1:
        return False
    cpus = node_cpus(topology.node_of[worker])
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


class PartitionedTaskQueue:
    """T locked partitions of row-range tasks with per-partition counters."""

    def __init__(self, topology: Topology):
        self.topology = topology
        T = topology.n_workers
        node_of = topology.node_of
        self._parts: list[deque[Task]] = [deque() for _ in range(T)]
        self._locks = [threading.Lock() for _ in range(T)]
        others = [[p for p in range(T) if p != w] for w in range(T)]
        # sorted() is stable: same-node victims ascending, then remote ascending
        self._victims = {
            "numa": [[w] + sorted(others[w], key=lambda p: node_of[p] != node_of[w])
                     for w in range(T)],
            "fifo": [[w] + others[w] for w in range(T)],
            "static": [[w] for w in range(T)],
        }
        self._zero_counters()

    def _zero_counters(self) -> None:
        T = self.topology.n_workers
        self.taken_local = [0] * T
        self.stolen_same_node = [0] * T
        self.stolen_remote = [0] * T

    def counter_totals(self) -> tuple[int, int, int]:
        return (sum(self.taken_local), sum(self.stolen_same_node), sum(self.stolen_remote))

    def remaining(self) -> int:
        return sum(len(p) for p in self._parts)

    def enqueue_iteration(self, ranges: list[range], task_size: int) -> None:
        """Fill each worker's partition with its range split into task blocks,
        and zero the dispensing counters."""
        if task_size < 1:
            raise ValueError("task_size must be >= 1")
        if len(ranges) != self.topology.n_workers:
            raise ValueError(f"expected {self.topology.n_workers} ranges, got {len(ranges)}")
        if self.remaining():
            raise RuntimeError("queue must be empty before a new iteration is enqueued")
        self._zero_counters()
        index = 0
        for w, rr in enumerate(ranges):
            part = self._parts[w]
            for lo in range(rr.start, rr.stop, task_size):
                hi = min(lo + task_size, rr.stop)
                part.append(Task(start=lo, stop=hi, owner=w, index=index))
                index += 1

    def _pop_from(self, p: int, w: int) -> Task | None:
        with self._locks[p]:
            if not self._parts[p]:
                return None
            task = self._parts[p].popleft()
            if p == w:
                self.taken_local[p] += 1
            elif self.topology.node_of[p] == self.topology.node_of[w]:
                self.stolen_same_node[p] += 1
            else:
                self.stolen_remote[p] += 1
            return task

    def next_task(self, worker: int, policy: str = "numa") -> Task | None:
        """Dispense one task to ``worker`` or None when every victim is empty.

        numa tries the worker's own partition, then same-node partitions,
        then remote ones; fifo its own, then all others in worker order;
        static only its own.  Each victim is tried once.  Tasks are removed,
        never added, during an iteration, so a victim found empty stays
        empty and one pass proves exhaustion.
        """
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        for p in self._victims[policy][worker]:
            task = self._pop_from(p, worker)
            if task is not None:
                return task
        return None
