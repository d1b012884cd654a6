import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numakmeans.scheduler import (
    PartitionedTaskQueue,
    bind_to_node,
    build_topology,
    split_tasks,
    worker_nodes,
)


def topo(T, N):
    return build_topology(T, override_N=N)


def even_ranges(n, T):
    size = n // T
    return [range(w * size, (w + 1) * size) for w in range(T)]


def filled(T, N, ranges, task_size, policy="numa"):
    q = PartitionedTaskQueue(topo(T, N), policy)
    q.refill(split_tasks(ranges, task_size))
    return q


def test_topology_single_node():
    assert topo(4, 1) == (0, 0, 0, 0)


def test_topology_two_node_blocks():
    assert topo(4, 2) == (0, 0, 1, 1)
    assert topo(6, 3) == (0, 0, 1, 1, 2, 2)
    assert topo(2, 5) == (0, 1)  # at most one node per worker


def test_topology_remainder_to_low_nodes():
    assert topo(5, 2) == (0, 0, 0, 1, 1)


def test_topology_detection_fallback(monkeypatch):
    monkeypatch.setattr("numakmeans.scheduler.detect_node_count", lambda: 1)
    assert build_topology(3) == (0, 0, 0)


@pytest.mark.parametrize("T, N, message", [
    (0, None, "need at least one worker"),
    (2, 0, "node override must be >= 1"),
])
def test_topology_rejects_no_workers_and_no_nodes(T, N, message):
    with pytest.raises(ValueError, match=message):
        build_topology(T, N)


def test_worker_nodes_blocks_and_rejects_bad_counts():
    assert worker_nodes(4, 2) == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        worker_nodes(0, 1)
    with pytest.raises(ValueError):
        worker_nodes(2, 0)
    with pytest.raises(ValueError):
        worker_nodes(1, 2)


@given(
    T=st.integers(min_value=1, max_value=32),
    N=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_worker_nodes_properties(T, N):
    if T < N:
        with pytest.raises(ValueError):
            worker_nodes(T, N)
        return
    nodes = worker_nodes(T, N)
    assert len(nodes) == T
    assert all(0 <= node < N for node in nodes)
    assert nodes == sorted(nodes)


def test_bind_to_node_with_given_node_count(monkeypatch):
    # stubbed so the test process's own affinity is never changed
    bound = []
    monkeypatch.setattr("numakmeans.scheduler.node_cpus", lambda node: {10 + node})
    monkeypatch.setattr("os.sched_setaffinity", lambda pid, cpus: bound.append((pid, cpus)),
                        raising=False)
    t = build_topology(2, 2)
    assert bind_to_node(t, 0) and bind_to_node(t, 1)
    assert bound == [(0, {10}), (0, {11})]
    assert not bind_to_node(build_topology(2, 1), 0)
    monkeypatch.setattr("numakmeans.scheduler.node_cpus", lambda node: set())
    assert not bind_to_node(t, 0)
    assert len(bound) == 2


def test_enqueue_one_task_per_partition_at_default_size():
    q = filled(2, 1, even_ranges(16384, 2), 8192, "static")
    assert q.remaining() == 2
    a = q.next_task(0)
    b = q.next_task(1)
    assert (a.start, a.stop, a.owner) == (0, 8192, 0)
    assert (b.start, b.stop, b.owner) == (8192, 16384, 1)


def test_enqueue_splits_with_short_tail():
    q = filled(1, 1, [range(0, 10)], 3)
    sizes = []
    while (t := q.next_task(0)) is not None:
        sizes.append(t.stop - t.start)
    assert sizes == [3, 3, 3, 1]


def test_empty_input_is_immediately_exhausted():
    q = filled(2, 1, [range(0, 0), range(0, 0)], 4)
    assert q.next_task(0) is None
    assert q.next_task(1) is None


def test_enqueue_requires_empty_queue():
    q = filled(1, 1, [range(0, 4)], 4)
    with pytest.raises(RuntimeError):
        q.refill(split_tasks([range(0, 4)], 4))


def test_split_tasks_rejects_a_task_size_below_one():
    with pytest.raises(ValueError):
        split_tasks([range(0, 4)], 0)


def test_unknown_policy_is_rejected():
    with pytest.raises(ValueError, match="bogus"):
        PartitionedTaskQueue(topo(2, 1), "bogus")


def test_refill_dispenses_the_same_tasks_with_zeroed_counters():
    # the engine splits its task list once and refills the queue with it
    # every iteration
    tasks = split_tasks([range(0, 0), range(0, 8)], 4)
    q = PartitionedTaskQueue(topo(2, 1), "fifo")
    for _ in range(2):
        q.refill(tasks)
        assert q.counter_totals() == (0, 0, 0)
        got = []
        while (t := q.next_task(0)) is not None:
            got.append(t)
        assert len(got) == len(tasks) == 2
        assert all(a is b for a, b in zip(got, tasks))
        assert q.counter_totals() == (0, 2, 0)  # both stolen from worker 1


def test_follow_takes_half_of_the_tasks_left_behind_a_task():
    # 13 tasks of 1 row: the owner takes 1 + 6, then 1 + 3, 1 + 1 and 1
    q = filled(2, 1, [range(0, 13), range(13, 13)], 1)
    sizes = []
    while (t := q.next_task(0)) is not None:
        batch = [t] + q.follow(0, t)
        assert [b.start for b in batch] == list(range(t.start, t.start + len(batch)))
        sizes.append(len(batch))
    assert sizes == [7, 4, 2]
    assert q.counter_totals() == (13, 0, 0)


def test_follow_stops_where_another_worker_took_the_next_task():
    q = filled(2, 1, [range(0, 8), range(8, 8)], 1)
    t = q.next_task(0)
    stolen = q.next_task(1)  # worker 1 steals task 1, right behind task 0
    assert (t.start, stolen.start) == (0, 1)
    assert q.follow(0, t) == []
    assert q.counter_totals() == (1, 1, 0)
    # a thief's own follow counts as stolen
    assert [b.start for b in q.follow(1, stolen)] == [2, 3, 4]
    assert q.counter_totals() == (1, 4, 0)


def test_own_partition_first():
    q = filled(2, 1, even_ranges(8, 2), 4)
    t = q.next_task(1)
    assert t.owner == 1
    assert q.taken_local == [0, 1]


def test_same_node_steal_preferred():
    # worker 1 (node 0) must steal from worker 0 (node 0) before 2/3 (node 1)
    q = filled(4, 2, [range(0, 4), range(4, 4), range(4, 8), range(8, 12)], 4, "numa")
    t = q.next_task(1)
    assert t.owner == 0
    assert q.stolen_same_node == [1, 0, 0, 0]
    assert q.stolen_remote == [0, 0, 0, 0]


def test_remote_steal_when_same_node_empty():
    q = filled(4, 2, [range(0, 0), range(0, 0), range(0, 4), range(4, 8)], 4, "numa")
    t = q.next_task(0)
    assert t.owner == 2  # ascending scan over the remote node
    assert q.stolen_remote == [0, 0, 1, 0]


def test_static_never_steals():
    tasks = split_tasks([range(0, 0), range(0, 8)], 4)
    q = PartitionedTaskQueue(topo(2, 1), "static")
    q.refill(tasks)
    assert q.next_task(0) is None
    assert q.remaining() == 2
    while q.next_task(1) is not None:
        pass
    assert q.counter_totals() == (2, 0, 0)
    # a new iteration starts its counts from zero
    q.refill(tasks)
    assert q.counter_totals() == (0, 0, 0)


def test_fifo_steals_in_worker_order():
    q = filled(4, 2, [range(0, 0), range(0, 0), range(0, 4), range(4, 8)], 4, "fifo")
    t = q.next_task(0)
    assert t.owner == 2


def drain_concurrently(q, T, stall_prob=0.0, seed=0):
    """Workers drain the queue; returns (dispensed task lists, premature flags)."""
    out = [[] for _ in range(T)]
    premature = []
    rngs = [random.Random(seed * 1000 + w) for w in range(T)]

    def work(w):
        r = rngs[w]
        while True:
            task = q.next_task(w)
            if task is None:
                if q.remaining():
                    premature.append(w)
                return
            out[w].append(task)
            if stall_prob and r.random() < stall_prob:
                threading.Event().wait(r.random() * 0.002)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(T)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out, premature


@pytest.mark.parametrize("policy", ["numa", "fifo"])
def test_concurrent_drain_dispenses_exactly_once(policy):
    T = 4
    # heavy skew: all tasks in partitions 0 and 2
    q = filled(T, 2, [range(0, 500), range(500, 500), range(500, 1000), range(1000, 1000)], 2,
               policy)
    total = q.remaining()
    out, premature = drain_concurrently(q, T, stall_prob=0.05)
    got = [t.index for worker in out for t in worker]
    assert len(got) == total
    assert len(set(got)) == total
    assert not premature
    assert q.remaining() == 0


def test_straggler_partition_fully_drained_by_thieves():
    T = 4
    q = filled(T, 2, [range(0, 40), range(40, 40), range(40, 40), range(40, 40)], 4, "numa")
    out, premature = drain_concurrently(q, T, stall_prob=0.2, seed=3)
    assert sum(len(o) for o in out) == 10
    assert not premature


def drain_in_order(q, T, seed):
    """Workers drain the queue on one thread, in a seeded order of requests:
    each worker gets a speed, and each request comes from a worker still
    working, drawn by speed.  Returns the dispensed task lists."""
    r = random.Random(seed)
    speed = [r.uniform(0.5, 1.5) for _ in range(T)]
    working = list(range(T))
    out = [[] for _ in range(T)]
    while working:
        w = r.choices(working, weights=[speed[v] for v in working])[0]
        task = q.next_task(w)
        if task is None:
            working.remove(w)
        else:
            out[w].append(task)
    return out


def test_numa_policy_prefers_same_node_steals_under_skew():
    # one loaded partition per node: thieves should hit their own node first;
    # a scripted request order keeps the counts off the host's thread timing
    T, trials = 4, 20
    same_total = remote_total = 0
    for trial in range(trials):
        q = filled(T, 2, [range(0, 600), range(600, 600), range(600, 1200), range(1200, 1200)],
                   2, "numa")
        out = drain_in_order(q, T, seed=trial)
        assert sum(len(o) for o in out) == 600 and q.remaining() == 0
        _, same, remote = q.counter_totals()
        same_total += same
        remote_total += remote
    assert same_total >= remote_total
