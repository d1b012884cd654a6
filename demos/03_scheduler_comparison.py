"""Task scheduling policies: NUMA-aware stealing vs FIFO stealing vs static.

Pruning makes per-task cost uneven (some row blocks are fully skipped), which
is exactly when work stealing pays off.  Scheduling never changes the math:
all three policies produce identical assignments.  The counters show how
tasks moved: the NUMA policy steals from same-node victims first, FIFO steals
from anyone, static never steals.

The machine may not have multiple NUMA nodes; the runs force a 2-node layout
with ``N=2`` so the locality tiers are visible anyway.
"""

import time

import numpy as np

from numakmeans import EngineConfig, SyntheticSpec, gen_synthetic, kmeans

N, D, K, T = 100_000, 8, 16, 4

spec = SyntheticSpec("gaussian-mixture", N, D, seed=19, k_true=K, separation=8.0)
matrix = gen_synthetic(spec)

runs = {}
for policy in ("numa", "fifo", "static"):
    cfg = EngineConfig(k=K, seed=9, T=T, N=2, scheduler=policy, pruning=True,
                       task_size=2048, max_iters=20)
    started = time.perf_counter()
    runs[policy] = kmeans(matrix, cfg)
    elapsed = time.perf_counter() - started
    res = runs[policy]
    local = sum(s.sched.taken_local for s in res.iterations)
    same = sum(s.sched.stolen_same_node for s in res.iterations)
    remote = sum(s.sched.stolen_remote for s in res.iterations)
    print(f"{policy:>7}: {elapsed:5.2f}s, {res.n_iterations} iterations, "
          f"tasks local={local} stolen-same-node={same} stolen-remote={remote}")

base = runs["numa"]
for policy in ("fifo", "static"):
    same_result = np.array_equal(runs[policy].assignments, base.assignments)
    print(f"{policy} assignments match numa: {same_result}")
