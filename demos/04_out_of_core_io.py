"""Out-of-core runs: bytes requested vs bytes actually read from disk.

Row data stays on disk and is fetched at 4KB page granularity.  Three
configurations mirror the classic ablation:

* pruning off, cache off  -- every row is requested every iteration;
* pruning on,  cache off  -- requests shrink with the active set, but
  scattered small rows still drag in whole pages (fragmentation);
* pruning on,  cache on   -- the row cache pins active rows after each
  refresh (here after every iteration), collapsing what has to be read.
  (A kmeans++ run would also start with the rows its initialization read,
  up to the cache's capacity; this demo's forgy run starts with none.)
"""

import os
import tempfile

import numpy as np

from numakmeans import (
    EngineConfig,
    RowStore,
    SyntheticSpec,
    gen_synthetic,
    kmeans_ondisk,
    save_matrix,
)

N, D, K = 40_000, 8, 8

spec = SyntheticSpec("gaussian-mixture", N, D, seed=23, k_true=K, separation=4.0)
matrix = gen_synthetic(spec)


def run(path, pruning, cache):
    cfg = EngineConfig(k=K, seed=13, T=2, pruning=pruning, mode="sem", max_iters=25)
    with RowStore(path, N, D) as store:
        return kmeans_ondisk(store, cfg, cache_enabled=cache,
                             cache_capacity=N * D * 8, refresh_start=1)


with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "rows.raw")
    save_matrix(matrix, path, raw=True)
    print(f"on-disk dataset: {os.path.getsize(path):,} bytes ({N} x {D} float64)")
    variants = [
        ("no pruning, no cache", run(path, False, False)),
        ("pruning,    no cache", run(path, True, False)),
        ("pruning,    cache   ", run(path, True, True)),
    ]

for label, res in variants:
    print(f"\n{label}: {res.n_iterations} iterations")
    print(f"{'t':>3} {'requested':>12} {'read':>12} {'elided rows':>12} {'cache hits':>11}")
    for st in res.iterations[:10]:
        io = st.io
        print(f"{st.t:>3} {io.bytes_requested:>12,} {io.bytes_read:>12,} "
              f"{io.rows_elided:>12,} {io.cache_hits:>11,}")
    tot = res.io_totals
    print(f"totals: requested {tot.bytes_requested:,}  read {tot.bytes_read:,}")

plain, pruned, cached = (res for _, res in variants)
same = all(np.array_equal(res.assignments, plain.assignments) for res in (pruned, cached))
fewer = cached.io_totals.bytes_read < pruned.io_totals.bytes_read
print(f"\nsame assignments in every variant, and the cache reads fewer bytes: "
      f"{same and fewer}")
