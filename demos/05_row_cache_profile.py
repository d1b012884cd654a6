"""Row cache hits per iteration against the maximum achievable.

The cache refreshes lazily: first at iteration 5, then with doubling gaps
(15, 35, ...).  Early iterations have chaotic row activation, so caching them
would be wasted effort; once activation stabilizes, a stale cache still
serves nearly every fetch.  "max achievable" is the number of non-elided
fetches, i.e. what a clairvoyant cache would serve.
"""

import os
import tempfile

from numakmeans import (
    EngineConfig,
    RowStore,
    SyntheticSpec,
    gen_synthetic,
    kmeans_ondisk,
    save_matrix,
    should_refresh,
)

N, D, K = 40_000, 8, 8
REFRESH_START = 5

spec = SyntheticSpec("gaussian-mixture", N, D, seed=37, k_true=K, separation=4.0)
matrix = gen_synthetic(spec)
cfg = EngineConfig(k=K, seed=13, T=2, pruning=True, mode="sem", max_iters=40)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "rows.raw")
    save_matrix(matrix, path, raw=True)
    with RowStore(path, N, D) as store:
        res = kmeans_ondisk(store, cfg, cache_capacity=N * D * 8, refresh_start=REFRESH_START)

print(f"{res.n_iterations} iterations; cache refreshes marked with *\n")
print(f"{'t':>3} {'max achievable':>15} {'cache hits':>11} {'hit rate':>9}")
for st in res.iterations:
    io = st.io
    possible = io.cache_hits + io.cache_misses
    rate = io.cache_hits / possible if possible else float("nan")
    mark = "*" if should_refresh(st.t, REFRESH_START) else " "
    print(f"{st.t:>3}{mark} {possible:>14,} {io.cache_hits:>11,} {rate:>9.1%}")

print("\nbefore the first refresh every fetch misses; afterwards the stale")
print("cache serves nearly everything, approaching 100% in late iterations.")
