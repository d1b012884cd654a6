"""Cluster a synthetic gaussian mixture in memory, with and without pruning.

Both engines walk the same assignment trajectory; the pruned one just skips
distance computations it can prove are redundant.  The demo compares what
each run's result carries: the reassignment count and the objective (WCSS) of
every iteration, and the final assignments and centroids.

The two runs measure WCSS at different moments.  The unpruned run measures an
iteration's assignment against the centroids it was assigned with; the pruned
run measures it against the updated means, which can only lower it, and the
next assignment lowers it again.  On one trajectory the two sequences
therefore interleave: plain[t] >= pruned[t] >= plain[t+1].

The printed trace shows the objective falling, the reassignment counts
shrinking, and the distance-computation counts collapsing once the centroids
settle.
"""

import numpy as np

from numakmeans import EngineConfig, SyntheticSpec, gen_synthetic, kmeans

N, D, K = 50_000, 8, 8
RTOL = 1e-9

spec = SyntheticSpec("gaussian-mixture", N, D, seed=7, k_true=K, separation=10.0)
matrix = gen_synthetic(spec)
print(f"dataset: {N} points, {D} dims, {K} generative clusters")

results = {}
for pruning in (False, True):
    cfg = EngineConfig(k=K, seed=3, T=2, pruning=pruning, max_iters=30)
    results[pruning] = kmeans(matrix, cfg)

plain, pruned = results[False], results[True]
print(f"\n{plain.n_iterations} iterations, converged={plain.converged} "
      f"(pruned run: {pruned.n_iterations}, converged={pruned.converged})")

print(f"\n{'t':>3} {'reassigned':>10} {'wcss(plain)':>14} {'wcss(pruned)':>14} "
      f"{'dists(plain)':>13} {'dists(pruned)':>13}")
for a, b in zip(plain.iterations, pruned.iterations):
    print(f"{a.t:>3} {a.reassignments:>10} {a.wcss:>14.1f} {b.wcss:>14.1f} "
          f"{a.dist_comps:>13} {b.dist_comps:>13}")

same_reassign = (plain.n_iterations == pruned.n_iterations
                 and all(a.reassignments == b.reassignments
                         for a, b in zip(plain.iterations, pruned.iterations)))
print(f"\nreassignment counts identical at every iteration: {same_reassign}")

w_plain = [s.wcss for s in plain.iterations]
w_pruned = [s.wcss for s in pruned.iterations]
interleaved = (
    all(p <= q * (1 + RTOL) for p, q in zip(w_pruned, w_plain))
    and all(q <= p * (1 + RTOL) for p, q in zip(w_pruned, w_plain[1:]))
)
print(f"wcss interleaves, plain[t] >= pruned[t] >= plain[t+1] "
      f"(to {RTOL:.0e} relative): {interleaved}")

print(f"final assignments identical: "
      f"{bool(np.array_equal(plain.assignments, pruned.assignments))}")
gap = float(np.max(np.abs(plain.centroids.means - pruned.centroids.means)))
print(f"final centroids agree to 1e-9 (L-inf difference {gap:.2e}): {gap < 1e-9}")
sizes = np.bincount(plain.assignments, minlength=K)
print(f"cluster sizes: {sizes.tolist()}")
