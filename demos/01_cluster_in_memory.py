"""Cluster a synthetic gaussian mixture in memory, with and without pruning.

Both engines walk the same assignment trajectory; the pruned one just skips
distance computations it can prove are redundant.  Both keep their cluster
sums the same way, as iteration 0's totals plus the signed deltas of the rows
that moved, so the same assignments give the same centroids and the same
objective (WCSS) bit for bit.  The demo compares what each run's result
carries: the reassignment count and the WCSS of every iteration, and the
final assignments and centroids.

The printed trace shows the objective falling, the reassignment counts
shrinking, and the distance-computation counts collapsing once the centroids
settle.
"""

import numpy as np

from numakmeans import EngineConfig, SyntheticSpec, gen_synthetic, kmeans

N, D, K = 50_000, 8, 8

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

same_wcss = [s.wcss for s in plain.iterations] == [s.wcss for s in pruned.iterations]
print(f"wcss identical at every iteration: {same_wcss}")

print(f"final assignments identical: "
      f"{bool(np.array_equal(plain.assignments, pruned.assignments))}")
same_means = plain.centroids.means.tobytes() == pruned.centroids.means.tobytes()
print(f"final centroids identical bit for bit: {same_means}")
sizes = np.bincount(plain.assignments, minlength=K)
print(f"cluster sizes: {sizes.tolist()}")
