#!/usr/bin/env python3
"""Check the pruned path's bound tests on tiny integer datasets, where
distances to two centroids tie exactly or within an ulp.

    python tools/near_tie_sweep.py                 # the 20000-dataset sweep
    python tools/near_tie_sweep.py --count 500 --first 1000
    python tools/near_tie_sweep.py --src /path/to/other/src

Dataset i has d = 2, n = 3..23 rows with values 0..5 and k = 2..4, all drawn
from ``default_rng([0, i])``; a pruned and an unpruned run use forgy
init, T = 1 and the engine seed i.  A dataset fails a bound test when, in
some iteration, the pruned run's assignment differs from a full pass (the
recipe's nearest centroid, lower id on a tie) over the centroids that
iteration used.  It fails as split runs when the two runs differ in any
iteration's centroids or assignment, or in their number of iterations.
Prints each failing dataset and the count of each kind; exits 1 when a
dataset fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def dataset(i: int):
    """(rows, k) of dataset i."""
    import numpy as np

    rng = np.random.default_rng([0, i])
    n = int(rng.integers(3, 24))
    k = int(rng.integers(2, 5))
    return rng.integers(0, 6, size=(n, 2)).astype(np.float64), k


def iterations(rows, cfg):
    """(centroid means used, assignment made) for each iteration of an
    in-memory run of ``cfg``."""
    from numakmeans import engine

    steps = []

    class Recording(engine._Engine):
        def _finish_iteration(self):
            steps.append((self.centroids.means.copy(), self.assignment.copy()))
            super()._finish_iteration()

    Recording(engine._MemorySource(rows), cfg).run()
    return steps


def check(rows, k: int, engine_seed: int, init: str = "forgy", initial_centroids=None) -> str:
    """"bound" when the pruned path decides a row unlike a full pass over the
    same centroids, "split" when the runs differ in any other way, "" when
    they agree bit for bit every iteration."""
    import numpy as np
    from numakmeans import EngineConfig
    from numakmeans.distance import nearest_centroid

    pruned, plain = (
        iterations(rows, EngineConfig(k=k, init=init, seed=engine_seed, pruning=pruning,
                                      initial_centroids=initial_centroids))
        for pruning in (True, False))
    if any(not np.array_equal(a, nearest_centroid(rows, means)[0]) for means, a in pruned):
        return "bound"
    if len(pruned) != len(plain) or any(
            pm.tobytes() != um.tobytes() or not np.array_equal(pa, ua)
            for (pm, pa), (um, ua) in zip(pruned, plain)):
        return "split"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=20000, help="datasets to run")
    parser.add_argument("--first", type=int, default=0, help="index of the first dataset")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the numakmeans package (default: ./src)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))

    found = {"bound": 0, "split": 0}
    for i in range(args.first, args.first + args.count):
        rows, k = dataset(i)
        if k > len(rows):
            continue
        kind = check(rows, k, i)
        if kind:
            found[kind] += 1
            print(f"dataset {i} ({kind}): k={k} rows={rows.astype(int).tolist()}")
    print(f"{found['bound']} of {args.count} datasets fail a bound test; "
          f"{found['split']} more have split runs")
    return 1 if any(found.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
