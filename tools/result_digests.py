#!/usr/bin/env python3
"""Print two sha1s per run of a fixed configuration grid.

A refactor that must leave every result byte-identical runs this under the
old and the new source tree and compares the output:

    python tools/result_digests.py --src /path/to/old/src > old.txt
    python tools/result_digests.py --src src > new.txt
    diff old.txt new.txt

When the change also edits the calls this tool makes, such as an argument
of ``kmeans_ondisk``, run the old tree's own copy of the tool against it:

    git show HEAD:tools/result_digests.py > old_digests.py
    python old_digests.py --src /path/to/old/src > old.txt

Each line carries two hashes of one run.  ``results=`` covers its results
alone: final assignments, centroid means, and each iteration's WCSS and
reassignments.  ``full=`` also covers the rest of its report (its
``deterministic_view``, counters included), ``peak_state_bytes`` and
``io_totals``.  A change that moves only work counters or state accounting
keeps every ``results=`` hash.  The grid has 72 runs: in memory and on disk with the row cache on and off,
pruned and unpruned, T = 1 and 2, three initializations, and the data at
the origin and offset by 1e6.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

MODES = ("im", "sem-cache", "sem-nocache")
INITS = ("forgy", "random-partition", "kmeanspp")
OFFSETS = (0.0, 1e6)
N, D, K = 5000, 6, 6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the numakmeans package (default: ./src)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numakmeans
    from numakmeans import (EngineConfig, RowStore, SyntheticSpec, gen_synthetic, kmeans,
                            kmeans_ondisk, save_matrix)
    from numakmeans.report import deterministic_view, format_report

    print(f"numakmeans from {numakmeans.__file__}", file=sys.stderr)
    base = gen_synthetic(SyntheticSpec("gaussian-mixture", N, D, seed=11, k_true=K,
                                       separation=3.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.raw"
        for offset in OFFSETS:
            m = base + offset
            save_matrix(m, path, raw=True)
            for mode, pruning, T, init in itertools.product(MODES, (True, False), (1, 2), INITS):
                cfg = EngineConfig(k=K, max_iters=40, init=init, seed=3, T=T, task_size=512,
                                   pruning=pruning, mode="im" if mode == "im" else "sem")
                if mode == "im":
                    result = kmeans(m, cfg)
                else:
                    with RowStore(path, N, D) as store:
                        result = kmeans_ondisk(store, cfg, cache_enabled=mode == "sem-cache",
                                               cache_capacity=m.nbytes // 4,
                                               refresh_start=1)
                config = {f.name: getattr(cfg, f.name) for f in fields(cfg)
                          if f.name != "initial_centroids"}
                res = hashlib.sha1()
                res.update(result.assignments.tobytes())
                res.update(result.centroids.means.tobytes())
                res.update(repr([(st.wcss, st.reassignments)
                                 for st in result.iterations]).encode())
                h = hashlib.sha1()
                h.update(deterministic_view(format_report(config, result)).encode())
                h.update(result.assignments.tobytes())
                h.update(result.centroids.means.tobytes())
                h.update(repr(result.peak_state_bytes).encode())
                io = None if result.io_totals is None else asdict(result.io_totals)
                h.update(repr(io).encode())
                print(f"offset={offset:g} mode={mode} pruning={pruning} T={T} init={init} "
                      f"results={res.hexdigest()} full={h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
