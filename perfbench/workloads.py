"""Benchmark workloads, dataset preparation and the per-run correctness gate.

Every workload clusters the same gaussian mixture (n=200,000, d=16,
k_true=32, separation 6) with k=64, kmeans++ init and T=2 workers, so the
three differ only in the code path they drive:

* ``im-prune-k64``: in memory, pruned.  ``pruning.scan_block`` dominates every
  iteration after the first; the distance full pass runs only in iteration 0.
* ``im-full-k64``: in memory, unpruned.  Every iteration is a full
  ``nearest_block_into`` pass plus accumulate; pruning is never called.
* ``sem-cache-k64``: on disk through ``RowStore`` with pruning and the row
  cache on.  Survivors of the pruned scan are fetched by
  ``outofcore.fetch_rows``; initialization reads the file from disk.

The engine only ever receives the generated files: data is generated from
the benchmark seed in a separate process (so its memory does not show in the
measured process's peak RSS) and written as a KNRM file for in-memory runs
and a raw file for on-disk runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from numakmeans import (
    EngineConfig,
    RowStore,
    SyntheticSpec,
    gen_synthetic,
    kmeans,
    kmeans_ondisk,
    load_matrix,
    nearest_centroid,
    save_matrix,
)

# Relative tolerance of the final centroids against the recomputed member
# means, scaled by the data magnitude.  Pruned runs keep incremental sums, so
# the two agree to rounding, not bit for bit.
MEANS_RTOL = 1e-9
# Relative slack on "WCSS never increases", as in the acceptance tests.
WCSS_RTOL = 1e-9
GATE_CHUNK = 8192


@dataclass(frozen=True)
class Scale:
    """Problem size shared by all workloads of one benchmark run."""

    n: int = 200_000
    d: int = 16
    k_true: int = 32
    separation: float = 6.0
    k: int = 64
    T: int = 2
    max_iters: int = 30


FULL = Scale()


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str            # "im" or "sem"
    pruning: bool
    cache: bool = True   # sem only


WORKLOADS = {
    w.name: w
    for w in (
        Workload("im-prune-k64", "im", pruning=True),
        Workload("im-full-k64", "im", pruning=False),
        Workload("sem-cache-k64", "sem", pruning=True),
    )
}


@dataclass(frozen=True)
class Dataset:
    knrm: Path
    raw: Path
    n: int
    d: int


def engine_seed(seed: int) -> int:
    """The engine's seed, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 0x6B6D]).generate_state(1)[0])


def write_dataset(scale: dict, seed: int, knrm: str, raw: str) -> None:
    spec = SyntheticSpec("gaussian-mixture", scale["n"], scale["d"], seed=seed,
                         k_true=scale["k_true"], separation=scale["separation"])
    matrix = gen_synthetic(spec)
    save_matrix(matrix, knrm)
    save_matrix(matrix, raw, raw=True)


def prepare_dataset(scale: Scale, seed: int, directory: Path) -> Dataset:
    """Generate the seed's data in a child process and write both file forms."""
    ds = Dataset(directory / "data.knrm", directory / "data.raw", scale.n, scale.d)
    args = json.dumps([asdict(scale), seed, str(ds.knrm), str(ds.raw)])
    subprocess.run(
        [sys.executable, "-c",
         "import json, sys, workloads; workloads.write_dataset(*json.loads(sys.argv[1]))", args],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
        check=True,
    )
    return ds


@dataclass
class RunRecord:
    """One engine run, timed around the public API calls."""

    workload: Workload
    load_s: float
    setup_s: float
    solve_s: float
    iter_s: list[float]
    read_mb: float
    state_mb: float
    result: object  # KmeansResult


def run_once(w: Workload, scale: Scale, seed: int, ds: Dataset,
             max_iters: int | None = None) -> RunRecord:
    """Load the data and cluster it once.

    ``setup_s`` is the load call plus the part of ``kmeans``/``kmeans_ondisk``
    outside the iterations (validation, init, engine construction, thread
    start and join): the call's wall time minus the summed iteration times.
    """
    cfg = EngineConfig(
        k=scale.k,
        max_iters=max_iters or scale.max_iters,
        init="kmeanspp",
        seed=engine_seed(seed),
        T=scale.T,
        pruning=w.pruning,
        mode=w.mode,
    )
    t0 = time.perf_counter()
    if w.mode == "im":
        matrix = load_matrix(ds.knrm)
        t1 = time.perf_counter()
        result = kmeans(matrix, cfg)
        t2 = time.perf_counter()
        # the load call is the only read from the file in memory mode
        read_bytes = os.path.getsize(ds.knrm)
    else:
        store = RowStore.open(ds.raw, raw=True, n=ds.n, d=ds.d)
        t1 = time.perf_counter()
        try:
            result = kmeans_ondisk(store, cfg, cache_enabled=w.cache)
        finally:
            store.close()
        t2 = time.perf_counter()
        read_bytes = result.io_totals.bytes_read
    iter_s = [st.wall_s for st in result.iterations]
    solve_s = sum(iter_s)
    return RunRecord(
        workload=w,
        load_s=t1 - t0,
        setup_s=(t1 - t0) + (t2 - t1 - solve_s),
        solve_s=solve_s,
        iter_s=iter_s,
        read_mb=read_bytes / 1e6,
        state_mb=result.peak_state_bytes / 1e6,
        result=result,
    )


def assignment_digest(result) -> str:
    return hashlib.sha256(np.asarray(result.assignments, dtype="<i4").tobytes()).hexdigest()[:16]


def check_result(result, data: np.ndarray, nearest: bool = True) -> list[str]:
    """Problems with one run's output; empty when it passes the gate.

    * final assignments equal the exhaustive nearest centroid of the means
      they were made against (``centroids.prev_means``), unless ``nearest``
      is false because the caller verified the same pair already;
    * final means equal the recomputed member means within ``MEANS_RTOL``
      (empty clusters keep their previous position);
    * the per-iteration WCSS never increases.
    """
    problems = []
    a = np.asarray(result.assignments)
    prev = result.centroids.prev_means
    k, d = prev.shape
    n = data.shape[0]
    if a.shape != (n,):
        return [f"assignments have shape {a.shape}, expected ({n},)"]
    if a.min() < 0 or a.max() >= k:
        return [f"assignment ids outside [0, {k})"]
    for lo in range(0, n if nearest else 0, GATE_CHUNK):
        ids, _ = nearest_centroid(data[lo:lo + GATE_CHUNK], prev)
        if not np.array_equal(ids, a[lo:lo + GATE_CHUNK]):
            bad = lo + int(np.flatnonzero(ids != a[lo:lo + GATE_CHUNK])[0])
            problems.append(f"row {bad}: assigned {int(a[bad])}, nearest centroid is "
                            f"{int(ids[bad - lo])}")
            break
    counts = np.bincount(a, minlength=k)
    sums = np.stack([np.bincount(a, weights=data[:, j], minlength=k) for j in range(d)], axis=1)
    expected = prev.copy()
    occupied = counts > 0
    expected[occupied] = sums[occupied] / counts[occupied, None]
    err = float(np.max(np.abs(result.centroids.means - expected)))
    tol = MEANS_RTOL * (1.0 + float(np.max(np.abs(data))))
    if not err <= tol:
        problems.append(f"final means differ from member means by {err:.3g} (tolerance {tol:.3g})")
    wcss = [st.wcss for st in result.iterations]
    for t, (before, after) in enumerate(zip(wcss, wcss[1:]), start=1):
        if after > before * (1 + WCSS_RTOL):
            problems.append(f"WCSS rose at iteration {t}: {before!r} -> {after!r}")
            break
    return problems


class DigestBook:
    """Assignment digests by seed, kept across invocations in one checkout.

    The three workloads of one seed must produce the same final assignments
    (pruned == unpruned == on disk).  Each invocation runs one workload, so
    the digest is recorded under a key of the source code, the scale and the
    seed, and compared with whatever an earlier workload recorded there.
    """

    def __init__(self, path: Path, code_key: str):
        self.path = path
        self.code_key = code_key

    def check(self, scale: Scale, seed: int, workload: str, digest: str) -> list[str]:
        try:
            book = json.loads(self.path.read_text())
        except FileNotFoundError:
            book = {}
        key = f"{self.code_key}:{scale.n}x{scale.d}:k{scale.k}:seed{seed}"
        entry = book.setdefault(key, {})
        problems = [f"assignment digest {digest} differs from {other}'s {theirs}"
                    for other, theirs in sorted(entry.items())
                    if other != workload and theirs != digest]
        entry[workload] = digest
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return problems


def source_key(src: Path) -> str:
    """Hash of the package sources, so digests of other code never compare."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
