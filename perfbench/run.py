"""Run one numakmeans benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload im-prune-k64 --seed 1 --seconds 25 --trace 0

Run it from the repository root; the package is imported from ``src/``.
The seed generates the data (and derives the engine seed) in a temporary
directory under ``.perfbench/``, which is removed afterwards.

``--trace 0`` repeats the workload, untraced, until ``--seconds`` have passed
and reports the end-to-end metrics as medians over the repeats.
``--trace 1`` does the same, then runs the workload once more with spans
around each module's calls, plus untraced reference runs (T=1, cache off,
k=8 pruned vs unpruned), and reports the per-layer metrics.

Every engine run passes the correctness gate or counts as failed.  Progress
and gate failures go to standard error; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numakmeans  # noqa: E402
from numakmeans import load_matrix  # noqa: E402

from tracing import LAYER_UNITS, Tracer, layer_metrics, nesting_problems  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    WORKLOADS,
    DigestBook,
    Scale,
    assignment_digest,
    check_result,
    prepare_dataset,
    run_once,
    source_key,
)

# setup_s is a median over at least this many set-ups per run; set-up-only
# runs top the count up, and go on while they have taken less than this share
# of --seconds, so that cheap set-ups are sampled more often
MIN_SETUP_SAMPLES = 3
SETUP_SHARE = 0.15
K_SMALL = 8  # k of the pruning reference pair

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "iter_ms": "ms",
    "read_mb": "MB",
    "peak_rss_mb": "MB",
    "state_mb": "MB",
}


class Gate:
    """Counts engine runs and those that fail the correctness gate.

    The exhaustive nearest-centroid check runs once per distinct pair of
    final assignments and ``prev_means``: repeats of one configuration
    produce the same pair, and its verdict does not change.
    """

    def __init__(self, data):
        self.data = data
        self.attempted = 0
        self.failed = 0
        self._verified = set()

    def check(self, label: str, record, same_as: str | None = None,
              extra: list[str] = ()) -> str:
        """Gate one run, whose digest must equal ``same_as`` if given.

        Returns the run's assignment digest.
        """
        self.attempted += 1
        digest = assignment_digest(record.result)
        key = (digest, record.result.centroids.prev_means.tobytes())
        problems = check_result(record.result, self.data, nearest=key not in self._verified)
        if not problems:
            self._verified.add(key)
        problems += extra
        if same_as is not None and digest != same_as:
            problems.append(f"assignment digest {digest} differs from {same_as}")
        for p in problems:
            print(f"gate: {label}: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return digest


def measure(w, scale: Scale, seed: int, ds, seconds: float):
    """Untraced repeats for ``seconds``, then set-up-only runs (``max_iters=1``).

    Also returns the process's peak RSS after the first run (MB): the
    footprint of a process that loads the data and clusters it once, which
    later repeats would blur with allocator reuse.
    """
    start = time.perf_counter()
    records = [run_once(w, scale, seed, ds)]
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    while time.perf_counter() - start < seconds:
        records.append(run_once(w, scale, seed, ds))
    setups = []
    start = time.perf_counter()
    while (len(records) + len(setups) < MIN_SETUP_SAMPLES
           or time.perf_counter() - start < SETUP_SHARE * seconds):
        setups.append(run_once(w, scale, seed, ds, max_iters=1))
    return records, setups, peak_rss_mb


def end_to_end(records, setups, peak_rss_mb: float) -> dict[str, float]:
    def med(attr, recs=records):
        return statistics.median(getattr(r, attr) for r in recs)

    return {
        "setup_s": med("setup_s", records + setups),
        "solve_s": med("solve_s"),
        "iter_ms": 1e3 * statistics.median(t for r in records for t in r.iter_s),
        "read_mb": med("read_mb"),
        "peak_rss_mb": peak_rss_mb,
        "state_mb": med("state_mb"),
    }


def traced_phase(w, scale: Scale, seed: int, ds, records, gate: Gate, digest: str):
    """The traced run and the reference runs; returns the per-layer metrics."""
    tracer = Tracer()
    with tracer.installed():
        traced = run_once(w, scale, seed, ds)
    gate.check("traced", traced, same_as=digest, extra=nesting_problems(tracer.spans))
    metrics = layer_metrics(tracer.spans, traced)
    solve = statistics.median(r.solve_s for r in records)
    metrics["trace_overhead_frac"] = traced.solve_s / solve - 1.0

    metrics["engine.speedup_t2"] = 0.0
    metrics["outofcore.cache_speedup"] = 0.0
    metrics["pruning.k8_speedup"] = 0.0
    if w.mode == "im":
        t1 = run_once(w, replace(scale, T=1), seed, ds)
        gate.check("T=1", t1, same_as=digest)
        metrics["engine.speedup_t2"] = t1.solve_s / solve
    else:
        off = run_once(replace(w, cache=False), scale, seed, ds)
        gate.check("cache off", off, same_as=digest)
        metrics["outofcore.cache_speedup"] = off.solve_s / solve
    if w.mode == "im" and w.pruning:
        small = replace(scale, k=K_SMALL)
        pruned = run_once(w, small, seed, ds)
        full = run_once(replace(w, pruning=False), small, seed, ds)
        gate.check("k=8 unpruned", full, same_as=gate.check("k=8 pruned", pruned))
        metrics["pruning.k8_speedup"] = full.solve_s / pruned.solve_s
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: Scale = FULL, state_dir: Path = ROOT / ".perfbench") -> dict:
    """One benchmark invocation; returns the result object that is printed."""
    w = WORKLOADS[workload]
    state_dir.mkdir(exist_ok=True)
    book = DigestBook(state_dir / "digests.json", source_key(SRC / "numakmeans"))
    with tempfile.TemporaryDirectory(dir=state_dir, prefix="data-") as tmp:
        ds = prepare_dataset(scale, seed, Path(tmp))
        records, setups, peak_rss_mb = measure(w, scale, seed, ds, seconds)
        gate = Gate(load_matrix(ds.knrm))
        digest = gate.check(f"{workload} run 0", records[0], extra=book.check(
            scale, seed, workload, assignment_digest(records[0].result)))
        for i, rec in enumerate(records[1:], start=1):
            gate.check(f"{workload} run {i}", rec, same_as=digest)
        for rec in setups:
            gate.check(f"{workload} set-up run", rec)
        if trace:
            metrics = traced_phase(w, scale, seed, ds, records, gate, digest)
            units = LAYER_UNITS
        else:
            metrics = end_to_end(records, setups, peak_rss_mb)
            units = END_TO_END_UNITS
    print(f"{workload} seed {seed}: {len(records)} runs, solve_s "
          f"{[round(r.solve_s, 3) for r in records]}, setup_s "
          f"{[round(r.setup_s, 3) for r in records + setups]}", file=sys.stderr)
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(numakmeans.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"numakmeans was imported from {numakmeans.__file__}, not from {SRC}")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
