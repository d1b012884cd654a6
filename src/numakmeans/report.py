"""Line-oriented run reports with a stable field order.

One ``config`` line (JSON), one ``iter`` line per executed iteration, one
``total`` line whose counter columns are the sums of the per-iteration
columns, and one ``converged`` line.  Everything except wall time and the
scheduler's local/stolen split (both timing artifacts) is reproducible for a
fixed command line and seed.
"""

from __future__ import annotations

import json

from .engine import IterationStats, KmeansResult

ITER_FIELDS = (
    "t", "reassign", "wcss", "dists", "skips", "pruned_stale", "pruned_tight",
    "bytes_req", "bytes_read", "cache_hits", "cache_misses", "rows_elided",
    "taken_local", "stolen_same", "stolen_remote", "wall_ms",
)

SUMMED_FIELDS = tuple(f for f in ITER_FIELDS if f not in ("t", "wcss", "wall_ms"))

# Timing-dependent fields, excluded when comparing reports for determinism.
TIMING_FIELDS = ("wall_ms", "taken_local", "stolen_same", "stolen_remote")


def _iter_values(st: IterationStats) -> dict:
    io = st.io
    return {
        "t": st.t,
        "reassign": st.reassignments,
        "wcss": repr(st.wcss),
        "dists": st.dist_comps,
        "skips": st.skips,
        "pruned_stale": st.pruned_stale,
        "pruned_tight": st.pruned_tight,
        "bytes_req": io.bytes_requested if io else 0,
        "bytes_read": io.bytes_read if io else 0,
        "cache_hits": io.cache_hits if io else 0,
        "cache_misses": io.cache_misses if io else 0,
        "rows_elided": io.rows_elided if io else 0,
        "taken_local": st.sched.taken_local,
        "stolen_same": st.sched.stolen_same_node,
        "stolen_remote": st.sched.stolen_remote,
        "wall_ms": f"{st.wall_s * 1000.0:.3f}",
    }


def format_report(config: dict, result: KmeansResult) -> str:
    """Serialize a run; ``config`` is echoed verbatim on the first line."""
    lines = ["# numakmeans run report v1"]
    lines.append("config " + json.dumps(config, sort_keys=True))
    rows = [_iter_values(st) for st in result.iterations]
    for vals in rows:
        lines.append("iter " + " ".join(f"{k}={vals[k]}" for k in ITER_FIELDS))
    totals = {k: sum(int(v[k]) for v in rows) for k in SUMMED_FIELDS}
    total_parts = [f"iters={len(rows)}"]
    total_parts += [f"{k}={totals[k]}" for k in SUMMED_FIELDS]
    total_parts.append(f"wall_ms={sum(float(v['wall_ms']) for v in rows):.3f}")
    lines.append("total " + " ".join(total_parts))
    lines.append(f"converged {'true' if result.converged else 'false'}")
    return "\n".join(lines) + "\n"


def deterministic_view(text: str) -> str:
    """The report with timing-dependent fields removed, for byte comparisons."""
    keep = []
    for line in text.splitlines():
        if line.startswith(("iter ", "total ")):
            parts = [
                p for p in line.split()
                if "=" not in p or p.split("=", 1)[0] not in TIMING_FIELDS
            ]
            keep.append(" ".join(parts))
        else:
            keep.append(line)
    return "\n".join(keep) + "\n"
