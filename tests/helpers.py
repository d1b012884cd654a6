"""Helpers used only by the tests.

Unlike the naive oracles in ``conftest.py``, the numeric ones share the
package's floating-point recipe, so tests can compare them with it bit for
bit.
"""

import json

import numpy as np

from numakmeans.distance import rowwise_distances
from numakmeans.matrix import SyntheticSpec, _place_centers


def euclidean_distance(a, b) -> float:
    """Distance between two equal-length vectors, by the package's recipe."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(rowwise_distances(a[None, :], b[None, :])[0])


def generative_centers(spec: SyntheticSpec) -> np.ndarray:
    """The gaussian-mixture centers that ``gen_synthetic`` would use."""
    if spec.family != "gaussian-mixture":
        raise ValueError("generative_centers applies to gaussian-mixture specs only")
    rng = np.random.default_rng(spec.seed)
    return _place_centers(rng, spec.k_true, spec.d, spec.separation)


def _parse_kv(parts: list[str]) -> dict:
    out = {}
    for p in parts:
        key, _, val = p.partition("=")
        out[key] = val
    return out


def parse_report(text: str) -> dict:
    """Inverse of ``report.format_report``, with numeric fields coerced."""
    config = {}
    iters = []
    totals = {}
    converged = False
    for line in text.splitlines():
        if line.startswith("config "):
            config = json.loads(line[len("config "):])
        elif line.startswith("iter "):
            vals = _parse_kv(line[len("iter "):].split())
            rec = {k: (float(v) if k in ("wcss", "wall_ms") else int(v)) for k, v in vals.items()}
            iters.append(rec)
        elif line.startswith("total "):
            vals = _parse_kv(line[len("total "):].split())
            totals = {k: (float(v) if k == "wall_ms" else int(v)) for k, v in vals.items()}
        elif line.startswith("converged "):
            converged = line.split()[1] == "true"
    return {"config": config, "iterations": iters, "totals": totals, "converged": converged}
