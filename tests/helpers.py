"""Helpers used only by the tests, built on the package's own kernels.

Unlike the naive oracles in ``conftest.py``, these share the package's
floating-point recipe, so tests can compare them with it bit for bit.
"""

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
