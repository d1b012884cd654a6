"""Euclidean distance kernels shared by every code path.

All distances in the package funnel through the same floating-point recipe:
elementwise difference into a scratch buffer, then a vecdot self-contraction
over the contiguous last axis, then sqrt.  Keeping one recipe means a point's
distance to a centroid is bit-identical whether it is computed during a full
assignment pass, a bound tightening, or a candidate scan, which is what makes
the pruned and unpruned engines agree exactly.  The per-point reduction order
depends only on d, never on the block being processed, so results are also
invariant to task and chunk boundaries.  vecdot is a ufunc, so the hot loops
drop the interpreter lock and worker threads overlap.

The block kernels allocate their own scratch, sized by the block they are
given; callers bound it by the blocks they pass, at most ``CHUNK_ELEMS``
elements.  Nearest-centroid ties go to the lowest centroid id.
"""

from __future__ import annotations

import numpy as np

# Scratch budget of one vectorized block, in float64 elements: the engine's
# full pass takes CHUNK_ELEMS // d rows at a time and the pruned scan
# CHUNK_ELEMS // k rows per round.
CHUNK_ELEMS = 262144


def euclidean_distance(a, b) -> float:
    """Distance between two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(_sq_rowwise(a[None, :], b[None, :])[0]))


def _sq_rowwise(rows, refs, buf=None, out=None):
    # rows (m, d); refs broadcastable to (m, d); squared distances (m,).
    if buf is None:
        buf = np.empty_like(rows)
    np.subtract(rows, refs, out=buf)
    return np.vecdot(buf, buf, out=out)


def rowwise_distances(rows: np.ndarray, refs: np.ndarray, buf=None, out=None) -> np.ndarray:
    """Row i of ``rows`` vs row i of ``refs`` (or one shared ref vector)."""
    sq = _sq_rowwise(rows, refs, buf=buf, out=out)
    return np.sqrt(sq, out=sq)


def block_distances(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Full (m, k) distance matrix between ``rows`` and ``centroids``.

    Computed one centroid at a time so the scratch stays at O(m*d) and the
    per-point arithmetic matches :func:`rowwise_distances` exactly.
    """
    m = rows.shape[0]
    k = centroids.shape[0]
    out = np.empty((m, k), dtype=np.float64)
    buf = np.empty_like(rows)
    # contract into a contiguous vector first: the contraction is the hot
    # loop and must not write through a strided view
    tmp = np.empty(m, dtype=np.float64)
    for j in range(k):
        _sq_rowwise(rows, centroids[j], buf=buf, out=tmp)
        out[:, j] = tmp
    np.sqrt(out, out=out)
    return out


def row_sqnorms(rows: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row, with the same contraction as the kernels.

    Using one recipe matters: a point's squared norm must cancel exactly when
    it is first added to and later subtracted from a running cluster sum.
    """
    return np.vecdot(rows, rows)


def nearest_centroid(rows: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid ids and distances for a block of rows.

    Ties go to the lowest centroid id (first occurrence of the minimum).
    """
    dmat = block_distances(rows, centroids)
    ids = np.argmin(dmat, axis=1)
    return ids.astype(np.int32), dmat[np.arange(rows.shape[0]), ids]


def nearest_block_into(rows, centroids):
    """Streaming equivalent of :func:`nearest_centroid` for hot loops.

    Scans centroids in ascending id order with a strict-less update, so ids
    and distances are bit-identical to the materialized argmin; only O(m*d)
    scratch is allocated and every step is a lock-dropping ufunc.  Returns
    ``(ids, dists)`` like :func:`nearest_centroid`.
    """
    diff = np.empty_like(rows)
    best = rowwise_distances(rows, centroids[0], buf=diff)
    ids = np.zeros(rows.shape[0], dtype=np.int32)
    tmp = np.empty_like(best)
    mask = np.empty(best.shape, dtype=bool)
    for j in range(1, centroids.shape[0]):
        rowwise_distances(rows, centroids[j], buf=diff, out=tmp)
        np.less(tmp, best, out=mask)
        np.minimum(best, tmp, out=best)
        np.copyto(ids, j, where=mask)
    return ids, best
