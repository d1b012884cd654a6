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

The full pass, :func:`nearest_block_into`, still answers with the recipe: the
recipe decides every id and computes every distance it returns.  A GEMM only
filters.  It ranks all centroids for a block of rows at BLAS speed, and a row
whose runner-up lies beyond a proven rounding bound takes the GEMM's choice,
which is then the recipe's; the few rows left go through
:func:`nearest_centroid`.  kmeans++ seeding filters the same way, with one
matrix-vector product per block: :class:`SqDistanceFilter` proves which rows
keep their squared distance to the centres so far, and the others go through
the recipe.  :func:`single_thread_blas` keeps the engine's workers and the
seeding threads from each starting a threaded BLAS call on the same cores.

The block kernels allocate their own scratch, sized by the block they are
given, and the seeding kernels take theirs from the caller; callers bound it
by the blocks they pass, at most ``CHUNK_ELEMS`` elements.
Nearest-centroid ties go to the lowest centroid id.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

# Scratch budget of one vectorized block, in float64 elements: the engine's
# full pass takes CHUNK_ELEMS // d rows at a time, its GEMM filter
# CHUNK_ELEMS // (k + d + 1) and the pruned scan CHUNK_ELEMS // w rows per
# step, w <= k - 1 the gap-table columns its bounds can reach.
CHUNK_ELEMS = 262144


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


# Why a row may take the filter's choice.  For a row x, centroids c_j and any
# shift s, let x' = fl(x - s), c'_j = fl(c_j - s), B = |x - s| + max_j |c_j - s|,
# u = eps / 2 and gamma_n = n*u / (1 - n*u) (Higham, Accuracy and Stability of
# Numerical Algorithms, sec. 3.1); to first order in u:
# - shift: each component of x' - c'_j is off by at most u of the shifted
#   values, so |x' - c'_j|^2 is within 3u*B^2 of the true D_j = |x - c_j|^2;
# - GEMM: g_j = |c'_j|^2 - 2 x'.c'_j equals |x' - c'_j|^2 - |x'|^2, whose last
#   term is the same for every j.  It is one (d + 1)-term inner product of
#   [x', 1] with [-2 c'_j, n_j], where the vecdot norm n_j is within
#   gamma_d |c'_j|^2 of |c'_j|^2.  In any summation order, fused or not, the
#   product is within gamma_(d+1) (2 |x'||c'_j| + n_j) (Cauchy-Schwarz on the
#   first d terms), so the computed g_j is within gamma_(2d+1) * B^2 of g_j;
# - recipe: fl(x - c_j) then vecdot puts the recipe's D^_j within
#   gamma_(d+2) * B^2 of D_j, and its rounded sqrt is monotone, so the recipe's
#   winner w has sqrt-rounded D^_w <= that of the filter's argmin a, which
#   gives D^_w <= D^_a * (1 + u)^2 / (1 - u)^2 <= D^_a + 5u*B^2.
# Together g_w - g_a <= (2*3 + 2(2d + 1) + 2(d + 2) + 5) u*B^2
# = (3d + 8.5) eps*B^2, so when w != a, w lies within the band 6(d + 3) eps*B^2
# of the minimum; the factor of over two covers the second-order terms and
# the rounding of B and of the threshold.  Gradual underflow adds at most half
# the smallest subnormal per product, 6d of them in all, which the band's
# absolute 6(d + 3) subnormals cover.  So a row with no second centroid inside
# the band has w = a.  Non-finite g (overflow) fails every comparison and
# falls to the recipe, which then decides alone.
_BAND_REL = 6 * np.finfo(np.float64).eps
_BAND_ABS = 6 * np.finfo(np.float64).smallest_subnormal


def nearest_block_into(rows, centroids):
    """Nearest-centroid ids and distances, equal bit for bit to :func:`nearest_centroid`.

    The centroids are ranked for a step of rows by one GEMM, shifted to the
    centroids' mean so far-off data keeps its precision; a step holds
    ``CHUNK_ELEMS // (k + d + 1)`` rows, so its scratch stays within
    ``CHUNK_ELEMS``.  A row takes the GEMM's argmin when no other centroid
    falls within the rounding band derived above; the other rows go through
    :func:`nearest_centroid`.  Every returned distance is the recipe's
    distance to the chosen centroid.  Returns ``(ids, dists)``.
    """
    m, d = rows.shape
    k = centroids.shape[0]
    ids = np.empty(m, dtype=np.int32)
    dists = np.empty(m, dtype=np.float64)
    if m == 0:
        return ids, dists
    shift = centroids.mean(axis=0)
    cs = centroids - shift
    # [x', 1] @ weights = -2 x'.c'_j + n_j, the filter's g for every j
    weights = np.empty((d + 1, k))
    np.multiply(cs.T, -2.0, out=weights[:d])
    weights[d] = row_sqnorms(cs)
    cmax = np.sqrt(weights[d].max())
    band_rel = (d + 3) * _BAND_REL
    band_abs = (d + 3) * _BAND_ABS
    step = max(1, CHUNK_ELEMS // (k + d + 1))
    xbuf = np.empty((min(step, m), d + 1))
    gbuf = np.empty((min(step, m), k))
    for lo in range(0, m, step):
        x = rows[lo:lo + step]
        b = x.shape[0]
        xs, g, at = xbuf[:b], gbuf[:b], np.arange(b)
        np.subtract(x, shift, out=xs[:, :d])
        xs[:, d] = 1.0
        np.matmul(xs, weights, out=g)
        best = np.argmin(g, axis=1)
        band = np.sqrt(row_sqnorms(xs[:, :d]))
        band += cmax
        np.square(band, out=band)
        band *= band_rel
        band += band_abs
        thresh = g[at, best]
        thresh += band
        g[at, best] = np.inf
        runner_up = g[at, np.argmin(g, axis=1)]
        recheck = np.flatnonzero(~(runner_up > thresh))
        if recheck.size:
            best[recheck] = nearest_centroid(x[recheck], centroids)[0]
        ids[lo:lo + b] = best
        # the recipe's distances, with xs's memory reused as a contiguous block
        near = xbuf.reshape(-1)[:b * d].reshape(b, d)
        np.take(centroids, best, axis=0, out=near, mode="clip")
        rowwise_distances(x, near, buf=near, out=dists[lo:lo + b])
    return ids, dists


# Why a row may keep its kmeans++ d2.  Let s be the first centre, c a later
# one, c' = fl(c - s), and for a row x let A = |x - s|^2, B = |x - s| + |c'|,
# u = eps / 2 and sigma the smallest subnormal.  Exactly,
#   |x - (s + c')|^2 = A - 2 x.c' + 2 s.c' + |c'|^2 = G,
# and c lies within u|c'| of s + c', so the true D = |x - c|^2 >= G - 2u*B^2.
# The filter evaluates t = fl(fl(q + fl(x.(-2 c'))) + K), where q is the
# recipe's sum fl(|fl(x - s)|^2) lowered once to fl((1 - a) q), and
# K = fl(2 fl(s.c') + (1 - a) fl(|c'|^2) - b) is one number per centre, so
# t is G less the band a(q + |c'|^2) + b.  To first order in u:
# - q is within (d + 2)u*A of A (Higham, sec. 3.1), and its lowering adds 2u;
# - a dot product is within gamma_d of the sum of its absolute terms in any
#   order, fused or not; |x| <= |x - s| + |s| bounds the cross terms through
#   q, so x.(-2 c') adds d*u(B^2 + 2|s||c'|), and K, with its own two sums,
#   (2d + 4)u|s||c'| + (d + 3)u*B^2;
# - t's two sums round by at most u(A + 2|x||c'|) + u*B^2 <= 2u(B^2 + |s||c'|);
# - the recipe's D^ = fl(fl(sqrt(fl(|fl(x - c)|^2)))^2) is at least
#   D - (d + 5)u*B^2 (D <= B^2, up to second order).
# Together t - D^ <= (4d + 16) u*B^2 + (4d + 6) u|s||c'| - a(q + |c'|^2) - b,
# and B^2 <= 2(q + |c'|^2) to first order, so a = 12(d + 3) eps and
# b = 6(d + 3) eps |s||c'| + 6(d + 3) sigma make t <= D^ with a factor of
# over two for the second-order terms and the rounding of a, b and |s||c'|.
# Gradual underflow adds at most sigma / 2 per product and per rounded
# product, (2d + 1.5) sigma in all, inside b's absolute part.  So a row
# with d2 <= t has D^ >= d2, and np.minimum leaves its d2 as it is.  An
# overflow anywhere makes t infinite or NaN, and such a row goes through the
# recipe.


def _lowering(d: int) -> float:
    # 1 - a, the factor that lowers the first pass's sums by the relative band
    return 1.0 - 2 * (d + 3) * _BAND_REL


def seed_sq_distances(rows, shift, q, d2, buf) -> None:
    """kmeans++'s first pass: ``d2`` gets the recipe's squared distances from
    ``rows`` to ``shift`` (``rowwise_distances`` squared), and ``q`` their
    sums before the sqrt, lowered by the filter's relative band as
    :class:`SqDistanceFilter` reads them.  ``buf`` is a scratch block of the
    rows' shape."""
    _sq_rowwise(rows, shift, buf=buf, out=q)
    np.sqrt(q, out=d2)
    np.square(d2, out=d2)
    q *= _lowering(rows.shape[1])


class SqDistanceFilter:
    """Squared distances to one later kmeans++ centre, lowered into d2.

    Built from the centre and the first centre ``shift`` whose lowered sums
    :func:`seed_sq_distances` kept.  A call does what
    ``np.minimum(d2, rowwise_distances(rows, centre) ** 2, out=d2)`` does, bit
    for bit, but ranks the rows by one matrix-vector product first: a row
    whose t (derived above) is at least its d2 is proven to keep it, and only
    the other rows go through :func:`rowwise_distances`.
    """

    def __init__(self, centre: np.ndarray, shift: np.ndarray):
        d = centre.size
        cs = centre - shift
        cn2 = float(row_sqnorms(cs))
        cross = float(np.sqrt(row_sqnorms(shift))) * np.sqrt(cn2)
        self.centre = centre
        self.weights = -2.0 * cs
        self.offset = (2.0 * float(shift @ cs) + _lowering(d) * cn2
                       - (d + 3) * (_BAND_REL * cross + _BAND_ABS))

    def __call__(self, rows, q, d2, buf, tbuf) -> None:
        """Lower ``d2`` for ``rows``, given their lowered sums ``q``;
        ``buf`` is a scratch block of the rows' shape, ``tbuf`` one of their
        count."""
        t = np.matmul(rows, self.weights, out=tbuf)
        t += q
        t += self.offset
        keep = t >= d2
        keep &= t < np.inf
        recheck = np.flatnonzero(~keep)
        if recheck.size:
            near = np.take(rows, recheck, axis=0, out=buf[:recheck.size], mode="clip")
            sq = rowwise_distances(near, self.centre, buf=near, out=t[:recheck.size])
            np.square(sq, out=sq)
            d2[recheck] = np.minimum(d2[recheck], sq)


@functools.cache
def _blas_threads():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextmanager
def single_thread_blas():
    """Run the block with numpy's OpenBLAS at one thread, then restore its count.

    Each engine worker makes its own GEMM calls, so a threaded BLAS under
    them would oversubscribe the cores.  The count is process-wide: runs
    that overlap in one process restore it in the order they finish.
    Without the bundled library's thread calls this does nothing.
    """
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
