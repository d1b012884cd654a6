"""Dense row-major matrices: binary storage, synthetic generators, row partitioning.

The on-disk format is little-endian float64, row-major.  Files either carry a
fixed 28-byte header (magic ``KNRM``, version, n, d, dtype code) or are raw
headerless payloads whose shape must be supplied by the caller.  The raw
layout is the one the out-of-core engine streams from disk.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAGIC = b"KNRM"
FORMAT_VERSION = 1
DTYPE_F64 = 0
_HEADER_FMT = "<4sIQQI"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 28 bytes

ROW_DTYPE = np.dtype("<f8")


class MatrixFormatError(ValueError):
    """Malformed matrix file: bad magic, bad length, or non-finite payload."""


class MatrixIOError(OSError):
    """I/O failure while reading or writing a matrix file."""


def check_matrix(m: np.ndarray) -> np.ndarray:
    """Validate and normalize a row matrix to C-contiguous float64.

    Requires a 2-D array with n >= 1, d >= 1 and all elements finite.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise MatrixFormatError(f"expected a 2-D matrix, got ndim={m.ndim}")
    n, d = m.shape
    if n < 1 or d < 1:
        raise MatrixFormatError(f"matrix must be at least 1x1, got {n}x{d}")
    if not np.isfinite(m).all():
        bad = int(np.flatnonzero(~np.isfinite(m).all(axis=1))[0])
        raise MatrixFormatError(f"non-finite value in row {bad}")
    return m


def save_matrix(m: np.ndarray, path, raw: bool = False) -> None:
    """Write a matrix to ``path``.

    With ``raw=False`` a 28-byte header precedes the payload; with
    ``raw=True`` only the little-endian row-major float64 payload is written.
    """
    m = check_matrix(m)
    n, d = m.shape
    written = 0
    try:
        with open(path, "wb") as fh:
            if not raw:
                fh.write(struct.pack(_HEADER_FMT, MAGIC, FORMAT_VERSION, n, d, DTYPE_F64))
                written += HEADER_SIZE
            fh.write(m.astype(ROW_DTYPE, copy=False).tobytes())
            written += n * d * 8
    except OSError as exc:
        raise MatrixIOError(f"write failed for {path} at byte offset {written}: {exc}") from exc


def parse_header(path, blob: bytes) -> tuple[int, int]:
    """(n, d) from the leading bytes of a header-carrying matrix file."""
    if len(blob) < HEADER_SIZE:
        raise MatrixFormatError(
            f"{path}: file too short for header (expected >= {HEADER_SIZE} bytes, got {len(blob)})"
        )
    magic, version, n, d, dtype_code = struct.unpack(_HEADER_FMT, blob[:HEADER_SIZE])
    if magic != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise MatrixFormatError(f"{path}: unsupported format version {version}")
    if dtype_code != DTYPE_F64:
        raise MatrixFormatError(f"{path}: unknown dtype code {dtype_code}")
    return int(n), int(d)


def load_matrix(path, raw: bool = False, n: int | None = None, d: int | None = None) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`.

    Raw files carry no shape, so ``n`` and ``d`` are required for them.  The
    file length must match the expected payload exactly.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise MatrixIOError(f"read failed for {path}: {exc}") from exc

    if raw:
        if n is None or d is None:
            raise MatrixFormatError("raw files carry no shape; pass n and d explicitly")
        payload = blob
    else:
        n, d = parse_header(path, blob)
        payload = blob[HEADER_SIZE:]

    expected = n * d * 8
    if len(payload) != expected:
        raise MatrixFormatError(
            f"{path}: payload length mismatch, expected {expected} bytes for {n}x{d}, got {len(payload)}"
        )
    values = np.frombuffer(payload, dtype=ROW_DTYPE).astype(np.float64).reshape(n, d)
    return check_matrix(values)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic dataset.

    ``family`` is "gaussian-mixture" or "uniform".  The seed fully determines
    the output.  For the gaussian family, ``k_true`` generative centers are
    placed with pairwise distance >= ``separation``, points get isotropic
    unit-variance noise and are assigned to centers round-robin.
    """

    family: str
    n: int
    d: int
    seed: int
    k_true: int = 1
    separation: float = 10.0

    def __post_init__(self):
        if self.family not in ("gaussian-mixture", "uniform"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if self.family == "gaussian-mixture" and self.k_true < 1:
            raise ValueError("k_true must be >= 1 for gaussian-mixture")


def _place_centers(rng, k, d, separation):
    # Lattice cells jittered by at most separation/4 per coordinate keep the
    # pairwise-distance guarantee: spacing - 2*(separation/4)*sqrt(d) >= separation.
    side = max(2, math.ceil(k ** (1.0 / d)))
    spacing = separation * (1.0 + math.sqrt(d) / 2.0)
    cells = set()
    coords = []
    while len(coords) < k:
        cand = tuple(int(v) for v in rng.integers(0, side, size=d))
        if cand not in cells:
            cells.add(cand)
            coords.append(cand)
    centers = np.asarray(coords, dtype=np.float64) * spacing
    centers += rng.uniform(0.0, separation / 4.0, size=(k, d))
    return centers


def gen_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """Generate the dataset described by ``spec``; pure function of the spec."""
    rng = np.random.default_rng(spec.seed)
    if spec.family == "uniform":
        return rng.random((spec.n, spec.d))
    centers = _place_centers(rng, spec.k_true, spec.d, spec.separation)
    labels = np.arange(spec.n) % spec.k_true
    points = centers[labels] + rng.standard_normal((spec.n, spec.d))
    return np.ascontiguousarray(points)


def generative_centers(spec: SyntheticSpec) -> np.ndarray:
    """The gaussian-mixture centers that :func:`gen_synthetic` would use."""
    if spec.family != "gaussian-mixture":
        raise ValueError("generative_centers applies to gaussian-mixture specs only")
    rng = np.random.default_rng(spec.seed)
    return _place_centers(rng, spec.k_true, spec.d, spec.separation)


class RowRange(NamedTuple):
    start: int
    stop: int
    node: int

    def __len__(self):
        return self.stop - self.start


def worker_nodes(T: int, N: int) -> list[int]:
    """Map worker ids to nodes in contiguous blocks of T/N, remainder to low nodes."""
    if T < 1 or N < 1:
        raise ValueError("T and N must be >= 1")
    if T < N:
        raise ValueError(f"need at least one worker per node (T={T} < N={N})")
    base, rem = divmod(T, N)
    out = []
    for node in range(N):
        out.extend([node] * (base + (1 if node < rem else 0)))
    return out


def partition_rows(n: int, T: int, N: int) -> list[RowRange]:
    """Split [0, n) into T contiguous ranges with sizes differing by at most 1.

    Remainder rows go to the lowest-index workers; ranges map to nodes in
    blocks of T/N workers.  T > n is allowed and yields empty ranges.
    """
    if T < 1 or N < 1:
        raise ValueError("T and N must be >= 1")
    nodes = worker_nodes(T, N)
    base, rem = divmod(n, T)
    ranges = []
    start = 0
    for w in range(T):
        size = base + (1 if w < rem else 0)
        ranges.append(RowRange(start, start + size, nodes[w]))
        start += size
    assert start == n
    return ranges
