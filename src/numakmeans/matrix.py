"""Dense row-major matrices: binary storage, synthetic generators, row partitioning.

The on-disk format is little-endian float64, row-major.  Files either carry a
fixed 28-byte header (magic ``KNRM``, version, n, d, dtype code) or are raw
headerless payloads whose shape must be supplied by the caller.  This module
is the only one that knows the layout: :class:`RowStore` is the one reader,
which checks the shape and the payload length and reads pages by position
for the out-of-core engine, and :func:`load_matrix` reads the payload once
through it into the array it returns.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"KNRM"
FORMAT_VERSION = 1
DTYPE_F64 = 0
_HEADER_FMT = "<4sIQQI"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 28 bytes

ROW_DTYPE = np.dtype("<f8")
DEFAULT_PAGE_SIZE = 4096


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
    return check_finite(m, range(n))


def check_finite(rows: np.ndarray, ids) -> np.ndarray:
    """``rows``, unless one holds a non-finite value: then the error names the
    first such row's id, ``ids[i]`` for row i."""
    if not np.isfinite(rows).all():
        bad = int(ids[int(np.argmin(np.isfinite(rows).all(axis=1)))])
        raise MatrixFormatError(f"non-finite value in row {bad}")
    return rows


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

    The file is opened as a :class:`RowStore`, which checks the shape and the
    payload length; the payload is then read once, straight into the array
    that is returned.
    """
    try:
        with RowStore.open(path, raw=raw, n=n, d=d) as store, open(store.path, "rb") as fh:
            m = np.empty((store.n, store.d), dtype=ROW_DTYPE)
            fh.seek(store.payload_offset)
            got = fh.readinto(m)
    except OSError as exc:
        raise MatrixIOError(f"read failed for {path}: {exc}") from exc
    if got != m.nbytes:
        raise MatrixFormatError(f"{path}: short read (wanted {m.nbytes} bytes, got {got})")
    return check_matrix(m)


class RowStore:
    """Matrix file read through positional I/O: the one reader of the layout.

    ``payload_offset`` lets a header-carrying file be streamed as well; page
    arithmetic is always relative to the payload.  Safe for concurrent
    readers: reads use pread on a shared descriptor.
    """

    def __init__(self, path, n: int, d: int, page_size: int = DEFAULT_PAGE_SIZE,
                 payload_offset: int = 0):
        if n < 1 or d < 1:
            raise MatrixFormatError(f"matrix must be at least 1x1, got {n}x{d}")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.path = str(path)
        self.n = n
        self.d = d
        self.page_size = page_size
        self.payload_offset = payload_offset
        self.row_bytes = 8 * d
        self.payload_bytes = n * self.row_bytes
        self.file_bytes = os.path.getsize(path)
        if self.file_bytes != payload_offset + self.payload_bytes:
            raise MatrixFormatError(
                f"{path}: payload length mismatch, expected {self.payload_bytes} bytes "
                f"for {n}x{d}, got {self.file_bytes - payload_offset}"
            )
        self._fd = os.open(self.path, os.O_RDONLY)

    @classmethod
    def open(cls, path, raw: bool = False, n: int | None = None, d: int | None = None,
             page_size: int = DEFAULT_PAGE_SIZE) -> "RowStore":
        """Open a matrix file for streaming; header files supply their own shape."""
        if raw:
            if n is None or d is None:
                raise MatrixFormatError("raw files carry no shape; pass n and d explicitly")
            return cls(path, n, d, page_size=page_size)
        with open(path, "rb") as fh:
            n, d = parse_header(path, fh.read(HEADER_SIZE))
        return cls(path, n, d, page_size=page_size, payload_offset=HEADER_SIZE)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _pread_into(self, offset: int, view: memoryview) -> int:
        # Single override point so tests can shim in byte-level counting.
        return os.preadv(self._fd, [view], offset)

    def read_pages(self, first_page: int, n_pages: int, out: np.ndarray | None = None) -> np.ndarray:
        """Raw bytes of a contiguous page run, truncated at end of payload, as a
        uint8 array: the start of ``out``, a uint8 array at least that long,
        or a new array.  They are read in place, in as many preads as it takes
        (Linux returns at most 0x7ffff000 bytes per call); only a pread that
        returns nothing is a short read."""
        start = first_page * self.page_size
        end = min((first_page + n_pages) * self.page_size, self.payload_bytes)
        if out is None:
            out = np.empty(end - start, dtype=np.uint8)
        elif out.size < end - start:
            raise ValueError(f"buffer of {out.size} bytes cannot hold {end - start}")
        buf = out[:end - start]
        view = memoryview(buf)
        got = 0
        while got < buf.size:
            part = self._pread_into(self.payload_offset + start + got, view[got:])
            if not part:
                raise MatrixFormatError(
                    f"{self.path}: short read at page {first_page} "
                    f"(wanted {end - start} bytes, got {got})"
                )
            got += part
        return buf


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


def partition_rows(n: int, T: int) -> list[range]:
    """Split [0, n) into T contiguous ranges with sizes differing by at most 1.

    Remainder rows go to the lowest-index workers.  T > n is allowed and
    yields empty ranges.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    base, rem = divmod(n, T)
    ranges = []
    start = 0
    for w in range(T):
        size = base + (1 if w < rem else 0)
        ranges.append(range(start, start + size))
        start += size
    assert start == n
    return ranges
