import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numakmeans.matrix import (
    HEADER_SIZE,
    MatrixFormatError,
    MatrixIOError,
    SyntheticSpec,
    gen_synthetic,
    load_matrix,
    parse_header,
    partition_rows,
    save_matrix,
)

from conftest import naive_distance, naive_lloyd
from helpers import generative_centers


def test_save_raw_is_plain_little_endian(tmp_path):
    path = tmp_path / "m.raw"
    save_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), path, raw=True)
    blob = path.read_bytes()
    assert len(blob) == 32
    assert struct.unpack("<4d", blob) == (1.0, 2.0, 3.0, 4.0)


def test_save_header_prepends_28_bytes(tmp_path):
    path = tmp_path / "m.knrm"
    save_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), path)
    blob = path.read_bytes()
    assert len(blob) == HEADER_SIZE + 32
    magic, version, n, d, dtype_code = struct.unpack("<4sIQQI", blob[:HEADER_SIZE])
    assert magic == b"KNRM"
    assert version == 1
    assert (n, d, dtype_code) == (2, 2, 0)
    assert blob[HEADER_SIZE:] == struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("raw", [False, True])
def test_roundtrip_bit_identical(tmp_path, raw):
    m = gen_synthetic(SyntheticSpec("gaussian-mixture", 1000, 8, seed=11, k_true=4))
    path = tmp_path / "m.bin"
    save_matrix(m, path, raw=raw)
    back = load_matrix(path, raw=raw, n=1000 if raw else None, d=8 if raw else None)
    assert back.tobytes() == m.tobytes()
    assert back.dtype == np.float64
    assert back.flags.c_contiguous and back.flags.writeable


@pytest.mark.parametrize("raw", [False, True])
def test_load_holds_one_copy_of_the_payload(tmp_path, raw):
    m = gen_synthetic(SyntheticSpec("uniform", 20000, 16, seed=3))
    path = tmp_path / "m.bin"
    save_matrix(m, path, raw=raw)
    tracemalloc.start()
    try:
        back = load_matrix(path, raw=raw, n=20000 if raw else None, d=16 if raw else None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.tobytes() == m.tobytes()
    assert peak <= 1.25 * m.nbytes


@pytest.mark.parametrize("raw", [False, True])
def test_load_missing_path_names_it(tmp_path, raw):
    path = tmp_path / "absent.bin"
    with pytest.raises(MatrixIOError, match="absent.bin"):
        load_matrix(path, raw=raw, n=2, d=2)


@pytest.mark.parametrize("raw", [False, True])
def test_load_raw_length_mismatch(tmp_path, raw):
    path = tmp_path / "bad.bin"
    save_matrix(np.zeros((2, 2)), path, raw=raw)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(MatrixFormatError, match="32"):
        load_matrix(path, raw=raw, n=2, d=2)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.knrm"
    save_matrix(np.ones((2, 2)), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(MatrixFormatError, match="magic"):
        load_matrix(path)


@pytest.mark.parametrize("blob,message", [
    (struct.pack("<4sIQQI", b"KNRM", 1, 2, 2, 0)[:27],
     "file too short for header (expected >= 28 bytes, got 27)"),
    (struct.pack("<4sIQQI", b"KNRM", 2, 2, 2, 0), "unsupported format version 2"),
    (struct.pack("<4sIQQI", b"KNRM", 1, 2, 2, 1), "unknown dtype code 1"),
])
def test_parse_header_rejects_short_version_and_dtype(blob, message):
    with pytest.raises(MatrixFormatError) as excinfo:
        parse_header("m.knrm", blob)
    assert str(excinfo.value) == f"m.knrm: {message}"


def test_load_detects_non_finite_with_row(tmp_path):
    path = tmp_path / "nan.raw"
    values = np.array([[1.0, 2.0], [np.nan, 4.0], [5.0, 6.0]])
    path.write_bytes(values.astype("<f8").tobytes())
    with pytest.raises(MatrixFormatError, match="row 1"):
        load_matrix(path, raw=True, n=3, d=2)


def test_load_raw_requires_shape(tmp_path):
    path = tmp_path / "m.raw"
    path.write_bytes(b"\x00" * 32)
    with pytest.raises(MatrixFormatError, match="n and d"):
        load_matrix(path, raw=True)


def test_save_failure_reports_path(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "m.raw"
    with pytest.raises(OSError, match="no/such"):
        save_matrix(np.ones((2, 2)), target, raw=True)


def test_uniform_deterministic():
    spec = SyntheticSpec("uniform", 4, 1, seed=7)
    a = gen_synthetic(spec)
    b = gen_synthetic(spec)
    assert np.array_equal(a, b)
    assert ((a >= 0) & (a < 1)).all()


def test_gaussian_recovery_by_naive_lloyd():
    spec = SyntheticSpec("gaussian-mixture", 1000, 2, seed=5, k_true=2, separation=100.0)
    m = gen_synthetic(spec)
    centers = generative_centers(spec)
    # Points 0 and 1 belong to different generative clusters (round-robin).
    means, assign, _ = naive_lloyd(m, m[:2], max_iters=50)
    sizes = np.bincount(assign, minlength=2)
    assert abs(int(sizes[0]) - 500) <= 50
    # Match recovered means to generative centers by proximity.
    for j in range(2):
        errs = [np.max(np.abs(means[j] - c)) for c in centers]
        assert min(errs) < 0.5


def test_gaussian_single_cluster_mean_within_standard_error():
    hits = 0
    checks = 0
    for seed in range(100):
        spec = SyntheticSpec("gaussian-mixture", 10, 3, seed=seed, k_true=1)
        m = gen_synthetic(spec)
        center = generative_centers(spec)[0]
        err = np.abs(m.mean(axis=0) - center)
        hits += int((err < 3.0 / np.sqrt(10)).sum())
        checks += 3
    # per-coordinate 3-sigma bound holds ~99.7% of the time
    assert hits / checks >= 0.95


@given(
    k=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=40),
    sep=st.floats(min_value=0.5, max_value=200.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_gaussian_centers_respect_separation(k, d, sep, seed):
    spec = SyntheticSpec("gaussian-mixture", 1, d, seed=seed, k_true=k, separation=sep)
    centers = generative_centers(spec)
    for a in range(k):
        for b in range(a + 1, k):
            assert naive_distance(centers[a], centers[b]) >= sep * (1 - 1e-12)


def test_partition_even_split():
    assert partition_rows(10, 2) == [range(0, 5), range(5, 10)]


def test_partition_remainder():
    assert partition_rows(10, 4) == [range(0, 3), range(3, 6), range(6, 8), range(8, 10)]


def test_partition_more_threads_than_rows():
    parts = partition_rows(3, 4)
    assert [len(p) for p in parts] == [1, 1, 1, 0]


@pytest.mark.parametrize("family, n, d, k_true, message", [
    ("cubes", 10, 2, 1, "unknown family 'cubes'"),
    ("uniform", 0, 2, 1, "n and d must be >= 1"),
    ("uniform", 10, 0, 1, "n and d must be >= 1"),
    ("gaussian-mixture", 10, 2, 0, "k_true must be >= 1 for gaussian-mixture"),
])
def test_synthetic_spec_rejects_its_fields(family, n, d, k_true, message):
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(family, n, d, seed=1, k_true=k_true)


def test_partition_rejects_zero():
    with pytest.raises(ValueError):
        partition_rows(10, 0)


@given(
    n=st.integers(min_value=0, max_value=5000),
    T=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=200, deadline=None)
def test_partition_properties(n, T):
    parts = partition_rows(n, T)
    assert len(parts) == T
    cursor = 0
    sizes = []
    for p in parts:
        assert p.start == cursor
        assert p.stop >= p.start
        cursor = p.stop
        sizes.append(len(p))
    assert cursor == n
    assert max(sizes) - min(sizes) <= 1
