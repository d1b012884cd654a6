"""Smoke test of the benchmark at tiny n.

Checks that every metric declared in BENCHMARK.json is emitted with its unit
by each workload, that the three workloads agree on the assignment digest,
and that the correctness gate fails when one assignment is corrupted.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
from numakmeans import load_matrix  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    DigestBook,
    Scale,
    check_result,
    prepare_dataset,
    run_once,
)

TINY = Scale(n=3000, d=4, k_true=4, k=8, max_iters=10)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace, kind):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name in WORKLOADS:
        out = run.run_benchmark(name, seed=5, seconds=0, trace=trace, scale=TINY,
                                state_dir=tmp_path)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
        assert all(math.isfinite(v["value"]) for v in out["metrics"].values())
    # one digest per seed, recorded by all three workloads
    (entry,) = json.loads((tmp_path / "digests.json").read_text()).values()
    assert sorted(entry) == sorted(WORKLOADS)
    assert len(set(entry.values())) == 1


def test_gate_fails_on_one_corrupted_assignment(tmp_path):
    ds = prepare_dataset(TINY, 5, tmp_path)
    rec = run_once(WORKLOADS["im-prune-k64"], TINY, 5, ds)
    gate = run.Gate(load_matrix(ds.knrm))
    gate.check("clean", rec)
    assert (gate.attempted, gate.failed) == (1, 0)
    a = rec.result.assignments
    a[17] = (a[17] + 1) % TINY.k
    assert check_result(rec.result, gate.data)
    gate.check("corrupted", rec)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_digest_book_reports_a_workload_that_disagrees(tmp_path):
    book = DigestBook(tmp_path / "digests.json", "code")
    assert book.check(TINY, 1, "im-prune-k64", "aaaa") == []
    assert book.check(TINY, 1, "im-full-k64", "aaaa") == []
    assert book.check(TINY, 2, "sem-cache-k64", "bbbb") == []
    assert book.check(TINY, 1, "sem-cache-k64", "bbbb")
