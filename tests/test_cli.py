import numpy as np
import pytest

from numakmeans.cli import _engine_config, build_parser, main
from numakmeans.engine import EngineConfig
from numakmeans.matrix import load_matrix, save_matrix
from numakmeans.report import deterministic_view, parse_report


def run_cli(argv):
    return main(argv)


def test_gen_uniform_file_size(tmp_path):
    out = tmp_path / "u.knrm"
    assert run_cli(["gen", str(out), "--family", "uniform", "--n", "1000",
                    "--d", "8", "--seed", "1"]) == 0
    assert out.stat().st_size == 64028  # 28-byte header + 8*8000 payload


def test_gen_gaussian_deterministic(tmp_path):
    a, b = tmp_path / "a.knrm", tmp_path / "b.knrm"
    args = ["--family", "gaussian", "--n", "500", "--d", "4",
            "--k-true", "8", "--seed", "3"]
    assert run_cli(["gen", str(a)] + args) == 0
    assert run_cli(["gen", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_zero_n(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", str(tmp_path / "x"), "--family", "uniform",
                 "--n", "0", "--d", "2"])
    assert exc.value.code == 2  # argparse usage error


def test_gen_gaussian_requires_k_true(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["gen", str(tmp_path / "x"), "--family", "gaussian",
                 "--n", "10", "--d", "2"])


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data.knrm"
    run_cli(["gen", str(out), "--family", "gaussian", "--n", "2000", "--d", "8",
             "--k-true", "4", "--separation", "8", "--seed", "11"])
    return out


def test_info_matches_gen(dataset, capsys):
    assert run_cli(["info", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "n 2000" in out
    assert "d 8" in out
    assert "dtype float64-le" in out


def test_info_truncated_file_fails(tmp_path, dataset, capsys):
    clipped = tmp_path / "clipped.knrm"
    clipped.write_bytes(dataset.read_bytes()[:-7])
    assert run_cli(["info", str(clipped)]) == 1
    assert "error" in capsys.readouterr().err


def test_info_raw_needs_dims(tmp_path):
    raw = tmp_path / "r.raw"
    raw.write_bytes(b"\x00" * 64)
    with pytest.raises(SystemExit):
        run_cli(["info", str(raw), "--raw"])


def train(dataset, tmp_path, name, *extra):
    report = tmp_path / f"{name}.report"
    rc = run_cli(["train", "--data", str(dataset), "--k", "4", "--seed", "5",
                  "-T", "2", "--max-iters", "40", "--report", str(report), *extra])
    assert rc == 0
    return report.read_text()


def test_prune_toggle_same_sequence_fewer_distances(dataset, tmp_path):
    pruned = parse_report(train(dataset, tmp_path, "p", "--prune"))
    plain = parse_report(train(dataset, tmp_path, "np", "--no-prune"))
    seq_p = [it["reassign"] for it in pruned["iterations"]]
    seq_n = [it["reassign"] for it in plain["iterations"]]
    assert seq_p == seq_n
    for it_p, it_n in zip(pruned["iterations"][1:], plain["iterations"][1:]):
        assert it_p["dists"] < it_n["dists"]


def test_sem_unpruned_uncached_requests_everything(dataset, tmp_path):
    text = train(dataset, tmp_path, "sem2", "--mode", "sem", "--no-prune", "--no-cache")
    rep = parse_report(text)
    for it in rep["iterations"]:
        assert it["bytes_req"] == 8 * 8 * 2000


def test_train_k_exceeding_n_fails_cleanly(tmp_path, dataset, capsys):
    rc = run_cli(["train", "--data", str(dataset), "--k", "3000"])
    assert rc == 1
    assert "k <= n" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_train_on_overflowing_data_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "big.knrm"
    save_matrix(np.random.default_rng(9).choice([-1e305, 1e305], size=(400, 4)), data)
    rc = run_cli(["train", "--data", str(data), "--k", "3", "--init", "forgy"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err


def test_train_defaults_are_the_engine_config_defaults():
    args = build_parser().parse_args(["train", "--data", "x", "--k", "3"])
    assert _engine_config(args) == EngineConfig(k=3)


def test_init_centroids_without_init_given_fail_cleanly(tmp_path, dataset, capsys):
    centres = tmp_path / "c.knrm"
    save_matrix(load_matrix(dataset)[:4], centres)
    rc = run_cli(["train", "--data", str(dataset), "--k", "4",
                  "--init-centroids", str(centres)])
    assert rc == 1
    assert "error: initial_centroids must be set exactly when init is 'given'" \
        in capsys.readouterr().err


def test_cache_flag_rejected_in_memory_mode(dataset):
    with pytest.raises(SystemExit):
        run_cli(["train", "--data", str(dataset), "--k", "4", "--mode", "im", "--cache"])


def test_report_is_deterministic_modulo_timing(dataset, tmp_path):
    a = train(dataset, tmp_path, "d1", "--mode", "sem")
    b = train(dataset, tmp_path, "d2", "--mode", "sem")
    assert deterministic_view(a) == deterministic_view(b)
    c = train(dataset, tmp_path, "d3", "--scheduler", "fifo", "-T", "4")
    d = train(dataset, tmp_path, "d4", "--scheduler", "fifo", "-T", "4")
    assert deterministic_view(c) == deterministic_view(d)


def test_report_totals_are_column_sums(dataset, tmp_path):
    rep = parse_report(train(dataset, tmp_path, "tot", "--mode", "sem"))
    iters = rep["iterations"]
    totals = rep["totals"]
    assert totals["iters"] == len(iters)
    for col in ("reassign", "dists", "skips", "pruned_stale", "pruned_tight",
                "bytes_req", "bytes_read", "cache_hits", "cache_misses",
                "rows_elided", "taken_local", "stolen_same", "stolen_remote"):
        assert totals[col] == sum(it[col] for it in iters), col


def test_saved_outputs_roundtrip(dataset, tmp_path):
    cpath = tmp_path / "c.knrm"
    apath = tmp_path / "a.knrm"
    rc = run_cli(["train", "--data", str(dataset), "--k", "4", "--seed", "5",
                  "--report", str(tmp_path / "r"), "--save-centroids", str(cpath),
                  "--save-assignments", str(apath)])
    assert rc == 0
    centroids = load_matrix(cpath)
    assert centroids.shape == (4, 8)
    assigns = load_matrix(apath)
    assert assigns.shape == (2000, 1)
    assert set(np.unique(assigns)) <= {0.0, 1.0, 2.0, 3.0}


def test_train_raw_roundtrip(tmp_path):
    raw = tmp_path / "r.raw"
    run_cli(["gen", str(raw), "--family", "uniform", "--n", "300", "--d", "4",
             "--seed", "2", "--raw"])
    report = tmp_path / "rep"
    rc = run_cli(["train", "--data", str(raw), "--raw", "--n", "300", "--d", "4",
                  "--k", "3", "--mode", "sem", "--report", str(report)])
    assert rc == 0
    rep = parse_report(report.read_text())
    assert rep["config"]["mode"] == "sem"
    assert set(rep["config"]) == {
        "data", "k", "mode", "pruning", "cache", "scheduler", "T", "N", "task_size",
        "max_iters", "init", "seed", "tolerance", "page_size", "cache_capacity",
        "refresh_start",
    }
    assert rep["iterations"]


def test_train_raw_without_dims_fails(tmp_path):
    raw = tmp_path / "r.raw"
    run_cli(["gen", str(raw), "--family", "uniform", "--n", "300", "--d", "4",
             "--seed", "2", "--raw"])
    with pytest.raises(SystemExit):
        run_cli(["train", "--data", str(raw), "--raw", "--k", "3"])
