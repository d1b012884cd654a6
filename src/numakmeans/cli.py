"""Command-line harness: dataset generation, training, and file inspection."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .centroids import INIT_METHODS
from .engine import MODES, EngineConfig, kmeans
from .matrix import (
    DEFAULT_PAGE_SIZE,
    RowStore,
    SyntheticSpec,
    gen_synthetic,
    load_matrix,
    save_matrix,
)
from .outofcore import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_REFRESH_START,
    CacheSchedule,
    fetch_rows,
    kmeans_ondisk,
)
from .report import format_report
from .scheduler import POLICIES


def _positive(value: str) -> int:
    iv = int(value)
    if iv < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return iv


def _nonneg(value: str) -> int:
    iv = int(value)
    if iv < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return iv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numakmeans",
        description="Parallel k-means with triangle-inequality pruning, "
                    "NUMA-aware scheduling, and out-of-core execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset file")
    gen.add_argument("out", help="output matrix file")
    gen.add_argument("--family", choices=("uniform", "gaussian"), required=True)
    gen.add_argument("--n", type=_positive, required=True)
    gen.add_argument("--d", type=_positive, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--k-true", type=_positive, default=None,
                     help="generative clusters (gaussian only)")
    gen.add_argument("--separation", type=float, default=10.0,
                     help="minimum pairwise distance between generative centers")
    gen.add_argument("--raw", action="store_true", help="write headerless payload")

    info = sub.add_parser("info", help="describe a matrix file")
    info.add_argument("data")
    info.add_argument("--raw", action="store_true")
    info.add_argument("--n", type=_positive, default=None)
    info.add_argument("--d", type=_positive, default=None)

    train = sub.add_parser("train", help="run k-means and emit a report")
    train.add_argument("--data", required=True)
    train.add_argument("--k", type=_positive, required=True)
    train.add_argument("--mode", choices=MODES, default=EngineConfig.mode)
    train.add_argument("--prune", dest="pruning", action=argparse.BooleanOptionalAction,
                       default=EngineConfig.pruning)
    train.add_argument("--cache", action=argparse.BooleanOptionalAction, default=None,
                       help="row cache (sem mode only, default on)")
    train.add_argument("--scheduler", choices=POLICIES, default=EngineConfig.scheduler)
    train.add_argument("-T", "--threads", dest="T", type=_positive, default=EngineConfig.T)
    train.add_argument("-N", "--nodes", dest="N", type=_nonneg, default=EngineConfig.N,
                       help="NUMA nodes (0 = detect)")
    train.add_argument("--task-size", type=_positive, default=EngineConfig.task_size)
    train.add_argument("--max-iters", type=_positive, default=EngineConfig.max_iters)
    train.add_argument("--init", choices=INIT_METHODS, default=EngineConfig.init)
    train.add_argument("--init-centroids", default=None,
                       help="matrix file with k x d starting centroids (init=given)")
    train.add_argument("--seed", type=int, default=EngineConfig.seed)
    train.add_argument("--tolerance", type=_nonneg, default=EngineConfig.tolerance)
    train.add_argument("--raw", action="store_true", help="data file is headerless")
    train.add_argument("--n", type=_positive, default=None, help="rows (raw files)")
    train.add_argument("--d", type=_positive, default=None, help="columns (raw files)")
    train.add_argument("--page-size", type=_positive, default=DEFAULT_PAGE_SIZE)
    train.add_argument("--cache-capacity", type=_nonneg, default=DEFAULT_CACHE_BYTES,
                       help="row cache capacity in bytes")
    train.add_argument("--refresh-start", type=_positive, default=DEFAULT_REFRESH_START,
                       help="first cache refresh iteration; gaps double afterwards")
    train.add_argument("--report", default=None, help="write the report here instead of stdout")
    train.add_argument("--save-centroids", default=None, help="write final centroids as a matrix file")
    train.add_argument("--save-assignments", default=None,
                       help="write assignments as an n x 1 matrix file")
    return parser


def _cmd_gen(args) -> int:
    if args.family == "gaussian":
        if args.k_true is None:
            raise SystemExit("gen: --k-true is required for the gaussian family")
        spec = SyntheticSpec("gaussian-mixture", args.n, args.d, args.seed,
                             k_true=args.k_true, separation=args.separation)
    else:
        spec = SyntheticSpec("uniform", args.n, args.d, args.seed)
    m = gen_synthetic(spec)
    save_matrix(m, args.out, raw=args.raw)
    print(f"wrote {args.out}: {spec.family} n={args.n} d={args.d} seed={args.seed} "
          f"bytes={os.path.getsize(args.out)}")
    return 0


def _open_store(args) -> RowStore:
    return RowStore.open(args.data, raw=args.raw, n=args.n, d=args.d,
                         page_size=getattr(args, "page_size", DEFAULT_PAGE_SIZE))


def _cmd_info(args) -> int:
    with _open_store(args) as store:
        sample_n = min(store.n, 1024)
        sample = fetch_rows(store, np.arange(sample_n, dtype=np.int64))
        print(f"path {store.path}")
        print(f"n {store.n}")
        print(f"d {store.d}")
        print("dtype float64-le")
        print(f"payload_bytes {store.payload_bytes}")
        print(f"file_bytes {store.file_bytes}")
        print(f"sample_rows {sample_n}")
        print(f"sample_min {float(sample.min())!r}")
        print(f"sample_max {float(sample.max())!r}")
    return 0


def _engine_config(args) -> EngineConfig:
    """The run's config: every field but the centroids is the flag of that name."""
    initial = None if args.init_centroids is None else load_matrix(args.init_centroids)
    return EngineConfig(initial_centroids=initial,
                        **{f.name: getattr(args, f.name) for f in fields(EngineConfig)
                           if f.name != "initial_centroids"})


def _cmd_train(args) -> int:
    if args.mode == "im" and args.cache is not None:
        raise SystemExit("train: --cache/--no-cache applies to sem mode only")
    cache_enabled = True if args.cache is None else args.cache

    cfg = _engine_config(args)
    cfg.validate()

    if args.mode == "im":
        matrix = load_matrix(args.data, raw=args.raw, n=args.n, d=args.d)
        result = kmeans(matrix, cfg)
    else:
        with _open_store(args) as store:
            result = kmeans_ondisk(
                store, cfg,
                cache_enabled=cache_enabled,
                cache_capacity=args.cache_capacity,
                schedule=CacheSchedule(args.refresh_start),
            )

    sem = args.mode == "sem"
    config_echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)
                   if f.name != "initial_centroids"}
    config_echo.update(
        data=args.data,
        cache=cache_enabled if sem else None,
        page_size=args.page_size if sem else None,
        cache_capacity=args.cache_capacity if sem else None,
        refresh_start=args.refresh_start if sem else None,
    )
    text = format_report(config_echo, result)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
        print(f"report written to {args.report} "
              f"({result.n_iterations} iterations, converged={result.converged})")
    else:
        sys.stdout.write(text)

    if args.save_centroids:
        save_matrix(result.centroids.means, args.save_centroids)
    if args.save_assignments:
        save_matrix(result.assignments.astype(np.float64).reshape(-1, 1),
                    args.save_assignments)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.raw and (args.n is None or args.d is None):
        raise SystemExit(f"{args.command}: raw files need --n and --d")
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "info":
            return _cmd_info(args)
        return _cmd_train(args)
    except SystemExit:
        raise
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
