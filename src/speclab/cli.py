"""Command-line entry point: `speclab <experiment> [flags]`.

Most config-file keys have a flag override; solver_tol, solver_max_iter,
dense_cap, ks_threshold and p_threshold are set in the config file only. The
config file itself is optional when the flags pin everything the experiment
needs. Exit codes: 0 success, 1 usage, config or capacity error, 2
statistical-check failure (with --assert), 3 solver failure rate exceeded.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    EXIT_USAGE,
    EXPERIMENTS,
    ConfigError,
    parse_config_text,
    run_experiment,
)
from .lattice import CapacityError
from .operators import CapacityDenseError
from .scaling import RegimeError
from .tails import DomainError

# errors of the input, not of the program: one line on stderr and exit 1
USAGE_ERRORS = (ConfigError, CapacityError, CapacityDenseError, DomainError,
                RegimeError, OSError)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="flat key = value config file")
    sub.add_argument("--L", action="append", type=int, dest="radii_list",
                     metavar="L", help="box radius; repeat to build a ladder")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int, dest="master_seed")
    sub.add_argument("--workers", type=int)
    sub.add_argument("--assert", action="store_true", dest="assert_checks",
                     help="exit 2 when a statistical check fails")
    sub.add_argument("--out", type=str)
    sub.add_argument("--dimension", type=int)
    sub.add_argument("--norm-kind", choices=("euclidean", "sup"))
    sub.add_argument("--family", choices=("power_log", "stretched_exp"))
    sub.add_argument("--p", type=float)
    sub.add_argument("--k", type=int)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--scaling-mode",
                     choices=("power", "critical", "flat", "calibrated"))
    sub.add_argument("--intervals", type=str,
                     help="comma-separated a:b pairs, b may be inf")
    sub.add_argument("--x-grid", type=str, help="comma-separated x values")
    sub.add_argument("--source", choices=("V", "H", "both"))
    sub.add_argument("--top-m", type=int)
    sub.add_argument("--solver", choices=("auto", "lanczos", "dense"))
    sub.add_argument("--calibration-x", type=float)


def _overrides_from(args: argparse.Namespace, experiment: str) -> dict:
    out = {"experiment": experiment}
    mapping = {
        "radii": ",".join(str(r) for r in args.radii_list) if args.radii_list else None,
        "trials": args.trials,
        "master_seed": args.master_seed,
        "workers": args.workers,
        "out": args.out,
        "dimension": args.dimension,
        "norm_kind": args.norm_kind,
        "family": args.family,
        "p": args.p,
        "k": args.k,
        "delta": args.delta,
        "alpha": args.alpha,
        "scaling_mode": args.scaling_mode,
        "intervals": args.intervals,
        "x_grid": args.x_grid,
        "source": args.source,
        "top_m": args.top_m,
        "solver": args.solver,
        "calibration_x": args.calibration_x,
    }
    for key, val in mapping.items():
        if val is not None:
            out[key] = str(val)
    if args.assert_checks:
        out["assert"] = "true"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Spectral statistics of lattice operators with random decaying potentials",
    )
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        _add_common_flags(subs.add_parser(name))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        text = args.config.read_text() if args.config else ""
        cfg = parse_config_text(text, _overrides_from(args, args.experiment))
        summary = run_experiment(cfg)
    except USAGE_ERRORS as exc:
        print(f"speclab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for name, ok in summary.get("checks", {}).items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"wrote {', '.join(summary['csv_files'])} to {cfg.out_dir} "
          f"(exit {summary['exit_code']})")
    return int(summary["exit_code"])


if __name__ == "__main__":
    sys.exit(main())
