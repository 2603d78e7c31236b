"""Command-line entry point: `speclab <experiment> [flags]`.

Every config-file key except `experiment` (the subcommand) has exactly one
flag, `--<key>` with dashes for underscores, taking the key's string value;
`radii` is spelled `--L` (repeat it to build a ladder), `master_seed` is
`--seed`, and a bare `--assert` means `assert = true`. Flags override the
config file, which is optional when the flags pin everything the experiment
needs. Exit codes: 0 success, 1 usage, config or capacity error, 2
statistical-check failure (with --assert), 3 solver failure rate exceeded.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    CONFIG_KEYS,
    EXIT_USAGE,
    EXPERIMENTS,
    ConfigError,
    parse_config_text,
    run_experiment,
)
from .lattice import CapacityError
from .scaling import RegimeError
from .tails import DomainError

# errors of the input, not of the program: one line on stderr and exit 1
USAGE_ERRORS = (ConfigError, CapacityError, DomainError, RegimeError, OSError)

# keys whose flag is not spelled --<key>, and the argparse options of a flag
FLAG_NAMES = {"radii": "--L", "master_seed": "--seed"}
FLAG_OPTIONS = {
    "radii": dict(action="append", metavar="L", help="box radius; repeat to build a ladder"),
    "assert": dict(nargs="?", const="true", help="exit 2 when a statistical check fails"),
    "intervals": dict(help="comma-separated a:b pairs, b may be inf"),
    "x_grid": dict(help="comma-separated x values"),
}


def flag_of(key: str) -> str:
    return FLAG_NAMES.get(key, "--" + key.replace("_", "-"))


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reports a bad command line as every other
    input error is reported: one `speclab: error:` line, then exit 2, which
    `main` maps to exit 1. Subcommand parsers are built of this class too."""

    def error(self, message: str):
        self.exit(2, f"speclab: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="speclab",
        description="Spectral statistics of lattice operators with random decaying potentials",
    )
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", type=Path, help="flat key = value config file")
        for key in CONFIG_KEYS:
            if key != "experiment":
                sub.add_argument(flag_of(key), dest=key, **FLAG_OPTIONS.get(key, {}))
    return parser


def overrides_from(args: argparse.Namespace) -> dict:
    """The config keys the command line sets, as strings."""
    given = {key: val for key, val in vars(args).items()
             if key in CONFIG_KEYS and val is not None}
    if "radii" in given:
        given["radii"] = ",".join(given["radii"])
    return given


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        text = args.config.read_text() if args.config else ""
        cfg = parse_config_text(text, overrides_from(args))
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
