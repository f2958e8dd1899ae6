"""Command-line entry point.

Two subcommands share the same flags:

    pcsgd solve           [--config F] [--seed N] [--out DIR] [--override k=v]...
    pcsgd experiment <id> [--config F] [--seed N] [--out DIR] [--override k=v]...

Precedence, lowest to highest: per-experiment defaults, the INI config
file, --override flags, then --seed/--out.  Unknown config keys,
invalid problem, SGD or evaluation settings and an --out that cannot be a
directory are rejected before any work starts.

Exit codes: 0 on success, 1 when an experiment's checks fail or its SGD
run diverges (one `FAIL: ...` line naming every failed check with its
value and bound), 2 on a config error (`error: ...`).
"""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentFailure,
    apply_override,
    check_config,
    config_from_ini,
    default_config,
    run_experiment,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--seed", type=int, help="override the experiment seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config field (repeatable); KEY may be section.key",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsgd",
        description="Stochastic-gradient energy minimization benchmarks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one configured SGD solve")
    _add_common(solve)
    experiment = sub.add_parser("experiment", help="run a named benchmark study")
    experiment.add_argument("id", choices=[e for e in EXPERIMENT_IDS if e != "solve"])
    _add_common(experiment)
    return parser


def resolve_config(args: argparse.Namespace):
    experiment = "solve" if args.command == "solve" else args.id
    config = default_config(experiment)
    if args.config:
        with open(args.config) as fh:
            config = config_from_ini(fh.read(), base=config)
    for spec in args.override:
        config = apply_override(config, spec)
    if args.seed is not None:
        config = apply_override(config, f"seed={args.seed}")
    if args.out is not None:
        config = apply_override(config, f"out={args.out}")
    if config.experiment != experiment:  # the config file or an override renamed it
        raise ValueError(
            f"config names experiment {config.experiment!r}, "
            f"command line asked for {experiment!r}"
        )
    # checked once, on the final config, so that the order of the overrides
    # cannot matter
    check_config(config)
    os.makedirs(config.out, exist_ok=True)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except (ValueError, OSError, OverflowError) as err:  # an over-large basis overflows
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        paths = run_experiment(config)
    except ExperimentFailure as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
