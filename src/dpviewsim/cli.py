"""Command-line entry point.

Runs one experiment (or a --trials sweep) from a key=value config file plus
per-field overrides, and writes line-delimited metrics.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import fields

from .harness import (CapacityExceeded, ConfigError, ExperimentConfig,
                      ParseError, coerce_config, emit_metrics,
                      parse_config_file, run_trials)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpviewsim",
        description="Simulate DP-synchronized materialized-view maintenance "
                    "over a two-server secret-shared store.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="metrics output path (JSON lines)")
    for f in fields(ExperimentConfig):
        parser.add_argument(f"--{f.name}", dest=f.name, default=None,
                            metavar="VALUE", help=f"override config field {f.name}")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if getattr(args, f.name) is not None}
    if args.config is None and not overrides:
        parser.print_usage(sys.stderr)
        print("error: provide --config or at least one field override", file=sys.stderr)
        return EXIT_CONFIG

    try:
        values = parse_config_file(args.config) if args.config else {}
        values.update(overrides)
        config = coerce_config(values)
        # Open the output now, so that an unwritable path fails before the run.
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    with out as fh:
        try:
            results = run_trials(config, config.trials)
        except (ParseError, CapacityExceeded, OSError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        emit_metrics([rec for res in results for rec in res.metrics], fh)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
