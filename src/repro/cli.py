"""Command-line interface: regenerate any of the paper's experiments.

Examples
--------
::

    python -m repro.cli list
    python -m repro.cli figure1 --dataset adoptions --budgets 0.05 0.1 0.3
    python -m repro.cli figure3 --generator URx --gamma 200
    python -m repro.cli figure11 --gamma 0.7
    python -m repro.cli figure12 --repeats 10
    python -m repro.cli counters --dataset cdc_firearms
    python -m repro.cli matrix --workloads all --solvers greedy_minvar,random
    python -m repro.cli store run --store plans.db --events 50
    python -m repro.cli store resume --store plans.db
    python -m repro.cli store verify --store plans.db
    python -m repro.cli chaos --faults '{"store": 0.2, "event": 0.05}'

Every subcommand prints the same rows the corresponding paper figure plots.
The ``store`` subcommand runs a journal with crash-safe persistence (and can
resume after a kill); ``chaos`` replays under deterministic fault injection
and reports the degradation counters plus plan divergence (always zero).

The subcommands are not wired by hand: they are derived from the experiment
registry (:mod:`repro.experiments.registry`), populated by the declarative
specs in :mod:`repro.experiments.specs`.  Registering a new experiment there
makes it appear here automatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.experiments.registry import experiment_specs, get_experiment
from repro.experiments.reporting import format_rows
# Importing the specs module populates the experiment registry.
from repro.experiments.specs import DEFAULT_CLI_BUDGETS

__all__ = ["build_parser", "main"]

# Backwards-compatible alias for the pre-registry module constant.
_DEFAULT_BUDGETS = DEFAULT_CLI_BUDGETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'Selecting Data to Clean for Fact Checking'.",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list the available experiments")

    for spec in experiment_specs().values():
        subparser = subparsers.add_parser(spec.name, help=spec.description)
        spec.configure_parser(subparser)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command in (None, "list"):
        rows = [
            {"experiment": spec.name, "description": spec.description}
            for spec in experiment_specs().values()
        ]
        print(format_rows(rows, title="Available experiments (run: python -m repro.cli <experiment> --help)"))
        return 0

    try:
        spec = get_experiment(args.command)
    except KeyError:
        parser.error(f"unknown command {args.command!r}")
        return 2

    print(spec.run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
