"""Command line interface: ``kinsim run | validate``.

Exit codes: 0 success, 1 config validation failure (a file that is not
UTF-8 JSON included), 2 usage error (unknown flag, a config file that cannot
be read, a report or trace file that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .errors import ConfigurationError, SimulationError
from .experiment import export_csv, run_experiment
from .model import ModelConfig, validate_config

DEFAULT_OUT = "report.csv"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinsim",
        description="Seeded multi-replication simulation of consanguineous "
                    "marriage and congenital-disorder prevalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the consanguinity model and write a CSV report")
    run.add_argument("--config", default=None, help="JSON config file (defaults to the packaged config)")
    run.add_argument("--replications", type=int, default=None, help="override the configured replication count")
    run.add_argument("--seed", type=int, default=None, help="override the configured base seed")
    run.add_argument("--out", default=DEFAULT_OUT, help=f"output CSV path (default: {DEFAULT_OUT})")
    run.add_argument("--trace", default=None, help="write the event trace of replication 0 to this file")
    run.add_argument("--jobs", type=_positive_int, default=None,
                     help="worker processes for the replications (default: the usable CPUs; "
                          "1 runs them all in this process)")

    validate = sub.add_parser("validate", help="check a config file and list violations")
    validate.add_argument("--config", default=None, help="JSON config file (defaults to the packaged config)")
    return parser


def _load_config(path: Optional[str]) -> ModelConfig:
    """Parse the config file at ``path``, or the packaged one when ``path`` is None.

    The packaged config is read through :mod:`importlib.resources`, so it
    loads however kinsim was imported, from a zip too.
    """
    if path is None:
        source = resources.files("kinsim").joinpath("data/default_config.json")
    else:
        source = Path(path)
    return ModelConfig.from_dict(json.loads(source.read_text(encoding="utf-8")))


def _checked_config(
    path: Optional[str], replications: Optional[int] = None, seed: Optional[int] = None
) -> ModelConfig | int:
    """Load, override and validate a config; on failure print why and return the exit code."""
    try:
        config = _load_config(path)
    except OSError as exc:  # absent, a directory, unreadable
        print(f"kinsim: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConfigurationError) as exc:  # bad JSON, bad UTF-8, an overlong integer
        print(f"invalid config: {exc}")
        return 1
    if replications is not None:
        config.replications = replications
    if seed is not None:
        config.base_seed = seed
    violations = validate_config(config)
    for violation in violations:
        print(str(violation))
    return 1 if violations else config


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _checked_config(args.config)
    if isinstance(config, int):
        return config
    print("config OK")
    return 0


def _unwritable(path: str) -> Optional[str]:
    """Why no file can be written at ``path``, when that shows without writing one."""
    if not path:
        return "the path is empty"
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"no directory {parent!r}"
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    config = _checked_config(args.config, args.replications, args.seed)
    if isinstance(config, int):
        return config
    # Checked before the run, so a bad --out does not cost the whole run.
    problem = _unwritable(args.out)
    if problem is not None:
        print(f"kinsim: cannot write report: {problem}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(config, trace_path=args.trace, jobs=args.jobs)
    except SimulationError as exc:
        print(f"kinsim: run failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if args.trace is None or exc.filename != args.trace:
            raise
        print(f"kinsim: cannot write trace: {exc}", file=sys.stderr)
        return 2
    try:
        export_csv(result, args.out)
    except OSError as exc:
        print(f"kinsim: cannot write report: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(result.rows)} rows for {config.replications} replications to {args.out}")
    if args.trace:
        print(f"wrote event trace of replication 0 to {args.trace}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
