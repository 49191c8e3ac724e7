"""Command-line front end: run scenario files, validate them, emit built-in examples."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .runner import run_scenario
from .scenario import (
    BUILTIN_EXAMPLES,
    ScenarioError,
    builtin_example,
    parse_scenario,
    serialize_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesim",
        description="Consensus dynamics on ordered cones: scenario-driven runs "
        "with Hilbert-metric convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write trace/summary artifacts")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out-dir", default=".", help="directory for output artifacts")
    run_p.add_argument(
        "--seed-override", type=int, default=None, help="replace the sampling seed"
    )
    run_p.add_argument(
        "--max-iters-override", type=int, default=None, help="replace the iteration budget"
    )

    val_p = sub.add_parser("validate", help="parse a scenario file and report problems")
    val_p.add_argument("scenario", help="path to a scenario JSON file")

    ex_p = sub.add_parser("examples", help="list or emit the built-in example scenarios")
    ex_p.add_argument("action", choices=("list", "emit"))
    ex_p.add_argument("name", nargs="?", help="example name (for emit)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text())
    result = run_scenario(
        scenario,
        out_dir=args.out_dir,
        seed_override=args.seed_override,
        max_iters_override=args.max_iters_override,
    )
    print(
        f"status={result.status.value} iterations={result.summary['iterations']} "
        f"trace={result.trace_path} summary={result.summary_path}"
    )
    return result.exit_code


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text())
    print(f"valid scenario: kind={scenario.kind} dimension={scenario.dimension}")
    return 0


def _cmd_examples(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in sorted(BUILTIN_EXAMPLES):
            print(f"{name}  {BUILTIN_EXAMPLES[name]}")
        return 0
    if not args.name:
        print("error: examples emit requires a name", file=sys.stderr)
        return 1
    sys.stdout.write(serialize_scenario(builtin_example(args.name)))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "budget exhausted"
        return 1 if exc.code else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_examples(args)
    except (ScenarioError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
