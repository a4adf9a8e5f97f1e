"""Command-line entry point."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .driver import RunConfig, Runner


def positive_int(text: str) -> int:
    """An argparse type for a limit: a bad value is a usage error that
    names the flag, not a traceback from `RunConfig`."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hygex",
        description="Hygienic macro expansion kernel for a small prover-style language",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="process one or more command files")
    run.add_argument("files", nargs="+", help="input files (UTF-8)")
    run.add_argument(
        "--stage",
        choices=("expand", "elaborate"),
        default="expand",
        help="pipeline depth (default: expand)",
    )
    run.add_argument("--trace-expansion", action="store_true",
                     help="print one line per macro expansion step")
    run.add_argument("--trace-tactics", action="store_true",
                     help="print each evaluated tactic with the goal state")
    run.add_argument("--no-notation-precheck", action="store_true",
                     help="notation right-hand sides use plain quotations")
    run.add_argument("--no-prelude", action="store_true",
                     help="start from the bare core table")
    run.add_argument("--max-expansion-depth", type=positive_int, default=512, metavar="N")
    run.add_argument("--max-repeat", type=positive_int, default=1024, metavar="N")
    run.add_argument("--recover", action="store_true",
                     help="insert a <missing> command on parse errors")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    cfg = RunConfig(
        stage=args.stage,
        trace_expansion=args.trace_expansion,
        trace_tactics=args.trace_tactics,
        notation_precheck=not args.no_notation_precheck,
        prelude=not args.no_prelude,
        max_expansion_depth=args.max_expansion_depth,
        max_repeat=args.max_repeat,
        recover=args.recover,
    )
    runner = Runner(cfg)
    code = runner.run_files(args.files)
    sys.stdout.write(runner.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
