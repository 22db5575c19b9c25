"""Command line entry point.

    macgame analyze  <scenario.json> [...]
    macgame simulate <scenario.json> [...] --out <dir>
    macgame verify   <scenario.json> [...]

Exit codes: 0 all verdicts pass, 1 some verdict is false, 2 parse or
validation error, 3 numeric abort. Several files run one after another, in
the given order; the exit code is the largest of theirs.

The argument parser is built once per process, on the first main call, and
reused by every later one: in-process callers pay for its construction once.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .capacity import ScenarioError
from .numerics import NumericsError
from .scenario_io import load_doc, parse_doc, run

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macgame",
        description="Constrained multiple-access-channel games: analysis, "
                    "simulation and equilibrium verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "simulate", "verify"):
        p = sub.add_parser(name)
        p.add_argument("files", nargs="+", help="scenario JSON files")
        p.add_argument("--out", default=None, help="output directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--log-base", choices=["2", "e"], default=None,
                       help="override the scenario log base")
        p.add_argument("--tol", type=float, default=None,
                       help="override the tolerance of single-receiver analyze and simulate")
    return parser


def _run_one(path: str, args) -> int:
    try:
        doc = load_doc(path)
        overrides = {"seed": args.seed, "log_base": args.log_base, "tol": args.tol}
        if isinstance(doc, dict):
            doc.update({key: value for key, value in overrides.items() if value is not None})
        sf = parse_doc(doc, path)
        if sf.task != args.command:
            raise ScenarioError(f"{sf.task!r} does not match command {args.command!r}",
                                f"{path}.task")
        out_dir = None
        if args.command == "simulate":
            base = Path(args.out) if args.out else Path("macgame_out")
            out_dir = base / Path(path).stem if len(args.files) > 1 else base
        report = run(sf, out_dir)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericsError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    text = report.to_json()
    if out_dir is not None:
        report_path = Path(out_dir) / "report.json"
        report_path.write_text(text, encoding="utf-8")
        print(f"{path}: report written to {report_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(f"{path}: wall clock {report.wall_clock_s:.3f} s", file=sys.stderr)
    return EXIT_OK if report.all_verdicts_pass else EXIT_VERDICT_FALSE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return max([_run_one(f, args) for f in args.files])


if __name__ == "__main__":
    sys.exit(main())
