"""Command line front end.

Subcommands:
  analyze         per-graph reports for a graph6 corpus (file or stdin)
  laman-extremal  radius maximisers among minimally rigid graphs per order
  family-sweep    closed-form vs eigensolver radius grid for the
                  two-clique family, with the monotonicity check
  extremal        structural audit of the two-clique extremal graphs

Exit codes: 0 all checks consistent, 1 a consistency check failed,
2 invalid input (bad arguments or unparsable corpus lines), 141 stdout
closed by its reader before the output was written (as by `| head`).
"""
from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from .verify import (
    CSV_COLUMNS,
    REPORT_TOL,
    analyze_lines,
    extremal_family_report,
    family_sweep_report,
    flatten_report,
    json_stable,
    laman_extremal_report,
    report_is_consistent,
    write_csv,
)

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rigidspec",
        description="Planar rigidity and spectral threshold checks for "
                    "graph6 corpora.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a graph6 corpus")
    p.add_argument("path", nargs="?", default="-",
                   help="corpus file, or - for stdin")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--tol", type=float, default=REPORT_TOL,
                   help="comparison tolerance for threshold flags (>= 0)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for large corpora (>= 1)")

    p = sub.add_parser("laman-extremal",
                       help="check the radius maximiser among minimally "
                            "rigid graphs")
    p.add_argument("--nmin", type=int, default=3)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("family-sweep",
                       help="closed-form radius grid for the two-clique "
                            "family")
    p.add_argument("--links", type=int, default=2)
    p.add_argument("--clique-min", dest="amin", type=int, default=3)
    p.add_argument("--clique-max", dest="amax", type=int, default=12)
    p.add_argument("--nmax", type=int, default=60)
    p.set_defaults(format="json")

    p = sub.add_parser("extremal",
                       help="audit the two-clique extremal graphs for a "
                            "minimum degree")
    p.add_argument("--delta", type=int, default=6)
    p.add_argument("--nmax", type=int, default=26)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=1729,
                   help="placement seed (default: %(default)s)")

    return top


def _cmd_analyze(args, out) -> int:
    """Write each report, and each bad line to stderr, as soon as its line
    is done; 2 on any bad line, else 1 on any inconsistent report, else 0."""
    # raw bytes, so that a non-ASCII byte fails only its own line
    try:
        corpus = (nullcontext(sys.stdin.buffer) if args.path == "-"
                  else open(args.path, "rb"))
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    code = 0

    def reports(lines):
        nonlocal code
        for report, err in analyze_lines(lines, args.tol, args.jobs):
            if err is None:
                code = max(code, 0 if report_is_consistent(report) else 1)
                yield report
            else:
                print(err, file=sys.stderr)
                code = 2

    with corpus as lines:
        if args.format == "csv":
            write_csv(out, CSV_COLUMNS, map(flatten_report, reports(lines)))
        else:
            for r in reports(lines):
                out.write(json_stable(r) + "\n")
    return code


def _run(args, out) -> int:
    """Run the parsed subcommand, writing to out; return its exit code."""
    try:
        if args.command == "analyze":
            return _cmd_analyze(args, out)
        if args.command == "laman-extremal":
            report = laman_extremal_report(args.nmin, args.nmax)
        elif args.command == "family-sweep":
            report = family_sweep_report(args.links, args.amin, args.amax,
                                         args.nmax)
        else:
            report = extremal_family_report(args.delta, args.nmax,
                                            seed=args.seed)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        write_csv(out, list(report["rows"][0]), report["rows"])
    else:
        out.write(json_stable(report) + "\n")
    return 0 if report["ok"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the subcommand in argv, or in sys.argv when argv is None;
    return the exit code.

    With argv None, main owns its process (the console script, or
    `python -m rigidspec.cli`), so it freezes the import-time heap first:
    the collector then never walks those objects, neither during the run
    nor in the interpreter's last collection at exit.  The subcommands that
    eigensolve, `analyze` and `family-sweep`, import numpy's ~20 000
    objects before the freeze; the other two never load numpy.  Callers
    passing an argument list keep the collector as it was.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        if not 0 <= args.tol < math.inf:
            parser.error(f"argument --tol: must be finite and >= 0, "
                         f"got {args.tol}")
        if args.jobs < 1:
            parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    if argv is None:
        if args.command in ("analyze", "family-sweep"):
            import numpy  # noqa: F401
        gc.freeze()
    try:
        code = _run(args, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: flush what is left to /dev/null at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    return code


if __name__ == "__main__":
    sys.exit(main())
