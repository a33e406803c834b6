"""Command line front end.

Subcommands:
  analyze         per-graph reports for a graph6 corpus (file or stdin)
  laman-extremal  radius maximisers among minimally rigid graphs per order
  family-sweep    closed-form vs eigensolver radius grid for the
                  two-clique family, with the monotonicity check
  extremal        structural audit of the two-clique extremal graphs

Exit codes: 0 all checks consistent, 1 a consistency check failed,
2 invalid input (bad arguments or unparsable corpus lines).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from .verify import (
    REPORT_TOL,
    analyze_lines,
    extremal_family_report,
    family_sweep_report,
    json_stable,
    laman_extremal_report,
    report_is_consistent,
    reports_to_csv,
    rows_to_csv,
)

ENV_SEED = "RIGIDSPEC_SEED"
DEFAULT_SEED = 1729


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED, str(DEFAULT_SEED))
    try:
        return int(raw)
    except ValueError:
        print(f"invalid {ENV_SEED}={raw!r}: expected an integer",
              file=sys.stderr)
        raise SystemExit(2) from None


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
    p.add_argument("--seed", type=int, default=None,
                   help=f"placement seed (default: ${ENV_SEED} or "
                        f"{DEFAULT_SEED})")

    return top


def _cmd_analyze(args, out) -> int:
    # raw bytes, so that a non-ASCII byte fails only its own line
    if args.path == "-":
        lines = getattr(sys.stdin, "buffer", sys.stdin).readlines()
    else:
        try:
            with open(args.path, "rb") as fh:
                lines = fh.readlines()
        except OSError as exc:
            print(f"cannot read {args.path}: {exc}", file=sys.stderr)
            return 2
    reports, errors = analyze_lines(lines, tol=args.tol, jobs=args.jobs)
    if args.format == "csv":
        out.write(reports_to_csv(reports))
    else:
        for r in reports:
            out.write(json_stable(r) + "\n")
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        return 2
    if any(not report_is_consistent(r) for r in reports):
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        if not 0 <= args.tol < math.inf:
            parser.error(f"argument --tol: must be finite and >= 0, "
                         f"got {args.tol}")
        if args.jobs < 1:
            parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    out = sys.stdout
    try:
        if args.command == "analyze":
            return _cmd_analyze(args, out)
        if args.command == "laman-extremal":
            report = laman_extremal_report(args.nmin, args.nmax)
        elif args.command == "family-sweep":
            report = family_sweep_report(args.links, args.amin, args.amax,
                                         args.nmax)
        else:
            seed = args.seed if args.seed is not None else _default_seed()
            report = extremal_family_report(args.delta, args.nmax, seed=seed)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        out.write(rows_to_csv(list(report["rows"][0]), report["rows"]))
    else:
        out.write(json_stable(report) + "\n")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
