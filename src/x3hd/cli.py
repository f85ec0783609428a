"""Command line interface.

Exit codes: 0 success, 1 usage or input error, 2 internal invariant
violation, 3 differential mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InternalError, LimitError, ParseError
from .instances import default_clause_count, generate, parse, render
from .oracle import DEFAULT_SOLUTION_LIMIT, hd_oracle
from .poly import HDPoly, decimal
from .solver import SolveOptions, SolveStats, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_formula(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return parse(handle.read())
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc.reason} at byte {exc.start})", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _report_json(f, poly: HDPoly, stats: SolveStats | None) -> str:
    payload = {
        "n": f.n_vars,
        "m": len(f.clauses),
        "poly": poly.to_pairs(),
        "max_hd": poly.degree(),
        "solutions": decimal(poly.coeff(0)),
    }
    if stats is not None:
        payload["stats"] = stats.as_dict()
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _print_report(f, poly: HDPoly, stats: SolveStats | None, args) -> None:
    if getattr(args, "json", False):
        print(_report_json(f, poly, stats))
        return
    print(str(poly))
    degree = poly.degree()
    print(f"max_hd = {degree if degree is not None else 'none'}")
    print(f"solutions = {decimal(poly.coeff(0))}")
    if stats is not None and getattr(args, "stats", False):
        info = stats.as_dict()
        rules = " ".join(f"{k}={v}" for k, v in info["rules"].items() if v)
        print(
            f"nodes = {info['nodes']}, leaves = {info['leaves']}, "
            f"max_depth = {info['max_depth']}, branched_vars = {info['branched_vars']}, "
            f"mirrored = {info['mirrored']}"
        )
        print(f"rules: {rules if rules else 'none'}")


def _cmd_solve(args) -> int:
    f = _read_formula(args.file)
    opts = SolveOptions(base_threshold=args.base_threshold, seed=args.seed)
    report = solve(f, opts)
    _print_report(f, report.poly, report.stats, args)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    f = _read_formula(args.file)
    limit = None if args.force else DEFAULT_SOLUTION_LIMIT
    try:
        poly = hd_oracle(f, limit)
    except LimitError as exc:
        print(f"error: {exc} (use --force to override)", file=sys.stderr)
        return EXIT_USAGE
    _print_report(f, poly, None, args)
    return EXIT_OK


def _cmd_diff(args) -> int:
    f = _read_formula(args.file)
    try:
        reference = hd_oracle(f, DEFAULT_SOLUTION_LIMIT)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = solve(f, SolveOptions(base_threshold=args.base_threshold, seed=args.seed))
    if report.poly == reference:
        print(f"match: {report.poly}")
        return EXIT_OK
    print(f"MISMATCH: solver {report.poly} vs oracle {reference}")
    return EXIT_MISMATCH


def _cmd_gen(args) -> int:
    m = args.m if args.m is not None else default_clause_count(args.n)
    try:
        instance = generate(args.n, m, seed=args.seed, planted=args.planted)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = render(instance)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _add_solve_options(parser: argparse.ArgumentParser) -> None:
    defaults = SolveOptions()
    parser.add_argument("--base-threshold", type=_non_negative, default=defaults.base_threshold,
                        help="Case 2 cuts above this many variables")
    parser.add_argument("--seed", type=int, default=defaults.seed)


def _build_parser() -> _Parser:
    parser = _Parser(prog="x3hd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file exactly")
    p_solve.add_argument("file")
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--stats", action="store_true")
    _add_solve_options(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force reference solver")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.add_argument("--force", action="store_true",
                          help="lift the enumeration size guard")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_diff = sub.add_parser("diff", help="run solver and oracle, compare")
    p_diff.add_argument("file")
    _add_solve_options(p_diff)
    p_diff.set_defaults(func=_cmd_diff)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, default=None,
                       help="clause count (default: 2n/3)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--planted", action="store_true",
                       help="plant a hidden solution")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
