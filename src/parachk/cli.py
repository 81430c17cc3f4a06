"""Command-line interface.

Exit codes: 0 Realizable, 1 Unrealizable, 2 Unknown, 3 errors (usage
errors, missing or invalid input, solver failures), 4 cross-check
disagreement. `bench` exits 0 iff every shape-complete
verdict matches the expected fold column and every shape-incomplete
verdict is the expected one or Unknown.

`check` and `oracle` decide through `solver.check`, `oracle` on its
"oracle" backend, and print its `CheckReport` alike; the table line ends
in the timings for `check` and in `(oracle)` for `oracle`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bench import format_json, format_table, run_bench
from .encode import encode
from .functors import ContainerError
from .problem import Problem, ProblemError, load_problem
from .propagate import PropagationUnrealizable, propagate, shape_complete
from .solver import ORACLE_MAX_STEPS, CheckReport, SolverConfig, SolverError, check
from .verdict import (
    Realizable,
    UnknownVerdict,
    Unrealizable,
    describe_witness,
    verdict_name,
)


def _solver_flags(sub):
    sub.add_argument("--solver", default=None, help="solver command (default: z3 -in, or $PARACHK_SOLVER)")
    sub.add_argument("--timeout", type=int, default=10_000, metavar="MS", help="per-call solver timeout in milliseconds")


def _repeat_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _exit_code(verdict) -> int:
    if isinstance(verdict, Realizable):
        return 0
    if isinstance(verdict, Unrealizable):
        return 1
    return 2


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 3, the code of every input
    error, rather than argparse's 2, which is Unknown's."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parsing leaves it unchanged."""
    parser = _Parser(
        prog="parachk",
        description="Decide realizability of polymorphic functions from types, sketches, and input-output examples.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser(
        "check",
        help="check one problem file: the oracle decides shape-complete sets and the "
        "shape-incomplete ones that a guess of small intermediate shapes settles within "
        f"a {ORACLE_MAX_STEPS:,}-step budget, SMT the rest",
    )
    p_check.add_argument("path")
    p_check.add_argument(
        # the "oracle" backend is spelt `parachk oracle`
        "--backend", choices=("auto", "smt"), default="auto",
        help="auto (default): try the oracle first, with guessed shapes for unpinned "
        "fold intermediates; smt: always use the SMT solver",
    )
    p_check.add_argument("--witness", action="store_true", help="print the witness tables on Realizable")
    p_check.add_argument("--format", choices=["table", "json"], default="table")
    _solver_flags(p_check)

    p_emit = subs.add_parser("emit-smt", help="print the SMT-LIB2 script for a problem file")
    p_emit.add_argument("path")

    p_oracle = subs.add_parser("oracle", help="decide one problem with the brute-force oracle: the steps of check, without a budget or SMT")
    p_oracle.add_argument("path")
    p_oracle.add_argument("--witness", action="store_true")
    p_oracle.add_argument("--cross-check", action="store_true", help="also run the SMT backend and fail on disagreement, not on an Unknown")
    p_oracle.add_argument("--format", choices=["table", "json"], default="table")
    _solver_flags(p_oracle)

    p_bench = subs.add_parser("bench", help="run the 16-function fold benchmark")
    p_bench.add_argument("--repeat", type=_repeat_count, default=1, metavar="K", help="report the median timing over K runs")
    p_bench.add_argument("--only", default=None, metavar="NAME", help="run a single benchmark entry")
    p_bench.add_argument("--format", choices=["table", "json"], default="table")
    _solver_flags(p_bench)

    return parser


def _print_report(args, problem: Problem, report: CheckReport, note: str, cross_check=None) -> None:
    """The verdict of `check` and `parachk oracle`: a JSON payload, or the
    table line `name: Verdict (note)`, with the witness on request. The
    payload gives the witness as the lines of the table's, and carries
    `cross_check` where one is given."""
    verdict = report.verdict
    witness = args.witness and isinstance(verdict, Realizable)
    if args.format == "json":
        payload = {
            "name": problem.name,
            "verdict": verdict_name(verdict),
            "total_ms": round(report.total_ms, 3),
            "solver_ms": round(report.solver_ms, 3),
            "path": report.path,
        }
        if isinstance(verdict, Unrealizable):
            payload["detail"] = verdict.detail
        if witness:
            payload["witness"] = describe_witness(verdict.witness, problem).splitlines()
        if cross_check is not None:
            payload["cross_check"] = cross_check
        print(json.dumps(payload, indent=2))
    else:
        print(f"{problem.name}: {verdict_name(verdict)} ({note})")
        if witness:
            print(describe_witness(verdict.witness, problem))


def cmd_check(args, cfg: SolverConfig) -> int:
    problem = load_problem(args.path)
    report = check(problem, cfg, backend=args.backend)
    timings = f"{report.total_ms:.1f} ms total, {report.solver_ms:.1f} ms solver"
    _print_report(args, problem, report, timings)
    return _exit_code(report.verdict)


def cmd_emit_smt(args) -> int:
    problem = load_problem(args.path)
    try:
        cs = propagate(problem)
    except PropagationUnrealizable as e:
        print(f"error: unrealizable before encoding, no script is sent: {e.reason}", file=sys.stderr)
        return 3
    script = encode(cs)
    sys.stdout.write(script.text())
    return 0


def cmd_oracle(args, cfg: SolverConfig) -> int:
    problem = load_problem(args.path)
    report = check(problem, cfg, backend="oracle")
    verdict = report.verdict
    if isinstance(verdict, UnknownVerdict) and verdict.reason == "completions-refuted":
        print("every guessed completion is refuted; no example pins:", file=sys.stderr)
        for m in shape_complete(problem).missing:
            print(f"  {m}", file=sys.stderr)
    # the table line comes before the cross-check; the JSON payload holds it
    table = args.format == "table"
    if table or not args.cross_check:
        _print_report(args, problem, report, "oracle")
    if not args.cross_check:
        return _exit_code(verdict)

    # pinned to SMT, so the oracle is never compared with itself
    solved = check(problem, cfg, backend="smt").verdict
    both = f"oracle {verdict_name(verdict)}, solver {verdict_name(solved)}"
    if UnknownVerdict in (type(solved), type(verdict)):
        outcome, shown = "inconclusive", both
    elif type(solved) is type(verdict):
        outcome, shown = "agrees", verdict_name(solved)
    else:
        outcome, shown = "disagreement", both
    if not table:
        _print_report(args, problem, report, "oracle", {"solver": verdict_name(solved), "outcome": outcome})
    if outcome == "disagreement":
        print(f"cross-check disagreement: {both}", file=sys.stderr)
        return 4
    if table:
        print(f"cross-check {outcome}: {shown}")
    return _exit_code(verdict)


def cmd_bench(args, cfg: SolverConfig) -> int:
    rows, ok = run_bench(cfg, repeat=args.repeat, only=args.only)
    if not rows:
        print(f"error: no benchmark entry named {args.only!r}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(format_json(rows, ok, args.repeat))
    else:
        print(format_table(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every command but emit-smt takes the solver flags; the one config is
    # built, and --timeout checked, before any input is read
    cfg = None
    if args.command != "emit-smt":
        try:
            cfg = SolverConfig(args.solver, args.timeout)
        except ValueError as e:
            print(f"error: --{e}", file=sys.stderr)
            return 3
    try:
        if args.command == "check":
            return cmd_check(args, cfg)
        if args.command == "emit-smt":
            return cmd_emit_smt(args)
        if args.command == "oracle":
            return cmd_oracle(args, cfg)
        return cmd_bench(args, cfg)
    except (OSError, ProblemError, ContainerError, SolverError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
