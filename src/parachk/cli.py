"""Command-line interface.

Exit codes: 0 Realizable, 1 Unrealizable, 2 Unknown, 3 errors (usage
errors, missing or invalid input, solver failures, oracle preconditions),
4 cross-check disagreement. `bench` exits 0 iff every shape-complete
verdict matches the expected fold column and every shape-incomplete
verdict is the expected one or Unknown.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bench import format_json, format_table, run_bench
from .encode import encode
from .functors import ContainerError
from .oracle import OracleError, Ungroundable
from .problem import ProblemError, load_problem
from .propagate import PropagationUnrealizable, propagate, shape_complete
from .solver import (
    BACKENDS,
    SolverConfig,
    SolverError,
    check,
    oracle_verdict,
    with_base_case,
)
from .verdict import (
    Realizable,
    Unrealizable,
    describe_witness,
    same_variant,
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


def _config(args) -> SolverConfig:
    if args.solver is not None:
        return SolverConfig(solver_command=args.solver, timeout_ms=args.timeout)
    return SolverConfig(timeout_ms=args.timeout)


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
        "a 20,000-step budget, SMT the rest",
    )
    p_check.add_argument("path")
    p_check.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="auto (default): try the oracle first, with guessed shapes for unpinned "
        "fold intermediates; smt: always use the SMT solver",
    )
    p_check.add_argument("--witness", action="store_true", help="print the witness tables on Realizable")
    p_check.add_argument("--format", choices=["table", "json"], default="table")
    _solver_flags(p_check)

    p_emit = subs.add_parser("emit-smt", help="print the SMT-LIB2 script for a problem file")
    p_emit.add_argument("path")

    p_oracle = subs.add_parser("oracle", help="decide one problem with the brute-force oracle")
    p_oracle.add_argument("path")
    p_oracle.add_argument("--witness", action="store_true")
    p_oracle.add_argument("--cross-check", action="store_true", help="also run the SMT backend and fail on disagreement")
    p_oracle.add_argument("--format", choices=["table", "json"], default="table")
    _solver_flags(p_oracle)

    p_bench = subs.add_parser("bench", help="run the 16-function fold benchmark")
    p_bench.add_argument("--repeat", type=_repeat_count, default=1, metavar="K", help="report the median timing over K runs")
    p_bench.add_argument("--only", default=None, metavar="NAME", help="run a single benchmark entry")
    p_bench.add_argument("--format", choices=["table", "json"], default="table")
    _solver_flags(p_bench)

    return parser


def cmd_check(args) -> int:
    problem = load_problem(args.path)
    report = check(problem, _config(args), backend=args.backend)
    name = verdict_name(report.verdict)
    if args.format == "json":
        payload = {
            "name": problem.name,
            "verdict": name,
            "total_ms": round(report.total_ms, 3),
            "solver_ms": round(report.solver_ms, 3),
            "path": report.path,
        }
        if isinstance(report.verdict, Unrealizable):
            payload["detail"] = report.verdict.detail
        print(json.dumps(payload, indent=2))
    else:
        print(f"{problem.name}: {name} ({report.total_ms:.1f} ms total, {report.solver_ms:.1f} ms solver)")
        if args.witness and isinstance(report.verdict, Realizable):
            print(describe_witness(report.verdict.witness))
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


def cmd_oracle(args) -> int:
    problem = load_problem(args.path)
    try:
        cs = propagate(problem)
        verdict = with_base_case(cs, oracle_verdict(cs))
    except PropagationUnrealizable as e:
        verdict = Unrealizable(e.reason)
    except Ungroundable:
        print("error: the oracle needs a shape-complete example set; missing:", file=sys.stderr)
        for m in shape_complete(problem).missing:
            print(f"  {m}", file=sys.stderr)
        return 3

    if args.format == "json":
        payload = {"name": problem.name, "verdict": verdict_name(verdict)}
        if isinstance(verdict, Unrealizable):
            payload["detail"] = verdict.detail
        print(json.dumps(payload, indent=2))
    else:
        print(f"{problem.name}: {verdict_name(verdict)} (oracle)")
        if args.witness and isinstance(verdict, Realizable):
            print(describe_witness(verdict.witness))

    if args.cross_check:
        # pinned to SMT, so the oracle is never compared with itself
        report = check(problem, _config(args), backend="smt")
        if not same_variant(report.verdict, verdict):
            print(
                f"cross-check disagreement: oracle {verdict_name(verdict)}, "
                f"solver {verdict_name(report.verdict)}",
                file=sys.stderr,
            )
            return 4
        print(f"cross-check agrees: {verdict_name(report.verdict)}")
    return _exit_code(verdict)


def cmd_bench(args) -> int:
    rows, ok = run_bench(_config(args), repeat=args.repeat, only=args.only)
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
    if hasattr(args, "timeout"):
        try:
            _config(args)
        except ValueError as e:
            print(f"error: --{e}", file=sys.stderr)
            return 3
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "emit-smt":
            return cmd_emit_smt(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        return cmd_bench(args)
    except (OSError, ProblemError, ContainerError, SolverError, OracleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
