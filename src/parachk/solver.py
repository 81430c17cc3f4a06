"""Deciding a problem: the engine router, running the external SMT solver,
and reading its results.

`check` is the one driver of every decision, on each of its backends. It
propagates the examples first, and a conflict visible there is already the
verdict. Then it decides a fold's base case, the raw set `e(extra) =
base`, once, by the oracle's scans alone, with no budget: a refuted base
case is the verdict, and nothing else runs. Then it decides the steps.
Backend "auto" sends them to the brute-force oracle's one entry point,
`oracle.oracle_decide`, with a budget of ORACLE_MAX_STEPS steps and no
script or process. A raw, map or shape-complete set has one completion,
the one that guesses nothing. Of a shape-incomplete set, the oracle first
decides what every realization shares: the shapes the pinned ones force,
and the guess-free part, the steps whose intermediates all have known
shapes. Then it searches once per guess of a small shape (lists of length
0..4, both values of a bool, ints no known shape holds or 0) for every
fold intermediate left. Raw and map sets are settled by scans alone, and
so is any position that no intermediate ties; only positions tied through
fold intermediates are searched. `oracle_verdict` is the one replay gate
of an oracle witness: it counts only once it replays. Unrealizable needs
no solver only where it holds for every shape: a failed scan or search of
a shape-complete set, a conflict that involves no guessed shape (a forced
clash among them), a refuted guess-free part, or every completion refuted
when no result slot is a list length. The SMT path decides everything
else: a fold set that no rule and no completion settles, and a search that
spends its budget or proposes a witness that fails replay. The budget is
the oracle's one limit, so in the worst case a set reaches SMT only after
ORACLE_MAX_STEPS steps of search.
Backend "smt" always takes the SMT path for the steps, so the oracle can
be cross-checked against it. Backend "oracle", which `parachk oracle`
runs, takes the same oracle steps without a budget or an SMT fallback.
They end, since the guesses are finite, but their time can grow
exponentially in the searched positions.

The solver runs as a one-shot subprocess fed SMT-LIB2 on standard input
(`z3 -in` by default, overridable per call or through the PARACHK_SOLVER
environment variable). A `sat` answer is never trusted raw: the model text
is parsed, the morphism tables and intermediates are read off it, and every
constraint is replayed concretely (`interpret`). Only a witness that
survives this replay yields a Realizable verdict.

A model is read once. Each `define-fun` whose body starts with a chain of
`(ite (and (= x!0 c0) (= x!1 c1) ...) v ...)` tests becomes a point table
(argument tuple -> value term) plus the fallback term the chain ends in, so
reading n table entries costs O(n) rather than a walk of the chain per
entry. Bodies of any other form, z3's auxiliary `f!12`-style functions
among them, are evaluated by the general term evaluator. A model that is
malformed or cannot be evaluated (wrong arity, division by zero) is not a
witness, and the verdict is Unknown.
"""

from __future__ import annotations

import operator
import os
import re
import shlex
import time
from typing import NamedTuple

from .encode import SmtScript, encode, mid_terms, shrink_assertions
from .functors import Record, schema_of
from .oracle import BoundExceeded, StepBudget, oracle_decide
from .problem import Problem
from .propagate import ConstraintSet, Known, PropagationUnrealizable, propagate, read_inputs
from .verdict import (
    Realizable,
    Unrealizable,
    UnknownVerdict,
    Verdict,
    WitnessSummary,
    validate_summary,
)


def default_solver_command() -> str:
    return os.environ.get("PARACHK_SOLVER", "z3 -in")


class SolverConfig(Record):
    """The solver's command line, `default_solver_command()` when none is
    given, and its timeout per call."""

    __slots__ = ("solver_command", "timeout_ms")
    solver_command: str
    timeout_ms: int

    def __init__(self, solver_command: str | None = None, timeout_ms: int = 10_000):
        # the subprocess wait takes its timeout as a C int of milliseconds
        if not 0 < timeout_ms <= 2**31 - 1:
            raise ValueError(
                f"timeout must be from 1 to {2**31 - 1} milliseconds, not {timeout_ms}"
            )
        if solver_command is None:
            solver_command = default_solver_command()
        object.__setattr__(self, "solver_command", solver_command)
        object.__setattr__(self, "timeout_ms", timeout_ms)


class RawResult(NamedTuple):
    kind: str  # "sat" | "unsat" | "unknown" | "timeout" | "error"
    model_text: str
    duration_ms: float
    detail: str = ""


class SolverError(Exception):
    pass


def run_solver(script: SmtScript, cfg: SolverConfig) -> RawResult:
    # imported here, not at the top: it brings signal, selectors and
    # threading, which a check that never spawns a solver need not load
    import subprocess

    try:
        cmd = shlex.split(cfg.solver_command)
    except ValueError as e:
        raise SolverError(f"cannot parse solver command {cfg.solver_command!r}: {e}") from None
    if not cmd:
        raise SolverError("empty solver command")
    text = script.text()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            input=text,
            capture_output=True,
            text=True,
            errors="replace",
            timeout=cfg.timeout_ms / 1000.0,
        )
    except OSError as e:  # missing, a directory, not executable, no shebang
        raise SolverError(f"cannot spawn solver {cmd[0]!r}: {e}") from None
    except subprocess.TimeoutExpired:
        return RawResult("timeout", "", (time.perf_counter() - start) * 1000.0)
    duration = (time.perf_counter() - start) * 1000.0
    lines = proc.stdout.splitlines()
    status = next((ln.strip() for ln in lines if ln.strip()), "")
    if status == "sat":
        idx = lines.index(next(ln for ln in lines if ln.strip() == "sat"))
        return RawResult("sat", "\n".join(lines[idx + 1 :]), duration)
    if status == "unsat":
        return RawResult("unsat", "", duration)
    if status == "unknown":
        return RawResult("unknown", "", duration)
    detail = (proc.stdout + proc.stderr).strip()
    return RawResult("error", "", duration, detail or f"exit status {proc.returncode}")


# ---------------------------------------------------------------------------
# Model parsing and evaluation


class ModelError(Exception):
    pass


_TOKEN = re.compile(r"""\(|\)|[^\s()]+""")
_INT = re.compile(r"^-?\d+$")


def _parse_sexprs(text: str) -> list:
    """Nested token lists, built with an explicit stack: a model's ite
    chains nest as deep as its tables are long."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ModelError("unexpected ')' in model")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ModelError("unbalanced parenthesis in model")
    return stack[0]


def _int(token: str) -> int:
    """The value of an integer token; one longer than Python converts is a
    malformed model."""
    try:
        return int(token)
    except ValueError as e:
        raise ModelError(f"integer literal in model: {e}") from None


def _literal(node) -> int | None:
    """The value of an integer literal, written `n` or `(- n)`."""
    if isinstance(node, str):
        return _int(node) if _INT.match(node) else None
    if len(node) == 2 and node[0] == "-" and isinstance(node[1], str) and _INT.match(node[1]):
        return -_int(node[1])
    return None


def _point(test, params: list[str]) -> tuple[int, ...] | None:
    """The argument tuple that `test` accepts, if the test is a conjunction
    of `(= param literal)` fixing every parameter exactly once."""
    eqs = test[1:] if isinstance(test, list) and test and test[0] == "and" else [test]
    fixed: dict[str, int] = {}
    for eq in eqs:
        if not (isinstance(eq, list) and len(eq) == 3 and eq[0] == "="):
            return None
        _, a, b = eq
        if isinstance(a, str) and a in params:
            name, value = a, _literal(b)
        elif isinstance(b, str) and b in params:
            name, value = b, _literal(a)
        else:
            return None
        if value is None or name in fixed:
            return None
        fixed[name] = value
    if len(fixed) != len(params):
        return None
    return tuple(fixed[p] for p in params)


def _index(params: list[str], body) -> tuple[dict, object]:
    """Split `body` into a point table and a fallback term.

    The leading run of `(ite point value rest)` nodes becomes a dict from
    argument tuples to value terms; a repeated point keeps its first value,
    as the ite order decides. The first node of any other form, with
    everything below it, is the fallback for arguments not in the table.
    """
    points: dict[tuple[int, ...], object] = {}
    node = body
    while isinstance(node, list) and len(node) == 4 and node[0] == "ite":
        point = _point(node[1], params)
        if point is None:
            break
        points.setdefault(point, node[2])
        node = node[3]
    return points, node


# (fewest, most) arguments of each built-in operator; None: no upper bound
_ARITY = {
    "ite": (3, 3),
    "not": (1, 1),
    "abs": (1, 1),
    "-": (1, None),
    "div": (2, 2),
    "mod": (2, 2),
    "=>": (2, None),
    "=": (2, None),
    "distinct": (2, None),
    "<": (2, None),
    "<=": (2, None),
    ">": (2, None),
    ">=": (2, None),
}

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _div(a: int, b: int) -> int:
    """SMT-LIB integer division: the remainder a - b * q is never negative."""
    if b == 0:
        raise ModelError("division by zero in model")
    return a // b if b > 0 else -(a // -b)


class ModelFunctions:
    """The define-funs of a solver model, evaluable at concrete points.

    Each function is indexed once, when the model is parsed: `call` looks
    its arguments up in the point table and evaluates the single term found
    there, or the fallback term. `_eval` is the general evaluator for those
    terms and the reference the point tables are tested against.

    Functions the solver left out of the model were never constrained; they
    default to zero, matching any completion the solver could have chosen.
    """

    def __init__(self, funcs: dict):
        self.funcs = funcs
        self._tables = {name: _index(params, body) for name, (params, body) in funcs.items()}
        self._cache: dict = {}

    @classmethod
    def parse(cls, text: str) -> "ModelFunctions":
        forms = _parse_sexprs(text)
        if not forms:
            return cls({})
        model = forms[0]
        if not isinstance(model, list):
            raise ModelError("model is not a parenthesized list")
        entries = model[1:] if model and model[0] == "model" else model
        funcs = {}
        for entry in entries:
            if not isinstance(entry, list) or not entry or entry[0] != "define-fun":
                continue
            if len(entry) != 5 or not isinstance(entry[1], str):
                raise ModelError("malformed define-fun in model")
            _, name, params, _sort, body = entry
            if not isinstance(params, list) or not all(
                isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and not _INT.match(p[0])
                for p in params
            ):
                raise ModelError(f"malformed parameter list of {name!r}")
            names = [p[0] for p in params]
            if len(set(names)) != len(names):
                raise ModelError(f"repeated parameter name in {name!r}")
            funcs[name] = (names, body)
        return cls(funcs)

    def call(self, name: str, args: list[int]) -> int:
        if name not in self.funcs:
            return 0
        key = (name, tuple(args))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        params = self.funcs[name][0]
        if len(params) != len(args):
            raise ModelError(f"{name} expects {len(params)} arguments, got {len(args)}")
        points, fallback = self._tables[name]
        value = self._eval(points.get(key[1], fallback), dict(zip(params, args)))
        if isinstance(value, bool):
            value = int(value)
        self._cache[key] = value
        return value

    def _eval(self, node, env: dict):
        if isinstance(node, str):
            if node in env:
                return env[node]
            if _INT.match(node):
                return _int(node)
            if node == "true":
                return True
            if node == "false":
                return False
            if node in self.funcs:
                return self.call(node, [])
            raise ModelError(f"unbound symbol in model: {node!r}")
        if not node:
            raise ModelError("empty application in model")
        head = node[0]
        if not isinstance(head, str):
            raise ModelError("application of a compound term in model")
        fewest, most = _ARITY.get(head, (0, None))
        if len(node) - 1 < fewest or (most is not None and len(node) - 1 > most):
            raise ModelError(f"{head!r} applied to {len(node) - 1} arguments in model")
        if head == "ite":
            return self._eval(node[2] if self._eval(node[1], env) else node[3], env)
        if head == "let":
            if len(node) != 3 or not isinstance(node[1], list) or not all(
                isinstance(b, list) and len(b) == 2 and isinstance(b[0], str) for b in node[1]
            ):
                raise ModelError("malformed let in model")
            extended = dict(env)
            for name, expr in node[1]:
                extended[name] = self._eval(expr, env)
            return self._eval(node[2], extended)
        if head in ("and", "or"):
            vals = [bool(self._eval(x, env)) for x in node[1:]]
            return all(vals) if head == "and" else any(vals)
        if head == "not":
            return not self._eval(node[1], env)
        if head == "=>":
            vals = [bool(self._eval(x, env)) for x in node[1:]]
            out = vals[-1]
            for v in reversed(vals[:-1]):
                out = (not v) or out
            return out
        if head == "=":
            vals = [self._eval(x, env) for x in node[1:]]
            return all(v == vals[0] for v in vals)
        if head == "distinct":
            vals = [self._eval(x, env) for x in node[1:]]
            return len(set(vals)) == len(vals)
        if head in _COMPARE:
            vals = [self._eval(x, env) for x in node[1:]]
            return all(_COMPARE[head](a, b) for a, b in zip(vals, vals[1:]))
        if head == "+":
            return sum(self._eval(x, env) for x in node[1:])
        if head == "*":
            out = 1
            for x in node[1:]:
                out *= self._eval(x, env)
            return out
        if head == "-":
            vals = [self._eval(x, env) for x in node[1:]]
            if len(vals) == 1:
                return -vals[0]
            out = vals[0]
            for v in vals[1:]:
                out -= v
            return out
        if head in ("div", "mod"):
            a, b = (self._eval(x, env) for x in node[1:])
            q = _div(a, b)
            return q if head == "div" else a - b * q
        if head == "abs":
            return abs(self._eval(node[1], env))
        if head in self.funcs:
            return self.call(head, [self._eval(x, env) for x in node[1:]])
        raise ModelError(f"cannot evaluate model term {head!r}")


# ---------------------------------------------------------------------------
# Witness extraction


class WitnessError(Exception):
    pass


# The most positions, and the longest list, of an intermediate read off a
# model.
_MAX_REPLAYED = 20_000


def extract_witness(model_text: str, cs: ConstraintSet) -> WitnessSummary:
    """Read the morphism tables and intermediates off a sat model."""
    try:
        fns = ModelFunctions.parse(model_text)
    except ModelError as e:
        raise WitnessError(str(e)) from None

    out_schema = schema_of(cs.output_functor)
    intermediates: dict[int, Known] = {}
    inter_keys: dict[int, tuple[int, ...]] = {}
    inter_codes: dict[int, tuple[int, ...]] = {}
    try:
        for uid in range(cs.unknown_count):
            # the slot vector as the model gives it: `validate_summary`
            # checks that it refines the schema
            slots = tuple([fns.call(name, []) for name in mid_terms(uid, out_schema)])
            count = out_schema.count_value(slots)
            # a shown witness decodes a list of every length: bound them all
            if count > _MAX_REPLAYED or any(
                v > _MAX_REPLAYED
                for s, v in zip(out_schema.slots, slots)
                if s.kind == "nat"
            ):
                raise WitnessError(f"intermediate {uid} is too large to replay")
            codes = tuple([fns.call(f"elem{uid}", [q]) for q in range(count)])
            inter_keys[uid], inter_codes[uid] = slots, codes
            intermediates[uid] = Known(cs.output_functor, slots, codes)
    except (ModelError, RecursionError) as e:
        raise WitnessError(f"intermediates unreadable: {e}") from None

    shape_table: dict = {}
    position_table: dict = {}
    try:
        for c in cs.constraints:
            key, _ = read_inputs(c, inter_keys, inter_codes)
            if key not in shape_table:
                shape_table[key] = tuple(
                    fns.call(f"oshape{j}", list(key))
                    for j in range(len(out_schema.slots))
                )
            out = c.output
            targets = out.codes if type(out) is Known else inter_codes[out.uid]
            for q in range(len(targets)):
                if (key, q) not in position_table:
                    position_table[(key, q)] = fns.call("srcpos", [*key, q])
    except (ModelError, RecursionError) as e:
        raise WitnessError(str(e)) from None
    return WitnessSummary(shape_table, position_table, intermediates)


def validate_witness(model_text: str, cs: ConstraintSet) -> bool:
    """True iff the model's witness survives concrete replay (`interpret`)."""
    return isinstance(interpret(RawResult("sat", model_text, 0.0), cs), Realizable)


def interpret(raw: RawResult, cs: ConstraintSet) -> Verdict:
    """The verdict a solver's answer gives. A `sat` model is Realizable only
    once its witness survives concrete replay of every constraint;
    unparseable or corrupt models are simply not witnesses."""
    if raw.kind == "unsat":
        return Unrealizable()
    if raw.kind == "timeout":
        return UnknownVerdict("timeout")
    if raw.kind == "unknown":
        return UnknownVerdict("solver-unknown")
    if raw.kind == "error":
        raise SolverError(raw.detail)
    try:
        summary = extract_witness(raw.model_text, cs)
    except WitnessError:
        return UnknownVerdict("witness-validation-failed")
    if not validate_summary(cs, summary):
        return UnknownVerdict("witness-validation-failed")
    return Realizable(summary)


def oracle_verdict(cs: ConstraintSet, budget: StepBudget | None = None) -> Verdict:
    """The oracle's verdict (`oracle.oracle_decide`), except that a
    Realizable witness that fails replay gives Unknown, as a solver's does.
    Unknown where SMT must decide: every guessed completion refuted. Spending
    `budget` raises BoundExceeded; without one the oracle runs the same
    steps to the end."""
    verdict = oracle_decide(cs, budget)
    if isinstance(verdict, Realizable) and not validate_summary(cs, verdict.witness):
        return UnknownVerdict("witness-validation-failed")
    return verdict


# ---------------------------------------------------------------------------
# End-to-end check


# Steps the oracle may spend on a routed set before `check` hands the set
# to SMT, its one limit; backend "oracle" runs the same steps without one.
ORACLE_MAX_STEPS = 20_000

BACKENDS = ("auto", "smt", "oracle")


class CheckReport(NamedTuple):
    verdict: Verdict
    total_ms: float
    solver_ms: float
    # which path decided: "fast-path" (propagation), "oracle" (a refuted
    # base case or a shape-complete set), "oracle+completion" (a
    # shape-incomplete set settled in-process: by forced shapes, its
    # guess-free part or guessed intermediate shapes), "smt", or
    # "smt+shrink" (a second, shrink-bounded script ran after `sat`)
    path: str = "smt"


def check(
    problem: Problem,
    cfg: SolverConfig | None = None,
    backend: str = "auto",
) -> CheckReport:
    """Decide `problem`: propagate, then decide a fold's base case once,
    then its steps (`_steps`). A propagation conflict (path "fast-path") or
    a refuted base case (path "oracle") is the verdict; a base witness that
    fails replay turns Realizable steps into Unknown. The base case,
    `cs.base_case`, constrains only the sketch's `e`, a container morphism
    from the extra functor to the result functor; no SMT script asserts it,
    so the oracle decides it on every backend, by scans alone."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, not {backend!r}")
    start = time.perf_counter()
    solver_ms, path = 0.0, "oracle"
    try:
        cs = propagate(problem)
    except PropagationUnrealizable as e:
        verdict, path = Unrealizable(e.reason), "fast-path"
    else:
        base = None if cs.base_case is None else oracle_verdict(cs.base_case)
        if isinstance(base, Unrealizable):
            detail = "no container morphism of the extra argument gives every base"
            verdict = Unrealizable(f"{detail}: {base.detail}" if base.detail else detail)
        else:
            verdict, solver_ms, path = _steps(cs, cfg, backend)
            if isinstance(base, UnknownVerdict) and isinstance(verdict, Realizable):
                verdict = UnknownVerdict("base-case-undecided")
    return CheckReport(verdict, (time.perf_counter() - start) * 1000.0, solver_ms, path)


def _steps(cs: ConstraintSet, cfg: SolverConfig | None, backend: str) -> tuple[Verdict, float, str]:
    """The verdict on the steps of `cs`, the solver time and the path. The
    oracle (`oracle_verdict`) decides them first, within ORACLE_MAX_STEPS
    steps on "auto" and with no budget on "oracle": "oracle+completion"
    for a shape-incomplete set, "oracle" for the rest. Backend "oracle"
    stops there; "auto" hands SMT what the oracle leaves open, and "smt"
    hands it everything: encode, solve, shrink, extract and replay."""
    if backend != "smt":
        budget = StepBudget(ORACLE_MAX_STEPS) if backend == "auto" else None
        try:
            verdict = oracle_verdict(cs, budget)
        except BoundExceeded:
            pass  # the search spent the budget
        else:
            if backend == "oracle" or not isinstance(verdict, UnknownVerdict):
                return verdict, 0.0, "oracle+completion" if cs.unpinned else "oracle"
    cfg = cfg or SolverConfig()
    path = "smt"
    script = encode(cs)
    raw = run_solver(script, cfg)
    solver_ms = raw.duration_ms
    if raw.kind == "sat" and cs.unknown_count:
        # settle the verdict on the exact script, then hunt for a small
        # witness: solvers may pick huge unconstrained intermediate shapes
        bounded = SmtScript(
            script.logic,
            script.declarations,
            script.assertions + tuple(shrink_assertions(cs)),
        )
        shrink_cfg = SolverConfig(
            solver_command=cfg.solver_command,
            timeout_ms=min(cfg.timeout_ms, 2_000),
        )
        raw2 = run_solver(bounded, shrink_cfg)
        solver_ms += raw2.duration_ms
        path = "smt+shrink"
        if raw2.kind == "sat":
            raw = raw2
    return interpret(raw, cs), solver_ms, path
