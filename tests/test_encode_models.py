"""The SMT encoding admits every true witness.

No solver runs here, so this is checked from the other side: every witness
the oracle finds and replays is written as a model of point-table
`define-fun`s, and every assertion of `encode(cs)` must hold under it. An
assertion that failed would let a solver answer `unsat` where the oracle
found a witness, and `check` would report a wrong Unrealizable.
"""

import glob
import random

from parachk import encode, flatten_shape, load_problem, propagate
from parachk.bench import corpus
from parachk.encode import shrink_assertions
from parachk.oracle import BoundExceeded, StepBudget
from parachk.propagate import PropagationUnrealizable
from parachk.solver import ORACLE_MAX_STEPS, ModelFunctions, _parse_sexprs, oracle_verdict
from parachk.verdict import Realizable

import support

# the shrink pass bounds every list slot of an intermediate by at least 8
SHRINK_FLOOR = 8


def _num(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def _define(name: str, arity: int, table: dict) -> str:
    """A define-fun that maps each argument tuple of `table` to its value,
    as an ite chain of point tests, and every other tuple to 0."""
    params = " ".join(f"(x!{i} Int)" for i in range(arity))
    body = "0"
    for point, value in table.items():
        tests = " ".join(f"(= x!{i} {_num(v)})" for i, v in enumerate(point))
        body = f"(ite (and {tests}) {_num(value)} {body})" if tests else _num(value)
    return f"(define-fun {name} ({params}) Int {body})"


def witness_model(cs, witness) -> ModelFunctions:
    """The witness's tables and intermediates as the functions the script
    declares: `oshape{j}` and `srcpos` over input shape slots, and
    `mid{uid}_{slot}` and `elem{uid}` for each intermediate."""
    out_schema = flatten_shape(cs.output_functor)
    arity = sum(len(flatten_shape(f).slots) for f in cs.input_parts)
    defs = [
        _define(f"oshape{j}", arity, {key: out[j] for key, out in witness.shape_table.items()})
        for j in range(len(out_schema.slots))
    ]
    defs.append(_define("srcpos", arity + 1, {(*key, q): p for (key, q), p in witness.position_table.items()}))
    for uid, k in witness.intermediates.items():
        for slot, v in zip(out_schema.slots, k.key, strict=True):
            defs.append(_define(f"mid{uid}_{slot.name}", 0, {(): v}))
        defs.append(_define(f"elem{uid}", 1, {(q,): code for q, code in enumerate(k.codes)}))
    return ModelFunctions.parse("(" + "\n".join(defs) + ")")


def holds(fns: ModelFunctions, assertion: str, bound: int) -> bool:
    """The truth of one assertion under the model. A `forall` ranges over
    every q from -1 to `bound`, past the guard's range on both sides."""
    (node,) = _parse_sexprs(assertion)
    if node[0] == "forall":
        ((var, _sort),) = node[1]
        return all(fns._eval(node[2], {var: q}) for q in range(-1, bound + 1))
    return bool(fns._eval(node, {}))


def assert_admitted(p) -> str | None:
    """Check the script of `p` against the oracle's witness. The kind of
    set checked, "complete" or "completion", or None if the oracle does
    not decide `p` Realizable."""
    try:
        cs = propagate(p)
    except PropagationUnrealizable:
        return None
    try:
        verdict = oracle_verdict(cs, StepBudget(ORACLE_MAX_STEPS))
    except BoundExceeded:
        return None
    if not isinstance(verdict, Realizable):
        return None
    witness = verdict.witness
    fns = witness_model(cs, witness)
    sizes = [len(k.codes) for k in witness.intermediates.values()]
    bound = max(sizes, default=0) + 1
    for assertion in encode(cs).assertions:
        assert holds(fns, assertion, bound), f"{p.name}: the witness violates {assertion}"
    if max(sizes, default=0) <= SHRINK_FLOOR:
        for assertion in shrink_assertions(cs):
            assert holds(fns, assertion, bound), f"{p.name}: the shrink pass excludes {assertion}"
    return "completion" if cs.unpinned else "complete"


def test_every_oracle_witness_of_the_corpus_and_problem_files_is_a_model():
    problems = [p for entry in corpus() for p in (entry.problem_sc, entry.problem_si)]
    problems += [load_problem(path) for path in sorted(glob.glob("problems/*.json"))]
    kinds = [assert_admitted(p) for p in problems]
    assert kinds.count("complete") >= 8 and "completion" in kinds


def test_every_oracle_witness_of_drawn_folds_is_a_model():
    rng = random.Random(31)
    kinds = []
    for _ in range(300):
        p = support.random_foldr_problem(rng, realizable=rng.random() < 0.8)
        kinds.append(assert_admitted(support.dropped_examples(rng, p)))
    assert kinds.count("complete") >= 50 and kinds.count("completion") >= 50
