"""Solver subprocess driver, model evaluation, witness validation, and the
end-to-end check pipeline."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachk import (
    ID,
    INT,
    IntV,
    JustV,
    Known,
    ListOf,
    ListV,
    MaybeOf,
    Problem,
    Realizable,
    Signature,
    SketchKind,
    SmtScript,
    SolverConfig,
    SolverError,
    UNIT,
    UnitV,
    UnknownVerdict,
    Unrealizable,
    atom,
    build_problem,
    check,
    flatten_shape,
    interpret,
    propagate,
    run_solver,
    validate_summary,
    validate_witness,
)
from parachk.bench import corpus
from parachk.solver import (
    ModelError,
    ModelFunctions,
    RawResult,
    WitnessError,
    extract_witness,
    oracle_verdict,
)

from conftest import needs_solver


def lst(*vs):
    return ListV(tuple(vs))


TRUE_SCRIPT = SmtScript("QF_UFLIA", (), ("true",))
FALSE_SCRIPT = SmtScript("QF_UFLIA", (), ("false",))


@needs_solver
def test_run_solver_sat_unsat(cfg):
    assert run_solver(TRUE_SCRIPT, cfg).kind == "sat"
    assert run_solver(FALSE_SCRIPT, cfg).kind == "unsat"


def test_run_solver_timeout_kills_subprocess():
    cfg = SolverConfig(solver_command="sleep 5", timeout_ms=300)
    result = run_solver(TRUE_SCRIPT, cfg)
    assert result.kind == "timeout"
    assert result.duration_ms < 2_000


def test_run_solver_reports_malformed_output_verbatim():
    cfg = SolverConfig(solver_command="echo banana")
    result = run_solver(TRUE_SCRIPT, cfg)
    assert result.kind == "error"
    assert "banana" in result.detail


def test_run_solver_spawn_failure():
    cfg = SolverConfig(solver_command="definitely-not-a-solver-exe")
    with pytest.raises(SolverError):
        run_solver(TRUE_SCRIPT, cfg)


def test_unspawnable_solver_is_a_solver_error(unspawnable):
    cfg = SolverConfig(solver_command=unspawnable)
    with pytest.raises(SolverError, match="cannot spawn solver"):
        run_solver(TRUE_SCRIPT, cfg)
    p = build_problem("swap", Signature(UNIT, ID, ID), SketchKind.RAW, [(UnitV(), [atom("a")], atom("b"))])
    with pytest.raises(SolverError, match="cannot spawn solver"):
        check(p, cfg, backend="smt")


def test_run_solver_rejects_an_empty_command():
    with pytest.raises(SolverError, match="empty solver command"):
        run_solver(TRUE_SCRIPT, SolverConfig(solver_command=" "))


def test_solver_config_rejects_nonpositive_timeout():
    with pytest.raises(ValueError):
        SolverConfig(timeout_ms=0)


def test_interpret_maps_kinds():
    p = build_problem(
        "t", Signature(UNIT, ID, ID), SketchKind.RAW, [(UnitV(), [atom("a")], atom("a"))]
    )
    cs = propagate(p)
    assert isinstance(interpret(RawResult("unsat", "", 1.0), cs), Unrealizable)
    assert interpret(RawResult("timeout", "", 1.0), cs) == UnknownVerdict("timeout")
    assert interpret(RawResult("unknown", "", 1.0), cs) == UnknownVerdict("solver-unknown")
    with pytest.raises(SolverError):
        interpret(RawResult("error", "", 1.0, "boom"), cs)
    # sat with an unusable model text cannot be trusted
    assert interpret(RawResult("sat", "(((", 1.0), cs) == UnknownVerdict(
        "witness-validation-failed"
    )


# ---------------------------------------------------------------------------
# Model evaluation


def test_model_functions_evaluate_ite_let_arith():
    text = """
    (
      (define-fun f ((x!0 Int)) Int
        (let ((a!1 (ite (<= 2 x!0) 10 (- 5))))
          (ite (= x!0 0) 0 a!1)))
      (define-fun c () Int 3)
      (define-fun g ((x!0 Int) (x!1 Int)) Int (+ (* 2 x!0) x!1 c))
    )
    """
    fns = ModelFunctions.parse(text)
    assert fns.call("f", [0]) == 0
    assert fns.call("f", [1]) == -5
    assert fns.call("f", [7]) == 10
    assert fns.call("g", [3, 4]) == 13
    assert fns.call("missing", [1, 2]) == 0


def test_model_functions_wrapped_in_model_keyword():
    fns = ModelFunctions.parse("(model (define-fun k () Int 42))")
    assert fns.call("k", []) == 42


def test_model_functions_follow_smtlib_integer_semantics():
    text = """
    (
      (define-fun q () Int (div (- 7) (- 2)))
      (define-fun r () Int (mod (- 7) (- 2)))
      (define-fun chain () Bool (< 1 2 0))
    )
    """
    fns = ModelFunctions.parse(text)
    assert (fns.call("q", []), fns.call("r", []), fns.call("chain", [])) == (4, 1, 0)


def _num(n: int, minus_form: bool) -> str:
    return f"(- {-n})" if n < 0 and minus_form else str(n)


@st.composite
def ite_tables(draw):
    """A define-fun whose body is a random ite chain over small points,
    with repeats, both operand orders, both negative-literal spellings and
    tests that fix no point, plus query points in and out of the table."""
    arity = draw(st.integers(1, 3))
    params = [f"x!{i}" for i in range(arity)]
    point = st.tuples(*[st.integers(-2, 2)] * arity)
    value = st.one_of(
        st.integers(-5, 5).map(lambda n: _num(n, True)),
        st.integers(-5, 5).map(lambda n: f"(+ x!0 {_num(n, True)})"),
    )
    body = draw(st.sampled_from(["0", "x!0", f"(- x!{arity - 1})"]))
    queries = [draw(point) for _ in range(3)]
    for _ in range(draw(st.integers(0, 12))):
        p = draw(point)
        queries.append(p)
        kind = draw(st.sampled_from(["point", "point", "point", "le", "mixed"]))
        if kind == "point":
            eqs = []
            for name, c in zip(params, p):
                lit = _num(c, draw(st.booleans()))
                eqs.append(f"(= {lit} {name})" if draw(st.booleans()) else f"(= {name} {lit})")
            bare = arity == 1 and draw(st.booleans())
            test = eqs[0] if bare else "(and " + " ".join(eqs) + ")"
        elif kind == "le":
            test = f"(<= x!0 {_num(p[0], True)})"
        else:
            test = f"(and (= x!0 {_num(p[0], True)}) (> x!{arity - 1} {_num(p[-1], True)}))"
        body = f"(ite {test} {draw(value)} {body})"
    decl = " ".join(f"({name} Int)" for name in params)
    return f"((define-fun f ({decl}) Int {body}))", queries


@settings(max_examples=200)
@given(ite_tables())
def test_indexed_call_matches_generic_eval(case):
    text, queries = case
    fns = ModelFunctions.parse(text)
    params, body = fns.funcs["f"]
    for q in queries:
        assert fns.call("f", list(q)) == int(fns._eval(body, dict(zip(params, q))))


# (a body of `f`, the one parameter x, and its value at x = 2) for each
# operator and literal the other model tests do not read
_TERMS = {
    "true": ("(ite true x 0)", 2),
    "not": ("(ite (not (= x 0)) 1 0)", 1),
    "distinct": ("(+ (ite (distinct x 1 3) 1 0) (ite (distinct x 1 2) 10 0))", 1),
    "abs": ("(abs (- x 5))", 3),
}


@pytest.mark.parametrize("case", sorted(_TERMS))
def test_model_functions_evaluate_each_operator(case):
    body, value = _TERMS[case]
    fns = ModelFunctions.parse(f"((define-fun f ((x Int)) Int {body}))")
    assert fns.call("f", [2]) == value


# (a model text, and the message of the ModelError its parse raises)
_UNPARSEABLE = {
    "unexpected close": ("((define-fun f () Int 1)))", "unexpected ')'"),
    "short define-fun": ("((define-fun f () Int))", "malformed define-fun"),
    "repeated parameter": ("((define-fun f ((x Int) (x Int)) Int x))", "repeated parameter name"),
}

# (a body of `f`, whose one parameter is x, and the message of the
# ModelError a call raises)
_UNEVALUABLE = {
    "unbound symbol": ("(+ x y)", "unbound symbol"),
    "empty application": ("(+ x ())", "empty application"),
    "compound head": ("((g x) 1)", "application of a compound term"),
    "unknown operator": ("(bvadd x 1)", "cannot evaluate model term 'bvadd'"),
}


@pytest.mark.parametrize("case", sorted(_UNPARSEABLE))
def test_a_malformed_model_is_a_model_error(case):
    text, message = _UNPARSEABLE[case]
    with pytest.raises(ModelError, match=re.escape(message)):
        ModelFunctions.parse(text)


@pytest.mark.parametrize("case", sorted(_UNEVALUABLE))
def test_an_unevaluable_term_is_a_model_error(case):
    body, message = _UNEVALUABLE[case]
    fns = ModelFunctions.parse(f"((define-fun f ((x Int)) Int {body}))")
    with pytest.raises(ModelError, match=re.escape(message)):
        fns.call("f", [2])


def test_a_call_with_the_wrong_arity_is_a_model_error():
    fns = ModelFunctions.parse("((define-fun f ((x Int)) Int x))")
    with pytest.raises(ModelError, match="f expects 1 arguments, got 2"):
        fns.call("f", [1, 2])


def test_an_empty_model_and_other_entries_leave_every_function_zero():
    # a model with no forms defines nothing, and an entry that is no
    # define-fun is passed over
    assert ModelFunctions.parse("").call("f", [1]) == 0
    fns = ModelFunctions.parse("(model (declare-fun g () Int) k (define-fun f () Int 4))")
    assert (fns.call("f", []), fns.call("g", [])) == (4, 0)


def test_an_unreadable_intermediate_is_a_witness_error():
    cs = propagate(_corpus_sc("reverse"))
    with pytest.raises(WitnessError, match="intermediates unreadable: unbound symbol"):
        extract_witness("((define-fun mid0_n0 () Int y))", cs)
    assert validate_witness("((define-fun mid0_n0 () Int y))", cs) is False


def _reverse_srcpos(n: int) -> str:
    """srcpos of a raw list reverse at input length n, as an n-entry ite
    chain nested n deep."""
    tests = "".join(f"(ite (and (= x!0 {n}) (= x!1 {q})) {n - 1 - q} " for q in range(n))
    return f"(define-fun srcpos ((x!0 Int) (x!1 Int)) Int {tests}0{')' * n})"


def test_model_functions_read_a_5000_entry_table():
    n = 5000
    fns = ModelFunctions.parse(f"({_reverse_srcpos(n)})")
    assert [fns.call("srcpos", [n, q]) for q in range(n)] == list(range(n - 1, -1, -1))
    assert fns.call("srcpos", [n + 1, 0]) == 0


def test_validate_witness_accepts_a_5000_entry_table():
    n = 5000
    atoms = [atom(f"a{i}") for i in range(n)]
    p = build_problem(
        "rev-long",
        Signature(UNIT, ListOf(ID), ListOf(ID)),
        SketchKind.RAW,
        [(UnitV(), [ListV(tuple(atoms))], ListV(tuple(reversed(atoms))))],
    )
    model = f"((define-fun oshape0 ((x!0 Int)) Int (ite (= x!0 {n}) {n} 0)) {_reverse_srcpos(n)})"
    assert validate_witness(model, propagate(p))


def sum_problem():
    return build_problem(
        "sum",
        Signature(UNIT, INT, INT),
        SketchKind.FOLDR,
        [(UnitV(), [IntV(2), IntV(3), IntV(4)], IntV(10), IntV(1))],
    )


def test_validate_witness_accepts_paper_sum_intermediates():
    # handcrafted model: y1 = 5 and y2 = 8, the fold trace of (+) with base 1
    cs = propagate(sum_problem())
    model = """
    (
      (define-fun mid0_k0 () Int 5)
      (define-fun mid1_k0 () Int 8)
      (define-fun oshape0 ((x!0 Int) (x!1 Int)) Int
        (ite (and (= x!0 4) (= x!1 1)) 5
          (ite (and (= x!0 3) (= x!1 5)) 8 10)))
    )
    """
    assert validate_witness(model, cs)


def test_validate_witness_rejects_wrong_shape_morphism():
    cs = propagate(sum_problem())
    model = """
    (
      (define-fun mid0_k0 () Int 5)
      (define-fun mid1_k0 () Int 8)
      (define-fun oshape0 ((x!0 Int) (x!1 Int)) Int 5)
    )
    """
    assert not validate_witness(model, cs)


def test_validate_witness_rejects_out_of_range_position():
    p = build_problem(
        "rev1",
        Signature(UNIT, ListOf(ID), ListOf(ID)),
        SketchKind.RAW,
        [(UnitV(), [lst(atom("a"))], lst(atom("a")))],
    )
    cs = propagate(p)
    shape = "(define-fun oshape0 ((x!0 Int)) Int 1)"
    good = f"({shape} (define-fun srcpos ((x!0 Int) (x!1 Int)) Int 0))"
    bad = f"({shape} (define-fun srcpos ((x!0 Int) (x!1 Int)) Int 99))"
    assert validate_witness(good, cs)
    assert not validate_witness(bad, cs)


def test_validate_witness_rejects_garbage():
    cs = propagate(sum_problem())
    assert not validate_witness("not an s-expression (", cs)


def test_long_intermediate_without_positions_is_not_decoded():
    # a list of units has no positions, so only the length bound stops a
    # shown witness from decoding a list of 2 * 10**18 shapes
    p = build_problem(
        "units",
        Signature(UNIT, ID, ListOf(UNIT)),
        SketchKind.FOLDR,
        [(UnitV(), [atom("a"), atom("b")], lst(UnitV(), UnitV()), lst())],
    )
    cs = propagate(p)
    with pytest.raises(WitnessError, match="too large"):
        extract_witness(f"((define-fun mid0_n0 () Int {2 * 10**18}))", cs)


# ---------------------------------------------------------------------------
# An intermediate counts only as a container of the fold result: replay
# rejects a slot vector that fails the result's schema, without an
# exception, whether an oracle or a model gives it


def _just_fold() -> Problem:
    """`Just` of the input, as a fold whose result Maybe(List(Id)) guards
    its list slot with its presence bit."""
    xs = [atom(c) for c in "abc"]
    examples = [(UnitV(), xs[:n], JustV(ListV(tuple(xs[:n]))), JustV(lst())) for n in range(4)]
    return build_problem("just", Signature(UNIT, ID, MaybeOf(ListOf(ID))), SketchKind.FOLDR, examples)


# (problem, a slot vector that fails the result's schema, its model text)
_UNREFINED = {
    "negative list length": (
        lambda: _corpus_sc("reverse"), (-1,), "((define-fun mid0_n0 () Int (- 1)))",
    ),
    "bool slot of 2": (
        lambda: _corpus_sc("head"), (2,), "((define-fun mid0_b0 () Int 2))",
    ),
    "absent Maybe with a nonzero child slot": (
        _just_fold, (0, 1), "((define-fun mid0_b0 () Int 0) (define-fun mid0_n0 () Int 1))",
    ),
}


def _corpus_sc(name: str) -> Problem:
    (entry,) = [e for e in corpus() if e.name == name]
    return entry.problem_sc


@pytest.mark.parametrize("case", sorted(_UNREFINED))
def test_replay_rejects_an_intermediate_that_fails_the_schema(case):
    problem, bad, model = _UNREFINED[case]
    cs = propagate(problem())
    verdict = oracle_verdict(cs)
    assert isinstance(verdict, Realizable) and validate_summary(cs, verdict.witness)
    schema = flatten_shape(cs.output_functor)
    assert not schema.refines(bad)
    intermediates = dict(verdict.witness.intermediates)
    k = intermediates[0]
    # as many codes as the slot vector counts, where it counts any
    intermediates[0] = Known(k.functor, bad, (0,) * max(schema.count_value(bad), 0))
    assert validate_summary(cs, verdict.witness._replace(intermediates=intermediates)) is False
    assert validate_witness(model, cs) is False


def test_replay_rejects_an_intermediate_of_another_functor_or_count():
    cs = propagate(_corpus_sc("reverse"))
    witness = oracle_verdict(cs).witness
    k = witness.intermediates[0]
    for wrong in (k._replace(functor=MaybeOf(ID)), k._replace(codes=k.codes * 2), k._replace(key=k.key * 2)):
        assert validate_summary(cs, witness._replace(intermediates={**witness.intermediates, 0: wrong})) is False


def test_replay_rejects_a_witness_that_misses_an_intermediate():
    # each intermediate of the reverse trace is read by one step and yielded
    # by another; without it, the step that yields it has no output to
    # compare, and once the yielding step is dropped too, the step that
    # reads it has no input
    cs = propagate(_corpus_sc("reverse"))
    witness = oracle_verdict(cs).witness
    assert validate_summary(cs, witness)
    for uid in witness.intermediates:
        kept = {k: v for k, v in witness.intermediates.items() if k != uid}
        assert validate_summary(cs, witness._replace(intermediates=kept)) is False
        readers = [c for c in cs.constraints if getattr(c.output, "uid", None) != uid]
        assert validate_summary(cs._replace(constraints=tuple(readers)), witness._replace(intermediates=kept)) is False


# ---------------------------------------------------------------------------
# End-to-end checks


@needs_solver
def test_check_atom_swap_unsat(cfg):
    p = build_problem(
        "fAC", Signature(UNIT, ID, ID), SketchKind.RAW, [(UnitV(), [atom("A")], atom("C"))]
    )
    assert isinstance(check(p, cfg, backend="smt").verdict, Unrealizable)


@needs_solver
def test_check_reverse_raw_witness(cfg):
    p = build_problem(
        "rev",
        Signature(UNIT, ListOf(ID), ListOf(ID)),
        SketchKind.RAW,
        [
            (UnitV(), [lst(atom("a"), atom("b"), atom("c"))], lst(atom("c"), atom("b"), atom("a"))),
        ],
    )
    report = check(p, cfg, backend="smt")
    assert isinstance(report.verdict, Realizable)
    table = report.verdict.witness.position_table
    assert {q: table[((3,), q)] for q in range(3)} == {0: 2, 1: 1, 2: 0}


def test_check_map_length_mismatch_fast_path(no_spawn):
    p = build_problem(
        "widen",
        Signature(UNIT, ID, ID),
        SketchKind.MAP,
        [(UnitV(), [atom("a")], lst(atom("b"), atom("c")))],
    )
    report = check(p, no_spawn)
    assert isinstance(report.verdict, Unrealizable)
    assert report.path == "fast-path" and report.solver_ms == 0.0


def test_check_foldr_base_conflict_fast_path(no_spawn):
    p = build_problem(
        "base-conflict",
        Signature(UNIT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [(UnitV(), [], lst(atom("a")), lst())],
    )
    report = check(p, no_spawn)
    assert isinstance(report.verdict, Unrealizable) and report.path == "fast-path"


@needs_solver
def test_check_empty_map_is_realizable(cfg):
    p = build_problem(
        "empty-map", Signature(UNIT, ID, ID), SketchKind.MAP, [(UnitV(), [], lst())]
    )
    assert isinstance(check(p, cfg, backend="smt").verdict, Realizable)


@needs_solver
def test_realizable_witnesses_are_validated_before_reporting(cfg):
    # Realizable implies the summary replays; spot-check the plumbing
    from parachk import validate_summary

    p = build_problem(
        "rev-foldr",
        Signature(UNIT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (UnitV(), [atom("a"), atom("b")], lst(atom("b"), atom("a")), lst()),
            (UnitV(), [atom("c")], lst(atom("c")), lst()),
            (UnitV(), [], lst(), lst()),
        ],
    )
    report = check(p, cfg, backend="smt")
    assert isinstance(report.verdict, Realizable)
    assert validate_summary(propagate(p), report.verdict.witness)
