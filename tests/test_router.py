"""The engine router inside `check`: shape-complete sets are decided by the
oracle without a solver, and so are the shape-incomplete sets that a rule
guessing nothing refutes or a guess of small intermediate shapes settles;
the rest, and whatever the oracle cannot settle, go to SMT. The solver here
is a stub that fails when it is spawned, so a check that returns proves no
process ran, and a SolverError proves the SMT path was taken."""

import glob
import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachk import (
    Atom,
    Extension,
    ID,
    ListOf,
    ListV,
    MaybeOf,
    Realizable,
    Signature,
    SketchKind,
    SolverConfig,
    SolverError,
    UNIT,
    UnitV,
    Unrealizable,
    atom,
    build_problem,
    check,
    corpus,
    from_extension,
    ground,
    load_problem,
    propagate,
    shape_complete,
    to_extension,
    validate_summary,
    verdict_name,
)
from parachk import oracle, solver
from parachk.functors import IdS

import support
from test_cli import _fake_solver

PROBLEMS = "problems"


def assert_spawns(problem, cfg, backend="auto"):
    with pytest.raises(SolverError, match="spawned"):
        check(problem, cfg, backend=backend)


def assert_completed(problem, cfg):
    """Decided in-process with guessed intermediate shapes, and replayed."""
    report = check(problem, cfg)
    assert report.path == "oracle+completion" and report.solver_ms == 0.0
    assert isinstance(report.verdict, Realizable)
    assert validate_summary(propagate(problem), report.verdict.witness)


@pytest.mark.parametrize(
    "name, verdict",
    [
        ("atom_swap_raw", Unrealizable),
        ("reverse_as_map", Unrealizable),
        ("reverse_as_foldr", Realizable),
        ("drop_as_foldr", Unrealizable),
    ],
)
def test_shape_complete_sets_need_no_solver(no_spawn, name, verdict):
    report = check(load_problem(f"{PROBLEMS}/{name}.json"), no_spawn)
    assert report.path == "oracle" and report.solver_ms == 0.0
    assert isinstance(report.verdict, verdict)


def test_oracle_witness_replays(no_spawn):
    p = load_problem(f"{PROBLEMS}/reverse_as_foldr.json")
    report = check(p, no_spawn)
    assert isinstance(report.verdict, Realizable)
    assert validate_summary(propagate(p), report.verdict.witness)


# Twins of acceptance criteria 3 and 4 (`test_acceptance.py`), which run
# only where a solver is installed: here no solver is spawned.


def test_criterion_3_reverse_as_map_without_a_solver(no_spawn):
    report = check(load_problem(f"{PROBLEMS}/reverse_as_map.json"), no_spawn)
    assert isinstance(report.verdict, Unrealizable) and report.total_ms < 2_000
    assert report.solver_ms == 0.0


def test_criterion_4_tail_minimal_proof_without_a_solver(no_spawn):
    p = load_problem(f"{PROBLEMS}/tail_as_foldr_minimal.json")
    assert not shape_complete(p).complete
    report = check(p, no_spawn)
    assert isinstance(report.verdict, Unrealizable) and report.path == "oracle+completion"


def test_shape_incomplete_set_goes_to_smt(no_spawn):
    # the guard of every test that needs a set to reach SMT on auto
    assert_spawns(support.reverse_gap(), no_spawn)


def test_suffix_with_another_base_shape_pins_nothing(no_spawn):
    # the length-1 example has the extra shape of the length-2 one, but a
    # base of another shape. A trace key holds no base, so it pins the
    # intermediate after [z] and the set is shape complete; but Id has one
    # shape, so no container morphism gives the two base shapes. The pinned
    # shapes say so before any search, and `check` decides the base case
    # first, so its refutation is the verdict
    p = build_problem(
        "base-shapes",
        Signature(ID, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (atom("a"), [atom("x")], ListV((atom("a"),)), ListV((atom("a"),))),
            (atom("b"), [atom("y"), atom("z")], ListV((atom("b"),)), ListV((atom("b"), atom("b")))),
        ],
    )
    assert shape_complete(p).complete
    cs = propagate(p)
    with pytest.raises(oracle.ShapeConflict, match="a base clash"):
        ground(cs, oracle._pinned(cs))
    report = check(p, no_spawn)
    assert report.path == "oracle" and report.solver_ms == 0.0
    assert isinstance(report.verdict, Unrealizable)
    assert report.verdict.detail == (
        "no container morphism of the extra argument gives every base: "
        "input shape () maps to both [*] and [*,*]"
    )


ENTRIES = {e.name: e for e in corpus()}



def _route_case(case):
    if case.endswith(".json"):
        return load_problem(f"{PROBLEMS}/{case}")
    name, which = case.split("/")
    entry = ENTRIES[name]
    return entry.problem_sc if which == "sc" else entry.problem_si


# Every fold-corpus problem: its verdict and the path that decided it; none
# spawns the solver.
ROUTES = [
    ("null/sc", "Realizable", "oracle"),
    ("null/si", "Realizable", "oracle+completion"),
    ("length/sc", "Realizable", "oracle"),
    ("length/si", "Realizable", "oracle+completion"),
    ("head/sc", "Realizable", "oracle"),
    ("head/si", "Realizable", "oracle+completion"),
    ("last/sc", "Realizable", "oracle"),
    ("last/si", "Realizable", "oracle+completion"),
    ("tail/sc", "Unrealizable", "oracle"),
    ("tail/si", "Unrealizable", "oracle+completion"),
    ("init/sc", "Unrealizable", "oracle"),
    ("init/si", "Unrealizable", "oracle+completion"),
    ("reverse/sc", "Realizable", "oracle"),
    ("reverse/si", "Realizable", "oracle+completion"),
    ("index/sc", "Unrealizable", "oracle"),
    ("index/si", "Unrealizable", "oracle+completion"),
    ("drop/sc", "Unrealizable", "oracle"),
    ("drop/si", "Unrealizable", "oracle+completion"),
    ("take/sc", "Realizable", "oracle"),
    ("take/si", "Realizable", "oracle+completion"),
    ("splitAt/sc", "Realizable", "oracle"),
    ("splitAt/si", "Realizable", "oracle+completion"),
    ("append/sc", "Realizable", "oracle"),
    ("append/si", "Realizable", "oracle+completion"),
    ("prepend/sc", "Realizable", "oracle"),
    ("prepend/si", "Realizable", "oracle+completion"),
    ("zip/sc", "Realizable", "oracle"),
    ("zip/si", "Realizable", "oracle+completion"),
    ("unzip/sc", "Realizable", "oracle"),
    ("unzip/si", "Realizable", "oracle+completion"),
    ("concat/sc", "Realizable", "oracle"),
    ("concat/si", "Realizable", "oracle+completion"),
    ("atom_swap_raw.json", "Unrealizable", "oracle"),
    ("drop_as_foldr.json", "Unrealizable", "oracle"),
    ("reverse_as_foldr.json", "Realizable", "oracle"),
    ("reverse_as_map.json", "Unrealizable", "oracle"),
    ("tail_as_foldr_minimal.json", "Unrealizable", "oracle+completion"),
    ("invented_base.json", "Unrealizable", "oracle"),
]


def test_route_table_covers_the_fold_corpus():
    cases = {case for case, _, _ in ROUTES}
    expected = {f"{name}/{which}" for name in ENTRIES for which in ("sc", "si")}
    expected |= {os.path.basename(f) for f in glob.glob(f"{PROBLEMS}/*.json")}
    assert len(ROUTES) == len(cases) == 38 and cases == expected


@pytest.mark.parametrize("case, verdict, path", ROUTES)
def test_route_table(no_spawn, case, verdict, path):
    report = check(_route_case(case), no_spawn)
    assert report.solver_ms == 0.0
    assert (verdict_name(report.verdict), report.path) == (verdict, path)


@pytest.mark.parametrize("name", [n for n, e in ENTRIES.items() if e.expected_fold])
def test_realizable_incomplete_corpus_sets_are_completed(no_spawn, name):
    assert not shape_complete(ENTRIES[name].problem_si).complete
    assert_completed(ENTRIES[name].problem_si, no_spawn)


def test_incomplete_set_with_bool_slots_only_is_refuted_without_a_solver(no_spawn):
    # index: the result Maybe(Id) has the shapes N and J* only, so the
    # completions cover every shape an unpinned intermediate can take
    problem = ENTRIES["index"].problem_si
    assert problem.signature.result == MaybeOf(ID)
    report = check(problem, no_spawn)
    assert report.path == "oracle+completion" and report.solver_ms == 0.0
    assert isinstance(report.verdict, Unrealizable)


# the forced clash of init/si, and the one step of the others that no guess
# touches: the 3-element example's last, whose accumulator the 2-element
# example pins to length 1, and whose two output atoms one accumulator
# position and the head cannot both give
GUESS_FREE_REFUTATIONS = {
    "tail/si": oracle.PART_REFUTED,
    "init/si": (
        "the suffix extra (), inputs [*, *] has the shape [], so one "
        "input shape maps to both [] and [*,*]"
    ),
    "drop/si": oracle.PART_REFUTED,
}


@pytest.mark.parametrize("name", ["tail", "init", "drop"])
def test_incomplete_sets_refuted_before_any_guess(no_spawn, name):
    # every small completion is refuted, but a longer intermediate might
    # not be, so guesses alone cannot refute these sets; a rule that
    # guesses nothing refutes each
    report = check(ENTRIES[name].problem_si, no_spawn)
    assert report.path == "oracle+completion" and report.solver_ms == 0.0
    assert isinstance(report.verdict, Unrealizable)
    assert report.verdict.detail == GUESS_FREE_REFUTATIONS[f"{name}/si"]


def test_intermediate_longer_than_every_candidate_goes_to_smt(no_spawn, monkeypatch):
    p = support.reverse_gap()
    assert shape_complete(p).missing == ("extra (), inputs [*, *, *, *, *]",)
    assert_spawns(p, no_spawn)
    # a length-5 candidate realizes it
    monkeypatch.setattr(oracle, "COMPLETION_LENGTHS", range(6))
    assert_completed(p, no_spawn)


def test_conflict_among_full_examples_needs_no_completion(no_spawn):
    # [a,b] and [c,d] have one input shape but outputs of two shapes; the
    # suffix [*] is unpinned and its result has a list slot
    p = build_problem(
        "full-conflict",
        Signature(UNIT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (UnitV(), [atom("a"), atom("b")], ListV((atom("b"),)), ListV(())),
            (UnitV(), [atom("c"), atom("d")], ListV(()), ListV(())),
        ],
    )
    assert not shape_complete(p).complete
    report = check(p, no_spawn)
    assert report.path == "oracle+completion"
    assert isinstance(report.verdict, Unrealizable)
    assert "two examples with equal input shapes" in report.verdict.detail


@pytest.fixture
def groundings(monkeypatch) -> list:
    """The completion of every call `check` makes to `oracle.ground` for the
    steps of a fold, not for its base case."""
    seen = []
    real_ground = oracle.ground

    def counting_ground(cs, completion):
        if cs.base_case is not None:
            seen.append(completion)
        return real_ground(cs, completion)

    monkeypatch.setattr(oracle, "ground", counting_ground)
    return seen


def test_many_open_keys_go_to_smt_within_the_budget(no_spawn, groundings):
    # one 8-element trace leaves 7 suffixes unpinned (5**7 completions, 58
    # of them shape consistent), and its output [x4] takes an atom from its
    # inputs, so no rule that guesses nothing refutes it
    p = support.long_trace(8, ["x4"])
    assert len(shape_complete(p).missing) == 7
    assert not support.atoms_from_nowhere(p)
    assert_spawns(p, no_spawn)
    # only shape-consistent completions are grounded (a shape conflict in
    # one would escape `check`), and their searches spend the budget
    # after a few, before the first realizable one
    assert 1 <= len(groundings) <= 16


def test_long_trace_is_decided_by_guesses_and_forcing(no_spawn, monkeypatch):
    # one 300-element trace whose output is its first atom leaves 299
    # suffixes unpinned; each guess is forced down the trace, one step per
    # tie, so the guesses stay deep inside the budget and need no recursion
    p = support.long_trace(300, ["x0"])
    assert len(shape_complete(p).missing) == 299
    assert_completed(p, no_spawn)
    # each suffix is numbered once and read by its id, so the element
    # shapes hashed grow with the trace, not with its square
    calls, hashes = [0], []
    real_hash = IdS.__hash__

    def counting_hash(self):
        calls[0] += 1
        return real_hash(self)

    monkeypatch.setattr(IdS, "__hash__", counting_hash)
    for n in (200, 800):
        p = support.long_trace(n, ["x0"])
        calls[0] = 0
        assert check(p, no_spawn).path == "oracle+completion"
        hashes.append(calls[0])
    assert hashes[1] <= 6 * hashes[0], hashes


def test_refuted_base_case_spares_the_solver(no_spawn):
    # the open-keys set with the base [w], an atom no unit extra gives: the
    # refuted base case decides the set before its steps, whose searches
    # spend the budget, so nothing is spawned on either backend
    p = support.long_trace(8, ["x4"], base=["w"])
    assert len(shape_complete(p).missing) == 7
    assert not support.atoms_from_nowhere(p)
    for backend in solver.BACKENDS:
        report = check(p, no_spawn, backend=backend)
        assert report.path == "oracle" and report.solver_ms == 0.0
        assert isinstance(report.verdict, Unrealizable)
        assert report.verdict.detail.startswith(
            "no container morphism of the extra argument gives every base"
        )


def test_clash_among_pinned_shapes_grounds_no_completion(no_spawn, groundings):
    # [z], [y,z] and [x,y,z] make the morphism map the input shape
    # ((), *, [*]) to both [*] and [*,*,*], whatever is guessed; the trace
    # [a,b,c,d,e] leaves its suffix of length 4 unpinned. Every base is [],
    # so the base case holds
    p = build_problem(
        "pinned-clash",
        Signature(UNIT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (UnitV(), [atom("z")], ListV((atom("z"),)), ListV(())),
            (UnitV(), [atom("y"), atom("z")], ListV((atom("y"),)), ListV(())),
            (UnitV(), [atom("x"), atom("y"), atom("z")], ListV((atom("x"),) * 3), ListV(())),
            (UnitV(), [atom(x) for x in "abcde"], ListV(()), ListV(())),
        ],
    )
    assert shape_complete(p).missing == ("extra (), inputs [*, *, *, *]",)
    report = check(p, no_spawn)
    assert report.path == "oracle+completion" and report.solver_ms == 0.0
    assert isinstance(report.verdict, Unrealizable)
    assert report.verdict.detail == (
        "the suffix extra (), inputs [*, *] has the shape [*], "
        "so one input shape maps to both [*] and [*,*,*]"
    )
    assert groundings == []


def test_clash_through_a_base_is_unrealizable_without_a_solver(no_spawn, groundings):
    # the base [w] gives the empty suffix the shape [*], so [a] maps the
    # input shape ((), *, [*]) to [*]; the pinned suffix [c], of shape
    # [*], feeds [b,c] that input shape too, which yields [*,*]. The trace
    # [x,y,z,v] leaves its suffix of length 3 unpinned. Every extra is w
    # and every base is [w], so the base case holds
    w = ListV((atom("w"),))
    p = build_problem(
        "base-clash",
        Signature(ID, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (atom("w"), [atom("a")], ListV((atom("a"),)), w),
            (atom("w"), [atom("b"), atom("c")], ListV((atom("b"), atom("c"))), w),
            (atom("w"), [atom(x) for x in "xyzv"], w, w),
        ],
    )
    assert shape_complete(p).missing == ("extra *, inputs [*, *, *]",)
    assert isinstance(solver.base_case_verdict(propagate(p)), Realizable)
    report = check(p, no_spawn)
    assert report.path == "oracle+completion" and report.solver_ms == 0.0
    assert isinstance(report.verdict, Unrealizable)
    assert report.verdict.detail == (
        "the suffix extra *, inputs [*] has the shape [*], "
        "so one input shape maps to both [*] and [*,*]"
    )
    assert groundings == []


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_conflict_in_a_guessed_completion_is_never_unrealizable(name):
    # no guessed completion clashes when it is grounded (the argument in
    # oracle.py's module docstring), so an Unrealizable rests on a rule
    # that guesses nothing, or on every completion refuted where the
    # candidates cover every shape
    problem = ENTRIES[name].problem_si
    cs = propagate(problem)
    support.ground_every_completion(cs)
    verdict = _auto_verdict(problem)
    if isinstance(verdict, Unrealizable):
        _, covered = oracle.candidate_shapes(cs, {})
        assert covered or verdict.detail == GUESS_FREE_REFUTATIONS[f"{name}/si"]


def _from_nowhere(p):
    """p with one output atom of a nonempty example replaced by an atom
    that occurs nowhere in p; None when those outputs carry no atom."""
    examples = [[e.extra, e.inputs, e.output, e.base] for e in p.examples]
    for ex in examples:
        out = to_extension(p.signature.result, ex[2])
        if ex[1] and out.elements:
            elems = (Atom(-1, "nowhere"), *out.elements[1:])
            ex[2] = from_extension(Extension(out.functor, out.shape, elems))
            return build_problem(p.name + "-nowhere", p.signature, p.sketch, examples)
    return None


# a command that cannot be spawned: the SMT path raises before any process
NO_SOLVER = SolverConfig(solver_command="/nonexistent/parachk-test-solver")


def _auto_verdict(problem):
    """The verdict of `check` under auto, or None when it went to SMT."""
    try:
        return check(problem, NO_SOLVER).verdict
    except SolverError:
        return None


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_completion_never_contradicts_construction(seed):
    """A set realizable by construction, with examples dropped, is never
    Unrealizable under auto; its copy with an element from nowhere is never
    Realizable."""
    rng = random.Random(seed)
    p = support.random_foldr_problem(rng)
    examples = [(e.extra, e.inputs, e.output, e.base) for e in p.examples]
    kept = [ex for ex in examples if rng.random() < 0.5] or examples[-1:]
    q = build_problem(p.name, p.signature, p.sketch, kept)
    assert not isinstance(_auto_verdict(q), Unrealizable)
    r = _from_nowhere(q)
    if r is not None:
        assert not isinstance(_auto_verdict(r), Realizable)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.booleans())
def test_atom_from_nowhere_is_refuted_in_propagation(seed, drop):
    """A draw realizable by construction passes propagation; its copy with
    an element from nowhere is refuted there, for the first example whose
    output holds one, and the search with the rule off refutes it too
    wherever it is shape complete."""
    rng = random.Random(seed)
    p = support.random_foldr_problem(rng)
    if drop:
        p = support.dropped_examples(rng, p)
    assert not support.atoms_from_nowhere(p)
    propagate(p)
    r = _from_nowhere(p)
    if r is not None:
        assert support.atoms_from_nowhere(r)
        support.assert_refuted_from_nowhere(r)


def test_guess_free_rules_never_refute_a_realizable_draw():
    rng = random.Random(1917)
    for _ in range(1000):
        p = support.dropped_examples(rng, support.random_foldr_problem(rng))
        assert not isinstance(_auto_verdict(p), Unrealizable), p.name


def _wide_witness(cs) -> bool | None:
    """Whether some completion of the pinned shapes, with list lengths
    0..8, is realizable: every candidate completion grounded and searched
    in turn, with no forcing and no guess-free part. None past 2,000,000
    steps, one per completion and each unification."""
    budget = oracle.StepBudget(2_000_000)
    try:
        pinned = oracle._pinned(cs)
    except oracle.ShapeConflict:
        return False
    shapes, _ = oracle.candidate_shapes(cs, pinned)
    try:
        for combo in itertools.product(shapes, repeat=len(cs.unpinned)):
            budget.spend(1)
            try:
                gi = oracle.ground(cs, {**pinned, **dict(zip(cs.unpinned, combo))})
            except oracle.ShapeConflict:
                continue
            if isinstance(oracle.oracle_check(gi, budget), Realizable):
                return True
    except oracle.BoundExceeded:
        return None
    return False


def test_guess_free_refutations_have_no_wide_realization(monkeypatch):
    """Every shape-incomplete draw that `check` refutes has no realizable
    completion with lists up to 8 long, twice the longest candidate."""
    rng = random.Random(4242)
    refuted = []
    for _ in range(2000):
        p = support.random_foldr_problem(rng, realizable=rng.random() < 0.5)
        p = support.dropped_examples(rng, p)
        # a draw with an atom from nowhere is refuted before any guess; it
        # is checked with that rule off, so the rules below still see it
        if support.atoms_from_nowhere(p):
            support.assert_refuted_from_nowhere(p)
        with support.nowhere_rule_off():
            try:
                report = check(p, NO_SOLVER)
            except SolverError:
                continue
            if isinstance(report.verdict, Unrealizable) and report.path == "oracle+completion":
                refuted.append((p, report.verdict.detail))
    # the budget alone bounds these searches
    monkeypatch.setattr(oracle, "COMPLETION_LENGTHS", range(9))
    with support.nowhere_rule_off():
        wide = [_wide_witness(propagate(p)) for p, _ in refuted]
    assert True not in wide, [p.name for (p, _), w in zip(refuted, wide) if w]
    past_budget = wide.count(None)
    assert past_budget <= 1, f"{past_budget} of {len(refuted)} refuted sets were not checked"
    # the rules that guess nothing refute sets of their own
    forced = [d for _, d in refuted if d.startswith("the suffix ")]
    part = [d for _, d in refuted if d.startswith(oracle.PART_REFUTED)]
    assert len(forced) >= 5 and len(part) >= 10, (len(forced), len(part))


@pytest.mark.parametrize(
    "make, verdict",
    [
        (support.big_concat, Realizable),
        (support.refuted_wide_concat, Unrealizable),
        (lambda: support.wide_reverse(20), Realizable),
    ],
    ids=["concat", "refuted-concat", "reverse"],
)
def test_wide_set_is_decided_in_process(no_spawn, make, verdict):
    # 20 searched positions in one input shape, or 20 searched input
    # shapes: the step budget is the one limit, and these fit in it
    report = check(make(), no_spawn)
    assert isinstance(report.verdict, verdict) and report.path == "oracle"


def test_raw_set_of_twenty_positions_is_decided_by_scans(no_spawn):
    # a raw set holds only atoms: scans settle its 20 positions
    xs = [atom(f"x{i}") for i in range(20)]
    p = build_problem(
        "big-reverse",
        Signature(UNIT, ListOf(ID), ListOf(ID)),
        SketchKind.RAW,
        [(UnitV(), [ListV(tuple(xs))], ListV(tuple(reversed(xs))))],
    )
    report = check(p, no_spawn)
    assert isinstance(report.verdict, Realizable) and report.path == "oracle"


def test_step_budget_hands_the_set_to_smt(no_spawn, monkeypatch):
    monkeypatch.setattr(solver, "ORACLE_MAX_STEPS", 1)
    assert_spawns(load_problem(f"{PROBLEMS}/reverse_as_foldr.json"), no_spawn)


def test_rejected_oracle_witness_goes_to_smt(no_spawn, monkeypatch):
    monkeypatch.setattr(solver, "validate_summary", lambda cs, summary: False)
    assert_spawns(load_problem(f"{PROBLEMS}/reverse_as_foldr.json"), no_spawn)


def test_rejected_completion_witness_goes_to_smt(no_spawn, monkeypatch):
    monkeypatch.setattr(solver, "validate_summary", lambda cs, summary: False)
    assert_spawns(ENTRIES["reverse"].problem_si, no_spawn)


def test_smt_backend_skips_the_oracle(no_spawn):
    assert_spawns(load_problem(f"{PROBLEMS}/atom_swap_raw.json"), no_spawn, backend="smt")


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError):
        check(load_problem(f"{PROBLEMS}/atom_swap_raw.json"), backend="oracle")


# A model of the steps of problems/invented_base.json: each step conses its
# element onto the accumulator, so the steps are realizable and only the
# base [z], which the extra () cannot give, is not.
CONS_MODEL = """sat
(
  (define-fun oshape0 ((x!0 Int)) Int (+ x!0 1))
  (define-fun srcpos ((x!0 Int) (x!1 Int)) Int x!1)
  (define-fun mid0_n0 () Int 2)
  (define-fun elem0 ((x!0 Int)) Int (ite (= x!0 0) 3 1))
)"""


def _answering(tmp_path, answer: str) -> SolverConfig:
    return SolverConfig(solver_command=_fake_solver(tmp_path, answer))


@pytest.mark.parametrize("backend", ["auto", "smt"])
def test_invented_base_is_unrealizable_on_both_backends(tmp_path, backend):
    p = load_problem(f"{PROBLEMS}/invented_base.json")
    cfg = _answering(tmp_path, CONS_MODEL)
    steps, _, _ = solver._decide(propagate(p), cfg, backend)
    assert isinstance(steps, Realizable)
    report = check(p, cfg, backend=backend)
    assert isinstance(report.verdict, Unrealizable) and report.path == "oracle"
    assert report.verdict.detail.startswith(
        "no container morphism of the extra argument gives every base"
    )


@pytest.mark.parametrize(
    "name, backend, answer, path",
    [
        ("reverse_as_foldr.json", "auto", None, "oracle"),
        ("reverse-gap", "auto", "sat\n(\n)", "smt+shrink"),
        ("reverse-gap", "auto", "unsat", "smt"),
        ("reverse_as_foldr.json", "smt", "sat\n(\n)", "smt+shrink"),
        ("reverse_as_foldr.json", "smt", "unsat", "smt"),
    ],
)
def test_base_case_is_decided_once_per_fold(tmp_path, no_spawn, monkeypatch, name, backend, answer, path):
    calls = []
    real = solver.base_case_verdict

    def counting(cs):
        calls.append(cs)
        return real(cs)

    monkeypatch.setattr(solver, "base_case_verdict", counting)
    cfg = no_spawn if answer is None else _answering(tmp_path, answer)
    problem = support.reverse_gap() if name == "reverse-gap" else load_problem(f"{PROBLEMS}/{name}")
    report = check(problem, cfg, backend=backend)
    assert report.path == path and len(calls) == 1


def _wide_bases(lengths, bases=None):
    # one extra list of each length; each example is empty, so its output
    # is its base. With bases=None, e is the identity: realizable.
    # WIDE_BASES gives 13 extra shapes, or one extra of 17 positions
    extras = [ListV(tuple(atom(f"x{i}") for i in range(n))) for n in lengths]
    bases = extras if bases is None else bases(extras)
    return build_problem(
        "wide-base",
        Signature(ListOf(ID), ID, ListOf(ID)),
        SketchKind.FOLDR,
        [(x, [], b, b) for x, b in zip(extras, bases)],
    )


WIDE_BASES = [
    pytest.param(range(13), id="shapes"),
    pytest.param([17], id="positions"),
]


@pytest.mark.parametrize("lengths", WIDE_BASES)
@pytest.mark.parametrize("backend", ["auto", "smt"])
def test_wide_base_case_is_realizable(tmp_path, lengths, backend):
    # scans settle a base case of any width, and this one is the identity
    p = _wide_bases(lengths)
    cfg = _answering(tmp_path, "sat\n(\n)")
    steps, _, path = solver._decide(propagate(p), cfg, backend)
    assert isinstance(steps, Realizable)
    report = check(p, cfg, backend=backend)
    assert isinstance(report.verdict, Realizable) and report.path == path


@pytest.mark.parametrize("lengths", WIDE_BASES)
@pytest.mark.parametrize("backend", ["auto", "smt"])
def test_wide_base_from_nowhere_is_unrealizable(tmp_path, lengths, backend):
    # the same extras, but the longest base ends in an atom no extra holds
    p = _wide_bases(
        lengths, lambda extras: extras[:-1] + [ListV(extras[-1].items[:-1] + (atom("z"),))]
    )
    cfg = _answering(tmp_path, "sat\n(\n)")
    report = check(p, cfg, backend=backend)
    assert isinstance(report.verdict, Unrealizable)
    assert report.verdict.detail.startswith(
        "no container morphism of the extra argument gives every base: no input position"
    )


def test_sampled_fold_problems_have_a_parametric_base():
    rng = random.Random(0)
    for _ in range(500):
        cs = propagate(support.random_foldr_problem(rng))
        assert isinstance(oracle.oracle_decide(cs.base_case), Realizable)
