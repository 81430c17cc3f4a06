"""Oracle versus SMT backend on random instances, shape complete and
shape incomplete. The acceptance suite runs the full 200-instance agreement
check; this is the fast everyday version."""

import glob
import itertools
import random

from parachk import (
    ID,
    MaybeOf,
    Realizable,
    UnknownVerdict,
    Unrealizable,
    check,
    load_problem,
    oracle_decide,
    propagate,
    shape_complete,
    validate_summary,
)
from parachk import solver
from parachk.oracle import PART_REFUTED, StepBudget
from parachk.verdict import verdict_name

import support
from conftest import needs_solver


def drawn_incomplete_folds(seed: int, count: int) -> list:
    """The first `count` shape-incomplete sets among drawn folds with
    examples dropped, odd draws mutated."""
    rng = random.Random(seed)
    found = []
    for i in itertools.count():
        p = support.random_foldr_problem(rng, realizable=i % 2 == 0)
        p = support.dropped_examples(rng, p)
        if not shape_complete(p).complete:
            found.append(p)
            if len(found) == count:
                return found


# Among them, the auto route refutes one set by a refuted guess-free part,
# one by a forced clash and one, of result Maybe(Id), by refuting every
# guess; a solver meets each only here
INCOMPLETE_FOLDS = (39, 40)


@needs_solver
def test_oracle_and_solver_agree_on_random_instances(cfg):
    rng = random.Random(2024)
    for _ in range(40):
        p = support.random_problem(rng)
        assert shape_complete(p).complete
        cs = propagate(p)
        oracle_verdict = oracle_decide(cs)
        solver_verdict = check(p, cfg, backend="smt").verdict
        assert support.same_variant(oracle_verdict, solver_verdict), (
            f"{p.name}: oracle {verdict_name(oracle_verdict)} vs "
            f"solver {verdict_name(solver_verdict)}"
        )
    # where the auto route and SMT both decide a shape-incomplete set, they
    # agree
    for p in drawn_incomplete_folds(*INCOMPLETE_FOLDS):
        auto = check(p, cfg).verdict
        smt = check(p, cfg, backend="smt").verdict
        if not isinstance(auto, UnknownVerdict) and not isinstance(smt, UnknownVerdict):
            assert support.same_variant(auto, smt), (
                f"{p.name}: auto {verdict_name(auto)} vs smt {verdict_name(smt)}"
            )


def test_the_incomplete_folds_reach_every_in_process_refutation(no_spawn):
    # the auto route decides them all without a solver, and the three
    # refutations of a shape-incomplete set are among its answers
    details = []
    for p in drawn_incomplete_folds(*INCOMPLETE_FOLDS):
        report = check(p, no_spawn)
        assert not isinstance(report.verdict, UnknownVerdict), p.name
        if isinstance(report.verdict, Unrealizable) and report.path == "oracle+completion":
            details.append((report.verdict.detail, p.signature.result))
    assert any(d.startswith(PART_REFUTED) for d, _ in details), details
    assert any("has the shape" in d for d, _ in details), details
    assert ("", MaybeOf(ID)) in details, details


@needs_solver
def test_oracle_and_solver_agree_on_the_benchmark(cfg):
    from parachk import corpus

    for entry in corpus():
        cs = propagate(entry.problem_sc)
        oracle_verdict = oracle_decide(cs)
        solver_verdict = check(entry.problem_sc, cfg, backend="smt").verdict
        assert support.same_variant(oracle_verdict, solver_verdict), entry.name
        assert verdict_name(oracle_verdict).startswith(
            "Realizable" if entry.expected_fold else "Unrealizable"
        ), entry.name
    # the shape-incomplete sets and the problem files, which the auto route
    # decides by forced shapes, guess-free parts and guesses: a verdict it
    # gives must be the solver's
    problems = [entry.problem_si for entry in corpus()]
    problems += [load_problem(path) for path in sorted(glob.glob("problems/*.json"))]
    # the wide sets whose 20 positions the oracle searches in-process
    problems += [support.big_concat(), support.refuted_wide_concat()]
    # and a set where a guess forces a shape past every candidate
    problems.append(support.forced_past_candidates())
    for p in problems:
        auto = check(p, cfg).verdict
        if not isinstance(auto, UnknownVerdict):
            smt = check(p, cfg, backend="smt").verdict
            assert support.same_variant(auto, smt), (
                f"{p.name}: auto {verdict_name(auto)} vs smt {verdict_name(smt)}"
            )
    # the oracle decides that set past the auto route's step budget
    p = problems[-1]
    assert support.same_variant(
        solver.oracle_verdict(propagate(p), StepBudget(10**6)),
        check(p, cfg, backend="smt").verdict,
    )


@needs_solver
def test_solver_witnesses_replay_like_oracle_witnesses(cfg):
    rng = random.Random(555)
    validated = 0
    for _ in range(20):
        p = support.random_foldr_problem(rng)
        cs = propagate(p)
        report = check(p, cfg, backend="smt")
        if isinstance(report.verdict, Realizable):
            assert validate_summary(cs, report.verdict.witness)
            validated += 1
        oracle_verdict = oracle_decide(cs)
        if isinstance(oracle_verdict, Realizable):
            assert validate_summary(cs, oracle_verdict.witness)
    assert validated >= 5
