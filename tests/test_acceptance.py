"""Acceptance suite. Each test enforces one acceptance criterion at its
stated tolerance and prints one PASS/FAIL line (run with `pytest -s` to see
them live).

  1. benchmark shape-complete verdicts reproduce the fold column exactly,
     under a 10 s per-instance timeout, whole suite under 3 minutes;
  2. shape-incomplete verdicts match for at least 14 of 16 functions, with
     unzip allowed to time out;
  3. reverse-as-map is proved unrealizable in under 2 seconds;
  4. the minimal two-example tail set is proved unrealizable although it is
     shape incomplete;
  5. oracle and solver verdicts agree on every shape-complete benchmark
     instance and on 200 random shape-complete instances;
  6. six property suites of at least 100 random cases each;
  7. every Realizable verdict carries a witness that survives concrete
     replay;
  8. the recorded median shape-complete check time stays under 1 second.
"""

import random
import statistics
import time

import pytest

from parachk import (
    ID,
    INT,
    ListOf,
    MaybeOf,
    ProdOf,
    Realizable,
    SolverConfig,
    UNIT,
    Unrealizable,
    check,
    corpus,
    flatten_shape,
    from_extension,
    load_problem,
    oracle_decide,
    propagate,
    relabel_problem,
    shape_complete,
    shape_of,
    size_of,
    to_extension,
    validate_summary,
)
from parachk.bench import run_bench
from parachk.functors import UnsupportedFunctor, shape_key
from parachk.propagate import PropagationUnrealizable
from parachk.verdict import verdict_name

import support
from conftest import solver_available

pytestmark = pytest.mark.skipif(
    not solver_available(), reason="acceptance needs an SMT solver on PATH"
)

CFG = SolverConfig(timeout_ms=10_000)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bench_run():
    start = time.perf_counter()
    rows, ok = run_bench(CFG, backend="smt")
    wall = time.perf_counter() - start
    return rows, ok, wall


@pytest.fixture(scope="module")
def agreement_run():
    """Shared by criteria 5 and 7: verdict pairs plus every Realizable
    witness encountered."""
    rng = random.Random(987654321)
    realizable_evidence = []
    disagreements = []
    for entry in corpus():
        cs = propagate(entry.problem_sc)
        oracle_v = oracle_decide(cs)
        solver_v = check(entry.problem_sc, CFG, backend="smt").verdict
        if not support.same_variant(oracle_v, solver_v):
            disagreements.append((entry.name, verdict_name(oracle_v), verdict_name(solver_v)))
        for v in (oracle_v, solver_v):
            if isinstance(v, Realizable):
                realizable_evidence.append((cs, v.witness))
    n_random = 200
    for i in range(n_random):
        p = support.random_problem(rng)
        cs = propagate(p)
        oracle_v = oracle_decide(cs)
        solver_v = check(p, CFG, backend="smt").verdict
        if not support.same_variant(oracle_v, solver_v):
            disagreements.append((p.name, verdict_name(oracle_v), verdict_name(solver_v)))
        for v in (oracle_v, solver_v):
            if isinstance(v, Realizable):
                realizable_evidence.append((cs, v.witness))
    return disagreements, realizable_evidence, 16 + n_random


def test_criterion_1_benchmark_sc_verdicts(bench_run):
    rows, _, wall = bench_run
    mismatches = [
        (r.name, r.sc_verdict)
        for r in rows
        if r.sc_verdict != ("Realizable" if r.expected_fold else "Unrealizable")
    ]
    ok = not mismatches and len(rows) == 16 and wall < 180.0
    _report(
        1,
        ok,
        f"16/16 shape-complete verdicts match the fold column in {wall:.1f}s"
        if ok
        else f"mismatches {mismatches}, wall {wall:.1f}s",
    )


def test_criterion_2_benchmark_si_verdicts(bench_run):
    rows, _, _ = bench_run
    matches = 0
    for r in rows:
        expected = "Realizable" if r.expected_fold else "Unrealizable"
        if r.si_verdict == expected:
            matches += 1
        elif r.name == "unzip" and r.si_verdict.startswith("Unknown"):
            matches += 1
    _report(2, matches >= 14, f"{matches}/16 shape-incomplete verdicts match (need >= 14)")


def test_criterion_3_reverse_as_map():
    report = check(load_problem("problems/reverse_as_map.json"), CFG)
    ok = isinstance(report.verdict, Unrealizable) and report.total_ms < 2_000
    _report(3, ok, f"reverse-as-map: {verdict_name(report.verdict)} in {report.total_ms:.0f} ms")


def test_criterion_4_tail_minimal_proof():
    p = load_problem("problems/tail_as_foldr_minimal.json")
    assert not shape_complete(p).complete
    report = check(p, CFG)
    ok = isinstance(report.verdict, Unrealizable)
    _report(4, ok, f"two-example tail set: {verdict_name(report.verdict)} (shape incomplete)")


def test_criterion_5_oracle_agreement(agreement_run):
    disagreements, _, total = agreement_run
    _report(
        5,
        not disagreements,
        f"oracle and solver agree on {total}/{total} shape-complete instances"
        if not disagreements
        else f"disagreements: {disagreements[:5]}",
    )


def test_criterion_6_property_suites():
    rng = random.Random(555000111)

    # extension roundtrip, one shape per key of every functor, and
    # size/schema coherence where the functor has a schema
    functor_pool = support.F_POOL + support.G_POOL + [
        UNIT,
        ListOf(ListOf(ID)),
        ListOf(MaybeOf(ID)),
        MaybeOf(ListOf(ProdOf(ID, INT))),
    ]
    roundtrip = coherence = 0
    shapes = {}
    for _ in range(120):
        f = rng.choice(functor_pool)
        v = support.random_value(rng, f)
        assert from_extension(to_extension(f, v)) == v
        roundtrip += 1
        shape = shape_of(f, v)
        key = shape_key(f, shape)
        assert shapes.setdefault((f, key), shape) == shape
        try:
            sch = flatten_shape(f)
        except UnsupportedFunctor:
            continue
        assert sch.encode_shape(shape) == key
        assert sch.count_value(key) == size_of(f, shape)
        assert support.schema_shape(sch, key) == shape
        coherence += 1

    def oracle_verdict(p):
        try:
            return oracle_decide(propagate(p))
        except PropagationUnrealizable as e:
            return Unrealizable(e.reason)

    # atom-relabeling invariance
    relabel = 0
    for _ in range(100):
        p = support.random_problem(rng)
        q = relabel_problem(p, support.fresh_relabeling(p))
        assert support.same_variant(oracle_verdict(p), oracle_verdict(q))
        relabel += 1
    for _ in range(25):
        p = support.random_problem(rng)
        q = relabel_problem(p, support.fresh_relabeling(p))
        assert support.same_variant(check(p, CFG, backend="smt").verdict, check(q, CFG, backend="smt").verdict)

    # example-order invariance
    orders = 0
    for _ in range(100):
        p = support.random_problem(rng)
        q = support.permuted_examples(rng, p)
        assert support.same_variant(oracle_verdict(p), oracle_verdict(q))
        orders += 1
    for _ in range(25):
        p = support.random_problem(rng)
        q = support.permuted_examples(rng, p)
        assert support.same_variant(check(p, CFG, backend="smt").verdict, check(q, CFG, backend="smt").verdict)

    # unrealizability is monotone under example addition
    monotone = 0
    while monotone < 100:
        p = support.random_foldr_problem(rng, realizable=rng.random() < 0.35)
        before = oracle_verdict(p)
        q = support.duplicate_relabeled_example(rng, p)
        after = oracle_verdict(q)
        if isinstance(before, Unrealizable):
            assert isinstance(after, Unrealizable)
        monotone += 1
    for _ in range(15):
        p = support.random_foldr_problem(rng, realizable=False)
        if isinstance(check(p, CFG, backend="smt").verdict, Unrealizable):
            grown = support.duplicate_relabeled_example(rng, p)
            assert isinstance(check(grown, CFG, backend="smt").verdict, Unrealizable)

    # a constant monomorphic extra argument never changes the verdict
    constant = 0
    while constant < 100:
        p = support.random_problem(rng)
        if p.signature.extra != UNIT:
            continue
        q = support.with_constant_extra(p, literal=7)
        assert support.same_variant(oracle_verdict(p), oracle_verdict(q))
        constant += 1
    solver_constant = 0
    while solver_constant < 15:
        p = support.random_problem(rng)
        if p.signature.extra != UNIT:
            continue
        q = support.with_constant_extra(p, literal=7)
        assert support.same_variant(check(p, CFG, backend="smt").verdict, check(q, CFG, backend="smt").verdict)
        solver_constant += 1

    _report(
        6,
        True,
        f"property suites: roundtrip {roundtrip}, coherence {coherence}, "
        f"relabel {relabel}+25smt, order {orders}+25smt, monotone {monotone}+15smt, "
        f"constant-extra {constant}+15smt",
    )


def test_criterion_7_witness_soundness(agreement_run):
    _, evidence, _ = agreement_run
    bad = sum(1 for cs, witness in evidence if not validate_summary(cs, witness))
    _report(
        7,
        bad == 0 and len(evidence) > 0,
        f"{len(evidence)}/{len(evidence)} Realizable witnesses replay concretely",
    )


def test_criterion_8_recorded_median(bench_run):
    rows, _, _ = bench_run
    median = statistics.median([r.sc_ms for r in rows])
    _report(8, median < 1_000, f"median shape-complete check time {median:.1f} ms (< 1000 ms)")
