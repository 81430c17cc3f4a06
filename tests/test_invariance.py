"""Verdict invariances: atom relabeling, example order, monotonicity of
unrealizability, and constant extra arguments. The everyday suite runs the
oracle (pure and fast) on many cases and the SMT backend on a few; the
acceptance suite scales these up."""

import random

from parachk import (
    PropagationUnrealizable,
    UNIT,
    Unrealizable,
    check,
    oracle_decide,
    propagate,
    relabel_problem,
)

import support
from conftest import needs_solver


def oracle_verdict(p):
    try:
        return oracle_decide(propagate(p))
    except PropagationUnrealizable as e:
        return Unrealizable(e.reason)


def test_relabeling_invariance_oracle():
    rng = random.Random(1001)
    for _ in range(60):
        p = support.random_problem(rng)
        q = relabel_problem(p, support.fresh_relabeling(p))
        assert support.same_variant(oracle_verdict(p), oracle_verdict(q))


def test_example_order_invariance_oracle():
    rng = random.Random(1002)
    for _ in range(60):
        p = support.random_problem(rng)
        q = support.permuted_examples(rng, p)
        assert support.same_variant(oracle_verdict(p), oracle_verdict(q))


def test_unrealizability_monotone_under_example_addition_oracle():
    rng = random.Random(1003)
    hits = 0
    for _ in range(80):
        p = support.random_foldr_problem(rng, realizable=rng.random() < 0.4)
        before = oracle_verdict(p)
        q = support.duplicate_relabeled_example(rng, p)
        after = oracle_verdict(q)
        if isinstance(before, Unrealizable):
            hits += 1
            assert isinstance(after, Unrealizable)
    assert hits >= 10


def test_constant_extra_argument_invariance_oracle():
    rng = random.Random(1004)
    used = 0
    for _ in range(80):
        p = support.random_problem(rng)
        if p.signature.extra != UNIT:
            continue
        q = support.with_constant_extra(p, literal=7)
        assert support.same_variant(oracle_verdict(p), oracle_verdict(q))
        used += 1
    assert used >= 20


@needs_solver
def test_invariances_hold_through_the_solver(cfg):
    rng = random.Random(1005)
    for _ in range(8):
        p = support.random_problem(rng)
        base = check(p, cfg, backend="smt").verdict
        relabeled = check(relabel_problem(p, support.fresh_relabeling(p)), cfg, backend="smt").verdict
        permuted = check(support.permuted_examples(rng, p), cfg, backend="smt").verdict
        assert support.same_variant(base, relabeled)
        assert support.same_variant(base, permuted)
        if p.signature.extra == UNIT:
            constant = check(support.with_constant_extra(p), cfg, backend="smt").verdict
            assert support.same_variant(base, constant)
        if isinstance(base, Unrealizable) and p.sketch.value == "foldr":
            grown = check(support.duplicate_relabeled_example(rng, p), cfg, backend="smt").verdict
            assert isinstance(grown, Unrealizable)
