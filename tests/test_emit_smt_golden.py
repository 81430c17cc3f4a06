"""Golden SMT scripts: the text `emit-smt` writes for the fold corpus and
the problem files, pinned by one SHA-256 digest, and the refinement and
count terms of schemas whose Maybes guard more than one slot, written out,
so that a change in how a schema is held moves no script by a byte."""

import hashlib
import os

import pytest

from parachk.cli import main
from parachk.encode import count_term, mid_terms, refinements
from parachk.functors import flatten_shape
from parachk.problem import parse_functor

import support

SCRIPTS_SHA256 = "544f86fd79e334e5e54f23dcd96b4d79a1afb47cd7996e89d1ece0339adcdc96"


def test_scripts_are_byte_identical(capsys, tmp_path):
    lines = []
    for path in support.answer_paths(tmp_path):
        code = main(["emit-smt", path])
        out, err = capsys.readouterr()
        lines.extend([os.path.basename(path), str(code), out, err])
    assert len(lines) == 4 * 38
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SCRIPTS_SHA256


# (functor, its sorted refinement assertions, its count term), over the
# terms of intermediate 0: no corpus or problem functor has a Maybe around
# two slots, or a count with a constant and a weight above 1
_TERMS = [
    (
        "Maybe(Prod(List(Id),List(Id)))",
        [
            "(=> (= mid0_b0 0) (= mid0_n0 0))",
            "(=> (= mid0_b0 0) (= mid0_n1 0))",
            "(>= mid0_n0 0)",
            "(>= mid0_n1 0)",
            "(and (>= mid0_b0 0) (<= mid0_b0 1))",
        ],
        "(+ mid0_n0 mid0_n1)",
    ),
    (
        "Maybe(Maybe(List(Id)))",
        [
            "(=> (= mid0_b0 0) (= mid0_b1 0))",
            "(=> (= mid0_b1 0) (= mid0_n0 0))",
            "(>= mid0_n0 0)",
            "(and (>= mid0_b0 0) (<= mid0_b0 1))",
            "(and (>= mid0_b1 0) (<= mid0_b1 1))",
        ],
        "mid0_n0",
    ),
    (
        "Prod(Maybe(Prod(Id,List(Id))),Maybe(Maybe(Prod(Int,Id))))",
        [
            "(=> (= mid0_b0 0) (= mid0_n0 0))",
            "(=> (= mid0_b1 0) (= mid0_b2 0))",
            "(=> (= mid0_b2 0) (= mid0_k0 0))",
            "(>= mid0_n0 0)",
            "(and (>= mid0_b0 0) (<= mid0_b0 1))",
            "(and (>= mid0_b1 0) (<= mid0_b1 1))",
            "(and (>= mid0_b2 0) (<= mid0_b2 1))",
        ],
        "(+ mid0_b0 mid0_n0 mid0_b2)",
    ),
    (
        "Prod(Id,Prod(List(Prod(Id,Id)),Maybe(Prod(Id,Id))))",
        ["(>= mid0_n0 0)", "(and (>= mid0_b0 0) (<= mid0_b0 1))"],
        "(+ 1 (* 2 mid0_n0) (* 2 mid0_b0))",
    ),
]


@pytest.mark.parametrize("text, assertions, count", _TERMS, ids=[t[0] for t in _TERMS])
def test_refinement_and_count_terms(text, assertions, count):
    schema = flatten_shape(parse_functor(text))
    terms = mid_terms(0, schema)
    assert sorted(refinements(schema, terms)) == assertions
    assert count_term(schema, terms) == count
