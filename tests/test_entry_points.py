"""The two entry points, `parse_problem` and `build_problem`, read values
alike: the same problem from the same examples, and the same error for a
field that no problem file can express."""

from pathlib import Path

import pytest

from parachk import (
    BOOL,
    ID,
    INT,
    Atom,
    AtomV,
    BoolV,
    IntV,
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    atom,
    build_problem,
    corpus,
    load_problem,
    parse_problem,
    problem_to_json,
)
from parachk.problem import ProblemError

from test_load import _file_of

PROBLEMS = sorted((Path(__file__).parent.parent / "problems").glob("*.json"))


def _assert_built_alike(p):
    q = build_problem(p.name, p.signature, p.sketch, p.examples)
    assert q == p and q.atoms == p.atoms and q.extensions == p.extensions


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda path: path.name)
def test_problem_file_builds_to_the_loaded_problem(path):
    _assert_built_alike(load_problem(path))


@pytest.mark.parametrize("entry", corpus(), ids=lambda e: e.name)
def test_corpus_sets_build_to_their_parsed_problem(entry):
    for p in (entry.problem_sc, entry.problem_si):
        _assert_built_alike(parse_problem(problem_to_json(p)))


@pytest.mark.parametrize(
    "f, value",
    [(INT, IntV(True)), (BOOL, BoolV(1)), (ID, AtomV(Atom(-1, 3)))],
    ids=["int-true", "bool-one", "atom-label-int"],
)
@pytest.mark.parametrize("slot", ["inputs", "output"])
def test_value_no_file_expresses_gets_the_error_of_the_file(f, value, slot):
    sig = Signature(UNIT, f, f)
    good = {INT: IntV(0), BOOL: BoolV(False), ID: atom("A")}[f]
    example = (UnitV(), [value], good) if slot == "inputs" else (UnitV(), [good], value)
    with pytest.raises(ProblemError) as from_code:
        build_problem("p", sig, SketchKind.RAW, [example])
    with pytest.raises(ProblemError) as from_file:
        parse_problem(_file_of(sig, SketchKind.RAW, [example]))
    assert type(from_code.value) is type(from_file.value)
    assert str(from_code.value) == str(from_file.value)
    assert f"examples[0].{slot}" in str(from_code.value)


def test_map_output_that_is_no_value():
    with pytest.raises(TypeError, match="not a Value"):
        build_problem("p", Signature(UNIT, ID, ID), SketchKind.MAP, [(UnitV(), [atom("A")], 3)])
