"""Problem files: parsing, validation, interning, canonical serialization."""

import json

import pytest

from parachk import (
    ID,
    ListOf,
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    atom,
    build_problem,
    intern_atoms,
    parse_functor,
    parse_problem,
    problem_to_json,
    relabel_problem,
)
from parachk.functors import ListV, MaybeOf, ProdOf
from parachk.problem import ParseError, ValidationError


REVERSE_MAP = """
{
  "name": "reverse-as-map",
  "signature": {"element": "Id", "result": "Id"},
  "sketch": "map",
  "examples": [
    {"inputs": [{"atom": "A"}, {"atom": "B"}, {"atom": "C"}],
     "output": {"list": [{"atom": "C"}, {"atom": "B"}, {"atom": "A"}]}}
  ]
}
"""


def test_parse_reverse_map_file():
    p = parse_problem(REVERSE_MAP)
    assert p.sketch is SketchKind.MAP
    assert len(p.examples) == 1
    assert p.signature == Signature(UNIT, ID, ID)
    assert p.atoms.labels == ("A", "B", "C")


def test_contradicting_examples_parse_fine():
    text = """
    {
      "name": "contradiction",
      "signature": {"element": "Int", "result": "Int"},
      "sketch": "raw",
      "examples": [
        {"inputs": [{"int": 1}], "output": {"int": 3}},
        {"inputs": [{"int": 1}], "output": {"int": 5}}
      ]
    }
    """
    p = parse_problem(text)
    assert len(p.examples) == 2


def test_base_inconsistency_rejected():
    text = """
    {
      "name": "bad-base",
      "signature": {"extra": "Int", "element": "Id", "result": "List(Id)"},
      "sketch": "foldr",
      "examples": [
        {"extra": {"int": 1}, "inputs": [{"atom": "a"}], "output": {"list": []}, "base": {"list": []}},
        {"extra": {"int": 1}, "inputs": [], "output": {"list": [{"atom": "a"}]}, "base": {"list": [{"atom": "a"}]}}
      ]
    }
    """
    with pytest.raises(ValidationError) as err:
        parse_problem(text)
    assert "base" in str(err.value)


def test_unknown_fields_rejected():
    with pytest.raises(ParseError):
        parse_problem('{"name": "x", "signature": {"element": "Id", "result": "Id"}, "sketch": "raw", "examples": [{"inputs": [{"atom": "a"}], "output": {"atom": "a"}}], "extra_field": 1}')
    with pytest.raises(ParseError):
        parse_problem('{"name": "x", "signature": {"element": "Id", "result": "Id", "bogus": "Id"}, "sketch": "raw", "examples": [{"inputs": [{"atom": "a"}], "output": {"atom": "a"}}]}')
    with pytest.raises(ParseError):
        parse_problem('{"name": "x", "signature": {"element": "Id", "result": "Id"}, "sketch": "raw", "examples": [{"inputs": [{"watom": "a"}], "output": {"atom": "a"}}]}')


@pytest.mark.parametrize("field", ["extra", "element", "result"])
def test_non_string_functor_rejected(field):
    signature = {"element": "Id", "result": "Id", field: 5}
    doc = {
        "name": "x",
        "signature": signature,
        "sketch": "raw",
        "examples": [{"inputs": [{"atom": "a"}], "output": {"atom": "a"}}],
    }
    with pytest.raises(ParseError, match=f"'{field}' is a functor string"):
        parse_problem(json.dumps(doc))


@pytest.mark.parametrize("depth", [990, 3_000, 100_000])
def test_deep_nesting_is_a_parse_error(depth):
    value = '{"just": ' * depth + '{"atom": "a"}' + "}" * depth
    text = (
        '{"name": "x", "signature": {"element": "Id", "result": "Id"}, '
        '"sketch": "raw", "examples": [{"inputs": [{"atom": "a"}], "output": '
        + value
        + "}]}"
    )
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_problem(text)


def test_type_error_names_example_and_field():
    text = """
    {
      "name": "typebad",
      "signature": {"element": "Id", "result": "Id"},
      "sketch": "raw",
      "examples": [
        {"inputs": [{"atom": "a"}], "output": {"atom": "a"}},
        {"inputs": [{"int": 3}], "output": {"atom": "a"}}
      ]
    }
    """
    with pytest.raises(ValidationError) as err:
        parse_problem(text)
    assert "example 1" in str(err.value) and "inputs[0]" in str(err.value)


def test_base_only_for_foldr():
    text = """
    {
      "name": "x",
      "signature": {"element": "Id", "result": "Id"},
      "sketch": "raw",
      "examples": [{"inputs": [{"atom": "a"}], "output": {"atom": "a"}, "base": {"atom": "a"}}]
    }
    """
    with pytest.raises(ValidationError):
        parse_problem(text)


def test_raw_needs_exactly_one_input():
    with pytest.raises(ValidationError):
        build_problem(
            "two-inputs",
            Signature(UNIT, ID, ID),
            SketchKind.RAW,
            [(UnitV(), [atom("a"), atom("b")], atom("a"))],
        )


def test_interning_dense_first_occurrence():
    p = build_problem(
        "intern",
        Signature(UNIT, ListOf(ID), ListOf(ID)),
        SketchKind.RAW,
        [
            (UnitV(), [ListV((atom("B"), atom("A")))], ListV((atom("A"),))),
            (UnitV(), [ListV((atom("C"), atom("B")))], ListV((atom("C"),))),
        ],
    )
    assert p.atoms.labels == ("B", "A", "C")
    assert intern_atoms(p).labels == p.atoms.labels
    first = p.examples[0].inputs[0].items[0].atom
    assert (first.code, first.label) == (0, "B")


def test_relabeling_preserves_structure():
    p = parse_problem(REVERSE_MAP)
    q = relabel_problem(p, {"A": "X", "B": "Y", "C": "Z"})
    assert q.atoms.labels == ("X", "Y", "Z")
    # same interning codes, same shapes
    assert [a.code for a in (q.examples[0].inputs[i].atom for i in range(3))] == [0, 1, 2]


def test_serialize_parse_fixpoint():
    p = parse_problem(REVERSE_MAP)
    text = problem_to_json(p)
    q = parse_problem(text)
    assert q == p
    assert problem_to_json(q) == text


def test_parse_functor_grammar():
    assert parse_functor("Prod(List(Id),Maybe(Int))") == ProdOf(ListOf(ID), MaybeOf(parse_functor("Int")))
    assert parse_functor(" List( Id ) ") == ListOf(ID)
    with pytest.raises(ParseError):
        parse_functor("Tree(Id)")
    with pytest.raises(ParseError):
        parse_functor("List(Id) junk")


def test_extra_defaults_to_unit():
    p = parse_problem(REVERSE_MAP)
    assert p.signature.extra == UNIT
    assert p.examples[0].extra == UnitV()


def test_missing_extra_fails_for_int_signature():
    text = """
    {
      "name": "x",
      "signature": {"extra": "Int", "element": "Id", "result": "List(Id)"},
      "sketch": "foldr",
      "examples": [{"inputs": [], "output": {"list": []}, "base": {"list": []}}]
    }
    """
    with pytest.raises(ValidationError) as err:
        parse_problem(text)
    assert "extra" in str(err.value)


def test_foldr_result_functor_must_be_fixed_arity():
    from parachk import ListV

    with pytest.raises(ValidationError) as err:
        build_problem(
            "nested",
            Signature(UNIT, ID, ListOf(ListOf(ID))),
            SketchKind.FOLDR,
            [(UnitV(), [], ListV(()), ListV(()))],
        )
    assert "foldr" in str(err.value)
