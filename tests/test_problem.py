"""Problem files: parsing, validation, interning, canonical serialization."""

import dataclasses
import json
import random

import pytest

from parachk import (
    BoolV,
    ID,
    INT,
    IntV,
    JustV,
    ListOf,
    PairV,
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    atom,
    build_problem,
    parse_functor,
    parse_problem,
    problem_to_json,
    relabel_problem,
)
from parachk.functors import AtomV, ListV, MaybeOf, ProdOf
from parachk.problem import ParseError, ValidationError, _map_atoms

from support import random_problem, random_value


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
    first = p.examples[0].inputs[0].items[0].atom
    assert (first.code, first.label) == (0, "B")


def test_a_problem_keeps_only_the_container_form():
    p = parse_problem(REVERSE_MAP)
    fields = [f.name for f in dataclasses.fields(p)]
    assert fields == ["name", "signature", "sketch", "atoms", "extensions"]
    # the values are rebuilt from the extensions, a map output as one list
    (ex,) = p.examples
    assert ex.output == ListV(tuple(ex.inputs[::-1])) and ex.base is None


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


# Exact messages of every validation rule, one example each: the example
# index, the field, the whole field's value and the functor it must inhabit.
_BAD_FIELDS = [
    (
        Signature(INT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (IntV(1), [atom("a")], ListV((atom("a"),)), ListV(())),
            (atom("q"), [], ListV(()), ListV(())),
        ],
        "example 1: field 'extra': value q does not typecheck against Int",
    ),
    (
        Signature(UNIT, ListOf(ID), ID),
        SketchKind.RAW,
        [(UnitV(), [ListV((atom("a"), IntV(3)))], atom("a"))],
        "example 0: field 'inputs[0]': value [a,3] does not typecheck against List(Id)",
    ),
    (
        # the inputs are checked before their number
        Signature(UNIT, ID, ID),
        SketchKind.RAW,
        [(UnitV(), [atom("a"), IntV(1)], atom("a"))],
        "example 0: field 'inputs[1]': value 1 does not typecheck against Id",
    ),
    (
        Signature(UNIT, ID, ID),
        SketchKind.RAW,
        [(UnitV(), [atom("a"), atom("b")], atom("a"))],
        "example 0: raw examples take exactly one input, got 2",
    ),
    (
        Signature(UNIT, ID, ListOf(ID)),
        SketchKind.RAW,
        [(UnitV(), [atom("a")], ListV((atom("a"), BoolV(True))))],
        "example 0: field 'output': value [a,true] does not typecheck against List(Id)",
    ),
    (
        Signature(UNIT, ID, MaybeOf(ID)),
        SketchKind.MAP,
        [(UnitV(), [atom("a"), atom("b")], ListV((JustV(atom("a")), JustV(IntV(2)))))],
        "example 0: field 'output[1]': value Just 2 does not typecheck against Maybe(Id)",
    ),
    (
        Signature(UNIT, ID, ID),
        SketchKind.MAP,
        [(UnitV(), [atom("a")], atom("a"))],
        "example 0: field 'output': a map sketch produces a list",
    ),
    (
        Signature(UNIT, ID, ProdOf(ID, INT)),
        SketchKind.FOLDR,
        [(UnitV(), [atom("a")], PairV(atom("a"), IntV(1)), PairV(atom("b"), atom("c")))],
        "example 0: field 'base': value (b,c) does not typecheck against Prod(Id,Int)",
    ),
    (
        Signature(UNIT, ID, ID),
        SketchKind.FOLDR,
        [(UnitV(), [atom("a")], atom("a"))],
        "example 0: foldr examples need a 'base'",
    ),
    (
        Signature(UNIT, ID, ID),
        SketchKind.RAW,
        [(UnitV(), [atom("a")], atom("a"), atom("a"))],
        "example 0: field 'base' is only meaningful for foldr sketches",
    ),
    (
        Signature(INT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (IntV(1), [atom("a")], ListV(()), ListV(())),
            (IntV(1), [], ListV((atom("z"),)), ListV((atom("z"),))),
        ],
        "example 1: base [z] differs from the base of an earlier example with "
        "the same extra argument",
    ),
    (
        # the result functor is checked before any example
        Signature(UNIT, ID, ListOf(ListOf(ID))),
        SketchKind.FOLDR,
        [(IntV(1), [], ListV(()), ListV(()))],
        "result functor unusable for foldr: List(List(Id)): element functor "
        "List(Id) has a variable shape, so the list shape is not fixed-arity",
    ),
]


@pytest.mark.parametrize("sig, sketch, examples, message", _BAD_FIELDS)
def test_validation_messages(sig, sketch, examples, message):
    with pytest.raises(ValidationError) as err:
        build_problem("bad", sig, sketch, examples)
    assert str(err.value) == message


def _fields(ex):
    """(field name, value) for every field the validator checks by type."""
    out = [("extra", ex.extra)]
    out += [(f"inputs[{j}]", v) for j, v in enumerate(ex.inputs)]
    out.append(("output", ex.output))
    if ex.base is not None:
        out.append(("base", ex.base))
    return out


def _first_occurrences(examples) -> tuple[str, ...]:
    labels: dict[str, None] = {}

    def collect(a):
        labels.setdefault(a.label, None)
        return a

    for ex in examples:
        for _, v in _fields(ex):
            _map_atoms(v, collect)
    return tuple(labels)


def _mistype_leaf(v, k):
    """v with its k-th leaf (atom, constant, Nothing or empty list) replaced
    by a leaf of another type, and the number of leaves seen."""
    match v:
        case ListV(items) if items:
            out = []
            for x in items:
                x, k = _mistype_leaf(x, k)
                out.append(x)
            return ListV(tuple(out)), k
        case PairV(a, b):
            a, k = _mistype_leaf(a, k)
            b, k = _mistype_leaf(b, k)
            return PairV(a, b), k
        case JustV(x):
            x, k = _mistype_leaf(x, k)
            return JustV(x), k
        case AtomV(_) if k == 0:
            return IntV(0), -1
        case _ if k == 0:
            return atom("x"), -1
    return v, k - 1


def _random_map_problem(rng):
    sig = Signature(UNIT, rng.choice([ID, ListOf(ID)]), rng.choice([ID, MaybeOf(ID), INT]))
    examples = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, 3)
        inputs = [random_value(rng, sig.element) for _ in range(n)]
        output = ListV(tuple(random_value(rng, sig.result) for _ in range(n)))
        examples.append((UnitV(), inputs, output))
    return build_problem("map", sig, SketchKind.MAP, examples)


@pytest.mark.parametrize("seed", range(40))
def test_interning_is_first_occurrence_and_one_leaf_mistyped_is_rejected(seed):
    rng = random.Random(seed)
    p = _random_map_problem(rng) if seed % 4 == 0 else random_problem(rng)
    assert p.atoms.labels == _first_occurrences(p.examples)
    codes = {}
    for ex in p.examples:
        for _, v in _fields(ex):
            _map_atoms(v, lambda a: codes.setdefault(a.code, a.label) and a)
    assert codes == dict(enumerate(p.atoms.labels))

    i = rng.randrange(len(p.examples))
    fieldname, value = rng.choice(_fields(p.examples[i]))
    leaves = -1 - _mistype_leaf(value, -1)[1]  # k runs down from -1 past every leaf
    bad, _ = _mistype_leaf(value, rng.randrange(leaves))
    exs = [(ex.extra, ex.inputs, ex.output, ex.base) for ex in p.examples]
    extra, inputs, output, base = exs[i]
    if fieldname == "extra":
        extra = bad
    elif fieldname == "output":
        output = bad
    elif fieldname == "base":
        base = bad
    else:
        inputs = list(inputs)
        inputs[int(fieldname[7:-1])] = bad
    exs[i] = (extra, inputs, output, base)
    with pytest.raises(ValidationError) as err:
        build_problem(p.name, p.signature, p.sketch, exs)
    # a prefix: a map output's elements are named output[j]
    assert str(err.value).startswith(f"example {i}: field '{fieldname}")
