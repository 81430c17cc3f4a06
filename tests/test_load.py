"""Loading problem files: the exact error each malformed file gets, and which
fault wins when a file has more than one."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachk import (
    Atom,
    BOOL,
    BoolV,
    Extension,
    ID,
    INT,
    IntV,
    JustV,
    Known,
    ListOf,
    ListV,
    MaybeOf,
    NothingV,
    PairV,
    ProdOf,
    UnitV,
    atom,
    PropagationUnrealizable,
    Signature,
    SketchKind,
    UNIT,
    UnitS,
    build_problem,
    flatten_shape,
    parse_problem,
    problem_to_json,
    propagate,
    relabel_problem,
    to_extension,
)
from parachk.functors import UnsupportedFunctor, shape_key
from parachk.problem import ParseError, ValidationError, value_to_json

import support
from test_functors import functor_exprs, value_strategy
from test_problem import _BAD_FIELDS, _mistype_leaf


def _doc(examples, sketch="foldr", signature=None):
    return json.dumps(
        {
            "name": "load",
            "signature": signature
            or {"extra": "Maybe(Id)", "element": "List(Prod(Id,Int))", "result": "List(Id)"},
            "sketch": sketch,
            "examples": examples,
        }
    )


A = {"atom": "a"}
GOOD = {
    "extra": {"just": A},
    "inputs": [{"list": [{"pair": [A, {"int": 1}]}, {"pair": [{"atom": "b"}, {"int": 2}]}]}],
    "output": {"list": [A]},
    "base": {"list": []},
}

# One malformed value term of each kind, and the message it gets after its
# location.
BAD_TERMS = [
    ({"atom": "a", "int": 1}, "a value term has exactly one tag, got ['atom', 'int']"),
    ({"atomm": "a"}, "unknown value tag 'atomm'"),
    ({"atom": 3}, "atom labels are strings"),
    ({"int": True}, "'int' takes an integer"),
    ({"bool": 1}, "'bool' takes true or false"),
    ({"list": {"atom": "a"}}, "'list' takes an array"),
    ({"pair": [A]}, "'pair' takes a two-element array"),
    (5, "not a value term: 5"),
]


def _with_bad(term, where):
    """GOOD as example 1, with `term` put at `where`; example 0 is GOOD."""
    bad = json.loads(json.dumps(GOOD))
    if where == "extra":
        bad["extra"] = {"just": term}
        location = "examples[1].extra.just"
    elif where == "input":
        bad["inputs"][0]["list"][1]["pair"][1] = term
        location = "examples[1].inputs[0][1].snd"
    elif where == "output":
        bad["output"]["list"].append(term)
        location = "examples[1].output[1]"
    else:
        bad["base"] = term
        location = "examples[1].base"
    return _doc([GOOD, bad]), location


@pytest.mark.parametrize("where", ["extra", "input", "output", "base"])
@pytest.mark.parametrize("term, message", BAD_TERMS)
def test_malformed_value_term_message(term, message, where):
    text, location = _with_bad(term, where)
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == f"{location}: {message}"


# A malformed term where a value of its own kind is expected: element
# Prod(Prod(Id,Int),Prod(Bool,List(Id))), so no type fault comes first.
OWN_KIND = [
    ("fst.fst", {"atom": 3}, "atom labels are strings"),
    ("fst.fst", {"atom": "a", "int": 1}, "a value term has exactly one tag, got ['atom', 'int']"),
    ("fst.fst", 5, "not a value term: 5"),
    ("fst.snd", {"int": True}, "'int' takes an integer"),
    ("snd.fst", {"bool": 1}, "'bool' takes true or false"),
    ("snd.snd", {"list": {"atom": "a"}}, "'list' takes an array"),
    ("snd", {"pair": [A]}, "'pair' takes a two-element array"),
    ("snd", {"pair": [{"bool": True}, {"list": []}, A]}, "'pair' takes a two-element array"),
]


@pytest.mark.parametrize("at, term, message", OWN_KIND)
def test_malformed_term_where_its_kind_is_expected(at, term, message):
    value = {
        "pair": [
            {"pair": [A, {"int": 1}]},
            {"pair": [{"bool": True}, {"list": [A]}]},
        ]
    }
    node = value
    steps = at.split(".")
    for step in steps[:-1]:
        node = node["pair"][0 if step == "fst" else 1]
    node["pair"][0 if steps[-1] == "fst" else 1] = term
    signature = {"element": "Prod(Prod(Id,Int),Prod(Bool,List(Id)))", "result": "Id"}
    text = _doc([{"inputs": [value], "output": A}], "raw", signature)
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == f"examples[0].inputs[0].{at}: {message}"


def test_good_document_loads():
    p = parse_problem(_doc([GOOD]))
    assert p.atoms.labels == ("a", "b")


def test_syntax_fault_in_a_later_example_wins_over_a_type_fault():
    mistyped = dict(GOOD, output={"list": [{"int": 3}]})
    malformed = dict(GOOD, base={"list": [{"atom": 7}]})
    with pytest.raises(ParseError) as err:
        parse_problem(_doc([mistyped, malformed]))
    assert str(err.value) == "examples[1].base[0]: atom labels are strings"


def test_syntax_fault_in_a_later_field_wins_over_a_type_fault():
    ex = dict(GOOD, extra={"int": 3}, output={"list": [{"pair": []}]})
    with pytest.raises(ParseError) as err:
        parse_problem(_doc([ex]))
    assert str(err.value) == "examples[0].output[0]: 'pair' takes a two-element array"


def test_structure_fault_in_a_later_example_wins_over_a_type_fault():
    mistyped = dict(GOOD, extra="unit")
    with pytest.raises(ParseError) as err:
        parse_problem(_doc([mistyped, {"inputs": []}]))
    assert str(err.value) == "examples[1]: missing field 'output'"


def test_first_syntax_fault_wins_over_a_later_one():
    first = dict(GOOD, base={"bool": "yes"})
    second = dict(GOOD, extra={"just": 5})
    with pytest.raises(ParseError) as err:
        parse_problem(_doc([first, second]))
    assert str(err.value) == "examples[0].base: 'bool' takes true or false"


def test_type_fault_without_a_syntax_fault_is_a_validation_error():
    mistyped = dict(GOOD, output={"list": [{"int": 3}]})
    with pytest.raises(ValidationError) as err:
        parse_problem(_doc([GOOD, mistyped]))
    assert str(err.value) == (
        "example 1: field 'output': value [3] does not typecheck against List(Id)"
    )


def test_null_base_is_a_syntax_fault():
    ex = {"inputs": [A], "output": A, "base": None}
    signature = {"element": "Id", "result": "Id"}
    for sketch in ("raw", "foldr"):
        with pytest.raises(ParseError) as err:
            parse_problem(_doc([ex], sketch, signature))
        assert str(err.value) == "examples[0].base: not a value term: None"


def test_map_output_that_is_not_a_list():
    ex = {"inputs": [A], "output": A}
    with pytest.raises(ValidationError) as err:
        parse_problem(_doc([ex], "map", {"element": "Id", "result": "Id"}))
    assert str(err.value) == "example 0: field 'output': a map sketch produces a list"


def test_map_output_with_a_mistyped_element():
    ex = {"inputs": [A, A], "output": {"list": [A, {"just": A}]}}
    with pytest.raises(ValidationError) as err:
        parse_problem(_doc([ex], "map", {"element": "Id", "result": "Id"}))
    assert str(err.value) == (
        "example 0: field 'output[1]': value Just a does not typecheck against Id"
    )


def _file_of(sig, sketch, examples):
    docs = []
    for extra, inputs, output, *base in examples:
        doc = {
            "extra": value_to_json(extra),
            "inputs": [value_to_json(v) for v in inputs],
            "output": value_to_json(output),
        }
        if base:
            doc["base"] = value_to_json(base[0])
        docs.append(doc)
    signature = {"extra": str(sig.extra), "element": str(sig.element), "result": str(sig.result)}
    return _doc(docs, sketch.value, signature)


@pytest.mark.parametrize("sig, sketch, examples, message", _BAD_FIELDS)
def test_validation_messages_of_a_file(sig, sketch, examples, message):
    """A file gets the message that `build_problem` gives its values."""
    with pytest.raises(ValidationError) as err:
        parse_problem(_file_of(sig, sketch, examples))
    assert str(err.value) == message


@pytest.mark.parametrize("seed", range(40))
def test_a_mistyped_leaf_gets_the_same_message_from_a_file(seed):
    rng = random.Random(seed)
    p = support.random_problem(rng)
    exs = [[ex.extra, list(ex.inputs), ex.output, ex.base] for ex in p.examples]
    i = rng.randrange(len(exs))
    slots = [(k, None) for k in (0, 2, 3) if exs[i][k] is not None]
    slots += [(1, j) for j in range(len(exs[i][1]))]
    k, j = rng.choice(slots)
    value = exs[i][k] if j is None else exs[i][k][j]
    leaves = -1 - _mistype_leaf(value, -1)[1]
    bad, _ = _mistype_leaf(value, rng.randrange(leaves))
    if j is None:
        exs[i][k] = bad
    else:
        exs[i][k][j] = bad
    exs = [ex if ex[3] is not None else ex[:3] for ex in exs]
    with pytest.raises(ValidationError) as from_values:
        build_problem(p.name, p.signature, p.sketch, exs)
    with pytest.raises(ValidationError) as from_file:
        parse_problem(_file_of(p.signature, p.sketch, exs))
    assert str(from_file.value) == str(from_values.value)


# ---------------------------------------------------------------------------
# The one walk: a file loads to the problem it was written from, with the
# container form of every field


def _known(f, v) -> Known:
    """The `Known` of value v of f, from `to_extension` and `shape_key`."""
    ext = to_extension(f, v)
    return Known(ext, shape_key(f, ext.shape), tuple(a.code for a in ext.elements))


def _extensions_match_their_fields(p):
    """Every extension `propagate` reads is `to_extension` of its field, and
    its key and codes are its shape's `shape_key` and its elements' codes."""
    sig = p.signature
    assert len(p.extensions) == len(p.examples)
    for ex, x in zip(p.examples, p.extensions):
        assert x.extra == _known(sig.extra, ex.extra)
        assert x.inputs == tuple(_known(sig.element, v) for v in ex.inputs)
        outputs = ex.output.items if p.sketch is SketchKind.MAP else (ex.output,)
        assert x.outputs == tuple(_known(sig.result, v) for v in outputs)
        if p.sketch is SketchKind.FOLDR:
            assert x.base == _known(sig.result, ex.base)
        else:
            assert x.base is None and ex.base is None


def _assert_one_walk(p):
    _extensions_match_their_fields(p)
    q = parse_problem(problem_to_json(p))
    assert q == p and q.atoms == p.atoms
    _extensions_match_their_fields(q)
    try:
        cs = propagate(q)
    except PropagationUnrealizable:
        return
    knowns = [part for c in cs.constraints for part in (*c.inputs, c.output) if isinstance(part, Known)]
    fields = {e for x in q.extensions for e in (x.extra, *x.inputs, *x.outputs, x.base)}
    assert set(knowns) <= fields


@st.composite
def _problems(draw):
    sketch = draw(st.sampled_from(list(SketchKind)))
    element = draw(functor_exprs)
    if sketch is SketchKind.FOLDR:
        result = draw(functor_exprs.filter(_fixed_arity))
        extra = draw(functor_exprs)
    else:
        result, extra = draw(functor_exprs), UNIT
    bases = {}
    examples = []
    for _ in range(draw(st.integers(1, 4))):
        h = draw(value_strategy(extra))
        n = 1 if sketch is SketchKind.RAW else draw(st.integers(0, 3))
        inputs = [draw(value_strategy(element)) for _ in range(n)]
        if sketch is SketchKind.MAP:
            output = ListV(tuple(draw(value_strategy(result)) for _ in inputs))
        else:
            output = draw(value_strategy(result))
        if sketch is SketchKind.FOLDR:
            base = bases.setdefault(h, draw(value_strategy(result)))
            examples.append((h, inputs, output, base))
        else:
            examples.append((h, inputs, output))
    return build_problem("drawn", Signature(extra, element, result), sketch, examples)


def _fixed_arity(f):
    try:
        flatten_shape(f)
    except UnsupportedFunctor:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(_problems())
def test_one_walk_on_drawn_problems(p):
    _assert_one_walk(p)


@pytest.mark.parametrize("seed", range(60))
def test_one_walk_on_sampled_problems(seed):
    rng = random.Random(seed)
    for p in (support.random_problem(rng), support.random_raw_problem(rng)):
        _assert_one_walk(p)
        _assert_one_walk(relabel_problem(p, support.fresh_relabeling(p)))


# ---------------------------------------------------------------------------
# The key of the walk: every field's `Known.key` is its `shape_key`, so that
# stays the one definition of a key


def _assert_keyed_by_shape_key(p):
    for x in p.extensions:
        fields = (x.extra, *x.inputs, *x.outputs) + (() if x.base is None else (x.base,))
        for field in fields:
            assert field.key == shape_key(field.ext.functor, field.ext.shape)
            assert field.codes == tuple(a.code for a in field.ext.elements)


def _raw_of(f, values):
    """A raw problem from f to f whose examples map each of `values` to
    itself, loaded from its file."""
    p = build_problem("keys", Signature(UNIT, f, f), SketchKind.RAW, [(UnitV(), [v], v) for v in values])
    return parse_problem(problem_to_json(p))


@settings(max_examples=200, deadline=None)
@given(_problems())
def test_the_walk_keys_every_field_by_its_shape_key(p):
    _assert_keyed_by_shape_key(p)
    _assert_keyed_by_shape_key(parse_problem(problem_to_json(p)))


# (functor, values, the key of each value)
_NESTED_AND_ABSENT = [
    (MaybeOf(INT), [NothingV(), JustV(IntV(-3))], [(0, 0), (1, -3)]),
    (MaybeOf(ListOf(ID)), [NothingV(), JustV(ListV((atom("a"), atom("b"))))], [(0, 0), (1, 2)]),
    (MaybeOf(ProdOf(BOOL, ListOf(INT))), [NothingV()], [(0, 0, 0)]),
    (MaybeOf(MaybeOf(INT)), [NothingV(), JustV(NothingV()), JustV(JustV(IntV(4)))], [(0, 0, 0), (1, 0, 0), (1, 1, 4)]),
    (
        ListOf(ListOf(ID)),
        [ListV(()), ListV((ListV((atom("a"),)), ListV(()), ListV((atom("b"), atom("a")))))],
        [(0,), (3, 1, 0, 2)],
    ),
    (ListOf(ListOf(UNIT)), [ListV((ListV((UnitV(),) * 2), ListV((UnitV(),))))], [(2, 2, 1)]),
    (ListOf(MaybeOf(INT)), [ListV((JustV(IntV(7)), NothingV()))], [(2, 1, 7, 0, 0)]),
    (ProdOf(BOOL, ListOf(ProdOf(ID, INT))), [PairV(BoolV(True), ListV((PairV(atom("c"), IntV(2)),)))], [(1, 1, 2)]),
    (ListOf(ProdOf(ID, UNIT)), [ListV((PairV(atom("a"), UnitV()),) * 3)], [(3,)]),
    (ProdOf(ID, ID), [PairV(atom("a"), atom("b"))], [()]),
]


@pytest.mark.parametrize("f, values, keys", _NESTED_AND_ABSENT, ids=[str(f) for f, _, _ in _NESTED_AND_ABSENT])
def test_the_walk_keys_nested_and_absent_values(f, values, keys):
    # an absent Maybe child adds its zero key, and a nested list adds each
    # child's key after its own length
    p = _raw_of(f, values)
    _assert_keyed_by_shape_key(p)
    assert [x.inputs[0].key for x in p.extensions] == keys
    assert [x.outputs[0].key for x in p.extensions] == keys


# ---------------------------------------------------------------------------
# The records of the walk: one shape per single-shape functor, and cheap
# hashable Atom and Extension records


def _pair(x, y):
    return {"pair": [{"atom": x}, {"atom": y}]}


def test_fields_of_a_single_shape_functor_share_one_shape():
    p = parse_problem(
        _doc(
            [
                {"inputs": [_pair("a", "b"), _pair("c", "d")], "output": {"list": [_pair("b", "a"), _pair("d", "c")]}},
                {"inputs": [_pair("e", "f")], "output": {"list": [_pair("f", "e")]}},
            ],
            "map",
            {"element": "Prod(Id,Id)", "result": "Prod(Id,Id)"},
        )
    )
    x, y = p.extensions
    shapes = [e.ext.shape for e in (*x.inputs, *x.outputs, *y.inputs, *y.outputs)]
    assert all(s is shapes[0] for s in shapes)
    assert x.inputs[0].ext.shape is x.inputs[1].ext.shape
    assert x.extra.ext.shape is y.extra.ext.shape == UnitS()
    assert [e.ext.elements for e in x.inputs] == [(Atom(0, "a"), Atom(1, "b")), (Atom(2, "c"), Atom(3, "d"))]
    assert [e.key for e in (x.extra, *x.inputs, *x.outputs)] == [()] * 5


def test_a_list_of_single_shape_elements_is_its_container_form():
    f = ListOf(ProdOf(ID, UNIT))
    values = [ListV(tuple(PairV(atom(c), UnitV()) for c in labels)) for labels in ("", "a", "bab")]
    p = build_problem("units", Signature(UNIT, f, ListOf(ID)), SketchKind.RAW, [(UnitV(), [v], ListV(())) for v in values])
    q = parse_problem(problem_to_json(p))
    assert q == p
    for x, ex, v in zip(q.extensions, q.examples, values):
        (field,) = x.inputs
        assert field.ext == to_extension(f, ex.inputs[0])
        assert field.key == (len(v.items),)
        assert [a.label for a in field.ext.elements] == [a.label for a in to_extension(f, v).elements]
        assert all(child is field.ext.shape.children[0] for child in field.ext.shape.children)


@pytest.mark.parametrize(
    "f, value",
    [
        (ProdOf(ID, ProdOf(UNIT, ID)), PairV(atom("a"), PairV(UnitV(), atom("b")))),
        (ListOf(ProdOf(ID, UNIT)), ListV((PairV(atom("a"), UnitV()), PairV(atom("b"), UnitV())))),
        (ListOf(ID), ListV((atom("a"), atom("b"), atom("c")))),
    ],
    ids=str,
)
def test_a_mistyped_leaf_of_a_single_shape_field_gets_one_message(f, value):
    sig = Signature(UNIT, f, ListOf(ID))
    leaves = -1 - _mistype_leaf(value, -1)[1]
    assert leaves >= 3
    for k in range(leaves):
        bad, _ = _mistype_leaf(value, k)
        exs = [(UnitV(), [value], ListV(()), ListV(())), (UnitV(), [value, bad], ListV(()), ListV(()))]
        with pytest.raises(ValidationError) as from_values:
            build_problem("bad", sig, SketchKind.FOLDR, exs)
        with pytest.raises(ValidationError) as from_file:
            parse_problem(_file_of(sig, SketchKind.FOLDR, exs))
        assert str(from_file.value) == str(from_values.value)
        assert str(from_file.value).startswith("example 1: field 'inputs[1]': value ")


def test_atoms_and_extensions_are_dict_keys():
    assert Atom(0, "a") == Atom(0, "a") and hash(Atom(0, "a")) == hash(Atom(0, "a"))
    assert Atom(0, "a") != Atom(1, "a")
    assert {Atom(0, "a"): 1}[Atom(0, "a")] == 1
    # two examples with one extra value: the second one's base is checked
    # against the base filed under the first one's extra, an equal but
    # distinct Extension, as `bases_by_extra` looks it up
    signature = {"extra": "List(Id)", "element": "Id", "result": "List(Id)"}
    extra = {"list": [{"atom": "w"}, {"atom": "u"}]}

    def doc(second_base):
        w = {"list": [{"atom": "w"}]}
        return _doc(
            [
                {"extra": extra, "inputs": [], "output": w, "base": w},
                {"extra": extra, "inputs": [], "output": second_base, "base": second_base},
            ],
            signature=signature,
        )

    x, y = parse_problem(doc({"list": [{"atom": "w"}]})).extensions
    assert x.extra is not y.extra and x.extra == y.extra
    assert {x.extra: x.base}[y.extra] == y.base
    rebuilt = Extension(ListOf(ID), x.base.ext.shape, x.base.ext.elements)
    assert rebuilt == y.base.ext and hash(rebuilt) == hash(y.base.ext)
    with pytest.raises(ValidationError, match="differs from the base of an earlier example"):
        parse_problem(doc({"list": []}))
