"""Container translation: typechecking, shapes, canonical positions, and
shape schemas."""

import copy
import gc
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachk import (
    Atom,
    AtomV,
    BOOL,
    BoolV,
    ID,
    INT,
    IdS,
    IntS,
    IntV,
    JustV,
    ListOf,
    ListS,
    ListV,
    MaybeOf,
    MaybeS,
    NothingV,
    PairV,
    ProdOf,
    ProdS,
    UNIT,
    UnitV,
    flatten_shape,
    from_extension,
    shape_of,
    size_of,
    to_extension,
    typecheck,
)
from parachk.functors import (
    ArityMismatch,
    BoolS,
    ConstBool,
    ConstInt,
    ConstUnit,
    Extension,
    FunctorExpr,
    Id,
    Record,
    ShapeMismatch,
    ShapeValue,
    TypeMismatch,
    UnitS,
    UnsupportedFunctor,
    Value,
    shape_from_key,
    shape_key,
    shapes_from_key,
)
from parachk.encode import mid_terms, refinements
from parachk.problem import IOExample, parse_functor
from parachk.solver import SolverConfig
from parachk.verdict import Realizable, Unrealizable, UnknownVerdict, WitnessSummary

import support

A, B, C = Atom(0, "A"), Atom(1, "B"), Atom(2, "C")


def lst(*vs):
    return ListV(tuple(vs))


def test_typecheck_structural():
    assert typecheck(ListOf(ID), lst(AtomV(A), AtomV(B), AtomV(C)))
    assert not typecheck(ListOf(ID), lst(AtomV(A), IntV(3)))
    assert typecheck(
        ProdOf(ListOf(ID), ListOf(ID)),
        PairV(lst(AtomV(A)), lst(AtomV(B), AtomV(C))),
    )
    assert not typecheck(ID, IntV(1))
    assert typecheck(MaybeOf(INT), JustV(IntV(2)))
    assert not typecheck(MaybeOf(INT), JustV(BoolV(True)))


def test_shape_of_erases_atoms_keeps_constants():
    assert shape_of(ListOf(ID), lst(AtomV(A), AtomV(B), AtomV(C))) == ListS(
        (IdS(), IdS(), IdS())
    )
    assert shape_of(MaybeOf(ID), NothingV()) == MaybeS(None)
    s = shape_of(
        ProdOf(ListOf(ID), ListOf(ID)),
        PairV(lst(AtomV(A)), lst(AtomV(B), AtomV(C))),
    )
    assert s == ProdS(ListS((IdS(),)), ListS((IdS(), IdS())))
    assert shape_of(INT, IntV(7)) == IntS(7)
    with pytest.raises(TypeMismatch):
        shape_of(ListOf(ID), lst(IntV(1)))


@pytest.mark.parametrize(
    "f, v, message",
    [
        (ListOf(ID), lst(IntV(1)), "value [1] does not inhabit List(Id)"),
        (
            ProdOf(ID, MaybeOf(INT)),
            PairV(AtomV(A), JustV(BoolV(False))),
            "value (A,Just false) does not inhabit Prod(Id,Maybe(Int))",
        ),
        (UNIT, NothingV(), "value Nothing does not inhabit Unit"),
    ],
)
def test_type_mismatch_names_the_whole_value(f, v, message):
    for translate in (to_extension, shape_of):
        with pytest.raises(TypeMismatch) as err:
            translate(f, v)
        assert str(err.value) == message


def test_size_of():
    assert size_of(ProdOf(ListOf(ID), ListOf(ID)), ProdS(ListS((IdS(),)), ListS((IdS(), IdS())))) == 3
    assert size_of(ListOf(ProdOf(ID, ID)), ListS((ProdS(IdS(), IdS()), ProdS(IdS(), IdS())))) == 4
    assert size_of(INT, IntS(7)) == 0
    with pytest.raises(ShapeMismatch):
        size_of(ListOf(ID), IntS(1))


def test_to_extension_canonical_order():
    e = to_extension(ListOf(ID), lst(AtomV(A), AtomV(B), AtomV(C)))
    assert [a.label for a in e.elements] == ["A", "B", "C"]
    e = to_extension(ID, AtomV(A))
    assert e.shape == IdS() and [a.label for a in e.elements] == ["A"]


def _tagged_product_positions(f, v):
    """Independent enumeration of product positions: collect the left
    component's elements tagged inl and the right's tagged inr, then apply
    the order-preserving bijection inl k -> k, inr k -> size(left) + k."""
    left = to_extension(f.left, v.first)
    right = to_extension(f.right, v.second)
    out = {}
    for k, a in enumerate(left.elements):
        out[k] = a
    for k, a in enumerate(right.elements):
        out[len(left.elements) + k] = a
    return [out[i] for i in range(len(out))]


def test_product_offset_matches_tagged_sum():
    f = ProdOf(ListOf(ID), ListOf(ID))
    v = PairV(lst(AtomV(A)), lst(AtomV(B), AtomV(C)))
    assert list(to_extension(f, v).elements) == _tagged_product_positions(f, v)
    g = ProdOf(ProdOf(ID, ID), ListOf(ID))
    w = PairV(PairV(AtomV(B), AtomV(A)), lst(AtomV(C)))
    assert list(to_extension(g, w).elements) == _tagged_product_positions(g, w)


def test_from_extension_cases():
    assert from_extension(to_extension(ListOf(ID), lst())) == lst()
    assert from_extension(Extension(MaybeOf(ID), MaybeS(IdS()), (A,))) == JustV(AtomV(A))
    with pytest.raises(ArityMismatch):
        from_extension(Extension(ListOf(ID), ListS((IdS(), IdS())), (A,)))


# one record of every Record class but the abstract bases; a witness of
# tuples, so that its verdict hashes
RECORDS = [
    Id(), ConstUnit(), ConstInt(), ConstBool(), ListOf(ID), ProdOf(ID, INT), MaybeOf(BOOL),
    AtomV(A), IntV(3), BoolV(True), UnitV(), ListV([AtomV(A)]), PairV(UnitV(), IntV(1)),
    NothingV(), JustV(IntV(1)),
    IdS(), UnitS(), IntS(2), BoolS(False), ListS([IdS()]), ProdS(IdS(), UnitS()), MaybeS(None),
    Realizable(WitnessSummary((), (), ())), Unrealizable("why"), UnknownVerdict("timeout"),
    IOExample(UnitV(), [AtomV(A)], AtomV(A)), SolverConfig("z3 -in", 5),
]


def test_every_record_class_is_sampled():
    def concrete(cls):
        for sub in cls.__subclasses__():
            if sub not in (FunctorExpr, Value, ShapeValue):
                yield sub
            yield from concrete(sub)

    assert {type(r) for r in RECORDS} == set(concrete(Record))


@pytest.mark.parametrize("r", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_an_immutable_value_of_its_fields(r):
    cls = type(r)
    fields = {name: getattr(r, name) for name in cls.__slots__}
    assert cls.__match_args__ == cls.__slots__ == tuple(fields)
    assert tuple(cls.__dict__.get("__annotations__", ())) == cls.__slots__
    assert cls(**fields) == cls(*fields.values()) == r
    assert repr(r) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert r and copy.copy(r) == r and pickle.loads(pickle.dumps(r)) == r
    if cls is not Unrealizable:  # which ignores its detail
        assert hash(r) == hash(tuple(fields.values()))
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_records_of_two_classes_differ():
    # equal fields, and no fields at all, never make two classes' records equal
    pairs = [(Id(), ConstUnit()), (IdS(), UnitS()), (UnitV(), NothingV()), (IntS(1), IntV(1)),
             (ListS([]), ListV([])), (ListOf(ID), MaybeOf(ID)), (IdS(), ())]
    for a, b in pairs:
        assert a != b and b != a
    assert len({Id(), ConstUnit(), IdS(), UnitS(), UnitV(), NothingV()}) == 6
    assert Unrealizable("one detail") == Unrealizable("another")
    assert hash(Unrealizable("one detail")) == hash(Unrealizable())


def test_records_convert_and_check_their_fields():
    assert ListV([AtomV(A)]).items == (AtomV(A),)
    assert ListS(iter([IdS()])).children == (IdS(),)
    assert IOExample(UnitV(), [AtomV(A)], AtomV(A)).inputs == (AtomV(A),)
    assert ProdS(IdS(), right=UnitS()) == ProdS(left=IdS(), right=UnitS())
    for args, kwargs in [((IdS(),), {}), ((IdS(), UnitS()), {"left": IdS()}), ((), {"middle": IdS()})]:
        with pytest.raises(TypeError):
            ProdS(*args, **kwargs)


def test_container_walks_leave_no_reference_cycle():
    # flatten_shape, to_extension and from_extension recurse through module
    # functions, not through closures that refer to themselves, so a call
    # frees everything it built without the cyclic collector
    f = parse_functor("Prod(List(Id),Maybe(Int))")
    v = PairV(lst(AtomV(A), AtomV(B)), JustV(IntV(3)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert flatten_shape(f).count_value((2, 1, 5)) == 2
        assert from_extension(to_extension(f, v)) == v
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_flatten_shape_product_of_lists():
    sch = flatten_shape(ProdOf(ListOf(ID), ListOf(ID)))
    assert [s.kind for s in sch.slots] == ["nat", "nat"]
    assert sch.refines((1, 2)) and not sch.refines((-1, 0))
    assert sch.count_value((1, 2)) == 3


def test_flatten_shape_const_bool():
    sch = flatten_shape(BOOL)
    assert len(sch.slots) == 1 and sch.count_value((1,)) == 0
    assert sch.refines((0,)) and sch.refines((1,)) and not sch.refines((2,))


def test_flatten_shape_maybe_by_enumeration():
    sch = flatten_shape(MaybeOf(ID))
    for shape in (MaybeS(None), MaybeS(IdS())):
        slots = sch.encode_shape(shape)
        assert sch.count_value(slots) == size_of(MaybeOf(ID), shape)
        assert support.schema_shape(sch, slots) == shape
    assert sch.count_value(sch.encode_shape(MaybeS(IdS()))) == 1


def test_flatten_shape_list_of_pairs():
    sch = flatten_shape(ListOf(ProdOf(ID, ID)))
    assert len(sch.slots) == 1
    assert sch.count_value((2,)) == 4


def test_flatten_shape_rejects_nested_variable_lists():
    with pytest.raises(UnsupportedFunctor) as err:
        flatten_shape(ListOf(ListOf(ID)))
    assert "List(List(Id))" in str(err.value)
    with pytest.raises(UnsupportedFunctor):
        flatten_shape(ProdOf(ID, ListOf(BOOL)))



# Schemas pinned slot by slot: each slot's (name, kind); the clauses of the
# refinement beyond the kinds, each slot's guard (-1 for none); and the
# count, the constant and each slot's weight. Every constructor, nested
# Maybe under Prod and Prod under Maybe, and an Id count that moves onto a
# presence bit.
_SCHEMAS = [
    (ID, (), (), (1, ())),
    (ProdOf(INT, BOOL), (("k0", "int"), ("b0", "bool")), (-1, -1), (0, (0, 0))),
    (MaybeOf(MaybeOf(ID)), (("b0", "bool"), ("b1", "bool")), (-1, 0), (0, (0, 1))),
    (
        MaybeOf(ProdOf(ListOf(ID), MaybeOf(INT))),
        (("b0", "bool"), ("n0", "nat"), ("b1", "bool"), ("k0", "int")),
        (-1, 0, 0, 2),
        (0, (0, 1, 0, 0)),
    ),
    (
        ProdOf(MaybeOf(BOOL), ProdOf(UNIT, ListOf(ProdOf(ID, ID)))),
        (("b0", "bool"), ("b1", "bool"), ("n0", "nat")),
        (-1, 0, -1),
        (0, (0, 0, 2)),
    ),
    (
        MaybeOf(ProdOf(ID, MaybeOf(ProdOf(BOOL, ID)))),
        (("b0", "bool"), ("b1", "bool"), ("b2", "bool")),
        (-1, 0, 1),
        (0, (1, 1, 0)),
    ),
    (
        ProdOf(MaybeOf(ProdOf(ID, ListOf(ID))), MaybeOf(MaybeOf(ProdOf(INT, ID)))),
        (("b0", "bool"), ("n0", "nat"), ("b1", "bool"), ("b2", "bool"), ("k0", "int")),
        (-1, 0, -1, 2, 3),
        (0, (1, 1, 0, 1, 0)),
    ),
]


@pytest.mark.parametrize("f, slots, clauses, count", _SCHEMAS)
def test_schema_golden(f, slots, clauses, count):
    schema = flatten_shape(f)
    assert tuple((s.name, s.kind) for s in schema.slots) == slots
    assert tuple(s.guard for s in schema.slots) == clauses
    assert (schema.const, tuple(s.weight for s in schema.slots)) == count
    # an absent Maybe zeroes every slot below it
    if isinstance(f, MaybeOf):
        assert schema.encode_shape(MaybeS(None)) == (0,) * len(slots)


def _nested_maybe(depth):
    f = ID
    for _ in range(depth):
        f = MaybeOf(f)
    return f


def test_nested_maybe_schema_is_linear_in_depth():
    # one guard per slot, the level just outside it, not a guard per
    # enclosing level: a bool and its guard assertion per level
    for depth in (1, 10, 150):
        schema = flatten_shape(_nested_maybe(depth))
        assert [s.guard for s in schema.slots] == list(range(-1, depth - 1))
        assert len(refinements(schema, mid_terms(0, schema))) == 2 * depth - 1


def test_deep_maybe_schema_builds_in_linear_time():
    # a quadratic construction takes about 0.4 s at this depth
    f = _nested_maybe(500)
    fastest = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        schema = flatten_shape(f)
        schema.encode_shape(MaybeS(None))
        fastest = min(fastest, time.perf_counter() - start)
    assert len(schema.slots) == 500
    assert fastest < 0.1


# A clause of the reference: ("bool", i) holds slot i to 0 or 1, ("nat", i)
# holds it nonnegative, and ("absent", g, i) holds it to 0 while slot g is.
def _shifted(c, offset):
    kind, *slots = c
    return (kind, *(i + offset for i in slots))


def _holds(c, slots) -> bool:
    match c:
        case ("bool", i):
            return 0 <= slots[i] <= 1
        case ("nat", i):
            return slots[i] >= 0
        case ("absent", g, i):
            return slots[g] != 0 or slots[i] == 0


def _quadratic_clauses(f):
    """The refinement as built before guarded slots were skipped: every
    Maybe level zeroes every inner slot while absent."""
    match f:
        case Id() | ConstUnit():
            return 0, []
        case ConstInt():
            return 1, []
        case ConstBool():
            return 1, [("bool", 0)]
        case ListOf(_):
            return 1, [("nat", 0)]
        case ProdOf(l, r):
            lw, lc = _quadratic_clauses(l)
            rw, rc = _quadratic_clauses(r)
            return lw + rw, lc + [_shifted(c, lw) for c in rc]
        case MaybeOf(inner):
            w, ic = _quadratic_clauses(inner)
            absent = [("absent", 0, i + 1) for i in range(w)]
            return w + 1, [("bool", 0)] + [_shifted(c, 1) for c in ic] + absent


def _random_functor(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([ID, UNIT, INT, BOOL, ListOf(ID), ListOf(ProdOf(ID, ID))])
    if rng.random() < 0.5:
        return MaybeOf(_random_functor(rng, depth - 1))
    return ProdOf(_random_functor(rng, depth - 1), _random_functor(rng, depth - 1))


def test_maybe_refinement_agrees_with_the_quadratic_construction():
    rng = random.Random(17)
    compared = 0
    while compared < 40:
        f = _random_functor(rng, 4)
        schema = flatten_shape(f)
        width, reference = _quadratic_clauses(f)
        if not 1 <= width <= 6:
            continue
        assert width == len(schema.slots)
        for slots in itertools.product(range(-1, 3), repeat=width):
            assert schema.refines(slots) == all(_holds(c, slots) for c in reference), (f, slots)
        compared += 1

# ---------------------------------------------------------------------------
# Property suites

LABELS = "abcdef"

functor_exprs = st.recursive(
    st.sampled_from([ID, UNIT, INT, BOOL]),
    lambda inner: st.one_of(
        inner.map(ListOf),
        st.tuples(inner, inner).map(lambda t: ProdOf(t[0], t[1])),
        inner.map(MaybeOf),
    ),
    max_leaves=4,
)


def value_strategy(f):
    if f == ID:
        return st.sampled_from(LABELS).map(lambda s: AtomV(Atom(LABELS.index(s), s)))
    if f == UNIT:
        return st.just(UnitV())
    if f == INT:
        return st.integers(-5, 5).map(IntV)
    if f == BOOL:
        return st.booleans().map(BoolV)
    if isinstance(f, ListOf):
        return st.lists(value_strategy(f.inner), max_size=5).map(lambda xs: ListV(tuple(xs)))
    if isinstance(f, ProdOf):
        return st.tuples(value_strategy(f.left), value_strategy(f.right)).map(
            lambda t: PairV(t[0], t[1])
        )
    if isinstance(f, MaybeOf):
        return st.one_of(st.just(NothingV()), value_strategy(f.inner).map(JustV))
    raise AssertionError(f)


typed_values = functor_exprs.flatmap(
    lambda f: st.tuples(st.just(f), value_strategy(f))
)


@given(typed_values)
@settings(max_examples=150)
def test_roundtrip_extension(fv):
    f, v = fv
    assert from_extension(to_extension(f, v)) == v


@given(typed_values)
@settings(max_examples=150)
def test_size_coherence(fv):
    f, v = fv
    ext = to_extension(f, v)
    assert len(ext.elements) == size_of(f, shape_of(f, v))


@given(typed_values.filter(lambda fv: isinstance(fv[0], ProdOf) or True), typed_values)
@settings(max_examples=100)
def test_offset_coherence(fv, gw):
    f, v = fv
    g, w = gw
    prod = to_extension(ProdOf(f, g), PairV(v, w))
    left = to_extension(f, v)
    for k in range(len(left.elements)):
        assert prod.elements[k] == left.elements[k]


def _read_key(f, key, i):
    """The shape of f whose `shape_key` starts at key[i], and the index
    after that key: the key read back, one constructor at a time."""
    match f:
        case Id():
            return IdS(), i
        case ConstUnit():
            return UnitS(), i
        case ConstInt():
            return IntS(key[i]), i + 1
        case ConstBool():
            return BoolS(key[i] == 1), i + 1
        case ListOf(inner):
            children, j = [], i + 1
            for _ in range(key[i]):
                child, j = _read_key(inner, key, j)
                children.append(child)
            return ListS(tuple(children)), j
        case ProdOf(l, r):
            a, j = _read_key(l, key, i)
            b, j = _read_key(r, key, j)
            return ProdS(a, b), j
        case MaybeOf(inner):
            # an absent child's key is the zero key, read and dropped
            child, j = _read_key(inner, key, i + 1)
            return MaybeS(child if key[i] == 1 else None), j


@given(typed_values)
@settings(max_examples=150)
def test_schema_coherence(fv):
    # every functor's key reads back to its shape; where the functor has a
    # schema, the key is the shape's slot vector
    f, v = fv
    shape = shape_of(f, v)
    key = shape_key(f, shape)
    assert _read_key(f, key, 0) == (shape, len(key))
    try:
        sch = flatten_shape(f)
    except UnsupportedFunctor:
        return
    assert sch.encode_shape(shape) == key
    assert sch.refines(key)
    assert sch.count_value(key) == size_of(f, shape)
    assert support.schema_shape(sch, key) == shape


@given(functor_exprs, st.data())
@settings(max_examples=300)
def test_the_refinement_is_the_decoders_domain(f, data):
    # `refines` and `count_value` read slot data; `shape_from_key` and
    # `size_of` walk the functor, and share no code with them
    try:
        schema = flatten_shape(f)
    except UnsupportedFunctor:
        return
    width = len(schema.slots)
    length = data.draw(st.one_of(st.just(width), st.integers(0, width + 1)))
    slots = tuple(data.draw(st.lists(st.integers(-1, 2), min_size=length, max_size=length)))
    try:
        shape = shape_from_key(f, slots)
    except ShapeMismatch:
        assert not schema.refines(slots)
        return
    assert schema.refines(slots)
    assert schema.count_value(slots) == size_of(f, shape)


# functors without fixed-arity shapes, and two with schemas
_KEY_POOL = [
    ListOf(ListOf(ID)),
    ListOf(MaybeOf(ID)),
    MaybeOf(ListOf(ProdOf(ID, INT))),
    ProdOf(ListOf(ListOf(ID)), ListOf(ID)),
    MaybeOf(MaybeOf(INT)),
    ProdOf(ListOf(ID), INT),
]


@pytest.mark.parametrize("f", _KEY_POOL, ids=str)
def test_shape_key_is_injective(f):
    # distinct random shapes get distinct keys, and so do pairs of them,
    # which a key that is not prefix-free would merge
    rng = random.Random(5)
    shapes = list({shape_of(f, support.random_value(rng, f, list_cap=3)) for _ in range(400)})
    assert len({shape_key(f, s) for s in shapes}) == len(shapes) >= 10
    pairs = [ProdS(a, b) for a in shapes[:25] for b in shapes[:25]]
    assert len({shape_key(ProdOf(f, f), s) for s in pairs}) == len(pairs)


# ---------------------------------------------------------------------------
# The one decoder: `shape_from_key` reads every key back to its shape


@given(typed_values)
@settings(max_examples=200)
def test_shape_from_key_reads_back_every_key(fv):
    f, v = fv
    shape = shape_of(f, v)
    assert shape_from_key(f, shape_key(f, shape)) == shape


@pytest.mark.parametrize("f", _KEY_POOL, ids=str)
@given(data=st.data())
@settings(max_examples=50)
def test_shape_from_key_reads_back_nested_keys(f, data):
    # List(List(Id)) and the other nested functors of the pool have no schema
    shape = shape_of(f, data.draw(value_strategy(f)))
    assert shape_from_key(f, shape_key(f, shape)) == shape


@pytest.mark.parametrize(
    "f, key",
    [
        (ListOf(ID), ()),  # too short
        (ListOf(ID), (1, 0)),  # too long
        (ListOf(ID), (-1,)),  # a negative length
        (ListOf(ListOf(ID)), (2, 1)),  # a child's key missing
        (BOOL, (2,)),
        (MaybeOf(ID), (2,)),
        (MaybeOf(ListOf(ID)), (0, 1)),  # absent, with a nonzero child key
        (MaybeOf(MaybeOf(INT)), (0, 0, 3)),
    ],
    ids=str,
)
def test_shape_from_key_rejects_the_key_of_no_shape(f, key):
    with pytest.raises(ShapeMismatch):
        shape_from_key(f, key)



@given(typed_values, typed_values)
@settings(max_examples=100)
def test_shapes_from_key_reads_back_keys_end_to_end(fv, gw):
    # a constraint's input key is its parts' keys end to end
    (f, v), (g, w) = fv, gw
    shapes = (shape_of(f, v), shape_of(g, w))
    key = shape_key(f, shapes[0]) + shape_key(g, shapes[1])
    assert shapes_from_key((f, g), key) == shapes
    with pytest.raises(ShapeMismatch):
        shapes_from_key((f, g), key + (0,))
