"""Strictly positive unary functors, monomorphic values, and the translation
between values and their container form: a shape plus a linear numbering of
the element positions.

The position numbering is canonical: depth-first, left to right, with the
positions of a product laid out as the left block followed by the right
block. The same numbering is used both for concrete values and for the
symbolic shape schemas consumed by the SMT encoding.

Every shape of every functor has a key (`shape_key`), and `shape_from_key`
reads a key back to its shape; a schema exists only for fixed-arity
shapes, and keys a shape by the same tuple, its slot vector. A schema is
its slots: each slot's kind, the presence bit that guards it and the
positions it adds say which vectors are shapes (`ShapeSchema.refines`) and
how many positions each has (`count_value`). This module writes no
SMT-LIB: `encode` reads the same slot data symbolically.

Each translation is one walk: `to_extension` checks that a value inhabits
its functor while it collects the shape and the elements (`typecheck` and
`shape_of` are defined through it), and `flatten_shape` builds a schema in
one walk over the functor. Problem loading (`problem.py`) does not call
`to_extension`: one walk over each field's problem-file term, shared by
files and by problems built in code, checks and interns the field and
records its key and element codes, and every decision reads those. A
shape is decoded from its key only for a reader.
"""

from __future__ import annotations

import functools
from operator import attrgetter
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Records


class Record:
    """An immutable record whose fields are the names its class lists, in
    order, in its own `__slots__` (and annotates). It is the base of every sum type's
    variants (functors, values, shapes, verdicts) and of a
    record whose constructor converts or checks a field; a record compared
    only with its own class is a `NamedTuple` instead.

    A record is built from its fields positionally or by name, shows as
    `Name(field=value)`, equals a record of its own class with equal
    fields, and hashes as the tuple of its fields. Unlike a tuple, a record
    with no fields is truthy and equals only its own class. A subclass that
    converts or checks a field defines `__init__`, which stores each field
    with `object.__setattr__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__dict__["__slots__"]  # each record class lists its own fields
        cls.__match_args__ = fields
        for method in _record_methods(cls, fields):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _record_methods(cls: type, fields: tuple[str, ...]):
    """`__init__`, `__eq__` and `__hash__` for a record class with these
    fields: closures for their count, as fast as methods written out per
    class, built without generating source. Each reads the fields with one
    `attrgetter` call and stores them through the slot descriptors, past
    the frozen `__setattr__`."""
    store = [getattr(cls, name).__set__ for name in fields]
    if not fields:
        empty = hash(())

        def __init__(self, *args, **kwargs):
            if args or kwargs:
                _bind(cls, args, kwargs)

        def __eq__(self, other):
            return True if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self):
            return empty

        return __init__, __eq__, __hash__

    get = attrgetter(*fields)
    if len(fields) == 1:
        (store_field,) = store

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 1:
                args = _bind(cls, args, kwargs)
            store_field(self, args[0])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                # as `(a,) == (b,)` compares, without building the tuples
                a, b = get(self), get(other)
                return a is b or a == b
            return NotImplemented

        def __hash__(self):
            return hash((get(self),))

        return __init__, __eq__, __hash__

    if len(fields) == 2:
        store_first, store_second = store

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 2:
                args = _bind(cls, args, kwargs)
            store_first(self, args[0])
            store_second(self, args[1])

    else:

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(store):
                args = _bind(cls, args, kwargs)
            for store_field, value in zip(store, args):
                store_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(get(self))

    return __init__, __eq__, __hash__


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """The fields of a `cls` record from its positional and keyword
    arguments, with a TypeError where they do not give each field once."""
    fields = cls.__slots__
    if len(args) > len(fields):
        raise TypeError(
            f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given"
        )
    values = list(args)
    for name in fields[len(args):]:
        if name not in kwargs:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        values.append(kwargs.pop(name))
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
    return tuple(values)


# ---------------------------------------------------------------------------
# Errors


class ContainerError(Exception):
    """Base class for errors raised by the container translation."""


class TypeMismatch(ContainerError):
    pass


class ShapeMismatch(ContainerError):
    pass


class ArityMismatch(ContainerError):
    pass


class UnsupportedFunctor(ContainerError):
    pass


# ---------------------------------------------------------------------------
# Functor grammar


class FunctorExpr(Record):
    """Base of the functor grammar. Instances are immutable and hashable."""

    __slots__ = ()


class Id(FunctorExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "Id"


class ConstUnit(FunctorExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "Unit"


class ConstInt(FunctorExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "Int"


class ConstBool(FunctorExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "Bool"


class ListOf(FunctorExpr):
    __slots__ = ("inner",)
    inner: FunctorExpr

    def __str__(self) -> str:
        return f"List({self.inner})"


class ProdOf(FunctorExpr):
    __slots__ = ("left", "right")
    left: FunctorExpr
    right: FunctorExpr

    def __str__(self) -> str:
        return f"Prod({self.left},{self.right})"


class MaybeOf(FunctorExpr):
    __slots__ = ("inner",)
    inner: FunctorExpr

    def __str__(self) -> str:
        return f"Maybe({self.inner})"


ID = Id()
UNIT = ConstUnit()
INT = ConstInt()
BOOL = ConstBool()


# ---------------------------------------------------------------------------
# Values


class Atom(NamedTuple):
    """An opaque element of the type parameter, identified by an interned code."""

    code: int
    label: str


class Value(Record):
    __slots__ = ()


class AtomV(Value):
    __slots__ = ("atom",)
    atom: Atom


class IntV(Value):
    __slots__ = ("value",)
    value: int


class BoolV(Value):
    __slots__ = ("value",)
    value: bool


class UnitV(Value):
    __slots__ = ()


class ListV(Value):
    __slots__ = ("items",)
    items: tuple[Value, ...]

    def __init__(self, items):
        object.__setattr__(self, "items", tuple(items))


class PairV(Value):
    __slots__ = ("first", "second")
    first: Value
    second: Value


class NothingV(Value):
    __slots__ = ()


class JustV(Value):
    __slots__ = ("value",)
    value: Value


def show_value(v: Value) -> str:
    match v:
        case AtomV(a):
            return a.label
        case IntV(n):
            return str(n)
        case BoolV(b):
            return "true" if b else "false"
        case UnitV():
            return "()"
        case ListV(items):
            return "[" + ",".join(show_value(x) for x in items) + "]"
        case PairV(a, b):
            return f"({show_value(a)},{show_value(b)})"
        case NothingV():
            return "Nothing"
        case JustV(x):
            return f"Just {show_value(x)}"
    raise TypeError(f"not a Value: {v!r}")


# ---------------------------------------------------------------------------
# Shapes


class ShapeValue(Record):
    __slots__ = ()


class IdS(ShapeValue):
    __slots__ = ()


class UnitS(ShapeValue):
    __slots__ = ()


class IntS(ShapeValue):
    __slots__ = ("value",)
    value: int


class BoolS(ShapeValue):
    __slots__ = ("value",)
    value: bool


class ListS(ShapeValue):
    __slots__ = ("children",)
    children: tuple[ShapeValue, ...]

    def __init__(self, children):
        object.__setattr__(self, "children", tuple(children))


class ProdS(ShapeValue):
    __slots__ = ("left", "right")
    left: ShapeValue
    right: ShapeValue


class MaybeS(ShapeValue):
    __slots__ = ("child",)
    child: ShapeValue | None


def show_shape(s: ShapeValue) -> str:
    match s:
        case IdS():
            return "*"
        case UnitS():
            return "()"
        case IntS(n):
            return str(n)
        case BoolS(b):
            return "T" if b else "F"
        case ListS(children):
            return "[" + ",".join(show_shape(c) for c in children) + "]"
        case ProdS(a, b):
            return f"({show_shape(a)},{show_shape(b)})"
        case MaybeS(None):
            return "N"
        case MaybeS(c):
            return f"J{show_shape(c)}"
    raise TypeError(f"not a ShapeValue: {s!r}")


# ---------------------------------------------------------------------------
# Extensions


class Extension(NamedTuple):
    """A value in container form: a shape and its elements in canonical
    position order. Only Id leaves contribute positions. `elements` is a
    tuple, as every constructor passes it."""

    functor: FunctorExpr
    shape: ShapeValue
    elements: tuple[Atom, ...]


# ---------------------------------------------------------------------------
# Operations


def typecheck(f: FunctorExpr, v: Value) -> bool:
    """Structural check that v inhabits f at the atom type."""
    try:
        to_extension(f, v)
    except TypeMismatch:
        return False
    return True


def shape_of(f: FunctorExpr, v: Value) -> ShapeValue:
    """The shape component of v: atoms erased, monomorphic constants kept."""
    return to_extension(f, v).shape


def size_of(f: FunctorExpr, s: ShapeValue) -> int:
    """Number of element positions of a shape of f."""
    match f, s:
        case Id(), IdS():
            return 1
        case ConstUnit(), UnitS():
            return 0
        case ConstInt(), IntS(_):
            return 0
        case ConstBool(), BoolS(_):
            return 0
        case ListOf(inner), ListS(children):
            return sum(size_of(inner, c) for c in children)
        case ProdOf(l, r), ProdS(a, b):
            return size_of(l, a) + size_of(r, b)
        case MaybeOf(_), MaybeS(None):
            return 0
        case MaybeOf(inner), MaybeS(c):
            return size_of(inner, c)
    raise ShapeMismatch(f"shape {show_shape(s)} is not a shape of {f}")


def to_extension(f: FunctorExpr, v: Value) -> Extension:
    """Translate a value to its container form, checking that it inhabits f."""
    elems: list[Atom] = []
    try:
        shape = _to_shape(f, v, elems)
    except TypeMismatch:
        # the message shows the whole value, so it is built after the walk
        # has unwound: a mismatch deep in v leaves no stack for show_value
        raise TypeMismatch(f"value {show_value(v)} does not inhabit {f}") from None
    return Extension(f, shape, tuple(elems))


# The walks below are module functions, not closures: a nested walk refers
# to itself through its closure, a reference cycle left on every call.


def _to_shape(g: FunctorExpr, w: Value, elems: list[Atom]) -> ShapeValue:
    # the shape of w, appending its atoms to elems
    match g, w:
        case Id(), AtomV(a):
            elems.append(a)
            return IdS()
        case ConstUnit(), UnitV():
            return UnitS()
        case ConstInt(), IntV(n):
            return IntS(n)
        case ConstBool(), BoolV(b):
            return BoolS(b)
        case ListOf(inner), ListV(items):
            return ListS(tuple(_to_shape(inner, x, elems) for x in items))
        case ProdOf(l, r), PairV(a, b):
            ls = _to_shape(l, a, elems)
            return ProdS(ls, _to_shape(r, b, elems))
        case MaybeOf(_), NothingV():
            return MaybeS(None)
        case MaybeOf(inner), JustV(x):
            return MaybeS(_to_shape(inner, x, elems))
    raise TypeMismatch


def from_extension(e: Extension) -> Value:
    """Rebuild the unique value with the given container form."""
    expected = size_of(e.functor, e.shape)
    if len(e.elements) != expected:
        raise ArityMismatch(
            f"{len(e.elements)} elements for a shape with {expected} positions"
        )
    return _rebuild(e.functor, e.shape, iter(e.elements))


def _rebuild(f: FunctorExpr, s: ShapeValue, elements) -> Value:
    # the value of shape s, taking its atoms from the iterator elements
    match f, s:
        case Id(), IdS():
            return AtomV(next(elements))
        case ConstUnit(), UnitS():
            return UnitV()
        case ConstInt(), IntS(n):
            return IntV(n)
        case ConstBool(), BoolS(b):
            return BoolV(b)
        case ListOf(inner), ListS(children):
            return ListV(tuple(_rebuild(inner, c, elements) for c in children))
        case ProdOf(l, r), ProdS(a, b):
            lv = _rebuild(l, a, elements)
            return PairV(lv, _rebuild(r, b, elements))
        case MaybeOf(_), MaybeS(None):
            return NothingV()
        case MaybeOf(inner), MaybeS(c):
            return JustV(_rebuild(inner, c, elements))
    raise ShapeMismatch(f"shape {show_shape(s)} is not a shape of {f}")


# ---------------------------------------------------------------------------
# Shape schemas: fixed-length integer encodings of shapes


class SlotSpec(NamedTuple):
    """One integer-valued slot of a flattened shape.

    kind is "nat" (list length, >= 0), "bool" (0/1 flag or presence bit) or
    "int" (an unconstrained monomorphic payload). guard is the index of the
    presence bit of the innermost Maybe around the slot, -1 outside every
    Maybe: the slot is 0 while that bit is. weight is the element positions
    each unit of the slot adds: a list length's per element, a presence
    bit's when present, 0 for the rest.
    """

    name: str
    kind: str
    guard: int
    weight: int


class ShapeSchema(NamedTuple):
    """A fixed-length integer encoding for the shapes of one functor.

    slots lists the integer slots in traversal order, and const is the
    element positions every shape has. A slot vector refines the schema
    where each slot holds a value of its kind and is 0 while its guard is;
    refined slot vectors are in bijection with the shapes of the functor.
    The number of element positions is const plus each slot's weight times
    its value.
    """

    functor: FunctorExpr
    slots: tuple[SlotSpec, ...]
    const: int

    def refines(self, slot_values) -> bool:
        if len(slot_values) != len(self.slots):
            return False
        for (_, kind, guard, _), v in zip(self.slots, slot_values):
            if kind == "nat":
                if v < 0:
                    return False
            elif kind == "bool" and not 0 <= v <= 1:
                return False
            if v and guard >= 0 and not slot_values[guard]:
                return False
        return True

    def count_value(self, slot_values) -> int:
        count = self.const
        for (_, _, _, weight), v in zip(self.slots, slot_values):
            count += weight * v
        return count

    def encode_shape(self, s: ShapeValue) -> tuple[int, ...]:
        """The slot vector of s: its `shape_key`."""
        return shape_key(self.functor, s)


# slot names are numbered per kind in traversal order: k0, b0, b1, n0, ...
_SLOT_PREFIX = {"int": "k", "bool": "b", "nat": "n"}


def flatten_shape(f: FunctorExpr) -> ShapeSchema:
    """Flatten the shapes of f into integer slots.

    One walk over f appends every slot at its final index. Fails for list
    functors whose element functor itself has shape degrees of freedom
    (e.g. List(List(Id))): those shapes are not fixed-arity, so they can
    only appear in concrete values, keyed by `shape_key` alone, never as a
    symbolic container.
    """
    slots: list[SlotSpec] = []
    const = _flatten(f, -1, slots, dict.fromkeys(_SLOT_PREFIX, 0))
    return ShapeSchema(f, tuple(slots), const)


def _new_slot(kind: str, guard: int, weight: int, slots: list[SlotSpec], per_kind: dict[str, int]) -> int:
    slots.append(SlotSpec(f"{_SLOT_PREFIX[kind]}{per_kind[kind]}", kind, guard, weight))
    per_kind[kind] += 1
    return len(slots) - 1


def _flatten(g: FunctorExpr, guard: int, slots: list, per_kind: dict) -> int:
    # appends g's slots to `slots`, each guarded by `guard`, the presence
    # bit of the innermost Maybe around g (-1 for none), and returns g's
    # constant position count; a module function, as the walks above
    match g:
        case Id():
            return 1
        case ConstUnit():
            return 0
        case ConstInt():
            _new_slot("int", guard, 0, slots, per_kind)
            return 0
        case ConstBool():
            _new_slot("bool", guard, 0, slots, per_kind)
            return 0
        case ListOf(inner):
            width = len(slots)
            const = _flatten(inner, guard, slots, per_kind)
            if len(slots) != width:
                raise UnsupportedFunctor(
                    f"{g}: element functor {inner} has a variable shape, so the "
                    f"list shape is not fixed-arity"
                )
            _new_slot("nat", guard, const, slots, per_kind)
            return 0
        case ProdOf(l, r):
            return _flatten(l, guard, slots, per_kind) + _flatten(r, guard, slots, per_kind)
        case MaybeOf(inner):
            b = _new_slot("bool", guard, 0, slots, per_kind)
            # the bit comes before the slots it guards, and weighs what
            # they leave constant
            slots[b] = slots[b]._replace(weight=_flatten(inner, b, slots, per_kind))
            return 0
    raise UnsupportedFunctor(f"not a functor expression: {g!r}")


@functools.cache
def schema_of(f: FunctorExpr) -> ShapeSchema:
    """`flatten_shape(f)`, built once per functor: the readers of a
    constraint set ask for one schema at every grounding and replay. Like
    `flatten_shape`, it raises UnsupportedFunctor where f has no schema."""
    return flatten_shape(f)


def shape_key(f: FunctorExpr, s: ShapeValue) -> tuple[int, ...]:
    """The key of shape s of f, one preorder walk: a list gives its length
    and its children's keys, an int or a bool its value, a Maybe 0 or 1 and
    its child's key (the zero key, all 0s, when absent), Id and Unit
    nothing. Given f, a key reads back to its shape (`shape_from_key`), so
    equal keys mean equal shapes. Where f has a schema, the key is the slot
    vector. s None stands for the child of an absent Maybe: the zero key."""
    out: list[int] = []
    _key(f, s, out)
    return tuple(out)


def _key(f: FunctorExpr, s: ShapeValue | None, out: list[int]) -> None:
    # s is None below an absent Maybe, where every int is 0
    match f, s:
        case (Id(), IdS() | None) | (ConstUnit(), UnitS() | None):
            return
        case ConstInt(), IntS(n):
            out.append(n)
        case ConstBool(), BoolS(b):
            out.append(1 if b else 0)
        case ListOf(inner), ListS(children):
            out.append(len(children))
            # a functor's keys are all empty or none is, so a first child
            # that adds nothing leaves the rest unwalked
            width = len(out)
            for c in children:
                _key(inner, c, out)
                if len(out) == width:
                    break
        case (ConstInt() | ConstBool() | ListOf(_)), None:
            out.append(0)
        case ProdOf(l, r), ProdS(a, b):
            _key(l, a, out)
            _key(r, b, out)
        case ProdOf(l, r), None:
            _key(l, None, out)
            _key(r, None, out)
        case MaybeOf(inner), MaybeS(c):
            out.append(0 if c is None else 1)
            _key(inner, c, out)
        case MaybeOf(inner), None:
            out.append(0)
            _key(inner, None, out)
        case _:
            raise ShapeMismatch(f"shape {show_shape(s)} is not a shape of {f}")


def shape_from_key(f: FunctorExpr, key: tuple[int, ...]) -> ShapeValue:
    """The shape of f whose `shape_key` is `key`, nested functors included:
    the one decoder of keys and slot vectors, for a shape a person reads.
    Raises ShapeMismatch where `key` is the key of no shape of f."""
    return shapes_from_key((f,), key)[0]


def shapes_from_key(fs: tuple[FunctorExpr, ...], key: tuple[int, ...]) -> tuple[ShapeValue, ...]:
    """The shapes of the functors fs whose keys, end to end, are `key`: a
    constraint's input key decoded part by part (`shape_from_key`)."""
    shapes, end = [], 0
    try:
        for f in fs:
            shape, end = _shape_at(f, key, end)
            shapes.append(shape)
    except (IndexError, ShapeMismatch):
        end = -1
    if end != len(key):
        parts = " and ".join(map(str, fs))
        raise ShapeMismatch(f"{list(key)} is not the key of a shape of {parts}")
    return tuple(shapes)


def show_key(fs: tuple[FunctorExpr, ...], key: tuple[int, ...]) -> str:
    """`key`, the keys of the functors fs end to end, shown as the shape of
    each part (`shapes_from_key`): one part alone, several as a tuple."""
    shown = [show_shape(s) for s in shapes_from_key(fs, key)]
    return shown[0] if len(shown) == 1 else "(" + ", ".join(shown) + ")"


def _shape_at(f: FunctorExpr, key: tuple[int, ...], i: int) -> tuple[ShapeValue, int]:
    # the shape whose key starts at key[i], and the index past its key: the
    # walk of `_key`, read backwards
    match f:
        case Id():
            return IdS(), i
        case ConstUnit():
            return UnitS(), i
        case ConstInt():
            return IntS(key[i]), i + 1
        case ConstBool():
            if key[i] in (0, 1):
                return BoolS(key[i] == 1), i + 1
        case ListOf(inner):
            if key[i] >= 0:
                children, j = [], i + 1
                for _ in range(key[i]):
                    child, j = _shape_at(inner, key, j)
                    children.append(child)
                return ListS(children), j
        case ProdOf(l, r):
            a, j = _shape_at(l, key, i)
            b, j = _shape_at(r, key, j)
            return ProdS(a, b), j
        case MaybeOf(inner):
            child, j = _shape_at(inner, key, i + 1)
            if key[i] == 1:
                return MaybeS(child), j
            if key[i] == 0 and not any(key[i + 1 : j]):  # absent: the zero key
                return MaybeS(None), j
        case _:
            raise UnsupportedFunctor(f"not a functor expression: {f!r}")
    raise ShapeMismatch
