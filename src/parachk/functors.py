"""Strictly positive unary functors, monomorphic values, and the translation
between values and their container form: a shape plus a linear numbering of
the element positions.

The position numbering is canonical: depth-first, left to right, with the
positions of a product laid out as the left block followed by the right
block. The same numbering is used both for concrete values and for the
symbolic shape schemas consumed by the SMT encoding.

Each translation is one walk: `to_extension` checks that a value inhabits
its functor while it collects the shape and the elements (`typecheck` and
`shape_of` are defined through it), and `flatten_shape` builds a schema in
one walk over the functor. Problem loading (`problem.py`) does not call
`to_extension`: one walk over each field's problem-file term, shared by
files and by problems built in code, checks and interns the field and
records the same shape and elements, and propagation reads those.
"""

from __future__ import annotations

from dataclasses import dataclass


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


class FunctorExpr:
    """Base of the functor grammar. Instances are immutable and hashable."""

    __match_args__ = ()


@dataclass(frozen=True)
class Id(FunctorExpr):
    def __str__(self) -> str:
        return "Id"


@dataclass(frozen=True)
class ConstUnit(FunctorExpr):
    def __str__(self) -> str:
        return "Unit"


@dataclass(frozen=True)
class ConstInt(FunctorExpr):
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True)
class ConstBool(FunctorExpr):
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class ListOf(FunctorExpr):
    inner: FunctorExpr

    def __str__(self) -> str:
        return f"List({self.inner})"


@dataclass(frozen=True)
class ProdOf(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr

    def __str__(self) -> str:
        return f"Prod({self.left},{self.right})"


@dataclass(frozen=True)
class MaybeOf(FunctorExpr):
    inner: FunctorExpr

    def __str__(self) -> str:
        return f"Maybe({self.inner})"


ID = Id()
UNIT = ConstUnit()
INT = ConstInt()
BOOL = ConstBool()


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class Atom:
    """An opaque element of the type parameter, identified by an interned code."""

    code: int
    label: str


class Value:
    __match_args__ = ()


@dataclass(frozen=True)
class AtomV(Value):
    atom: Atom


@dataclass(frozen=True)
class IntV(Value):
    value: int


@dataclass(frozen=True)
class BoolV(Value):
    value: bool


@dataclass(frozen=True)
class UnitV(Value):
    pass


@dataclass(frozen=True)
class ListV(Value):
    items: tuple[Value, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class PairV(Value):
    first: Value
    second: Value


@dataclass(frozen=True)
class NothingV(Value):
    pass


@dataclass(frozen=True)
class JustV(Value):
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


class ShapeValue:
    __match_args__ = ()


@dataclass(frozen=True)
class IdS(ShapeValue):
    pass


@dataclass(frozen=True)
class UnitS(ShapeValue):
    pass


@dataclass(frozen=True)
class IntS(ShapeValue):
    value: int


@dataclass(frozen=True)
class BoolS(ShapeValue):
    value: bool


@dataclass(frozen=True)
class ListS(ShapeValue):
    children: tuple[ShapeValue, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class ProdS(ShapeValue):
    left: ShapeValue
    right: ShapeValue


@dataclass(frozen=True)
class MaybeS(ShapeValue):
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


@dataclass(frozen=True, slots=True)
class Extension:
    """A value in container form: a shape and its elements in canonical
    position order. Only Id leaves contribute positions."""

    functor: FunctorExpr
    shape: ShapeValue
    elements: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))


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

    def walk(g: FunctorExpr, w: Value) -> ShapeValue:
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
                return ListS(tuple(walk(inner, x) for x in items))
            case ProdOf(l, r), PairV(a, b):
                ls = walk(l, a)
                return ProdS(ls, walk(r, b))
            case MaybeOf(_), NothingV():
                return MaybeS(None)
            case MaybeOf(inner), JustV(x):
                return MaybeS(walk(inner, x))
        raise TypeMismatch

    try:
        shape = walk(f, v)
    except TypeMismatch:
        # the message shows the whole value, so it is built after the walk
        # has unwound: a mismatch deep in v leaves no stack for show_value
        raise TypeMismatch(f"value {show_value(v)} does not inhabit {f}") from None
    return Extension(f, shape, tuple(elems))


def from_extension(e: Extension) -> Value:
    """Rebuild the unique value with the given container form."""
    expected = size_of(e.functor, e.shape)
    if len(e.elements) != expected:
        raise ArityMismatch(
            f"{len(e.elements)} elements for a shape with {expected} positions"
        )
    pos = 0

    def rebuild(f: FunctorExpr, s: ShapeValue) -> Value:
        nonlocal pos
        match f, s:
            case Id(), IdS():
                a = e.elements[pos]
                pos += 1
                return AtomV(a)
            case ConstUnit(), UnitS():
                return UnitV()
            case ConstInt(), IntS(n):
                return IntV(n)
            case ConstBool(), BoolS(b):
                return BoolV(b)
            case ListOf(inner), ListS(children):
                return ListV(tuple(rebuild(inner, c) for c in children))
            case ProdOf(l, r), ProdS(a, b):
                lv = rebuild(l, a)
                return PairV(lv, rebuild(r, b))
            case MaybeOf(_), MaybeS(None):
                return NothingV()
            case MaybeOf(inner), MaybeS(c):
                return JustV(rebuild(inner, c))
        raise ShapeMismatch(f"shape {show_shape(s)} is not a shape of {f}")

    return rebuild(e.functor, e.shape)


# ---------------------------------------------------------------------------
# Shape schemas: fixed-length integer encodings of shapes


@dataclass(frozen=True)
class SlotSpec:
    """One integer-valued slot of a flattened shape.

    kind is "nat" (list length, >= 0), "bool" (0/1 flag or presence bit) or
    "int" (an unconstrained monomorphic payload).
    """

    name: str
    kind: str


@dataclass(frozen=True)
class LinearForm:
    """const + sum(coeff * slot) over slot indices; all counts are affine."""

    const: int
    coeffs: tuple[tuple[int, int], ...]  # (slot index, coefficient)

    def eval(self, slots) -> int:
        return self.const + sum(c * slots[i] for i, c in self.coeffs)

    def smt(self, terms) -> str:
        parts = [str(self.const)] if self.const != 0 else []
        for i, c in self.coeffs:
            parts.append(terms[i] if c == 1 else f"(* {c} {terms[i]})")
        if not parts:
            return "0"
        if len(parts) == 1:
            return parts[0]
        return "(+ " + " ".join(parts) + ")"


@dataclass(frozen=True)
class Nonneg:
    slot: int

    def eval(self, slots) -> bool:
        return slots[self.slot] >= 0

    def smt(self, terms) -> str:
        return f"(>= {terms[self.slot]} 0)"


@dataclass(frozen=True)
class ZeroOne:
    slot: int

    def eval(self, slots) -> bool:
        return 0 <= slots[self.slot] <= 1

    def smt(self, terms) -> str:
        t = terms[self.slot]
        return f"(and (>= {t} 0) (<= {t} 1))"


@dataclass(frozen=True)
class ZeroWhenAbsent:
    """A child slot pinned to the canonical 0 while its presence bit is 0."""

    guard: int
    slot: int

    def eval(self, slots) -> bool:
        return slots[self.guard] != 0 or slots[self.slot] == 0

    def smt(self, terms) -> str:
        return f"(=> (= {terms[self.guard]} 0) (= {terms[self.slot]} 0))"


@dataclass(frozen=True)
class ShapeSchema:
    """A fixed-length integer encoding for the shapes of one functor.

    slots lists the integer slots in traversal order; clauses is the
    refinement predicate over them; count is the number of element positions
    as an affine function of the slots. Refined slot vectors are in bijection
    with the shapes of the functor.
    """

    functor: FunctorExpr
    slots: tuple[SlotSpec, ...]
    clauses: tuple
    count: LinearForm

    def refines(self, slot_values) -> bool:
        return all(c.eval(slot_values) for c in self.clauses)

    def smt_refinements(self, terms) -> list[str]:
        return [c.smt(terms) for c in self.clauses]

    def count_value(self, slot_values) -> int:
        return self.count.eval(slot_values)

    def encode_shape(self, s: ShapeValue) -> tuple[int, ...]:
        out: list[int] = []
        _encode_slots(self.functor, s, out)
        return tuple(out)

    def decode_slots(self, slot_values) -> ShapeValue:
        vals = list(slot_values)
        if len(vals) != len(self.slots):
            raise ShapeMismatch(
                f"{len(vals)} slot values for a schema with {len(self.slots)} slots"
            )
        if not self.refines(vals):
            raise ShapeMismatch(f"slot values {vals} violate the refinement of {self.functor}")
        shape, used = _decode_slots(self.functor, vals, 0)
        return shape


# slot names are numbered per kind in traversal order: k0, b0, b1, n0, ...
_SLOT_PREFIX = {"int": "k", "bool": "b", "nat": "n"}


def flatten_shape(f: FunctorExpr) -> ShapeSchema:
    """Flatten the shapes of f into integer slots.

    One walk over f appends every slot, clause and count coefficient at its
    final index. Fails for list functors whose element functor itself has
    shape degrees of freedom (e.g. List(List(Id))): those shapes are not
    fixed-arity, so they can only appear in concrete values, never as a
    symbolic container.
    """
    slots: list[SlotSpec] = []
    clauses: list = []
    coeffs: list[tuple[int, int]] = []
    per_kind = dict.fromkeys(_SLOT_PREFIX, 0)

    def slot(kind: str) -> int:
        slots.append(SlotSpec(f"{_SLOT_PREFIX[kind]}{per_kind[kind]}", kind))
        per_kind[kind] += 1
        return len(slots) - 1

    def walk(g: FunctorExpr) -> tuple[int, list[int]]:
        # returns g's constant position count and its slots that no
        # presence bit inside g guards
        match g:
            case Id():
                return 1, []
            case ConstUnit():
                return 0, []
            case ConstInt():
                return 0, [slot("int")]
            case ConstBool():
                b = slot("bool")
                clauses.append(ZeroOne(b))
                return 0, [b]
            case ListOf(inner):
                width = len(slots)
                const, _ = walk(inner)
                if len(slots) != width:
                    raise UnsupportedFunctor(
                        f"{g}: element functor {inner} has a variable shape, so the "
                        f"list shape is not fixed-arity"
                    )
                n = slot("nat")
                clauses.append(Nonneg(n))
                if const:
                    coeffs.append((n, const))
                return 0, [n]
            case ProdOf(l, r):
                lconst, lfree = walk(l)
                rconst, rfree = walk(r)
                return lconst + rconst, lfree + rfree
            case MaybeOf(inner):
                b = slot("bool")
                clauses.append(ZeroOne(b))
                at = len(coeffs)
                const, free = walk(inner)
                # an inner slot that an inner presence bit guards is 0 once
                # that bit is, so only the unguarded slots need this bit
                clauses.extend(ZeroWhenAbsent(b, i) for i in free)
                if const:
                    coeffs.insert(at, (b, const))
                return 0, [b]
        raise UnsupportedFunctor(f"not a functor expression: {g!r}")

    const, _ = walk(f)
    return ShapeSchema(f, tuple(slots), tuple(clauses), LinearForm(const, tuple(coeffs)))


def _encode_slots(f: FunctorExpr, s: ShapeValue | None, out: list[int]) -> None:
    # s is None below an absent Maybe, where every slot is 0
    match f, s:
        case (Id(), IdS() | None) | (ConstUnit(), UnitS() | None):
            return
        case ConstInt(), IntS(n):
            out.append(n)
        case ConstBool(), BoolS(b):
            out.append(1 if b else 0)
        case ListOf(_), ListS(children):
            out.append(len(children))
        case (ConstInt() | ConstBool() | ListOf(_)), None:
            out.append(0)
        case ProdOf(l, r), ProdS(a, b):
            _encode_slots(l, a, out)
            _encode_slots(r, b, out)
        case ProdOf(l, r), None:
            _encode_slots(l, None, out)
            _encode_slots(r, None, out)
        case MaybeOf(inner), MaybeS(c):
            out.append(0 if c is None else 1)
            _encode_slots(inner, c, out)
        case MaybeOf(inner), None:
            out.append(0)
            _encode_slots(inner, None, out)
        case _:
            raise ShapeMismatch(f"shape {show_shape(s)} is not a shape of {f}")


def _decode_slots(f: FunctorExpr, vals: list[int], i: int):
    match f:
        case Id():
            return IdS(), i
        case ConstUnit():
            return UnitS(), i
        case ConstInt():
            return IntS(vals[i]), i + 1
        case ConstBool():
            return BoolS(vals[i] == 1), i + 1
        case ListOf(inner):
            n = vals[i]
            if n < 0:
                raise ShapeMismatch(f"negative list length {n}")
            child, _ = _decode_slots(inner, vals, i + 1)
            return ListS(tuple([child] * n)), i + 1
        case ProdOf(l, r):
            a, j = _decode_slots(l, vals, i)
            b, k = _decode_slots(r, vals, j)
            return ProdS(a, b), k
        case MaybeOf(inner):
            present = vals[i]
            child, j = _decode_slots(inner, vals, i + 1)
            return MaybeS(child if present == 1 else None), j
    raise UnsupportedFunctor(f"not a functor expression: {f!r}")
