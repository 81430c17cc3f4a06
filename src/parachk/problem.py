"""Realizability problems: signatures, sketches, input-output examples, atom
interning, and the JSON problem-file format.

A problem file is a single JSON document:

    {
      "name": "...",
      "signature": {"extra": "Int", "element": "Id", "result": "List(Id)"},
      "sketch": "raw" | "map" | "foldr",
      "examples": [
        {"extra": ..., "inputs": [...], "output": ..., "base": ...},
        ...
      ]
    }

Functor expressions are written with the grammar
``Id | Unit | Int | Bool | List(f) | Prod(f,g) | Maybe(f)``; values are
tagged terms: ``{"atom": "A"}``, ``{"int": 3}``, ``{"bool": true}``,
``"unit"``, ``{"list": [...]}``, ``{"pair": [l, r]}``, ``"nothing"``,
``{"just": v}``. Unknown fields are rejected. ``extra`` may be omitted when
the extra functor is Unit; ``base`` is required exactly for foldr sketches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .functors import (
    BOOL,
    INT,
    Atom,
    AtomV,
    BoolV,
    ConstBool,
    ConstInt,
    ConstUnit,
    FunctorExpr,
    ID,
    Id,
    IntV,
    JustV,
    ListOf,
    ListV,
    MaybeOf,
    NothingV,
    PairV,
    ProdOf,
    TypeMismatch,
    UNIT,
    UnitV,
    UnsupportedFunctor,
    Value,
    flatten_shape,
    show_value,
)


class ProblemError(Exception):
    """Base class for problem construction and parsing errors."""


class ParseError(ProblemError):
    pass


class ValidationError(ProblemError):
    pass


class SketchKind(str, Enum):
    RAW = "raw"
    MAP = "map"
    FOLDR = "foldr"


@dataclass(frozen=True)
class Signature:
    """The functor triple of a problem.

    For foldr sketches the function checked is ``(extra, [element]) ->
    result`` folded over the list; for map sketches it is ``[element] ->
    [result]``; for raw examples it is ``element -> result`` and extra is
    unused (conventionally Unit).
    """

    extra: FunctorExpr
    element: FunctorExpr
    result: FunctorExpr


@dataclass(frozen=True)
class IOExample:
    extra: Value
    inputs: tuple[Value, ...]
    output: Value
    base: Value | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))


@dataclass(frozen=True)
class AtomTable:
    """Dense interning of atom labels: code i <-> labels[i]."""

    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def label_of(self, code: int) -> str:
        if 0 <= code < len(self.labels):
            return self.labels[code]
        return f"#{code}"


@dataclass(frozen=True)
class Problem:
    name: str
    signature: Signature
    sketch: SketchKind
    examples: tuple[IOExample, ...]
    atoms: AtomTable


def atom(label: str) -> AtomV:
    """An atom value with a placeholder code, for building problems in code.
    Codes are assigned when the problem is constructed."""
    return AtomV(Atom(-1, label))


# ---------------------------------------------------------------------------
# Construction and validation


def build_problem(
    name: str,
    signature: Signature,
    sketch: SketchKind,
    examples,
) -> Problem:
    """Check, intern and assemble a Problem.

    examples is a sequence of IOExample or of (extra, inputs, output[, base])
    tuples. One walk per field checks the value against its functor and
    reassigns atom codes in first-occurrence order; the codes in the given
    values are ignored.
    """
    exs = []
    for ex in examples:
        if isinstance(ex, IOExample):
            exs.append(ex)
        else:
            extra, inputs, output, *rest = ex
            exs.append(IOExample(extra, tuple(inputs), output, *rest))
    if not exs:
        raise ValidationError("a problem needs at least one example")
    if sketch is SketchKind.FOLDR:
        # fold traces introduce symbolic intermediate results, so the result
        # functor must have fixed-arity shapes
        try:
            flatten_shape(signature.result)
        except UnsupportedFunctor as e:
            raise ValidationError(f"result functor unusable for foldr: {e}") from None

    codes: dict[str, int] = {}  # label -> code, in first-occurrence order

    def intern(f: FunctorExpr, v: Value) -> Value:
        match f, v:
            case Id(), AtomV(a):
                return AtomV(Atom(codes.setdefault(a.label, len(codes)), a.label))
            case (ConstUnit(), UnitV()) | (ConstInt(), IntV()) | (ConstBool(), BoolV()):
                return v
            case ListOf(inner), ListV(items):
                return ListV(tuple(intern(inner, x) for x in items))
            case ProdOf(l, r), PairV(a, b):
                return PairV(intern(l, a), intern(r, b))
            case MaybeOf(_), NothingV():
                return v
            case MaybeOf(inner), JustV(x):
                return JustV(intern(inner, x))
        raise TypeMismatch

    def check(i: int, fieldname: str, f: FunctorExpr, v: Value) -> Value:
        try:
            return intern(f, v)
        except TypeMismatch:
            raise ValidationError(
                f"example {i}: field {fieldname!r}: value {show_value(v)} "
                f"does not typecheck against {f}"
            ) from None

    interned = []
    bases_by_extra: dict[Value, Value] = {}
    for i, ex in enumerate(exs):
        extra = check(i, "extra", signature.extra, ex.extra)
        inputs = tuple(
            check(i, f"inputs[{j}]", signature.element, v) for j, v in enumerate(ex.inputs)
        )
        if sketch is SketchKind.RAW and len(inputs) != 1:
            raise ValidationError(
                f"example {i}: raw examples take exactly one input, got {len(inputs)}"
            )
        if sketch is SketchKind.MAP:
            if not isinstance(ex.output, ListV):
                raise ValidationError(
                    f"example {i}: field 'output': a map sketch produces a list"
                )
            output = ListV(
                tuple(
                    check(i, f"output[{j}]", signature.result, v)
                    for j, v in enumerate(ex.output.items)
                )
            )
        else:
            output = check(i, "output", signature.result, ex.output)
        base = None
        if sketch is SketchKind.FOLDR:
            if ex.base is None:
                raise ValidationError(f"example {i}: foldr examples need a 'base'")
            base = check(i, "base", signature.result, ex.base)
            # interned codes are in bijection with labels, so values compare
            # by label
            seen = bases_by_extra.setdefault(extra, base)
            if seen != base:
                raise ValidationError(
                    f"example {i}: base {show_value(base)} differs from the "
                    f"base of an earlier example with the same extra argument"
                )
        elif ex.base is not None:
            raise ValidationError(
                f"example {i}: field 'base' is only meaningful for foldr sketches"
            )
        interned.append(IOExample(extra, inputs, output, base))
    return Problem(name, signature, sketch, tuple(interned), AtomTable(tuple(codes)))


def _map_atoms(v: Value, fn) -> Value:
    match v:
        case AtomV(a):
            return AtomV(fn(a))
        case ListV(items):
            return ListV(tuple(_map_atoms(x, fn) for x in items))
        case PairV(a, b):
            return PairV(_map_atoms(a, fn), _map_atoms(b, fn))
        case JustV(x):
            return JustV(_map_atoms(x, fn))
        case _:
            return v


def intern_atoms(p: Problem) -> AtomTable:
    """Recompute the dense label/code bijection of a problem's examples."""
    return build_problem(p.name, p.signature, p.sketch, p.examples).atoms


def relabel_problem(p: Problem, mapping: dict[str, str]) -> Problem:
    """Rename atom labels through an injective mapping; structure unchanged."""
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("relabeling must be injective")

    def rename(a: Atom) -> Atom:
        return Atom(-1, mapping.get(a.label, a.label))

    exs = [
        IOExample(
            _map_atoms(ex.extra, rename),
            tuple(_map_atoms(v, rename) for v in ex.inputs),
            _map_atoms(ex.output, rename),
            _map_atoms(ex.base, rename) if ex.base is not None else None,
        )
        for ex in p.examples
    ]
    return build_problem(p.name, p.signature, p.sketch, exs)


# ---------------------------------------------------------------------------
# Functor expression text


def parse_functor(text: str) -> FunctorExpr:
    parser = _FunctorParser(text)
    f = parser.parse()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise ParseError(f"trailing input in functor {text!r} at column {parser.pos}")
    return f


class _FunctorParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r} at column {self.pos} in functor")
        self.pos += 1

    def parse(self) -> FunctorExpr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        word = self.text[start : self.pos]
        simple = {"Id": ID, "Unit": UNIT, "Int": INT, "Bool": BOOL}
        if word in simple:
            return simple[word]
        if word == "List":
            self.expect("(")
            inner = self.parse()
            self.expect(")")
            return ListOf(inner)
        if word == "Maybe":
            self.expect("(")
            inner = self.parse()
            self.expect(")")
            return MaybeOf(inner)
        if word == "Prod":
            self.expect("(")
            left = self.parse()
            self.expect(",")
            right = self.parse()
            self.expect(")")
            return ProdOf(left, right)
        raise ParseError(f"unknown functor {word!r} at column {start}")


# ---------------------------------------------------------------------------
# JSON values


def value_from_json(node, where: str) -> Value:
    if node == "unit":
        return UnitV()
    if node == "nothing":
        return NothingV()
    if isinstance(node, dict):
        if len(node) != 1:
            raise ParseError(f"{where}: a value term has exactly one tag, got {sorted(node)}")
        (tag, body), = node.items()
        if tag == "atom":
            if not isinstance(body, str):
                raise ParseError(f"{where}: atom labels are strings")
            return atom(body)
        if tag == "int":
            if not isinstance(body, int) or isinstance(body, bool):
                raise ParseError(f"{where}: 'int' takes an integer")
            return IntV(body)
        if tag == "bool":
            if not isinstance(body, bool):
                raise ParseError(f"{where}: 'bool' takes true or false")
            return BoolV(body)
        if tag == "list":
            if not isinstance(body, list):
                raise ParseError(f"{where}: 'list' takes an array")
            return ListV(tuple(value_from_json(x, f"{where}[{i}]") for i, x in enumerate(body)))
        if tag == "pair":
            if not isinstance(body, list) or len(body) != 2:
                raise ParseError(f"{where}: 'pair' takes a two-element array")
            return PairV(
                value_from_json(body[0], f"{where}.fst"),
                value_from_json(body[1], f"{where}.snd"),
            )
        if tag == "just":
            return JustV(value_from_json(body, f"{where}.just"))
        raise ParseError(f"{where}: unknown value tag {tag!r}")
    raise ParseError(f"{where}: not a value term: {node!r}")


def value_to_json(v: Value):
    match v:
        case AtomV(a):
            return {"atom": a.label}
        case IntV(n):
            return {"int": n}
        case BoolV(b):
            return {"bool": b}
        case UnitV():
            return "unit"
        case ListV(items):
            return {"list": [value_to_json(x) for x in items]}
        case PairV(a, b):
            return {"pair": [value_to_json(a), value_to_json(b)]}
        case NothingV():
            return "nothing"
        case JustV(x):
            return {"just": value_to_json(x)}
    raise TypeError(f"not a Value: {v!r}")


# ---------------------------------------------------------------------------
# Problem files


def parse_problem(text: str) -> Problem:
    # reading, validating and interning all recurse on nesting
    try:
        return _parse_problem(text)
    except RecursionError:
        raise ParseError("the problem file is nested too deeply") from None


def _parse_problem(text: str) -> Problem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    except ValueError as e:  # an integer literal longer than Python converts
        raise ParseError(f"a number in the problem file is too long: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("a problem file is a JSON object")
    _reject_unknown(doc, {"name", "signature", "sketch", "examples"}, "problem")
    for key in ("name", "signature", "sketch", "examples"):
        if key not in doc:
            raise ParseError(f"problem: missing field {key!r}")
    if not isinstance(doc["name"], str):
        raise ParseError("problem: 'name' is a string")

    sig_doc = doc["signature"]
    if not isinstance(sig_doc, dict):
        raise ParseError("problem: 'signature' is an object")
    _reject_unknown(sig_doc, {"extra", "element", "result"}, "signature")
    for key in ("element", "result"):
        if key not in sig_doc:
            raise ParseError(f"signature: missing field {key!r}")
    for key, f in sig_doc.items():
        if not isinstance(f, str):
            raise ParseError(f"signature: {key!r} is a functor string, not {f!r}")
    extra_f = parse_functor(sig_doc["extra"]) if "extra" in sig_doc else UNIT
    signature = Signature(
        extra=extra_f,
        element=parse_functor(sig_doc["element"]),
        result=parse_functor(sig_doc["result"]),
    )

    try:
        sketch = SketchKind(doc["sketch"])
    except ValueError:
        raise ParseError(
            f"problem: 'sketch' is one of 'raw', 'map', 'foldr', got {doc['sketch']!r}"
        ) from None

    if not isinstance(doc["examples"], list) or not doc["examples"]:
        raise ParseError("problem: 'examples' is a non-empty array")
    examples = []
    for i, ex_doc in enumerate(doc["examples"]):
        where = f"examples[{i}]"
        if not isinstance(ex_doc, dict):
            raise ParseError(f"{where}: an example is an object")
        _reject_unknown(ex_doc, {"extra", "inputs", "output", "base"}, where)
        for key in ("inputs", "output"):
            if key not in ex_doc:
                raise ParseError(f"{where}: missing field {key!r}")
        if not isinstance(ex_doc["inputs"], list):
            raise ParseError(f"{where}: 'inputs' is an array")
        extra = (
            value_from_json(ex_doc["extra"], f"{where}.extra")
            if "extra" in ex_doc
            else UnitV()
        )
        inputs = tuple(
            value_from_json(x, f"{where}.inputs[{j}]")
            for j, x in enumerate(ex_doc["inputs"])
        )
        output = value_from_json(ex_doc["output"], f"{where}.output")
        base = (
            value_from_json(ex_doc["base"], f"{where}.base")
            if "base" in ex_doc
            else None
        )
        examples.append(IOExample(extra, inputs, output, base))

    return build_problem(doc["name"], signature, sketch, examples)


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ParseError(f"{where}: unknown fields {unknown}")


def problem_to_json(p: Problem) -> str:
    """Serialize to the canonical problem-file form; parsing it back yields
    an equal Problem."""
    sig: dict = {}
    if p.signature.extra != UNIT:
        sig["extra"] = str(p.signature.extra)
    sig["element"] = str(p.signature.element)
    sig["result"] = str(p.signature.result)
    examples = []
    for ex in p.examples:
        doc: dict = {}
        if ex.extra != UnitV():
            doc["extra"] = value_to_json(ex.extra)
        doc["inputs"] = [value_to_json(v) for v in ex.inputs]
        doc["output"] = value_to_json(ex.output)
        if ex.base is not None:
            doc["base"] = value_to_json(ex.base)
        examples.append(doc)
    payload = {
        "name": p.name,
        "signature": sig,
        "sketch": p.sketch.value,
        "examples": examples,
    }
    return json.dumps(payload, indent=2) + "\n"


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    return parse_problem(text)
