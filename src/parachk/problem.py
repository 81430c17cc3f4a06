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

Loading is one walk per field, directed by the field's functor: from the
JSON node straight to the field's container form, a `Known` (functor, key
of its shape, element codes), the one form that `Problem.extensions`
keeps. As it walks, each field emits the ints of its `shape_key` (a list's
length, an int, a bool, a Maybe's flag and an absent Maybe child's zero
key) and the codes of its atoms, interned label -> code; it builds no shape
and no value, so no later stage walks a shape to key it. A shape or a value
is decoded from a `Known` only for a reader (`extension_of`):
`Problem.examples` rebuilds the values on each access. Files and code
share the walk: `build_problem` reads the problem-file term of each value
built in code.
The walk checks syntax and type together and builds no location. A field
it rejects is rendered by `value_from_json`, and a file with faults gets
the error of its first syntax fault, else of its first validation fault:
the same errors as reading every value first and checking them after.
"""

from __future__ import annotations

import functools
import json
import re
from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .functors import (
    BOOL,
    INT,
    Atom,
    AtomV,
    BoolV,
    ConstBool,
    ConstInt,
    ConstUnit,
    Extension,
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
    Record,
    TypeMismatch,
    UNIT,
    UnitV,
    UnsupportedFunctor,
    Value,
    from_extension,
    schema_of,
    shape_from_key,
    shape_key,
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


class Signature(NamedTuple):
    """The functor triple of a problem.

    For foldr sketches the function checked is ``(extra, [element]) ->
    result`` folded over the list; for map sketches it is ``[element] ->
    [result]``; for raw examples it is ``element -> result`` and extra is
    unused (conventionally Unit).
    """

    extra: FunctorExpr
    element: FunctorExpr
    result: FunctorExpr


class IOExample(Record):
    __slots__ = ("extra", "inputs", "output", "base")
    extra: Value
    inputs: tuple[Value, ...]
    output: Value
    base: Value | None

    def __init__(self, extra: Value, inputs, output: Value, base: Value | None = None):
        object.__setattr__(self, "extra", extra)
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "base", base)


class AtomTable(NamedTuple):
    """Dense interning of atom labels: code i <-> labels[i]."""

    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def label_of(self, code: int) -> str:
        if 0 <= code < len(self.labels):
            return self.labels[code]
        return f"#{code}"


class Known(NamedTuple):
    """A concrete container, given by an example or found by a witness: its
    functor, the key of its shape (`shape_key`) and the codes of its
    elements in position order. The loader records the key and the codes in
    the walk that checks the field; `extension_of` decodes them for a
    reader."""

    functor: FunctorExpr
    key: tuple[int, ...]
    codes: tuple[int, ...]


def extension_of(k: Known, atoms: AtomTable) -> Extension:
    """`k` as an `Extension`: its shape read back from its key and its
    elements labelled by `atoms`, for a value or a shape that a person
    reads. No decision reads it."""
    return Extension(
        k.functor,
        shape_from_key(k.functor, k.key),
        tuple([Atom(code, atoms.label_of(code)) for code in k.codes]),
    )


class ExampleExtensions(NamedTuple):
    """One example's fields in container form: the extra argument, each
    input, the output (for a map sketch, each element of the output) and
    the base (None outside foldr sketches)."""

    extra: Known
    inputs: tuple[Known, ...]
    outputs: tuple[Known, ...]
    base: Known | None


class Problem(NamedTuple):
    name: str
    signature: Signature
    sketch: SketchKind
    atoms: AtomTable
    # one per example, recorded by the walk that checked and interned it
    extensions: tuple[ExampleExtensions, ...]

    @property
    def examples(self) -> tuple[IOExample, ...]:
        """The examples as values, rebuilt from their container form on each
        access; a map output is the list of its outputs."""
        def value(k: Known) -> Value:
            return from_extension(extension_of(k, self.atoms))

        return tuple(
            IOExample(
                value(e.extra),
                tuple([value(x) for x in e.inputs]),
                ListV(tuple([value(y) for y in e.outputs]))
                if self.sketch is SketchKind.MAP
                else value(e.outputs[0]),
                None if e.base is None else value(e.base),
            )
            for e in self.extensions
        )


def atom(label: str) -> AtomV:
    """An atom value with a placeholder code, for building problems in code.
    Codes are assigned when the problem is constructed."""
    return AtomV(Atom(-1, label))


# ---------------------------------------------------------------------------
# Construction and validation: one walk per field


def build_problem(
    name: str,
    signature: Signature,
    sketch: SketchKind,
    examples,
) -> Problem:
    """Check, intern and assemble a Problem.

    examples is a sequence of IOExample or of (extra, inputs, output[, base])
    tuples. Each field is read as its problem-file term, by the walk of
    `parse_problem`: it checks the value against its functor, reassigns
    atom codes in first-occurrence order and records the field's container
    form; the codes in the given values are ignored. A field that is not a
    Value raises TypeError.
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
    return _assemble(name, signature, sketch, map(_example_terms, exs))


def _example_terms(ex: IOExample):
    """The (extra, inputs, output, base) problem-file terms of an example
    built in code, base _ABSENT where there is none."""
    return (
        value_to_json(ex.extra),
        [value_to_json(x) for x in ex.inputs],
        value_to_json(ex.output),
        _ABSENT if ex.base is None else value_to_json(ex.base),
    )


# A field with no value: a missing base.
_ABSENT = object()


def _assemble(name: str, signature: Signature, sketch: SketchKind, examples) -> Problem:
    """The Problem of `examples`, (extra, inputs, output, base) tuples of
    problem-file terms, base _ABSENT where there is none. Every rule raises
    ValidationError at the first field or example that breaks it."""
    if sketch is SketchKind.FOLDR:
        # fold traces introduce symbolic intermediate results, so the result
        # functor must have fixed-arity shapes
        try:
            schema_of(signature.result)
        except UnsupportedFunctor as e:
            raise ValidationError(f"result functor unusable for foldr: {e}") from None

    atoms: dict[str, int] = {}  # label -> code, in first-occurrence order
    read_extra, read_element, read_result = (
        _json_reader(f) for f in (signature.extra, signature.element, signature.result)
    )

    def check(read, f, node, i, field, j=None) -> Known:
        codes: list[int] = []
        key: list[int] = []
        try:
            read(node, atoms, codes, key)
        except TypeMismatch:
            # the field's name and location are built only on the way to an
            # error
            field = field if j is None else f"{field}[{j}]"
            shown = show_value(value_from_json(node, f"examples[{i}].{field}"))
            raise ValidationError(
                f"example {i}: field {field!r}: value {shown} does not typecheck against {f}"
            ) from None
        return Known(f, tuple(key), tuple(codes))

    extensions = []
    # (key, codes) of an extra -> its base
    bases_by_extra: dict[tuple, Known] = {}
    for i, (extra, inputs, output, base) in enumerate(examples):
        extra = check(read_extra, signature.extra, extra, i, "extra")
        inputs = tuple(
            check(read_element, signature.element, x, i, "inputs", j)
            for j, x in enumerate(inputs)
        )
        if sketch is SketchKind.RAW and len(inputs) != 1:
            raise ValidationError(
                f"example {i}: raw examples take exactly one input, got {len(inputs)}"
            )
        if sketch is SketchKind.MAP:
            items = output.get("list") if type(output) is dict and len(output) == 1 else None
            if type(items) is not list:
                raise ValidationError(
                    f"example {i}: field 'output': a map sketch produces a list"
                )
            outputs = tuple(
                check(read_result, signature.result, y, i, "output", j)
                for j, y in enumerate(items)
            )
        else:
            outputs = (check(read_result, signature.result, output, i, "output"),)
        if sketch is SketchKind.FOLDR:
            if base is _ABSENT:
                raise ValidationError(f"example {i}: foldr examples need a 'base'")
            base = check(read_result, signature.result, base, i, "base")
            # a key reads back to its shape, and interned codes are in
            # bijection with labels, so (key, codes) names a value
            seen = bases_by_extra.setdefault((extra.key, extra.codes), base)
            if (seen.key, seen.codes) != (base.key, base.codes):
                shown = show_value(from_extension(extension_of(base, AtomTable(tuple(atoms)))))
                raise ValidationError(
                    f"example {i}: base {shown} differs from the "
                    f"base of an earlier example with the same extra argument"
                )
        elif base is not _ABSENT:
            raise ValidationError(
                f"example {i}: field 'base' is only meaningful for foldr sketches"
            )
        else:
            base = None
        extensions.append(ExampleExtensions(extra, inputs, outputs, base))
    return Problem(name, signature, sketch, AtomTable(tuple(atoms)), tuple(extensions))


def relabel_problem(p: Problem, mapping: dict[str, str]) -> Problem:
    """Rename atom labels through an injective mapping; structure unchanged.
    Codes number the labels in first-occurrence order, which a renaming
    keeps, so only the atom table changes."""
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("relabeling must be injective")
    merged = set(mapping.values()) & (set(p.atoms.labels) - mapping.keys())
    if merged:
        raise ValueError(f"relabeling would merge atoms: {min(merged)!r} is both a new and a kept label")
    return p._replace(atoms=AtomTable(tuple([mapping.get(label, label) for label in p.atoms.labels])))


# ---------------------------------------------------------------------------
# Functor expression text


@functools.cache
def parse_functor(text: str) -> FunctorExpr:
    """The functor `text` names, parsed once per text: functors are frozen,
    so one may be shared. A ParseError, or a RecursionError on deep nesting,
    is raised on every call, since a raise is not cached."""
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


@functools.cache
def _json_reader(f: FunctorExpr) -> Callable:
    """The one walk of a field of functor f, a problem-file term: the syntax
    of `value_from_json`, the type check, the interning and the key
    together.

    read(node, atoms, codes, key) appends the codes of the field's atoms to
    `codes` in position order and the ints of its `shape_key` to `key`, and
    interns new labels into `atoms` (label -> code, in first-occurrence
    order); it builds no shape. A node that is no value of f raises
    TypeMismatch. The walk builds no location; a field it rejects goes to
    `value_from_json` for the message. Each reader tests its node's tag in
    line."""
    match f:
        case Id():

            def read(node, atoms, codes, key):
                if type(node) is dict and len(node) == 1:
                    label = node.get("atom")
                    if type(label) is str:
                        code = atoms.get(label)
                        if code is None:
                            code = atoms[label] = len(atoms)
                        codes.append(code)
                        return
                raise TypeMismatch

        case ConstUnit():

            def read(node, atoms, codes, key):
                if node != "unit":
                    raise TypeMismatch

        case ConstInt():

            def read(node, atoms, codes, key):
                if type(node) is dict and len(node) == 1:
                    n = node.get("int")
                    if type(n) is int:
                        key.append(n)
                        return
                raise TypeMismatch

        case ConstBool():

            def read(node, atoms, codes, key):
                if type(node) is dict and len(node) == 1:
                    b = node.get("bool")
                    if type(b) is bool:
                        key.append(1 if b else 0)
                        return
                raise TypeMismatch

        case ListOf(inner):
            item = _json_reader(inner)

            def read(node, atoms, codes, key):
                if type(node) is dict and len(node) == 1:
                    body = node.get("list")
                    if type(body) is list:
                        key.append(len(body))
                        for x in body:
                            item(x, atoms, codes, key)
                        return
                raise TypeMismatch

        case ProdOf(l, r):
            left, right = _json_reader(l), _json_reader(r)

            def read(node, atoms, codes, key):
                if type(node) is dict and len(node) == 1:
                    body = node.get("pair")
                    if type(body) is list and len(body) == 2:
                        left(body[0], atoms, codes, key)
                        right(body[1], atoms, codes, key)
                        return
                raise TypeMismatch

        case MaybeOf(inner):
            item, absent = _json_reader(inner), shape_key(f, None)

            def read(node, atoms, codes, key):
                if node == "nothing":
                    key.extend(absent)
                    return
                if type(node) is dict and len(node) == 1:
                    key.append(1)
                    item(node.get("just"), atoms, codes, key)
                    return
                raise TypeMismatch

        case _:
            raise UnsupportedFunctor(f"not a functor expression: {f!r}")
    return read


# ---------------------------------------------------------------------------
# Problem files


def parse_problem(text: str) -> Problem:
    # reading, validating and interning all recurse on nesting
    try:
        return _parse_problem(text)
    except RecursionError:
        raise ParseError("the problem file is nested too deeply") from None


# A surrogate code point. JSON escapes a lone one (`"\ud800"`) and
# `json.loads` keeps it, though no UTF-8 output can print it; an escaped
# pair loads as the one code point it encodes.
_SURROGATE = re.compile("[\ud800-\udfff]")


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
    if _SURROGATE.search(doc["name"]):
        raise ParseError(f"problem: 'name' {doc['name']!r} holds a lone surrogate, which is not text")

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

    ex_docs = doc["examples"]
    if not isinstance(ex_docs, list) or not ex_docs:
        raise ParseError("problem: 'examples' is a non-empty array")
    try:
        problem = _assemble(doc["name"], signature, sketch, _example_fields(ex_docs))
    except ValidationError:
        # every syntax fault in the file is reported before any validation
        # fault: look for one past the field the walk stopped at
        _first_syntax_fault(ex_docs)
        raise
    # every distinct label in one scan, after interning; the label and its
    # field are found only on the way to an error
    labels = problem.atoms.labels
    joined = "".join(labels)
    if not joined.isascii() and _SURROGATE.search(joined):
        code = next(code for code, label in enumerate(labels) if _SURROGATE.search(label))
        raise ParseError(
            f"{_first_field_with(problem, code)}: atom label {labels[code]!r} "
            f"holds a lone surrogate, which is not text"
        )
    return problem


def _first_field_with(p: Problem, code: int) -> str:
    """The first field of `p` that holds the atom `code`, as `example i:
    field 'f'`; every interned label comes from one."""
    for i, ex in enumerate(p.extensions):
        output = "output[{}]" if p.sketch is SketchKind.MAP else "output"
        named = [("extra", ex.extra)]
        named += [(f"inputs[{j}]", k) for j, k in enumerate(ex.inputs)]
        named += [(output.format(j), k) for j, k in enumerate(ex.outputs)]
        named += [("base", ex.base)] if ex.base is not None else []
        for field, k in named:
            if code in k.codes:
                return f"example {i}: field {field!r}"
    raise AssertionError(f"no field holds atom {code}")


_EXAMPLE_KEYS = frozenset({"extra", "inputs", "output", "base"})


def _example_fields(ex_docs: list):
    """The (extra, inputs, output, base) JSON nodes of each example, base
    _ABSENT where there is none; a malformed example raises ParseError when
    it is reached."""
    for i, ex_doc in enumerate(ex_docs):
        if not isinstance(ex_doc, dict):
            raise ParseError(f"examples[{i}]: an example is an object")
        if not ex_doc.keys() <= _EXAMPLE_KEYS:
            _reject_unknown(ex_doc, _EXAMPLE_KEYS, f"examples[{i}]")
        for key in ("inputs", "output"):
            if key not in ex_doc:
                raise ParseError(f"examples[{i}]: missing field {key!r}")
        if not isinstance(ex_doc["inputs"], list):
            raise ParseError(f"examples[{i}]: 'inputs' is an array")
        yield (
            ex_doc.get("extra", "unit"),
            ex_doc["inputs"],
            ex_doc["output"],
            ex_doc.get("base", _ABSENT),
        )


def _first_syntax_fault(ex_docs: list) -> None:
    """Raise the ParseError of the first malformed example or value term,
    if there is one."""
    for i, (extra, inputs, output, base) in enumerate(_example_fields(ex_docs)):
        where = f"examples[{i}]"
        value_from_json(extra, f"{where}.extra")
        for j, x in enumerate(inputs):
            value_from_json(x, f"{where}.inputs[{j}]")
        value_from_json(output, f"{where}.output")
        if base is not _ABSENT:
            value_from_json(base, f"{where}.base")


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
