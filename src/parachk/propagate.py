"""Propagation of input-output examples through sketches into symbolic
container-morphism constraints, and the shape-completeness check for folds.

Each constraint states that one application of the unknown morphism maps a
tuple of input containers to an output container. For raw and map sketches
every container is known. For foldr sketches the morphism takes the triple
(extra, element, accumulator); the accumulators threading a trace are fresh
unknowns, numbered 0..unknown_count-1 in constraint order, whose shapes are
shapes of the result functor. Inputs of an example are numbered right to
left, so constraint 0 of a trace consumes the last list element and the
given base value. Every known container is an extension the loader
recorded (`Problem.extensions`); no value is walked again here. Each is
keyed here, once: `Known.key` is its shape's slot key under the schema of
its functor, and the set keeps those schemas (`ConstraintSet.part_schemas`,
`out_schema`), one per functor, for every later reader.

This module alone knows how a fold trace is laid out. `ConstraintSet.traces`
holds one `Trace` per nonempty foldr example, in constraint order: its
`TraceKey` (extra shape, element shapes in list order) and its steps, which
are consecutive constraints whose intermediates have consecutive uids. Raw
and map sets have no traces.

The fold's base case `e` is an unknown of its own, a container morphism
from the extra functor to the result functor that every example fixes at
its extra argument: `ConstraintSet.base_case` is that raw set, including
the examples with an empty input. A base's shape is a function of its
extra's shape, so a trace key leaves it out.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

from .functors import (
    Extension,
    FunctorExpr,
    ShapeSchema,
    ShapeValue,
    UnsupportedFunctor,
    flatten_shape,
    show_shape,
)
from .problem import AtomTable, ExampleExtensions, Problem, SketchKind


class PropagationUnrealizable(Exception):
    """The problem is unrealizable for a reason visible before solving."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Known(NamedTuple):
    """A container the examples give: its extension, the slot key of its
    shape (`ShapeSchema.encode_shape`; None where its functor has no
    fixed-arity shapes) and the codes of its elements in position order.
    The key and the codes follow from the extension."""

    ext: Extension
    key: tuple[int, ...] | None
    codes: tuple[int, ...]


@dataclass(frozen=True)
class Unknown:
    """A fold intermediate: a container of the result functor."""

    uid: int


SymbolicContainer = Known | Unknown


@dataclass(frozen=True)
class MorphismConstraint:
    inputs: tuple[SymbolicContainer, ...]
    output: SymbolicContainer


def read_inputs(
    c: MorphismConstraint,
    inter_keys: Mapping[int, tuple[int, ...]],
    inter_terms: Mapping[int, tuple[int, ...]],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The slot key and the element terms of the inputs of `c`: a known
    part's own key and codes, an intermediate's in `inter_keys` and
    `inter_terms`, by uid (KeyError if one is missing)."""
    key: tuple[int, ...] = ()
    terms: tuple[int, ...] = ()
    for part in c.inputs:
        if type(part) is Known:
            key += part.key
            terms += part.codes
        else:
            key += inter_keys[part.uid]
            terms += inter_terms[part.uid]
    return key, terms


# A fold trace's key: (extra shape, element shapes in list order). A trace
# pins the shape of its own result; its base, that of its empty suffix.
TraceKey = tuple[ShapeValue, tuple[ShapeValue, ...]]


@dataclass(frozen=True)
class Trace:
    """One nonempty foldr example: its key and its steps, the first of which
    consumes the last list element and the base, the last of which outputs
    the example's output."""

    key: TraceKey
    steps: tuple[MorphismConstraint, ...]


@dataclass(frozen=True)
class ConstraintSet:
    input_parts: tuple[FunctorExpr, ...]
    output_functor: FunctorExpr
    constraints: tuple[MorphismConstraint, ...]
    unknown_count: int
    atoms: AtomTable
    # the schema of each input part and of the output functor, built once;
    # None for a functor whose shapes are not fixed-arity
    part_schemas: tuple[ShapeSchema | None, ...]
    out_schema: ShapeSchema | None
    traces: tuple[Trace, ...] = ()
    # a foldr set's base case, e(extra) = base: a raw set from the extra
    # functor to the result functor, one constraint per distinct extra value
    base_case: ConstraintSet | None = None

    def input_schemas(self) -> tuple[ShapeSchema, ...]:
        """The schema of each input part. One whose shapes are not
        fixed-arity raises flatten_shape's UnsupportedFunctor."""
        return tuple(
            flatten_shape(f) if s is None else s
            for f, s in zip(self.input_parts, self.part_schemas)
        )

    def result_schema(self) -> ShapeSchema:
        """The schema of the output functor, or flatten_shape's
        UnsupportedFunctor."""
        s = self.out_schema
        return flatten_shape(self.output_functor) if s is None else s


def _schema(f: FunctorExpr) -> ShapeSchema | None:
    try:
        return flatten_shape(f)
    except UnsupportedFunctor:
        return None


def _known(ext: Extension, schema: ShapeSchema | None) -> Known:
    if schema is None:
        key = None
    elif schema.slots:
        key = schema.encode_shape(ext.shape)
    else:
        key = ()  # a schema without slots keys every shape (), with no walk
    return Known(ext, key, tuple([a.code for a in ext.elements]))


def propagate(p: Problem) -> ConstraintSet:
    # a raw example has exactly one input and one output: a one-element map
    if p.sketch is SketchKind.FOLDR:
        return propagate_foldr(p)
    return propagate_map(p)


def propagate_map(p: Problem) -> ConstraintSet:
    """One constraint per list element. A map cannot change the outer list
    length, so a length mismatch is already an unrealizability verdict."""
    sig = p.signature
    for i, x in enumerate(p.extensions):
        if len(x.inputs) != len(x.outputs):
            raise PropagationUnrealizable(
                f"example {i}: map preserves list length, but {len(x.inputs)} "
                f"inputs map to {len(x.outputs)} outputs"
            )
    element, result = _schema(sig.element), _schema(sig.result)
    constraints = tuple(
        MorphismConstraint((_known(a, element),), _known(b, result))
        for x in p.extensions
        for a, b in zip(x.inputs, x.outputs)
    )
    return ConstraintSet(
        (sig.element,), sig.result, constraints, 0, p.atoms, (element,), result
    )


def _trace_key(x: ExampleExtensions) -> TraceKey:
    return x.extra.shape, tuple(e.shape for e in x.inputs)


def propagate_foldr(p: Problem) -> ConstraintSet:
    sig = p.signature
    extra, element, result = _schema(sig.extra), _schema(sig.element), _schema(sig.result)
    constraints: list[MorphismConstraint] = []
    traces = []
    # extra -> (extra, base), keyed, for the base case
    bases: dict[Extension, tuple[Known, Known]] = {}
    uid = 0
    for i, x in enumerate(p.extensions):
        n = len(x.inputs)
        if n == 0 and x.base != x.outputs[0]:
            raise PropagationUnrealizable(
                f"example {i}: an empty input forces the output to equal the base case"
            )
        if x.extra not in bases:
            bases[x.extra] = _known(x.extra, extra), _known(x.base, result)
        h, base = bases[x.extra]
        if n == 0:
            continue
        accs: list[SymbolicContainer] = [base]
        accs.extend(Unknown(uid + k) for k in range(n - 1))
        accs.append(_known(x.outputs[0], result))
        uid += n - 1
        steps = tuple(
            MorphismConstraint((h, _known(x.inputs[n - 1 - k], element), accs[k]), accs[k + 1])
            for k in range(n)
        )
        constraints.extend(steps)
        traces.append(Trace(_trace_key(x), steps))
    base_case = ConstraintSet(
        (sig.extra,),
        sig.result,
        tuple(MorphismConstraint((h,), b) for h, b in bases.values()),
        0,
        p.atoms,
        (extra,),
        result,
    )
    return ConstraintSet(
        (sig.extra, sig.element, sig.result),
        sig.result,
        tuple(constraints),
        uid,
        p.atoms,
        (extra, element, result),
        result,
        tuple(traces),
        base_case,
    )


# ---------------------------------------------------------------------------
# Shape completeness


def unpinned_suffixes(traces: list[TraceKey]) -> list[TraceKey]:
    """The keys a foldr set must pin but does not, each once, in the order
    the traces ask for them.

    The intermediate after the last k elements of a trace is the fold of
    that suffix from the same extra argument, so only a trace with the same
    extra shape whose full input is the suffix pins its shape. Every
    nonempty proper suffix must be pinned; the empty suffix is the base
    case, whose shape the base gives.
    """
    present = set(traces)
    missing: dict[TraceKey, None] = {}
    for h, seq in traces:
        for k in range(1, len(seq)):
            key = (h, seq[len(seq) - k :])
            if key not in present:
                missing[key] = None
    return list(missing)


def show_trace_key(key: TraceKey) -> str:
    h, seq = key
    return f"extra {show_shape(h)}, inputs [" + ", ".join(show_shape(s) for s in seq) + "]"


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool
    missing: tuple[str, ...]


def shape_complete(p: Problem) -> CompletenessReport:
    """A foldr example set is shape complete when no suffix it needs is
    unpinned (`unpinned_suffixes`). Raw and map sketches have no unknown
    intermediates and are trivially complete.
    """
    if p.sketch is not SketchKind.FOLDR:
        return CompletenessReport(True, ())
    traces = [_trace_key(x) for x in p.extensions]
    missing = tuple(show_trace_key(key) for key in unpinned_suffixes(traces))
    return CompletenessReport(not missing, missing)
