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
recorded (`Problem.extensions`); no value is walked again here.

This module alone knows how a fold trace is laid out. `ConstraintSet.traces`
holds one `Trace` per nonempty foldr example, in constraint order: its
`TraceKey` (extra shape, base shape, element shapes in list order) and its
steps, which are consecutive constraints whose intermediates have
consecutive uids. Raw and map sets have no traces.

The fold's base case `e` is an unknown of its own, a container morphism
from the extra functor to the result functor that every example fixes at
its extra argument: `ConstraintSet.base_case` is that raw set, including
the examples with an empty input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functors import Extension, FunctorExpr, ShapeValue, show_shape
from .problem import AtomTable, ExampleExtensions, Problem, SketchKind


class PropagationUnrealizable(Exception):
    """The problem is unrealizable for a reason visible before solving."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class Known:
    ext: Extension


@dataclass(frozen=True)
class Unknown:
    """A fold intermediate: a container of the result functor."""

    uid: int


SymbolicContainer = Known | Unknown


@dataclass(frozen=True)
class MorphismConstraint:
    inputs: tuple[SymbolicContainer, ...]
    output: SymbolicContainer


# A fold trace's key: (extra shape, base shape, element shapes in list
# order). A trace pins the shape of its own result, nothing else.
TraceKey = tuple[ShapeValue, ShapeValue, tuple[ShapeValue, ...]]


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
    traces: tuple[Trace, ...] = ()
    # a foldr set's base case, e(extra) = base: a raw set from the extra
    # functor to the result functor, one constraint per distinct extra value
    base_case: ConstraintSet | None = None


def propagate(p: Problem) -> ConstraintSet:
    if p.sketch is SketchKind.RAW:
        return propagate_raw(p)
    if p.sketch is SketchKind.MAP:
        return propagate_map(p)
    return propagate_foldr(p)


def propagate_raw(p: Problem) -> ConstraintSet:
    sig = p.signature
    constraints = tuple(
        MorphismConstraint((Known(x.inputs[0]),), Known(x.outputs[0])) for x in p.extensions
    )
    return ConstraintSet((sig.element,), sig.result, constraints, 0, p.atoms)


def propagate_map(p: Problem) -> ConstraintSet:
    """One constraint per list element. A map cannot change the outer list
    length, so a length mismatch is already an unrealizability verdict."""
    sig = p.signature
    constraints = []
    for i, x in enumerate(p.extensions):
        if len(x.inputs) != len(x.outputs):
            raise PropagationUnrealizable(
                f"example {i}: map preserves list length, but {len(x.inputs)} "
                f"inputs map to {len(x.outputs)} outputs"
            )
        constraints.extend(
            MorphismConstraint((Known(a),), Known(b)) for a, b in zip(x.inputs, x.outputs)
        )
    return ConstraintSet((sig.element,), sig.result, tuple(constraints), 0, p.atoms)


def _trace_key(x: ExampleExtensions) -> TraceKey:
    return x.extra.shape, x.base.shape, tuple(e.shape for e in x.inputs)


def propagate_foldr(p: Problem) -> ConstraintSet:
    sig = p.signature
    constraints: list[MorphismConstraint] = []
    traces = []
    bases: dict[Extension, Extension] = {}
    uid = 0
    for i, x in enumerate(p.extensions):
        bases.setdefault(x.extra, x.base)
        n = len(x.inputs)
        if n == 0:
            if x.base != x.outputs[0]:
                raise PropagationUnrealizable(
                    f"example {i}: an empty input forces the output to equal "
                    f"the base case"
                )
            continue
        accs: list[SymbolicContainer] = [Known(x.base)]
        accs.extend(Unknown(uid + k) for k in range(n - 1))
        accs.append(Known(x.outputs[0]))
        uid += n - 1
        h = Known(x.extra)
        steps = tuple(
            MorphismConstraint((h, Known(x.inputs[n - 1 - k]), accs[k]), accs[k + 1])
            for k in range(n)
        )
        constraints.extend(steps)
        traces.append(Trace(_trace_key(x), steps))
    base_case = ConstraintSet(
        (sig.extra,),
        sig.result,
        tuple(MorphismConstraint((Known(h),), Known(b)) for h, b in bases.items()),
        0,
        p.atoms,
    )
    return ConstraintSet(
        (sig.extra, sig.element, sig.result),
        sig.result,
        tuple(constraints),
        uid,
        p.atoms,
        tuple(traces),
        base_case,
    )


# ---------------------------------------------------------------------------
# Shape completeness


def unpinned_suffixes(traces: list[TraceKey]) -> list[TraceKey]:
    """The keys a foldr set must pin but does not, each once, in the order
    the traces ask for them.

    The intermediate after the last k elements of a trace is the fold of
    that suffix from the same extra argument and base, so only a trace with
    the same extra shape and base shape whose full input is the suffix pins
    its shape. Every nonempty proper suffix must be pinned; the empty suffix
    is the base case.
    """
    present = set(traces)
    missing: dict[TraceKey, None] = {}
    for h, base, seq in traces:
        for k in range(1, len(seq)):
            key = (h, base, seq[len(seq) - k :])
            if key not in present:
                missing[key] = None
    return list(missing)


def show_trace_key(key: TraceKey) -> str:
    h, base, seq = key
    return (
        f"extra {show_shape(h)}, base {show_shape(base)}, inputs ["
        + ", ".join(show_shape(s) for s in seq)
        + "]"
    )


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
