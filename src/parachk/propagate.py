"""Propagation of input-output examples through sketches into symbolic
container-morphism constraints, and the shape-completeness check for folds.

Each constraint states that one application of the unknown morphism maps a
tuple of input containers to an output container. For raw and map sketches
every container is known. For foldr sketches the morphism takes the triple
(extra, element, accumulator); the accumulators threading a trace are fresh
unknowns, numbered 0..unknown_count-1 in constraint order, whose shapes are
shapes of the result functor. Inputs of an example are numbered right to
left, so constraint 0 of a trace consumes the last list element and the
given base value.

This module alone knows how a fold trace is laid out. `ConstraintSet.traces`
holds one `Trace` per nonempty foldr example, in constraint order: its
`TraceKey` (extra shape, base shape, element shapes in list order) and its
steps, which are consecutive constraints whose intermediates have
consecutive uids. Raw and map sets have no traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functors import (
    Extension,
    FunctorExpr,
    ShapeValue,
    show_shape,
    to_extension,
)
from .problem import AtomTable, Problem, SketchKind


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


def propagate(p: Problem) -> ConstraintSet:
    if p.sketch is SketchKind.RAW:
        return propagate_raw(p)
    if p.sketch is SketchKind.MAP:
        return propagate_map(p)
    return propagate_foldr(p)


def propagate_raw(p: Problem) -> ConstraintSet:
    sig = p.signature
    constraints = [
        MorphismConstraint(
            (Known(to_extension(sig.element, ex.inputs[0])),),
            Known(to_extension(sig.result, ex.output)),
        )
        for ex in p.examples
    ]
    return ConstraintSet((sig.element,), sig.result, tuple(constraints), 0, p.atoms)


def propagate_map(p: Problem) -> ConstraintSet:
    """One constraint per list element. A map cannot change the outer list
    length, so a length mismatch is already an unrealizability verdict."""
    sig = p.signature
    constraints = []
    for i, ex in enumerate(p.examples):
        outs = ex.output.items  # validated to be a ListV
        if len(ex.inputs) != len(outs):
            raise PropagationUnrealizable(
                f"example {i}: map preserves list length, but {len(ex.inputs)} "
                f"inputs map to {len(outs)} outputs"
            )
        for x, y in zip(ex.inputs, outs):
            constraints.append(
                MorphismConstraint(
                    (Known(to_extension(sig.element, x)),),
                    Known(to_extension(sig.result, y)),
                )
            )
    return ConstraintSet((sig.element,), sig.result, tuple(constraints), 0, p.atoms)


def _fold_extensions(sig, ex) -> tuple[Extension, Extension, list[Extension]]:
    """A foldr example's extra, base and elements, in list order."""
    return (
        to_extension(sig.extra, ex.extra),
        to_extension(sig.result, ex.base),
        [to_extension(sig.element, v) for v in ex.inputs],
    )


def _trace_key(extra: Extension, base: Extension, elems: list[Extension]) -> TraceKey:
    return extra.shape, base.shape, tuple(e.shape for e in elems)


def propagate_foldr(p: Problem) -> ConstraintSet:
    sig = p.signature
    constraints: list[MorphismConstraint] = []
    traces = []
    uid = 0
    for i, ex in enumerate(p.examples):
        n = len(ex.inputs)
        if n == 0:
            if ex.base != ex.output:
                raise PropagationUnrealizable(
                    f"example {i}: an empty input forces the output to equal "
                    f"the base case"
                )
            continue
        extra, base, elems = _fold_extensions(sig, ex)
        accs: list[SymbolicContainer] = [Known(base)]
        accs.extend(Unknown(uid + k) for k in range(n - 1))
        accs.append(Known(to_extension(sig.result, ex.output)))
        uid += n - 1
        h = Known(extra)
        steps = tuple(
            MorphismConstraint((h, Known(elems[n - 1 - k]), accs[k]), accs[k + 1])
            for k in range(n)
        )
        constraints.extend(steps)
        traces.append(Trace(_trace_key(extra, base, elems), steps))
    return ConstraintSet(
        (sig.extra, sig.element, sig.result),
        sig.result,
        tuple(constraints),
        uid,
        p.atoms,
        tuple(traces),
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
    traces = [_trace_key(*_fold_extensions(p.signature, ex)) for ex in p.examples]
    missing = tuple(show_trace_key(key) for key in unpinned_suffixes(traces))
    return CompletenessReport(not missing, missing)
