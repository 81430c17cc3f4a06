"""Propagation of input-output examples through sketches into symbolic
container-morphism constraints, and the shape-completeness check for folds.

Each constraint states that one application of the unknown morphism maps a
tuple of input containers to an output container. For raw and map sketches
every container is known. For foldr sketches the morphism takes the triple
(extra, element, accumulator); the accumulators threading a trace are fresh
unknowns, numbered 0..unknown_count-1 in constraint order, whose shapes are
shapes of the result functor. Inputs of an example are numbered right to
left, so constraint 0 of a trace consumes the last list element and the
given base value. Every known container is a `Known` the loader recorded
(`Problem.extensions`), keyed by that one walk: `Known.key` is its shape's
`shape_key`, whatever its functor, so a set that names a nested container
keys it like any other. No value or shape is walked again here, and the
tables below key on those int tuples, not on shapes.

This module alone knows how a fold trace is laid out. `ConstraintSet.suffixes`
numbers every suffix of every trace once (`number_suffixes`), and `unpinned`
lists those no example pins. `ConstraintSet.traces` holds one `Trace` per
nonempty foldr example, in constraint order: its suffix ids and its steps,
which are consecutive constraints whose intermediates have consecutive
uids. Raw and map sets have no traces.

The fold's base case `e` is an unknown of its own, a container morphism
from the extra functor to the result functor that every example fixes at
its extra argument: `ConstraintSet.base_case` is that raw set, including
the examples with an empty input. A base's shape is a function of its
extra's shape, so a suffix leaves it out.

Two conflicts refute a fold set here, before its base case or any search:
an example with an empty input whose output is not its base, and an
example with a nonempty input whose output holds an atom from nowhere, in
neither its extra argument, its inputs nor its base (`atom_from_nowhere`).
The step function is polymorphic, so by induction over the steps every
intermediate holds only atoms of the extra, the suffix it folds and the
base. A map set is refuted here when a list changes length.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .functors import FunctorExpr, shape_from_key, show_shape
# `Known` is the loader's record, re-exported here
from .problem import AtomTable, ExampleExtensions, Known, Problem, Signature, SketchKind


class PropagationUnrealizable(Exception):
    """The problem is unrealizable for a reason visible before solving."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Unknown(NamedTuple):
    """A fold intermediate: a container of the result functor."""

    uid: int


SymbolicContainer = Known | Unknown


class MorphismConstraint(NamedTuple):
    inputs: tuple[SymbolicContainer, ...]
    output: SymbolicContainer


def read_inputs(
    c: MorphismConstraint,
    inter_keys: Mapping[int, tuple[int, ...]],
    inter_terms: Mapping[int, tuple[int, ...]],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The key and the element terms of the inputs of `c`: a known
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


class Suffix(NamedTuple):
    """A fold trace suffix: the extra argument h, the first element e and
    the id of its tail, the suffix after e; the shape morphism maps (shape
    of h, shape of e, shape of tail) to its shape. h and e are the first
    containers the examples give with those shapes. A root, an empty
    suffix, has e None and tail -1. `key` is h's key then e's: the key of
    the step that folds e onto the tail, up to the tail's key."""

    h: Known
    e: Known | None
    tail: int
    length: int
    key: tuple[int, ...]


class Trace(NamedTuple):
    """One nonempty foldr example: the ids of its suffixes, shortest first,
    from its root to the example itself, and its steps, the first of which
    consumes the last list element and the base, the last of which outputs
    the example's output. Step k outputs the fold of suffix k + 1."""

    suffixes: tuple[int, ...]
    steps: tuple[MorphismConstraint, ...]


class ConstraintSet(NamedTuple):
    input_parts: tuple[FunctorExpr, ...]
    output_functor: FunctorExpr
    constraints: tuple[MorphismConstraint, ...]
    unknown_count: int
    atoms: AtomTable
    traces: tuple[Trace, ...] = ()
    # a foldr set's base case, e(extra) = base: a raw set from the extra
    # functor to the result functor, one constraint per distinct extra value
    base_case: ConstraintSet | None = None
    # every suffix of every trace, by id, and those no example pins
    suffixes: tuple[Suffix, ...] = ()
    unpinned: tuple[int, ...] = ()


def input_parts(sig: Signature, sketch: SketchKind) -> tuple[FunctorExpr, ...]:
    """The functors of the inputs of a problem's constraints, whose keys end
    to end are a constraint's grounding key: a fold step reads the extra
    argument, an element and the fold of the tail, and a map or raw
    constraint one element. `ConstraintSet.input_parts` of the steps."""
    if sketch is SketchKind.FOLDR:
        return (sig.extra, sig.element, sig.result)
    return (sig.element,)


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
    constraints = tuple(
        MorphismConstraint((a,), b) for x in p.extensions for a, b in zip(x.inputs, x.outputs)
    )
    return ConstraintSet(input_parts(sig, p.sketch), sig.result, constraints, 0, p.atoms)


def propagate_foldr(p: Problem) -> ConstraintSet:
    sig = p.signature
    constraints: list[MorphismConstraint] = []
    steps_of = []
    # (key, codes) of an extra -> (extra, base), for the base case
    bases: dict[tuple, tuple[Known, Known]] = {}
    uid = 0
    for i, x in enumerate(p.extensions):
        n = len(x.inputs)
        out = x.outputs[0]
        if n == 0 and (x.base.key, x.base.codes) != (out.key, out.codes):
            raise PropagationUnrealizable(
                f"example {i}: an empty input forces the output to equal the base case"
            )
        h, base = bases.setdefault((x.extra.key, x.extra.codes), (x.extra, x.base))
        if n == 0:
            continue
        elements = x.inputs[::-1]
        code = atom_from_nowhere(out, (h, base, *elements))
        if code is not None:
            raise PropagationUnrealizable(
                f"example {i}: output atom {p.atoms.label_of(code)} occurs in neither "
                f"its extra argument, its inputs nor its base"
            )
        accs: list[SymbolicContainer] = [base]
        accs.extend(Unknown(uid + k) for k in range(n - 1))
        accs.append(out)
        uid += n - 1
        steps = tuple(
            MorphismConstraint((h, elements[k], accs[k]), accs[k + 1]) for k in range(n)
        )
        constraints.extend(steps)
        steps_of.append(steps)
    suffixes, chains, unpinned = number_suffixes([x for x in p.extensions if x.inputs])
    base_case = ConstraintSet(
        (sig.extra,),
        sig.result,
        tuple(MorphismConstraint((h,), b) for h, b in bases.values()),
        0,
        p.atoms,
    )
    return ConstraintSet(
        input_parts(sig, p.sketch),
        sig.result,
        tuple(constraints),
        uid,
        p.atoms,
        tuple(map(Trace, chains, steps_of)),
        base_case,
        suffixes,
        unpinned,
    )


def atom_from_nowhere(out: Known, sources: tuple[Known, ...]) -> int | None:
    """The first atom code of a fold example's output `out`, in position
    order, that none of `sources` (its extra argument, its base and its
    inputs) holds; None when there is none. A polymorphic step function
    cannot invent an element, so by induction over the steps every
    intermediate's atoms come from the extra, the suffix it folds and the
    base, and an output atom from nowhere refutes the set."""
    left = set(out.codes)
    for part in sources:
        if not left:
            return None
        left.difference_update(part.codes)
    return next((c for c in out.codes if c in left), None)


# ---------------------------------------------------------------------------
# Suffixes and shape completeness


def number_suffixes(
    examples: list[ExampleExtensions],
) -> tuple[tuple[Suffix, ...], list[tuple[int, ...]], tuple[int, ...]]:
    """Every suffix of the examples' traces, numbered once; the ids of
    each example's suffixes, shortest first; and the unpinned ones, each
    once, in the order the traces ask for them.

    The intermediate after the last k elements of a trace is the fold of
    that suffix from the same extra argument, so only a trace with the same
    extra shape whose full input is the suffix pins its shape. Every
    nonempty proper suffix must be pinned; the empty suffix is the base
    case, whose shape the base gives.
    """
    # (-1, extra key) for a root, (tail id, element key) for the rest
    ids: dict[tuple, int] = {}
    table: list[Suffix] = []
    chains = []
    for x in examples:
        h = x.extra
        sid = ids.get((-1, h.key))
        if sid is None:
            sid = ids[(-1, h.key)] = len(table)
            table.append(Suffix(h, None, -1, 0, h.key))
        chain = [sid]
        for element in reversed(x.inputs):
            key = (sid, element.key)
            sid = ids.get(key)
            if sid is None:
                sid = ids[key] = len(table)
                table.append(
                    Suffix(h, element, key[0], len(chain), h.key + element.key)
                )
            chain.append(sid)
        chains.append(tuple(chain))
    pinned = {chain[-1] for chain in chains}
    unpinned = dict.fromkeys(s for chain in chains for s in chain[1:-1] if s not in pinned)
    return tuple(table), chains, tuple(unpinned)


def show_suffix(table: tuple[Suffix, ...], sid: int) -> str:
    """Suffix `sid` of `table` as shapes, its elements read off its tails."""

    def shown(k: Known) -> str:
        return show_shape(shape_from_key(k.functor, k.key))

    h, elements = table[sid].h, []
    while table[sid].tail >= 0:
        elements.append(shown(table[sid].e))
        sid = table[sid].tail
    return f"extra {shown(h)}, inputs [" + ", ".join(elements) + "]"


class CompletenessReport(NamedTuple):
    complete: bool
    missing: tuple[str, ...]


def shape_complete(p: Problem) -> CompletenessReport:
    """A foldr example set is shape complete when no suffix it needs is
    unpinned (`number_suffixes`). Raw and map sketches have no unknown
    intermediates and are trivially complete.
    """
    if p.sketch is not SketchKind.FOLDR:
        return CompletenessReport(True, ())
    table, _, unpinned = number_suffixes(p.extensions)
    missing = tuple(show_suffix(table, s) for s in unpinned)
    return CompletenessReport(not missing, missing)
