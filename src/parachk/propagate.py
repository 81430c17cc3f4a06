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
keyed here, once: `Known.key` is its shape's `shape_key`, whatever its
functor, so a set that names a nested container keys it like any other.

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
from dataclasses import dataclass
from typing import NamedTuple

from .functors import Extension, FunctorExpr, ShapeValue, shape_key, show_shape
from .problem import AtomTable, ExampleExtensions, Problem, SketchKind, _only_shape


class PropagationUnrealizable(Exception):
    """The problem is unrealizable for a reason visible before solving."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Known(NamedTuple):
    """A container the examples give: its extension, the key of its shape
    (`shape_key`) and the codes of its elements in position order. The key
    and the codes follow from the extension."""

    ext: Extension
    key: tuple[int, ...]
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
    """A fold trace suffix: extra shape h, first element shape e and the id
    of its tail, the suffix after e; the shape morphism maps (h, e, shape of
    tail) to its shape. A root, an empty suffix, has e None and tail -1."""

    h: ShapeValue
    e: ShapeValue | None
    tail: int
    length: int


@dataclass(frozen=True)
class Trace:
    """One nonempty foldr example: the ids of its suffixes, shortest first,
    from its root to the example itself, and its steps, the first of which
    consumes the last list element and the base, the last of which outputs
    the example's output. Step k outputs the fold of suffix k + 1."""

    suffixes: tuple[int, ...]
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
    # every suffix of every trace, by id, and those no example pins
    suffixes: tuple[Suffix, ...] = ()
    unpinned: tuple[int, ...] = ()


def _known(ext: Extension, one_shape: bool) -> Known:
    # a functor with one shape (`_only_shape`) keys it (), with no walk
    key = () if one_shape else shape_key(ext.functor, ext.shape)
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
    # whether each functor has one shape
    element, result = (_only_shape(f) is not None for f in (sig.element, sig.result))
    constraints = tuple(
        MorphismConstraint((_known(a, element),), _known(b, result))
        for x in p.extensions
        for a, b in zip(x.inputs, x.outputs)
    )
    return ConstraintSet((sig.element,), sig.result, constraints, 0, p.atoms)


def propagate_foldr(p: Problem) -> ConstraintSet:
    sig = p.signature
    # whether each functor has one shape
    extra, element, result = (
        _only_shape(f) is not None for f in (sig.extra, sig.element, sig.result)
    )
    constraints: list[MorphismConstraint] = []
    steps_of = []
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
        elements = [_known(e, element) for e in reversed(x.inputs)]
        out = _known(x.outputs[0], result)
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
        (sig.extra, sig.element, sig.result),
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
    ids: dict[tuple, int] = {}
    table: list[Suffix] = []
    chains = []
    for x in examples:
        h = x.extra.shape
        sid = ids.get((-1, h))
        if sid is None:
            sid = ids[(-1, h)] = len(table)
            table.append(Suffix(h, None, -1, 0))
        chain = [sid]
        for element in reversed(x.inputs):
            key = (sid, element.shape)
            sid = ids.get(key)
            if sid is None:
                sid = ids[key] = len(table)
                table.append(Suffix(h, element.shape, key[0], len(chain)))
            chain.append(sid)
        chains.append(tuple(chain))
    pinned = {chain[-1] for chain in chains}
    unpinned = dict.fromkeys(s for chain in chains for s in chain[1:-1] if s not in pinned)
    return tuple(table), chains, tuple(unpinned)


def show_suffix(table: tuple[Suffix, ...], sid: int) -> str:
    """Suffix `sid` of `table`, its elements read off its tails."""
    h, elements = table[sid].h, []
    while table[sid].tail >= 0:
        elements.append(show_shape(table[sid].e))
        sid = table[sid].tail
    return f"extra {show_shape(h)}, inputs [" + ", ".join(elements) + "]"


@dataclass(frozen=True)
class CompletenessReport:
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
