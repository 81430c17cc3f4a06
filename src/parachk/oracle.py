"""Brute-force realizability decision for fold sets, by grounding and search.

The intermediate at level k of a fold trace is the fold result of the last
k list elements, so its shape is pinned by any example whose full input
carries exactly those element shapes (with the same extra and base shapes).
A completion gives the shape of every suffix the traces need: the pinned
ones, and a guess for each suffix no example pins. A raw, map or
shape-complete set has one completion, the one that guesses nothing; a
shape-incomplete set has one per guess. Grounding a completion gives every
intermediate its suffix's shape and checks that the shape morphism is a
function of the input shape; a clash is a shape conflict and, when no shape
was guessed, immediate evidence of unrealizability.

The remaining search is finite: assign, for every observed input shape and
every output position, a source position, while unifying the element
equalities this induces. Intermediate elements stay symbolic and are bound
lazily by unification, so the backtracking prunes as soon as two distinct
concrete elements would have to coincide. A search with more than
MAX_POSITIONS positions per input shape or MAX_SHAPES distinct input shapes
raises BoundExceeded, and so does one that spends a given `StepBudget`.

`oracle_decide` is the one entry point: one loop that grounds and searches
each completion, the one of a complete set or, under a budget, every
shape-consistent guess from small candidate shapes of a shape-incomplete
set, all under the one budget.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import product

from .functors import Atom, Extension, ShapeValue, flatten_shape, show_shape, size_of
from .problem import AtomTable
from .propagate import (
    ConstraintSet,
    Known,
    TraceKey,
    show_trace_key,
    unpinned_suffixes,
)
from .verdict import Realizable, Unrealizable, Verdict, WitnessSummary


class OracleError(Exception):
    pass


class ShapeConflict(OracleError):
    """Two equal input shapes forced two different output shapes."""


class Ungroundable(OracleError):
    """An intermediate shape is not pinned by the example set: the set is
    not shape complete. `missing` lists the unpinned trace keys."""

    def __init__(self, missing: list[TraceKey]):
        super().__init__(
            f"no example pins the intermediate for {show_trace_key(missing[0])}"
        )
        self.missing = missing


class BoundExceeded(OracleError):
    pass


# The most positions per input shape, and the most distinct input shapes,
# a search takes on.
MAX_POSITIONS = 16
MAX_SHAPES = 12


class StepBudget:
    """Steps left to the groundings and searches that share the budget:
    one per call to the unifier, and what a completion charges for the
    rest. Spending past zero raises BoundExceeded. `completed` tells
    whether the set went through completions."""

    def __init__(self, steps: float):
        self.left = steps
        self.completed = False

    def spend(self, steps: int) -> None:
        self.left -= steps
        if self.left < 0:
            raise BoundExceeded("the oracle spent its step budget")


# Element terms are ints: an atom code (>= 0) stands for itself, and
# -1 - i for the i-th intermediate position, counted in (uid, position) order.
@dataclass(frozen=True)
class GroundConstraint:
    key: tuple[int, ...]
    in_terms: tuple[int, ...]
    out_terms: tuple[int, ...]


@dataclass(frozen=True)
class GroundInstance:
    constraints: tuple[GroundConstraint, ...]
    shape_map: dict  # input slot key -> output ShapeValue
    inter_shapes: dict  # uid -> ShapeValue
    output_functor: object
    atoms: AtomTable


def _pinned(cs: ConstraintSet) -> dict[TraceKey, ShapeValue]:
    """The output shape of each full example, by trace key: the completion
    that guesses nothing. Raises ShapeConflict when two examples with one
    key disagree. A set with no intermediates needs no shapes, and its
    grounding finds such a clash itself."""
    full: dict[TraceKey, ShapeValue] = {}
    if cs.unknown_count == 0:
        return full
    for trace in cs.traces:
        key, out = trace.key, trace.steps[-1].output.ext.shape
        prior = full.get(key)
        if prior is not None and prior != out:
            raise ShapeConflict(
                f"two examples with equal input shapes produce shapes "
                f"{show_shape(prior)} and {show_shape(out)}"
            )
        full[key] = out
    return full


def intermediate_shapes(
    cs: ConstraintSet, shapes: Mapping[TraceKey, ShapeValue]
) -> dict[int, ShapeValue]:
    """The shape of each trace intermediate, by uid: the one `shapes` gives
    the suffix of the trace it is the fold result of."""
    resolved: dict[int, ShapeValue] = {}
    for trace in cs.traces:
        h, base, seq = trace.key
        for k in range(1, len(seq)):
            resolved[trace.steps[k - 1].output.uid] = shapes[(h, base, seq[-k:])]
    return resolved


def ground(
    cs: ConstraintSet, shapes: Mapping[TraceKey, ShapeValue] | None = None
) -> GroundInstance:
    """Give each trace intermediate the shape of its suffix in `shapes`, a
    completion, and check the shape morphism is a function. Without
    `shapes`, the completion that guesses nothing: a set with an unpinned
    suffix raises Ungroundable."""
    if shapes is None:
        missing = unpinned_suffixes([trace.key for trace in cs.traces])
        if missing:
            raise Ungroundable(missing)
        shapes = _pinned(cs)
    inter_shapes = intermediate_shapes(cs, shapes)
    part_schemas = [flatten_shape(f) for f in cs.input_parts]
    out_functor = cs.output_functor

    def container_shape(part) -> ShapeValue:
        return part.ext.shape if isinstance(part, Known) else inter_shapes[part.uid]

    inter_terms: dict[int, tuple[int, ...]] = {}
    term = -1
    for uid in sorted(inter_shapes):
        n = size_of(out_functor, inter_shapes[uid])
        inter_terms[uid] = tuple(range(term, term - n, -1))
        term -= n

    def terms_of(part) -> tuple[int, ...]:
        if isinstance(part, Known):
            return tuple(a.code for a in part.ext.elements)
        return inter_terms[part.uid]

    shape_map: dict[tuple[int, ...], ShapeValue] = {}
    grounded = []
    for c in cs.constraints:
        key = tuple(
            v
            for schema, part in zip(part_schemas, c.inputs)
            for v in schema.encode_shape(container_shape(part))
        )
        out_shape = container_shape(c.output)
        forced = shape_map.get(key)
        if forced is not None and forced != out_shape:
            raise ShapeConflict(
                f"input shape {key} maps to both {show_shape(forced)} and "
                f"{show_shape(out_shape)}"
            )
        shape_map[key] = out_shape
        in_terms = tuple(t for part in c.inputs for t in terms_of(part))
        grounded.append(GroundConstraint(key, in_terms, terms_of(c.output)))

    return GroundInstance(
        tuple(grounded), shape_map, inter_shapes, out_functor, cs.atoms
    )


class _Unifier:
    """Union-find over the intermediate terms, each root optionally bound to
    an atom code, with an undo trail: a term t for a parent link of t, ~t
    for an atom bound to root t. Each call to `unify` spends one step of
    `budget`."""

    def __init__(self, budget: StepBudget):
        self.parent: dict[int, int] = {}
        self.lit: dict[int, int] = {}
        self.trail: list[int] = []
        self.budget = budget

    def find(self, node: int) -> int:
        while node in self.parent:
            node = self.parent[node]
        return node

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            key = self.trail.pop()
            if key < 0:
                del self.parent[key]
            else:
                del self.lit[~key]

    def unify(self, a: int, b: int) -> bool:
        self.budget.spend(1)
        if a >= 0:
            if b >= 0:
                return a == b
            a, b = b, a
        ra = self.find(a)
        if b >= 0:
            bound = self.lit.get(ra)
            if bound is None:
                self.lit[ra] = b
                self.trail.append(~ra)
                return True
            return bound == b
        rb = self.find(b)
        if ra == rb:
            return True
        la, lb = self.lit.get(ra), self.lit.get(rb)
        if la is not None and lb is not None and la != lb:
            return False
        self.parent[ra] = rb
        self.trail.append(ra)
        if la is not None and lb is None:
            self.lit[rb] = la
            self.trail.append(~rb)
        return True


def oracle_check(gi: GroundInstance, budget: StepBudget | None = None) -> Verdict:
    """Decide a ground instance by exhaustive position assignment, spending
    one step of `budget` per call to the unifier; with no budget the search
    is exhaustive."""
    by_key: dict[tuple[int, ...], list[GroundConstraint]] = {}
    for c in gi.constraints:
        by_key.setdefault(c.key, []).append(c)

    if len(by_key) > MAX_SHAPES:
        raise BoundExceeded(
            f"{len(by_key)} distinct input shapes exceed the bound {MAX_SHAPES}"
        )
    for key, group in by_key.items():
        n_in, n_out = len(group[0].in_terms), len(group[0].out_terms)
        if max(n_in, n_out) > MAX_POSITIONS:
            raise BoundExceeded(
                f"input shape {key} has {max(n_in, n_out)} positions, bound is "
                f"{MAX_POSITIONS}"
            )

    # one position variable per (input shape, output position), shared by all
    # constraints with that input shape
    variables = [
        (key, q)
        for key in sorted(by_key)
        for q in range(len(by_key[key][0].out_terms))
    ]
    uf = _Unifier(budget or StepBudget(float("inf")))
    assignment: dict[tuple[tuple[int, ...], int], int] = {}

    def assign(idx: int) -> bool:
        if idx == len(variables):
            return True
        key, q = variables[idx]
        group = by_key[key]
        n_in = len(group[0].in_terms)
        for p in range(n_in):
            mark = uf.mark()
            if all(uf.unify(c.in_terms[p], c.out_terms[q]) for c in group):
                assignment[(key, q)] = p
                if assign(idx + 1):
                    return True
                del assignment[(key, q)]
            uf.rollback(mark)
        return False

    if not assign(0):
        return Unrealizable()

    out_schema = flatten_shape(gi.output_functor)
    shape_table = {
        key: out_schema.encode_shape(shape) for key, shape in gi.shape_map.items()
    }
    fresh: dict[int, int] = {}
    intermediates: dict[int, Extension] = {}
    term = -1
    for uid in sorted(gi.inter_shapes):
        shape = gi.inter_shapes[uid]
        elems = []
        for _ in range(size_of(gi.output_functor, shape)):
            root = uf.find(term)
            code = uf.lit.get(root)
            if code is None:
                code = fresh.setdefault(root, gi.atoms.size + len(fresh))
            elems.append(Atom(code, gi.atoms.label_of(code)))
            term -= 1
        intermediates[uid] = Extension(gi.output_functor, shape, tuple(elems))
    summary = WitnessSummary(shape_table, dict(assignment), intermediates)
    return Realizable(summary)


# ---------------------------------------------------------------------------
# Completions: guessed shapes for the intermediates no example pins

# Lengths tried for a list slot of an unpinned intermediate.
COMPLETION_LENGTHS = range(5)


def candidate_shapes(cs: ConstraintSet) -> tuple[list[ShapeValue], bool]:
    """The result shapes to try for an unpinned intermediate, and whether
    they are all the shapes there are. A list slot takes the lengths
    COMPLETION_LENGTHS, a bool slot 0 and 1, and an int slot every value it
    holds in a known base or output, and each of those ±1. So the candidates
    cover the whole shape space exactly when every slot is bool."""
    schema = flatten_shape(cs.output_functor)
    seen: list[set[int]] = [set() for _ in schema.slots]
    if any(slot.kind == "int" for slot in schema.slots):
        for trace in cs.traces:
            for shape in (trace.key[1], trace.steps[-1].output.ext.shape):
                for values, v in zip(seen, schema.encode_shape(shape)):
                    values.add(v)
    ranges = []
    for slot, values in zip(schema.slots, seen):
        if slot.kind == "nat":
            ranges.append(COMPLETION_LENGTHS)
        elif slot.kind == "bool":
            ranges.append((0, 1))
        else:
            ranges.append(sorted({v + d for v in values for d in (-1, 0, 1)}))
    shapes = [schema.decode_slots(v) for v in product(*ranges) if schema.refines(v)]
    return shapes, all(slot.kind == "bool" for slot in schema.slots)


def consistent_completions(
    cs: ConstraintSet,
    missing: list[TraceKey],
    shapes: list[ShapeValue],
    budget: StepBudget,
) -> Iterator[dict[TraceKey, ShapeValue]]:
    """Every completion of `missing` from `shapes` under which the shape
    morphism stays a function: every one that `ground` accepts. Each gives
    the shape of every suffix, pinned and guessed. Raises ShapeConflict
    before the first when the pinned shapes clash, which no guess mends.

    A suffix s = (h, base, [e, *rest]) ties its shape to that of its tail
    (h, base, rest): the morphism maps (h, e, shape of tail) to the shape
    of s. The shortest unpinned suffixes are guessed first, each tie is
    checked as soon as both its shapes are fixed, and a guess that clashes
    is not extended. Each tie checked spends one step of `budget`.
    """
    pinned = _pinned(cs)
    shape = dict(pinned)
    order = sorted(missing, key=lambda key: len(key[2]))
    level = {key: i for i, key in enumerate(order)}
    ties: dict[TraceKey, TraceKey] = {}
    for h, base, seq in pinned:
        shape[(h, base, ())] = base
        for i in range(len(seq)):
            ties[(h, base, seq[i:])] = (h, base, seq[i + 1 :])
    # the ties whose later shape is guessed at each level; -1: none guessed
    checks: dict[int, list[tuple[TraceKey, TraceKey]]] = {}
    for s, tail in ties.items():
        at = max(level.get(s, -1), level.get(tail, -1))
        checks.setdefault(at, []).append((s, tail))

    table: dict[tuple, ShapeValue] = {}  # (h, e, shape of tail) -> shape of s

    def fix(level_ties: list[tuple[TraceKey, TraceKey]]) -> list | None:
        """Enter ties into `table` and return the entries added; on a clash
        remove them again and return None."""
        budget.spend(len(level_ties))
        added = []
        for s, tail in level_ties:
            arg = (s[0], s[2][0], shape[tail])
            if arg not in table:
                table[arg] = shape[s]
                added.append(arg)
            elif table[arg] != shape[s]:
                for a in added:
                    del table[a]
                return None
        return added

    if fix(checks.get(-1, [])) is None:
        raise ShapeConflict("the shapes the examples pin map one input shape to two shapes")
    choice = [-1] * len(order)  # index into `shapes` of the guess at each level
    undo: list[list] = [[] for _ in order]
    i = 0
    while i >= 0:
        for arg in undo[i]:
            del table[arg]
        undo[i] = []
        choice[i] += 1
        if choice[i] == len(shapes):
            choice[i] = -1
            i -= 1
            continue
        shape[order[i]] = shapes[choice[i]]
        added = fix(checks.get(i, []))
        if added is None:
            continue
        undo[i] = added
        if i + 1 < len(order):
            i += 1
        else:
            yield dict(shape)


def oracle_decide(cs: ConstraintSet, budget: StepBudget | None = None) -> Verdict | None:
    """Decide `cs` by search, or return None where SMT must decide.

    Each completion is grounded and searched in turn: the one that guesses
    nothing of a raw, map or shape-complete set, or, under a budget, each
    shape-consistent completion of a shape-incomplete set from the
    `candidate_shapes`, whose grounding costs one step per constraint and
    ground term. Without a budget a shape-incomplete set raises
    Ungroundable. Realizable carries the first witness found, for the
    caller to replay. Unrealizable needs a conflict that involves no
    guessed shape, or every completion refuted when the completions cover
    every shape: the one of a complete set does, and so do the guesses for
    an all-bool result. A conflict under a guessed shape proves nothing:
    None. Going past MAX_POSITIONS, MAX_SHAPES or the budget raises
    BoundExceeded.
    """
    missing = unpinned_suffixes([trace.key for trace in cs.traces])
    if missing and budget is None:
        raise Ungroundable(missing)
    covered, detail = True, "every completion has a shape conflict"
    try:
        if missing:
            budget.completed = True
            shapes, covered = candidate_shapes(cs)
            completions = consistent_completions(cs, missing, shapes, budget)
        else:
            completions = [_pinned(cs)]
        for completion in completions:
            try:
                gi = ground(cs, completion)
            except ShapeConflict as e:
                return None if missing else Unrealizable(str(e))
            if missing:
                budget.spend(
                    sum(1 + len(c.in_terms) + len(c.out_terms) for c in gi.constraints)
                )
            verdict = oracle_check(gi, budget)
            if isinstance(verdict, Realizable):
                return verdict
            detail = verdict.detail
    except ShapeConflict as e:
        return Unrealizable(str(e))
    return Unrealizable(detail) if covered else None
