"""Brute-force realizability decision for fold sets, by grounding and search.

Each fold intermediate is the fold result of a suffix of its trace, so its
shape is that of the suffix (`ConstraintSet.suffixes`): an example whose
full input is the suffix pins it, and a base pins the empty suffix. A
completion gives a shape to every suffix the traces need, by suffix id: the
pinned ones, and a guess for each suffix no example pins
(`ConstraintSet.unpinned`). A raw, map or shape-complete set has one
completion, the one that guesses nothing; a shape-incomplete set has one
per guess. Grounding a completion gives every
intermediate its suffix's shape and checks that the shape morphism is a
function of the input shape; a clash is a shape conflict and, when no shape
was guessed, immediate evidence of unrealizability.

The remaining decision is finite: assign, for every observed input shape
and every output position, a source position, while unifying the element
equalities this induces. Where every constraint of an input shape holds
only atoms, in its inputs and at the output position, the position ties
nothing else and a scan settles it: the first input position that matches
in every constraint, or none, which refutes the set. That covers every
position of a raw or map set and of a base case. The other positions are
tied through intermediates, whose elements stay symbolic and are bound
lazily by unification; a backtracking search assigns them from the
candidates no two distinct atoms rule out, and prunes as soon as two
distinct atoms would have to coincide. A given `StepBudget` is the one
limit on the search: spending it raises BoundExceeded. Without one the
search is exhaustive, and its time can grow exponentially in the number
of searched positions. Scans spend nothing.
Grounding reads the shape keys propagation recorded (`Known.key`), of any
functor, nested containers included, and keys each intermediate once under
the schema of the fold result, which is fixed-arity.

Of a shape-incomplete set, what every realization shares is decided before
any guess. The shape morphism is a function, so known shapes force the
shape of some unpinned suffixes (`_force`), and a clash among the pinned
and forced ones refutes the set for every schema (`forced_shapes`). The
constraints whose intermediates all have known shapes form the guess-free
part, which `ground` grounds when a completion leaves the other suffixes
out: every realization restricts to a solution of it, so a refuted part
refutes the set. Each guess is forced through in the same way.

`oracle_decide` is the one entry point: it grounds and searches the one
completion of a complete set or, under a budget, the guess-free part of a
shape-incomplete set and then every shape-consistent guess from small
candidate shapes for the suffixes left, all under the one budget.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from itertools import product
from typing import NamedTuple

from .functors import Atom, Extension, ShapeValue, schema_of, show_shape
from .propagate import ConstraintSet, Known, Suffix, read_inputs, show_suffix
from .verdict import Realizable, Unrealizable, Verdict, WitnessSummary


class OracleError(Exception):
    pass


class ShapeConflict(OracleError):
    """Two equal input shapes forced two different output shapes."""


class Ungroundable(OracleError):
    """An intermediate shape is not pinned by the example set: the set is
    not shape complete. `missing` lists the ids of the unpinned suffixes."""

    def __init__(self, cs: ConstraintSet):
        super().__init__(
            f"no example pins the intermediate for {show_suffix(cs.suffixes, cs.unpinned[0])}"
        )
        self.missing = cs.unpinned


class BoundExceeded(OracleError):
    """A search spent its `StepBudget`."""


class StepBudget:
    """Steps left to the groundings and searches that share the budget:
    one per call to the unifier, and what a completion charges for the
    rest. Spending past zero raises BoundExceeded."""

    def __init__(self, steps: float):
        self.left = steps

    def spend(self, steps: int) -> None:
        self.left -= steps
        if self.left < 0:
            raise BoundExceeded("the oracle spent its step budget")


# Element terms are ints: an atom code (>= 0) stands for itself, and
# -1 - i for the i-th intermediate position, counted in (uid, position) order.
class GroundConstraint(NamedTuple):
    key: tuple[int, ...]
    in_terms: tuple[int, ...]
    out_terms: tuple[int, ...]


class GroundInstance(NamedTuple):
    constraints: tuple[GroundConstraint, ...]  # in the order of cs.constraints
    out_keys: dict  # input slot key -> output slot key
    inter_shapes: dict  # uid -> ShapeValue
    inter_terms: dict  # uid -> its terms
    cs: ConstraintSet


def _pinned(cs: ConstraintSet) -> dict[int, ShapeValue]:
    """The output shape of each full example and of each base, by the id
    of its suffix and of its trace's root: the completion that guesses
    nothing. Raises ShapeConflict when two examples of one suffix disagree;
    two bases that do are a base clash, which no container morphism `e`
    gives. A set with no intermediates needs no shapes: its grounding finds
    a clash of outputs itself, and its base case one of bases."""
    full: dict[int, ShapeValue] = {}
    if cs.unknown_count == 0:
        return full

    def pin(s: int, out: ShapeValue, what: str) -> None:
        prior = full.setdefault(s, out)
        if prior != out:
            raise ShapeConflict(f"{what} shapes {show_shape(prior)} and {show_shape(out)}")
    for trace in cs.traces:
        pin(trace.suffixes[0], trace.steps[0].inputs[2].ext.shape, "a base clash: bases of one extra shape have")
        pin(trace.suffixes[-1], trace.steps[-1].output.ext.shape, "two examples with equal input shapes produce")
    return full


def intermediate_shapes(cs: ConstraintSet, shapes: Mapping[int, ShapeValue]) -> dict[int, ShapeValue]:
    """The shape of each trace intermediate whose suffix has a shape in
    `shapes`, by uid: the one `shapes` gives the suffix it is the fold
    result of."""
    return {
        step.output.uid: shapes[s]
        for trace in cs.traces
        for step, s in zip(trace.steps, trace.suffixes[1:-1])
        if s in shapes
    }


def ground(cs: ConstraintSet, shapes: Mapping[int, ShapeValue] | None = None) -> GroundInstance:
    """Give each trace intermediate the shape `shapes`, a completion, gives
    its suffix's id, and check the shape morphism is a function. Without
    `shapes`, the completion that guesses nothing: a set with an unpinned
    suffix raises Ungroundable. Where `shapes` leaves a suffix out, its
    intermediates are left out, and so is every constraint that reads or
    yields one: that grounds the part of the set the given shapes settle.
    Known containers bring their keys; each intermediate is keyed once."""
    if shapes is None:
        if cs.unpinned:
            raise Ungroundable(cs)
        shapes = _pinned(cs)
    inter_shapes = intermediate_shapes(cs, shapes)
    constraints = cs.constraints
    if len(inter_shapes) < cs.unknown_count:
        constraints = tuple(
            c
            for c in constraints
            if all(type(x) is Known or x.uid in inter_shapes for x in (*c.inputs, c.output))
        )

    inter_keys: dict[int, tuple[int, ...]] = {}
    inter_terms: dict[int, tuple[int, ...]] = {}
    if inter_shapes:
        out_schema = schema_of(cs.output_functor)
        term = -1
        for uid in sorted(inter_shapes):
            key = inter_keys[uid] = out_schema.encode_shape(inter_shapes[uid])
            n = out_schema.count_value(key)
            inter_terms[uid] = tuple(range(term, term - n, -1))
            term -= n

    shape_map: dict[tuple[int, ...], ShapeValue] = {}
    out_keys: dict[tuple[int, ...], tuple[int, ...]] = {}
    grounded = []
    for c in constraints:
        key, in_terms = read_inputs(c, inter_keys, inter_terms)
        out = c.output
        if type(out) is Known:
            out_shape, out_key, out_terms = out.ext.shape, out.key, out.codes
        else:
            uid = out.uid
            out_shape, out_key, out_terms = inter_shapes[uid], inter_keys[uid], inter_terms[uid]
        forced = shape_map.get(key)
        if forced is None:
            shape_map[key] = out_shape
            out_keys[key] = out_key
        elif forced != out_shape:
            raise ShapeConflict(
                f"input shape {key} maps to both {show_shape(forced)} and "
                f"{show_shape(out_shape)}"
            )
        grounded.append(GroundConstraint(key, in_terms, out_terms))

    return GroundInstance(tuple(grounded), out_keys, inter_shapes, inter_terms, cs)


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


def _first_source(group: list[GroundConstraint], q: int) -> int | None:
    """The first input position that holds the atom at output position q
    in every constraint of `group`, where all those terms are atoms."""
    first = group[0]
    target = first.out_terms[q]
    p = -1
    while True:
        try:
            p = first.in_terms.index(target, p + 1)
        except ValueError:
            return None
        if all(c.in_terms[p] == c.out_terms[q] for c in group):
            return p


def _nowhere(key: tuple[int, ...], q: int) -> str:
    return (
        f"no input position gives output position {q} of input shape {key} "
        f"in every constraint"
    )


def oracle_check(gi: GroundInstance, budget: StepBudget | None = None) -> Verdict:
    """Decide a ground instance by position assignment: one variable per
    input shape and output position, shared by every constraint with that
    input shape.

    Where those constraints hold only atoms, in their inputs and at the
    output position, unification is equality and binds nothing, so the
    variable is independent of every other: a scan settles it as the first
    input position that matches in every constraint. Every other variable
    keeps the positions that no constraint rules out by two different
    atoms, and a search assigns those, backtracking and spending one step
    of `budget` per call to the unifier; with no budget it is exhaustive.
    A variable left without a position refutes the set before any search.
    Scans spend no steps.
    """
    by_key: dict[tuple[int, ...], list[GroundConstraint]] = {}
    for c in gi.constraints:
        by_key.setdefault(c.key, []).append(c)

    settled: dict[tuple[tuple[int, ...], int], int] = {}
    open_vars: list[tuple[tuple[int, ...], int]] = []
    for key in sorted(by_key):
        group = by_key[key]
        concrete = all(t >= 0 for c in group for t in c.in_terms)
        for q in range(len(group[0].out_terms)):
            if concrete and all(c.out_terms[q] >= 0 for c in group):
                p = _first_source(group, q)
                if p is None:
                    return Unrealizable(_nowhere(key, q))
                settled[(key, q)] = p
            else:
                open_vars.append((key, q))

    variables = []  # (input shape, output position, candidate positions)
    for key, q in open_vars:
        group = by_key[key]
        outs = [c.out_terms[q] for c in group]
        candidates = [
            p
            for p in range(len(group[0].in_terms))
            if all(b < 0 or (a := c.in_terms[p]) < 0 or a == b for c, b in zip(group, outs))
        ]
        if not candidates:
            return Unrealizable(_nowhere(key, q))
        variables.append((key, q, candidates))

    uf = _Unifier(budget or StepBudget(float("inf")))
    chosen: dict[tuple[tuple[int, ...], int], int] = {}
    # depth-first, in the order of `variables`, on an explicit stack: per
    # variable reached, its candidates left and the unifier's trail mark
    frames: list[tuple[Iterator[int], int]] = []
    idx = 0
    while idx < len(variables):
        key, q, candidates = variables[idx]
        if idx == len(frames):
            frames.append((iter(candidates), uf.mark()))
        left, mark = frames[idx]
        group = by_key[key]
        for p in left:
            if all(uf.unify(c.in_terms[p], c.out_terms[q]) for c in group):
                chosen[(key, q)] = p
                idx += 1
                break
            uf.rollback(mark)
        else:
            frames.pop()
            if not frames:
                return Unrealizable()
            idx -= 1
            uf.rollback(frames[idx][1])

    cs = gi.cs
    fresh: dict[int, int] = {}
    intermediates: dict[int, Extension] = {}
    for uid in sorted(gi.inter_shapes):
        elems = []
        for term in gi.inter_terms[uid]:
            root = uf.find(term)
            code = uf.lit.get(root)
            if code is None:
                code = fresh.setdefault(root, cs.atoms.size + len(fresh))
            elems.append(Atom(code, cs.atoms.label_of(code)))
        intermediates[uid] = Extension(cs.output_functor, gi.inter_shapes[uid], tuple(elems))
    positions = dict(sorted({**settled, **chosen}.items()))
    return Realizable(WitnessSummary(dict(gi.out_keys), positions, intermediates))


# ---------------------------------------------------------------------------
# Completions: guessed shapes for the intermediates no example pins

# Lengths tried for a list slot of an unpinned intermediate.
COMPLETION_LENGTHS = range(5)


def candidate_shapes(cs: ConstraintSet, known: Mapping) -> tuple[list[ShapeValue], bool]:
    """The result shapes to try for an unpinned intermediate, and whether
    they are all the shapes there are. A list slot takes the lengths
    COMPLETION_LENGTHS, a bool slot 0 and 1, and an int slot every value it
    holds in a `known` shape (a pinned base or output shape, or a copy of
    one), and each of those ±1. So the candidates cover the whole shape
    space exactly when every slot is bool."""
    schema = schema_of(cs.output_functor)
    seen: list[set[int]] = [set() for _ in schema.slots]
    if any(slot.kind == "int" for slot in schema.slots):
        for shape in known.values():
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


class Forcing(NamedTuple):
    """The known suffix shapes by id and what they force (`_force`): `table`
    maps (h, e, shape of tail) to the suffix's shape for every tie between
    known shapes, `kids` gives the suffixes whose tail each suffix is, and
    `waiting` the unknown suffixes with a known tail, by that argument."""

    suffixes: tuple[Suffix, ...]
    known: dict[int, ShapeValue]
    table: dict[tuple, ShapeValue]
    kids: dict[int, list[int]]
    waiting: dict[tuple, tuple[int, ...]]


def _force(state: Forcing, newly_known: list[int], budget: StepBudget) -> None:
    """Propagate newly known suffix shapes through the ties, in place: the
    shape morphism is a function, so a suffix whose argument the table
    maps has that shape, and a known suffix gives its shape to every
    suffix waiting on its argument. Each tie looked at spends one step of
    `budget`. A known suffix whose argument maps to another shape raises
    ShapeConflict naming its tail."""
    suffixes, known, table, waiting = state.suffixes, state.known, state.table, state.waiting
    todo = list(newly_known)
    for tail in todo:  # grows by each suffix whose shape is forced
        rho = known[tail]
        kids = state.kids.get(tail, ())
        budget.spend(len(kids))
        for s in kids:
            arg = (suffixes[s].h, suffixes[s].e, rho)
            prior = table.get(arg)
            if s not in known:
                if prior is None:
                    waiting[arg] = waiting.get(arg, ()) + (s,)
                else:
                    known[s] = prior
                    todo.append(s)
            elif prior is None:
                table[arg] = known[s]
                woken = waiting.pop(arg, ())
                known.update(dict.fromkeys(woken, known[s]))
                todo.extend(woken)
            elif prior != known[s]:
                raise ShapeConflict(
                    f"the suffix {show_suffix(suffixes, tail)} is forced to the shape "
                    f"{show_shape(rho)}, so one input shape maps to both "
                    f"{show_shape(prior)} and {show_shape(known[s])}"
                )


def forced_shapes(cs: ConstraintSet, budget: StepBudget) -> Forcing:
    """The shape every realization gives a suffix, wherever the examples
    fix one: the pinned shapes (`_pinned`) and the shapes they force
    (`_force`). Two ties that map one argument to two shapes, pinned or
    forced, raise ShapeConflict, which no guess and no schema mends."""
    known = _pinned(cs)
    state = Forcing(cs.suffixes, known, {}, {}, {})
    for s, suffix in enumerate(cs.suffixes):
        if suffix.tail >= 0:
            state.kids.setdefault(suffix.tail, []).append(s)
    _force(state, list(known), budget)
    return state


def _guesses(state: Forcing, s: int, shapes: list, budget: StepBudget) -> Iterator[Forcing]:
    """A copy of `state` for each of `shapes` that the unknown suffix `s`,
    and every suffix waiting on its argument, takes without a clash
    (`_force`). Each guess spends one step of `budget`."""
    h, e, tail, _ = state.suffixes[s]
    arg = (h, e, state.known[tail])
    for shape in shapes:
        budget.spend(1)
        waiting = dict(state.waiting)
        group = waiting.pop(arg)
        known = {**state.known, **dict.fromkeys(group, shape)}
        child = Forcing(state.suffixes, known, {**state.table, arg: shape}, state.kids, waiting)
        try:
            _force(child, group, budget)
        except ShapeConflict:
            continue
        yield child


def completions(state: Forcing, missing: list, shapes: list, budget: StepBudget) -> Iterator[dict]:
    """Every completion of `state` (`forced_shapes`) that gives each
    suffix of `missing` a shape, guessed from `shapes` or forced by a
    guess, which may lie outside `shapes`, and under which the shape
    morphism stays a function. The shortest unknown suffix is guessed
    first, ties in the order of `missing` (`_guesses`), on an explicit
    stack, so only `budget` bounds the depth of the guesses."""
    order = sorted(missing, key=lambda s: state.suffixes[s].length)
    stack = [(iter([state]), 0)]
    while stack:
        children, i = stack[-1]
        state = next(children, None)
        if state is None:
            stack.pop()
            continue
        while i < len(order) and order[i] in state.known:
            i += 1
        if i == len(order):
            yield state.known
        else:
            stack.append((_guesses(state, order[i], shapes, budget), i))


PART_REFUTED = "the steps whose intermediates have known shapes are already unrealizable"


def _charged_ground(
    cs: ConstraintSet, shapes: Mapping[int, ShapeValue], budget: StepBudget
) -> GroundInstance:
    """`ground`, charging `budget` one step per constraint and ground term."""
    gi = ground(cs, shapes)
    budget.spend(sum(1 + len(c.in_terms) + len(c.out_terms) for c in gi.constraints))
    return gi


def oracle_decide(cs: ConstraintSet, budget: StepBudget | None = None) -> Verdict | None:
    """Decide `cs` by search, or return None where SMT must decide.

    A raw, map or shape-complete set has one completion, the one that
    guesses nothing: it is grounded and searched, and its verdict is the
    verdict. A shape-incomplete set raises Ungroundable without a budget.
    Under one, what every realization shares is decided before any guess:
    - the shapes the pinned ones force (`forced_shapes`), where a clash is
      Unrealizable; with every suffix forced, the set is decided as a
      complete one;
    - the guess-free part: the constraints whose intermediates all have
      known shapes, grounded and searched. Every realization restricts to
      a solution of it, so a refuted part is Unrealizable, and a realizable
      one proves nothing.
    Then each shape-consistent completion of the suffixes left
    (`completions`) is grounded and searched in turn: a guess takes a
    shape from the `candidate_shapes`, and the shapes it forces may lie
    outside them. Every grounding of a shape-incomplete set costs one step
    per constraint and ground term. Realizable carries the first witness found, for the caller to
    replay. A conflict under a guessed shape proves nothing, so it is None,
    and so is every completion refuted, unless the candidates cover every
    shape, as the guesses for an all-bool result do. Spending the budget
    raises BoundExceeded; without one the search has no limit.
    """
    try:
        if budget is None or not cs.unpinned:
            return oracle_check(ground(cs), budget)
        forcing = forced_shapes(cs, budget)
        part = _charged_ground(cs, forcing.known, budget)
        missing = [s for s in cs.unpinned if s not in forcing.known]
        if not missing:
            return oracle_check(part, budget)
        if part.constraints:
            verdict = oracle_check(part, budget)
            if isinstance(verdict, Unrealizable):
                detail = verdict.detail
                return Unrealizable(f"{PART_REFUTED}: {detail}" if detail else PART_REFUTED)
        shapes, covered = candidate_shapes(cs, forcing.known)
        detail = "every completion has a shape conflict"
        for completion in completions(forcing, missing, shapes, budget):
            try:
                gi = _charged_ground(cs, completion, budget)
            except ShapeConflict:
                return None
            verdict = oracle_check(gi, budget)
            if isinstance(verdict, Realizable):
                return verdict
            detail = verdict.detail
    except ShapeConflict as e:
        return Unrealizable(str(e))
    return Unrealizable(detail) if covered else None
