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
distinct atoms would have to coincide. Both read one index per
constraint, its input positions by atom and its symbolic ones, so a scan
and a candidate list are set tests, not a pass over every position; a
scan then compares columns, the terms at one position in every
constraint of the input shape, as whole tuples. A
given `StepBudget` is the one limit on the search: spending it raises
BoundExceeded. Without one the search is exhaustive, and its time can
grow exponentially in the number of searched positions. Scans and
candidate lists spend nothing.

Every shape here is an int tuple. Known containers bring the keys the
loader recorded (`Known.key`), of any functor, nested containers
included. An intermediate's shape, pinned, forced or guessed, is a slot
vector of the fold result's schema, which is fixed-arity, and is its key
as well. So grounding, forcing and guessing compare and hash tuples, a
Realizable witness gives each intermediate as a `Known` of its slot vector
and codes, and a shape is decoded only for a message.

Of a shape-incomplete set, what every realization shares is decided before
any guess. The shape morphism is a function, so known shapes force the
shape of some unpinned suffixes (`_force`), and a clash among the pinned
and forced ones refutes the set for every schema (`forced_shapes`). The
constraints whose intermediates all have known shapes form the guess-free
part, which `ground` grounds when a completion leaves the other suffixes
out: every realization restricts to a solution of it, so a refuted part
refutes the set. Each guess is forced through in the same way.

`oracle_decide` is the one entry point, with or without a budget: it
grounds and searches the one completion of a complete set, or the
guess-free part of a shape-incomplete set and then every shape-consistent
guess from small candidate shapes for the suffixes left, all under the one
budget. The guesses are finite, since there are finitely many suffixes and
candidate shapes, so the decision ends without a budget too.

Grounding a completion never clashes. `_force` makes the table a function
on every tie of known suffixes, a guess sets the table's entry for every
suffix waiting on its argument, and the grounding key of a step is its
suffix's `Suffix.key` then its tail's slot vector, the table's argument.
So two steps with one key produce the one shape the table maps it to.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from itertools import product
from typing import NamedTuple

from .functors import schema_of, show_key
from .propagate import ConstraintSet, Known, read_inputs, show_suffix
from .verdict import Realizable, UnknownVerdict, Unrealizable, Verdict, WitnessSummary


class ShapeConflict(Exception):
    """Two equal input shapes forced two different output shapes; the
    message names them. A guess that clashes raises none: `_force`
    returns its clash, and `_guesses` drops the guess unread."""


class BoundExceeded(Exception):
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


# Element terms are ints: an atom code (>= 0) stands for itself and is a
# root of the unifier, and -1 - i stands for the i-th intermediate
# position, counted in (uid, position) order.
class GroundInstance(NamedTuple):
    """A grounded completion. `rows` holds its constraints by input key,
    the input shape a position map belongs to: per key, each constraint's
    input terms and output terms, in the order of cs.constraints."""

    rows: dict  # input slot key -> [(in_terms, out_terms), ...]
    out_keys: dict  # input slot key -> output slot key
    inter_keys: dict  # uid -> its slot vector
    inter_terms: dict  # uid -> its terms
    cs: ConstraintSet


def _show(cs: ConstraintSet, key: tuple[int, ...]) -> str:
    """A key of the result functor of `cs`, shown as its shape."""
    return show_key((cs.output_functor,), key)


def _pinned(cs: ConstraintSet) -> dict[int, tuple[int, ...]]:
    """The output slot vector of each full example and of each base, by the
    id of its suffix and of its trace's root: the completion that guesses
    nothing. Raises ShapeConflict when two examples of one suffix disagree;
    two bases that do are a base clash, which no container morphism `e`
    gives. A set with no intermediates needs no shapes: its grounding finds
    a clash of outputs itself, and its base case one of bases."""
    full: dict[int, tuple[int, ...]] = {}
    if cs.unknown_count == 0:
        return full

    def pin(s: int, out: tuple[int, ...], what: str) -> None:
        prior = full.setdefault(s, out)
        if prior != out:
            raise ShapeConflict(f"{what} shapes {_show(cs, prior)} and {_show(cs, out)}")
    for trace in cs.traces:
        pin(trace.suffixes[0], trace.steps[0].inputs[2].key, "a base clash: bases of one extra shape have")
        pin(trace.suffixes[-1], trace.steps[-1].output.key, "two examples with equal input shapes produce")
    return full


def intermediate_keys(cs: ConstraintSet, shapes: Mapping[int, tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """The slot vector of each trace intermediate whose suffix has one in
    `shapes`, by uid: the one `shapes` gives the suffix it is the fold
    result of."""
    return {
        step.output.uid: shapes[s]
        for trace in cs.traces
        for step, s in zip(trace.steps, trace.suffixes[1:-1])
        if s in shapes
    }


def ground(cs: ConstraintSet, shapes: Mapping[int, tuple[int, ...]]) -> GroundInstance:
    """Give each trace intermediate the slot vector `shapes`, a completion,
    gives its suffix's id, and check the shape morphism is a function.
    `_pinned(cs)` is the completion that guesses nothing, the whole of a
    raw, map or shape-complete set. Where `shapes` leaves a suffix out, its
    intermediates are left out, and so is every constraint that reads or
    yields one: that grounds the part of the set the given shapes settle.
    Which suffixes no example pins is `cs.unpinned`, not grounding's to
    say. Known containers bring their keys and intermediates their slot
    vectors, so grounding compares keys, groups the constraints by their
    input key (`GroundInstance.rows`) and decodes a shape only for a
    clash's message."""
    inter_keys = intermediate_keys(cs, shapes)
    constraints = cs.constraints
    if len(inter_keys) < cs.unknown_count:
        constraints = tuple(
            c
            for c in constraints
            if all(type(x) is Known or x.uid in inter_keys for x in (*c.inputs, c.output))
        )

    inter_terms: dict[int, tuple[int, ...]] = {}
    if inter_keys:
        out_schema = schema_of(cs.output_functor)
        term = -1
        for uid in sorted(inter_keys):
            n = out_schema.count_value(inter_keys[uid])
            inter_terms[uid] = tuple(range(term, term - n, -1))
            term -= n

    out_keys: dict[tuple[int, ...], tuple[int, ...]] = {}
    rows: dict[tuple[int, ...], list] = {}
    for c in constraints:
        inputs, out = c
        if len(inputs) == 1 and type(inputs[0]) is Known:
            # a raw, map or base-case constraint: its key and terms are its
            # one input's
            _, key, in_terms = inputs[0]
        else:
            key, in_terms = read_inputs(c, inter_keys, inter_terms)
        if type(out) is Known:
            out_key, out_terms = out.key, out.codes
        else:
            out_key, out_terms = inter_keys[out.uid], inter_terms[out.uid]
        forced = out_keys.get(key)
        if forced is None:
            out_keys[key] = out_key
            rows[key] = [(in_terms, out_terms)]
        elif forced != out_key:
            # a key reads back to its shape, so the shapes differ
            raise ShapeConflict(
                f"input shape {show_key(cs.input_parts, key)} maps to both "
                f"{_show(cs, forced)} and {_show(cs, out_key)}"
            )
        else:
            rows[key].append((in_terms, out_terms))

    return GroundInstance(rows, out_keys, inter_keys, inter_terms, cs)


class _Unifier:
    """Union-find over element terms with an undo trail of parent links.
    An atom code is a node that is always a root, so a class holds at most
    one atom, and that atom is its root. Each call to `unify` spends one
    step of `budget`."""

    def __init__(self, budget: StepBudget):
        self.parent: dict[int, int] = {}
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
            del self.parent[self.trail.pop()]

    def unify(self, a: int, b: int) -> bool:
        self.budget.spend(1)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if ra >= 0:
            if rb >= 0:
                return False  # two distinct atoms
            ra, rb = rb, ra
        self.parent[ra] = rb
        self.trail.append(ra)
        return True


def _index(terms: tuple[int, ...]) -> tuple[dict[int, list[int]], frozenset[int]]:
    """The positions of `terms` by atom, each list ascending, and the set of
    its symbolic positions."""
    at: dict[int, list[int]] = {}
    symbolic = []
    for p, t in enumerate(terms):
        if t < 0:
            symbolic.append(p)
        elif t in at:
            at[t].append(p)
        else:
            at[t] = [p]
    return at, frozenset(symbolic)


def _nowhere(cs: ConstraintSet, key: tuple[int, ...], q: int) -> str:
    return (
        f"no input position gives output position {q} of input shape "
        f"{show_key(cs.input_parts, key)} in every constraint"
    )


def _positions(rows: dict):
    """The position variables of the constraints `rows` holds by input
    shape (`GroundInstance.rows`), each as its input terms and output
    terms: one per input shape and output position. Returns the
    positions the scans settle, each other variable with its candidate
    positions in (input shape, output position) order, and the first
    variable left without a position (None if there is none), where the
    listing stops: a failed scan before any empty candidate list.

    A constraint's input terms are indexed at most once (`_index`), the
    positions of each atom and the symbolic ones, and only where a test
    reads them: the first constraint of an input shape for its scans, and
    each constraint with an atom in its output for the candidates. Where the
    constraints of an input shape hold only atoms, in their inputs and at
    the output position, unification is equality and binds nothing, so
    the variable is independent of every other: a scan settles it as the
    first position of the output atom in the first constraint's index
    whose column, the input terms of every constraint at that position,
    equals the output position's column, in one tuple comparison. Every
    other variable keeps the positions that no constraint rules out by
    two different atoms: the intersection, over the constraints whose
    output term is an atom, of that atom's positions and the symbolic
    ones, in ascending order."""
    settled: dict[tuple[tuple[int, ...], int], int] = {}
    open_vars = []  # (input shape, output position)
    for key in sorted(rows):
        group = rows[key]
        # ins[p] is the column of input position p: every constraint's term
        # there, in group order, as each output column is
        ins = list(zip(*[in_terms for in_terms, _ in group]))
        if min(map(min, ins), default=0) < 0:
            open_vars.extend((key, q) for q in range(len(group[0][1])))
            continue
        first = None
        for q, outs in enumerate(zip(*[out_terms for _, out_terms in group])):
            if min(outs) < 0:
                open_vars.append((key, q))
                continue
            if first is None:
                first, _ = _index(group[0][0])
            for p in first.get(outs[0], ()):
                if ins[p] == outs:
                    settled[(key, q)] = p
                    break
            else:
                return settled, [], (key, q)

    variables = []  # ((input shape, output position), candidate positions)
    # per input shape, the index and the output terms of each constraint
    # with an atom in its output: the others rule out no position
    indexed_of: dict[tuple[int, ...], list] = {}
    for key, q in open_vars:
        indexed = indexed_of.get(key)
        if indexed is None:
            indexed = indexed_of[key] = [
                (_index(in_terms), out_terms)
                for in_terms, out_terms in rows[key]
                if max(out_terms, default=-1) >= 0
            ]
        live = None
        for (at, symbolic), outs in indexed:
            b = outs[q]
            if b >= 0:
                held = at.get(b, ())
                if live is None:
                    live = symbolic.union(held)
                else:
                    live = (live & symbolic).union(live.intersection(held))
        candidates = range(len(rows[key][0][0])) if live is None else sorted(live)
        if not candidates:
            return settled, variables, (key, q)
        variables.append(((key, q), candidates))
    return settled, variables, None


def oracle_check(gi: GroundInstance, budget: StepBudget | None = None) -> Verdict:
    """Decide a ground instance by position assignment: one variable per
    input shape and output position, shared by every constraint with that
    input shape.

    Scans settle the variables that tie nothing else, and every other one
    keeps the candidate positions no two distinct atoms rule out; both are
    set tests on an index of each constraint's input positions by atom
    (`_positions`). A variable left without a position refutes the set
    before any search. A search assigns the candidates in order,
    backtracking and spending one step of `budget` per call to the
    unifier; with no budget it is exhaustive. Scans and the candidate
    lists spend no steps: on a wide set, listing costs time in proportion
    to the constraints with an atom in their output times their width,
    before the first step. Both read the constraints as `ground` grouped
    them, by input shape (`GroundInstance.rows`).
    """
    # the scans' positions; the search adds each position it chooses
    positions, variables, nowhere = _positions(gi.rows)
    if nowhere is not None:
        return Unrealizable(_nowhere(gi.cs, *nowhere))

    uf = _Unifier(budget or StepBudget(float("inf")))
    unify = uf.unify
    # depth-first, in the order of `variables`, on an explicit stack: per
    # variable reached, its candidates left, the unifier's trail mark and
    # each constraint's inputs and output term
    frames: list[tuple[Iterator[int], int, list[tuple[tuple[int, ...], int]]]] = []
    idx = 0
    while idx < len(variables):
        var, candidates = variables[idx]
        if idx == len(frames):
            q = var[1]
            pairs = [(in_terms, out_terms[q]) for in_terms, out_terms in gi.rows[var[0]]]
            frames.append((iter(candidates), uf.mark(), pairs))
        left, mark, pairs = frames[idx]
        for p in left:
            for ins, b in pairs:
                if not unify(ins[p], b):
                    break
            else:
                positions[var] = p
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
    intermediates: dict[int, Known] = {}
    for uid in sorted(gi.inter_keys):
        codes = []
        for term in gi.inter_terms[uid]:
            root = uf.find(term)
            codes.append(root if root >= 0 else fresh.setdefault(root, cs.atoms.size + len(fresh)))
        intermediates[uid] = Known(cs.output_functor, gi.inter_keys[uid], tuple(codes))
    return Realizable(WitnessSummary(dict(gi.out_keys), dict(sorted(positions.items())), intermediates))


# ---------------------------------------------------------------------------
# Completions: guessed shapes for the intermediates no example pins

# Lengths tried for a list slot of an unpinned intermediate.
COMPLETION_LENGTHS = range(5)


def candidate_shapes(cs: ConstraintSet, known: Mapping) -> tuple[list[tuple[int, ...]], bool]:
    """The result slot vectors to try for an unpinned intermediate, and
    whether they cover every shape that matters: they do unless a slot is
    a list length. A list slot takes COMPLETION_LENGTHS, a bool slot 0 and
    1, and an int slot one value per unpinned suffix past the largest a
    `known` vector holds there, then 0 for an absent Maybe; a vector is
    kept where it `refines`. An int slot adds no positions, and keys are
    self-delimiting, so a guessed int meets only the same slot of other
    result shapes, where an equality merges two table arguments or two
    position variables and so only adds constraints: distinct fresh ints
    are refuted only where every other choice of ints is."""
    schema = schema_of(cs.output_functor)
    ranges = []
    for i, slot in enumerate(schema.slots):
        if slot.kind == "nat":
            ranges.append(COMPLETION_LENGTHS)
        elif slot.kind == "bool":
            ranges.append((0, 1))
        else:
            top = max([0, *(key[i] for key in known.values())])
            ranges.append([*range(top + 1, top + 1 + len(cs.unpinned)), 0])
    shapes = [v for v in product(*ranges) if schema.refines(v)]
    return shapes, all(slot.kind != "nat" for slot in schema.slots)


class Forcing(NamedTuple):
    """The known suffix shapes of `cs`, slot vectors by suffix id, and what
    they force (`_force`): `table` maps an argument, the key of (h, e,
    shape of tail) that grounding reads, to the suffix's shape for every
    tie between known shapes, `kids` gives the suffixes whose tail each
    suffix is, and `waiting` the unknown suffixes with a known tail, by
    that argument."""

    cs: ConstraintSet
    known: dict[int, tuple[int, ...]]
    table: dict[tuple[int, ...], tuple[int, ...]]
    kids: dict[int, list[int]]
    waiting: dict[tuple[int, ...], tuple[int, ...]]


def _tail_clash(cs: ConstraintSet, tail: int, rho, prior, shape) -> str:
    return (
        f"the suffix {show_suffix(cs.suffixes, tail)} has the shape "
        f"{_show(cs, rho)}, so one input shape maps to both "
        f"{_show(cs, prior)} and {_show(cs, shape)}"
    )


def _force(state: Forcing, newly_known: list[int], budget: StepBudget) -> tuple | None:
    """Propagate newly known suffix shapes through the ties, in place: the
    shape morphism is a function, so a suffix whose argument the table
    maps has that shape, and a known suffix gives its shape to every
    suffix waiting on its argument. Each tie looked at spends one step of
    `budget`. Returns the first clash, a known suffix whose argument maps
    to another shape, as (its tail, the tail's shape, the shape the table
    gives, the suffix's shape), where propagation stops; None where there
    is none. Its text is built only where it is shown (`_tail_clash`)."""
    suffixes, known, table, waiting = state.cs.suffixes, state.known, state.table, state.waiting
    todo = list(newly_known)
    for tail in todo:  # grows by each suffix whose shape is forced
        rho = known[tail]
        kids = state.kids.get(tail, ())
        budget.spend(len(kids))
        for s in kids:
            arg = suffixes[s].key + rho
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
                return tail, rho, prior, known[s]
    return None


def forced_shapes(cs: ConstraintSet, budget: StepBudget) -> Forcing:
    """The shape every realization gives a suffix, wherever the examples
    fix one: the pinned shapes (`_pinned`) and the shapes they force
    (`_force`). Two ties that map one argument to two shapes, pinned or
    forced, raise ShapeConflict, which no guess and no schema mends."""
    known = _pinned(cs)
    state = Forcing(cs, known, {}, {}, {})
    for s, suffix in enumerate(cs.suffixes):
        if suffix.tail >= 0:
            state.kids.setdefault(suffix.tail, []).append(s)
    clash = _force(state, list(known), budget)
    if clash is not None:
        raise ShapeConflict(_tail_clash(cs, *clash))
    return state


def _guesses(state: Forcing, s: int, shapes: list, budget: StepBudget) -> Iterator[Forcing]:
    """A copy of `state` for each of `shapes` that the unknown suffix `s`,
    and every suffix waiting on its argument, takes without a clash
    (`_force`): a guess whose forcing returns a clash is dropped. Each
    guess spends one step of `budget`."""
    suffix = state.cs.suffixes[s]
    arg = suffix.key + state.known[suffix.tail]
    for shape in shapes:
        budget.spend(1)
        waiting = dict(state.waiting)
        group = waiting.pop(arg)
        known = {**state.known, **dict.fromkeys(group, shape)}
        child = Forcing(state.cs, known, {**state.table, arg: shape}, state.kids, waiting)
        if _force(child, group, budget) is None:
            yield child


def completions(state: Forcing, missing: list, shapes: list, budget: StepBudget) -> Iterator[dict]:
    """Every completion of `state` (`forced_shapes`) that gives each
    suffix of `missing` a shape, guessed from `shapes` or forced by a
    guess, which may lie outside `shapes`, and under which the shape
    morphism stays a function. The shortest unknown suffix is guessed
    first, ties in the order of `missing` (`_guesses`), on an explicit
    stack, so only `budget` bounds the depth of the guesses."""
    order = sorted(missing, key=lambda s: state.cs.suffixes[s].length)
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
COMPLETIONS_REFUTED = "every completion of the unpinned suffixes is refuted"


def _charged_ground(
    cs: ConstraintSet, shapes: Mapping[int, tuple[int, ...]], budget: StepBudget
) -> GroundInstance:
    """`ground`, charging `budget` one step per constraint and ground term."""
    gi = ground(cs, shapes)
    budget.spend(sum(1 + len(ins) + len(outs) for group in gi.rows.values() for ins, outs in group))
    return gi


def oracle_decide(cs: ConstraintSet, budget: StepBudget | None = None) -> Verdict:
    """Decide `cs` by search.

    A raw, map or shape-complete set has one completion, the one that
    guesses nothing: it is grounded and searched, and its verdict is the
    verdict. Of a shape-incomplete set, what every realization shares is
    decided before any guess:
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
    per constraint and ground term. Realizable carries the first witness
    found, for the caller to replay. Every completion refuted is
    Unrealizable, and its detail names the guessed suffixes, not one
    completion's conflict, unless the result has a list slot, whose
    lengths stop at COMPLETION_LENGTHS: then it is
    Unknown("completions-refuted"), where SMT must decide. Spending the
    budget raises BoundExceeded; without one the decision still ends, since
    the guesses are finite, but its time can grow exponentially.
    """
    budget = budget or StepBudget(float("inf"))
    try:
        if not cs.unpinned:
            return oracle_check(ground(cs, _pinned(cs)), budget)
        forcing = forced_shapes(cs, budget)
        part = _charged_ground(cs, forcing.known, budget)
        missing = [s for s in cs.unpinned if s not in forcing.known]
        if not missing:
            return oracle_check(part, budget)
        if part.rows:
            verdict = oracle_check(part, budget)
            if isinstance(verdict, Unrealizable):
                detail = verdict.detail
                return Unrealizable(f"{PART_REFUTED}: {detail}" if detail else PART_REFUTED)
        shapes, covered = candidate_shapes(cs, forcing.known)
        grounded = False
        for completion in completions(forcing, missing, shapes, budget):
            verdict = oracle_check(_charged_ground(cs, completion, budget), budget)
            if isinstance(verdict, Realizable):
                return verdict
            grounded = True
    except ShapeConflict as e:
        return Unrealizable(str(e))
    if not covered:
        return UnknownVerdict("completions-refuted")
    if not grounded:
        return Unrealizable("every completion has a shape conflict")
    # each completion's own conflict rests on its guesses, so none is the cause
    guessed = "; ".join(show_suffix(cs.suffixes, s) for s in missing)
    return Unrealizable(f"{COMPLETIONS_REFUTED}: {guessed}")
