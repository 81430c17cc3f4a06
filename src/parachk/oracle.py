"""Brute-force realizability decision for shape-complete constraint sets.

Grounding resolves every intermediate shape by suffix matching: the
intermediate at level k of a trace is the fold result of the last k list
elements, so its shape is pinned by any example whose full input carries
exactly those element shapes (with the same extra and base shapes). This
resolves everything exactly when the set is shape complete; otherwise
grounding raises Ungroundable. Afterwards the shape morphism
is checked to be a function of the input shape; a clash is a shape conflict
and immediate evidence of unrealizability.

The remaining search is finite: assign, for every observed input shape and
every output position, a source position, while unifying the element
equalities this induces. Intermediate elements stay symbolic and are bound
lazily by unification, so the backtracking prunes as soon as two distinct
concrete elements would have to coincide. `OracleBounds` caps the positions
per input shape, the distinct input shapes and, optionally, the calls to the
unifier; going past any of them raises BoundExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functors import Atom, Extension, ShapeValue, flatten_shape, show_shape, size_of
from .problem import AtomTable
from .propagate import (
    ConstraintSet,
    Known,
    MorphismConstraint,
    show_trace_key,
    unpinned_suffixes,
)
from .verdict import Realizable, Unrealizable, Verdict, WitnessSummary


class OracleError(Exception):
    pass


class ShapeConflict(OracleError):
    """Two equal input shapes forced two different output shapes."""

    def __init__(self, message: str, resolved: dict | None = None):
        super().__init__(message)
        self.resolved = resolved or {}


class Ungroundable(OracleError):
    """An intermediate shape is not pinned by the example set: the set is
    not shape complete."""


class BoundExceeded(OracleError):
    pass


@dataclass(frozen=True)
class OracleBounds:
    max_positions: int = 16
    max_shapes: int = 12
    # calls to the unifier the search may make; None searches exhaustively
    max_steps: int | None = None


# element terms: a concrete atom code, or position `pos` of intermediate `uid`
@dataclass(frozen=True)
class Lit:
    code: int


@dataclass(frozen=True)
class Ref:
    uid: int
    pos: int


@dataclass(frozen=True)
class GroundConstraint:
    key: tuple[int, ...]
    in_terms: tuple
    out_terms: tuple


@dataclass(frozen=True)
class GroundInstance:
    constraints: tuple[GroundConstraint, ...]
    shape_map: dict  # input slot key -> output ShapeValue
    inter_shapes: dict  # uid -> ShapeValue
    output_functor: object
    atoms: AtomTable


def resolve_intermediate_shapes(cs: ConstraintSet) -> dict[int, ShapeValue]:
    """Pin each trace intermediate to the output shape of the example whose
    full input matches the corresponding suffix. Raises Ungroundable when
    the set is not shape complete (`unpinned_suffixes`)."""
    if cs.unknown_count == 0:
        return {}
    if len(cs.input_parts) != 3:
        raise OracleError("unknown intermediates outside a fold trace")

    # reconstruct the traces: a chain starts where the accumulator is known
    chains = []
    for c in cs.constraints:
        if isinstance(c.inputs[2], Known):
            chains.append([])
        chains[-1].append(c)

    keys = []
    for steps in chains:
        if not isinstance(steps[-1].output, Known):
            raise OracleError("a trace must end in a known output")
        h = steps[0].inputs[0].ext.shape
        base = steps[0].inputs[2].ext.shape
        # step 0 consumes the last list element
        seq = tuple(s.inputs[1].ext.shape for s in reversed(steps))
        keys.append((h, base, seq))
    missing = unpinned_suffixes(keys)
    if missing:
        raise Ungroundable(
            f"no example pins the intermediate for {show_trace_key(missing[0])}"
        )

    full: dict[tuple, ShapeValue] = {}
    for key, steps in zip(keys, chains):
        out = steps[-1].output.ext.shape
        prior = full.get(key)
        if prior is not None and prior != out:
            raise ShapeConflict(
                f"two examples with equal input shapes produce shapes "
                f"{show_shape(prior)} and {show_shape(out)}"
            )
        full[key] = out

    resolved: dict[int, ShapeValue] = {}
    for (h, base, seq), steps in zip(keys, chains):
        n = len(seq)
        for k in range(1, n):
            resolved[steps[k - 1].output.uid] = full[(h, base, seq[n - k :])]
    return resolved


def ground(cs: ConstraintSet) -> GroundInstance:
    """Resolve intermediate shapes and check the shape morphism is a function."""
    inter_shapes = resolve_intermediate_shapes(cs)
    part_schemas = [flatten_shape(f) for f in cs.input_parts]
    out_functor = cs.output_functor

    def container_shape(part) -> ShapeValue:
        return part.ext.shape if isinstance(part, Known) else inter_shapes[part.uid]

    def key_of(c: MorphismConstraint) -> tuple[int, ...]:
        key: list[int] = []
        for schema, part in zip(part_schemas, c.inputs):
            key.extend(schema.encode_shape(container_shape(part)))
        return tuple(key)

    shape_map: dict[tuple[int, ...], ShapeValue] = {}
    for c in cs.constraints:
        key = key_of(c)
        out_shape = container_shape(c.output)
        forced = shape_map.get(key)
        if forced is not None and forced != out_shape:
            raise ShapeConflict(
                f"input shape {key} maps to both {show_shape(forced)} and "
                f"{show_shape(out_shape)}",
                resolved=inter_shapes,
            )
        shape_map[key] = out_shape

    def terms_of(part) -> tuple:
        if isinstance(part, Known):
            return tuple(Lit(a.code) for a in part.ext.elements)
        shape = inter_shapes[part.uid]
        return tuple(Ref(part.uid, q) for q in range(size_of(out_functor, shape)))

    grounded = []
    for c in cs.constraints:
        in_terms = tuple(t for part in c.inputs for t in terms_of(part))
        grounded.append(GroundConstraint(key_of(c), in_terms, terms_of(c.output)))

    return GroundInstance(
        tuple(grounded), shape_map, inter_shapes, out_functor, cs.atoms
    )


class _Unifier:
    """Union-find over element terms with literal tags and an undo trail.
    Each call to `unify` is one step of the search; going past `max_steps`
    raises BoundExceeded."""

    def __init__(self, max_steps: int | None = None):
        self.parent: dict = {}
        self.lit: dict = {}
        self.trail: list = []
        self.steps = 0
        self.limit = float("inf") if max_steps is None else max_steps

    def find(self, node):
        while node in self.parent:
            node = self.parent[node]
        return node

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            kind, key = self.trail.pop()
            if kind == "p":
                del self.parent[key]
            else:
                del self.lit[key]

    def unify(self, a, b) -> bool:
        self.steps += 1
        if self.steps > self.limit:
            raise BoundExceeded(f"the search exceeded {self.limit} unification steps")
        if isinstance(a, Lit) and isinstance(b, Lit):
            return a.code == b.code
        if isinstance(a, Lit):
            a, b = b, a
        ra = self.find(a)
        if isinstance(b, Lit):
            bound = self.lit.get(ra)
            if bound is None:
                self.lit[ra] = b.code
                self.trail.append(("l", ra))
                return True
            return bound == b.code
        rb = self.find(b)
        if ra == rb:
            return True
        la, lb = self.lit.get(ra), self.lit.get(rb)
        if la is not None and lb is not None and la != lb:
            return False
        self.parent[ra] = rb
        self.trail.append(("p", ra))
        if la is not None and lb is None:
            self.lit[rb] = la
            self.trail.append(("l", rb))
        return True

    def resolve(self, node) -> int | None:
        return self.lit.get(self.find(node))


def oracle_check(gi: GroundInstance, bounds: OracleBounds = OracleBounds()) -> Verdict:
    """Decide a ground instance by exhaustive position assignment."""
    by_key: dict[tuple[int, ...], list[GroundConstraint]] = {}
    for c in gi.constraints:
        by_key.setdefault(c.key, []).append(c)

    if len(by_key) > bounds.max_shapes:
        raise BoundExceeded(
            f"{len(by_key)} distinct input shapes exceed the bound {bounds.max_shapes}"
        )
    for key, group in by_key.items():
        n_in, n_out = len(group[0].in_terms), len(group[0].out_terms)
        if max(n_in, n_out) > bounds.max_positions:
            raise BoundExceeded(
                f"input shape {key} has {max(n_in, n_out)} positions, bound is "
                f"{bounds.max_positions}"
            )

    # one position variable per (input shape, output position), shared by all
    # constraints with that input shape
    variables = [
        (key, q)
        for key in sorted(by_key)
        for q in range(len(by_key[key][0].out_terms))
    ]
    uf = _Unifier(bounds.max_steps)
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
    fresh: dict = {}
    intermediates: dict[int, Extension] = {}
    for uid in sorted(gi.inter_shapes):
        shape = gi.inter_shapes[uid]
        elems = []
        for q in range(size_of(gi.output_functor, shape)):
            code = uf.resolve(Ref(uid, q))
            if code is None:
                root = uf.find(Ref(uid, q))
                if root not in fresh:
                    fresh[root] = gi.atoms.size + len(fresh)
                code = fresh[root]
            elems.append(Atom(code, gi.atoms.label_of(code)))
        intermediates[uid] = Extension(gi.output_functor, shape, tuple(elems))
    summary = WitnessSummary(shape_table, dict(assignment), intermediates)
    return Realizable(summary)


def oracle_decide(cs: ConstraintSet, bounds: OracleBounds = OracleBounds()) -> Verdict:
    """Ground then check; a shape conflict is already an unrealizability proof."""
    try:
        gi = ground(cs)
    except ShapeConflict as e:
        return Unrealizable(str(e))
    return oracle_check(gi, bounds)
