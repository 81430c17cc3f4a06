"""SMT-LIB2 encoding of constraint sets.

The morphism is encoded as uninterpreted functions over the flattened input
shape slots: one function per output shape slot, plus one position function
mapping (input shape slots, output position) to the source input position.
Each intermediate, uid 0..unknown_count-1, contributes slot constants
guarded by the result schema's refinement and an uninterpreted element
function; element functions are only constrained inside their dependency
bounds, and output positions of unknown containers are universally
quantified under a guard. Constraints with known outputs are fully
enumerated and stay quantifier free.

This is the one module that writes SMT-LIB. A schema is slot data
(`functors.ShapeSchema`): `refinements` asserts what `refines` checks, from
each slot's kind and guard, and `count_term` writes what `count_value`
computes, from the weights and the constant.

Script generation is deterministic: a fixed problem yields byte-identical
text.
"""

from __future__ import annotations

from typing import NamedTuple

from .functors import schema_of
from .propagate import ConstraintSet, Known


class SmtScript(NamedTuple):
    logic: str
    declarations: tuple[str, ...]
    assertions: tuple[str, ...]

    def text(self) -> str:
        lines = ["(set-option :produce-models true)", f"(set-logic {self.logic})"]
        lines.extend(self.declarations)
        lines.extend(f"(assert {a})" for a in self.assertions)
        lines.append("(check-sat)")
        lines.append("(get-model)")
        return "\n".join(lines) + "\n"


def _app(name: str, args: list[str]) -> str:
    if not args:
        return name
    return f"({name} " + " ".join(args) + ")"


def _num(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def mid_terms(uid: int, schema) -> list[str]:
    return [f"mid{uid}_{slot.name}" for slot in schema.slots]


def refinements(schema, terms: list[str]) -> list[str]:
    """The assertions that `terms`, one per slot, form a slot vector that
    refines `schema` (`ShapeSchema.refines`): a length is at least 0, a
    bool 0 or 1, and a guarded slot 0 while its guard is."""
    out = []
    for slot, term in zip(schema.slots, terms):
        if slot.kind == "nat":
            out.append(f"(>= {term} 0)")
        elif slot.kind == "bool":
            out.append(f"(and (>= {term} 0) (<= {term} 1))")
        if slot.guard >= 0:
            out.append(f"(=> (= {terms[slot.guard]} 0) (= {term} 0))")
    return out


def count_term(schema, terms: list[str]) -> str:
    """The element positions of the shape whose slots are `terms`
    (`ShapeSchema.count_value`)."""
    parts = [str(schema.const)] if schema.const else []
    for slot, term in zip(schema.slots, terms):
        if slot.weight:
            parts.append(term if slot.weight == 1 else f"(* {slot.weight} {term})")
    if not parts:
        return "0"
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def encode(cs: ConstraintSet) -> SmtScript:
    """Translate a constraint set to a solver-ready script. A functor
    without fixed-arity shapes has no schema and raises flatten_shape's
    UnsupportedFunctor before any key becomes an argument."""
    part_schemas = [schema_of(f) for f in cs.input_parts]
    out_schema = schema_of(cs.output_functor)
    in_arity = sum(len(s.slots) for s in part_schemas)

    int_args = " ".join(["Int"] * in_arity)
    decls = [
        f"(declare-fun oshape{j} ({int_args}) Int)"
        for j in range(len(out_schema.slots))
    ]
    pos_args = " ".join(["Int"] * (in_arity + 1))
    decls.append(f"(declare-fun srcpos ({pos_args}) Int)")
    assertions = []
    for uid in range(cs.unknown_count):
        terms = mid_terms(uid, out_schema)
        decls.extend(f"(declare-fun {term} () Int)" for term in terms)
        decls.append(f"(declare-fun elem{uid} (Int) Int)")
        assertions.extend(refinements(out_schema, terms))

    def slot_terms(part) -> list[str]:
        if isinstance(part, Known):
            return [_num(v) for v in part.key]
        return mid_terms(part.uid, out_schema)

    for c in cs.constraints:
        ins = [t for part in c.inputs for t in slot_terms(part)]
        for j, term in enumerate(slot_terms(c.output)):
            assertions.append(f"(= {_app(f'oshape{j}', ins)} {term})")
        assertions.extend(_positions(c, ins, out_schema))

    logic = "UFLIA" if cs.unknown_count else "QF_UFLIA"
    return SmtScript(logic, tuple(decls), tuple(assertions))


def shrink_assertions(cs: ConstraintSet) -> list[str]:
    """Sound-for-sat bounds on intermediate list lengths, used only when
    hunting for a small witness after satisfiability is already settled.
    Solvers are free to pick absurdly large unconstrained shapes; a model of
    the bounded script is still a model of the exact one."""
    cap = 8
    for c in cs.constraints:
        known = sum(len(p.codes) for p in (*c.inputs, c.output) if isinstance(p, Known))
        cap = max(cap, 8 + known)
    schema = schema_of(cs.output_functor)
    return [
        f"(<= {term} {cap})"
        for uid in range(cs.unknown_count)
        for slot, term in zip(schema.slots, mid_terms(uid, schema))
        if slot.kind == "nat"
    ]


def _or(disjuncts: list[str]) -> str:
    if not disjuncts:
        return "false"
    if len(disjuncts) == 1:
        return disjuncts[0]
    return "(or " + " ".join(disjuncts) + ")"


def _positions(c, ins, out_schema) -> list[str]:
    """Position and element-consistency assertions for one constraint."""
    known_pos: list[tuple[int, int]] = []  # absolute position, element code
    # (uid, base offset, count form string); propagation puts the only
    # symbolic input, the accumulator, last, so every known position is
    # below the window
    window = None
    off = 0
    for part in c.inputs:
        if isinstance(part, Known):
            for code in part.codes:
                known_pos.append((off, code))
                off += 1
        else:
            cf = count_term(out_schema, mid_terms(part.uid, out_schema))
            window = (part.uid, off, cf)

    def disjuncts(q_term: str, target: str) -> str:
        g = _app("srcpos", ins + [q_term])
        ds = [f"(and (= {g} {p}) (= {code} {target}))" for p, code in known_pos]
        if window is not None:
            uid, base, cf = window
            upper = f"(+ {base} {cf})" if cf != "0" else str(base)
            ds.append(
                f"(and (>= {g} {base}) (< {g} {upper}) "
                f"(= (elem{uid} (- {g} {base})) {target}))"
            )
        return _or(ds)

    out = []
    if isinstance(c.output, Known):
        for q, code in enumerate(c.output.codes):
            out.append(disjuncts(str(q), str(code)))
    else:
        uid = c.output.uid
        cf = count_term(out_schema, mid_terms(uid, out_schema))
        body = disjuncts("q", f"(elem{uid} q)")
        out.append(
            f"(forall ((q Int)) (=> (and (>= q 0) (< q {cf})) {body}))"
        )
    return out

