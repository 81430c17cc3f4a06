"""Recorded answers for the replay solver (`replay.awk`).

For a realizable instance the answer is `sat` plus a model in the form z3
prints: one `define-fun` per morphism table and intermediate, each an `ite`
chain. The model is made from a morphism the benchmark knows. Fold
intermediates come from the known function applied to each suffix of the
input list; every output position takes an input position holding the same
atom, the same one for all constraints of one input shape. Every model must
pass `parachk.solver.validate_witness` before any timing starts.

An unrealizable instance gets the answer `unsat`.
"""

from __future__ import annotations

import os
import shlex

from parachk import Unknown, flatten_shape, propagate, to_extension, validate_witness
from parachk.verdict import constraint_key, resolve_constraint

from workloads import REALIZABLE, Instance

STUB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "replay.awk")


class ReplayError(Exception):
    """A recorded model does not survive parachk's own replay."""


def solver_command(answer_path: str) -> str:
    return f"awk -v answers={shlex.quote(answer_path)} -f {shlex.quote(STUB)}"


def _num(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def _ite(table: dict, arity: int) -> str:
    """An ite chain over integer argument tuples, 0 elsewhere."""
    if arity == 0:
        return _num(table.get((), 0))
    expr = "0"
    for key in sorted(table, reverse=True):
        tests = [f"(= x!{i} {_num(v)})" for i, v in enumerate(key)]
        cond = tests[0] if len(tests) == 1 else "(and " + " ".join(tests) + ")"
        expr = f"(ite {cond} {_num(table[key])} {expr})"
    return expr


def _define(name: str, arity: int, body: str) -> str:
    params = " ".join(f"(x!{i} Int)" for i in range(arity))
    return f"  (define-fun {name} ({params}) Int\n    {body})"


def intermediates(inst: Instance, cs) -> dict:
    """uid -> Extension for every fold intermediate, from the known fold.
    A trace's constraints are consecutive; step s of an n-element example
    outputs the fold of its last s + 1 inputs."""
    out = {}
    steps = iter(cs.constraints)
    result = inst.problem.signature.result
    for ex in inst.problem.examples:
        n = len(ex.inputs)
        for s in range(n):
            c = next(steps)
            if isinstance(c.output, Unknown):
                value = inst.fold(ex.extra, list(ex.inputs[n - 1 - s :]))
                out[c.output.uid] = to_extension(result, value)
    return out


def model_text(inst: Instance) -> str:
    cs = propagate(inst.problem)
    mids = intermediates(inst, cs) if cs.unknown_count else {}
    out_schema = flatten_shape(cs.output_functor)
    shapes: dict = {}
    sources: dict = {}
    for c in cs.constraints:
        parts, out = resolve_constraint(c, mids)
        key = constraint_key(parts)
        shapes[key] = out_schema.encode_shape(out.shape)
        codes = [a.code for ext in parts for a in ext.elements]
        for q, target in enumerate(out.elements):
            found = {p for p, code in enumerate(codes) if code == target.code}
            sources[(*key, q)] = sources.get((*key, q), found) & found
    arity = sum(len(flatten_shape(f).slots) for f in cs.input_parts)
    lines = ["("]
    for j in range(len(out_schema.slots)):
        lines.append(_define(f"oshape{j}", arity, _ite({k: v[j] for k, v in shapes.items()}, arity)))
    lines.append(_define("srcpos", arity + 1, _ite({k: min(v, default=0) for k, v in sources.items()}, arity + 1)))
    for uid in sorted(mids):
        ext = mids[uid]
        for slot, v in zip(out_schema.slots, out_schema.encode_shape(ext.shape)):
            lines.append(_define(f"mid{uid}_{slot.name}", 0, _num(v)))
        lines.append(_define(f"elem{uid}", 1, _ite({(q,): a.code for q, a in enumerate(ext.elements)}, 1)))
    lines.append(")")
    text = "\n".join(lines) + "\n"
    if not validate_witness(text, cs):
        raise ReplayError(f"{inst.name}: the recorded model fails parachk's replay")
    return text


def answer_text(inst: Instance) -> str:
    if inst.expected == REALIZABLE:
        return "sat\n" + model_text(inst)
    return "unsat\n"
