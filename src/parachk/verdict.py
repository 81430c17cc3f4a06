"""Verdicts and realizability witnesses, shared by the SMT backend and the
brute-force oracle.

A witness is reported as three finite tables keyed by shape keys
(`functors.shape_key`, of any functor): the shape morphism at every queried
input shape, the source position of every output position at those shapes,
and a concrete container for every intermediate result, a `Known` of its
slot vector and element codes. Witness validation checks each intermediate
against the schema of the fold result and replays every constraint against
the tables by direct enumeration of positions, so a Realizable verdict
never rests on unchecked solver output. A shape is decoded only to show a
witness (`describe_witness`).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .functors import Extension, Record, from_extension, schema_of, shape_key, show_key, show_shape, show_value
from .problem import AtomTable, Problem, extension_of
from .propagate import ConstraintSet, Known, MorphismConstraint, input_parts, read_inputs


class WitnessSummary(NamedTuple):
    shape_table: Mapping[tuple[int, ...], tuple[int, ...]]
    position_table: Mapping[tuple[tuple[int, ...], int], int]
    intermediates: Mapping[int, Known]


class Realizable(Record):
    __slots__ = ("witness",)
    witness: WitnessSummary


class Unrealizable(Record):
    __slots__ = ("detail",)
    detail: str

    def __init__(self, detail: str = ""):
        object.__setattr__(self, "detail", detail)

    def __eq__(self, other):
        return isinstance(other, Unrealizable)

    def __hash__(self):
        return hash(Unrealizable)


class UnknownVerdict(Record):
    __slots__ = ("reason",)
    # "timeout" | "solver-unknown" | "witness-validation-failed" |
    # "base-case-undecided" | "completions-refuted" (`oracle_decide`)
    reason: str


Verdict = Realizable | Unrealizable | UnknownVerdict


def verdict_name(v: Verdict) -> str:
    match v:
        case Realizable(_):
            return "Realizable"
        case Unrealizable():
            return "Unrealizable"
        case UnknownVerdict(reason):
            return f"Unknown({reason})"
    raise TypeError(f"not a Verdict: {v!r}")


def resolve_constraint(
    c: MorphismConstraint, intermediates: Mapping[int, Extension]
) -> tuple[list[Extension], Extension] | None:
    """Substitute intermediates into a constraint; None if one is missing.
    Each known part's extension is rebuilt from its key and codes; its
    atoms carry their codes, unlabelled."""
    unlabelled = AtomTable(())
    parts = []
    for part in (*c.inputs, c.output):
        ext = extension_of(part, unlabelled) if type(part) is Known else intermediates.get(part.uid)
        if ext is None:
            return None
        parts.append(ext)
    return parts[:-1], parts[-1]


def constraint_key(parts: list[Extension]) -> tuple[int, ...]:
    """The key of a constraint's input extensions, each its `shape_key`:
    the key `propagate.read_inputs` reads off the keys propagation
    recorded."""
    key: list[int] = []
    for ext in parts:
        key.extend(shape_key(ext.functor, ext.shape))
    return tuple(key)


def validate_summary(cs: ConstraintSet, summary: WitnessSummary) -> bool:
    """Replay every constraint against the witness tables. Known containers
    and intermediates carry their keys and codes. An intermediate counts
    only as a container of the fold result: of its functor, with a slot
    vector that refines the result's schema and as many codes as that
    vector has positions."""
    inter_keys: dict[int, tuple[int, ...]] = {}
    inter_codes: dict[int, tuple[int, ...]] = {}
    if summary.intermediates:
        out_schema = schema_of(cs.output_functor)
    for uid, k in summary.intermediates.items():
        if not (
            k.functor == cs.output_functor
            and out_schema.refines(k.key)
            and len(k.codes) == out_schema.count_value(k.key)
        ):
            return False
        inter_keys[uid] = k.key
        inter_codes[uid] = k.codes
    shape_table, position_table = summary.shape_table, summary.position_table
    for c in cs.constraints:
        try:
            key, in_codes = read_inputs(c, inter_keys, inter_codes)
        except KeyError:
            return False
        out = c.output
        if type(out) is Known:
            out_key, targets = out.key, out.codes
        elif out.uid in inter_keys:
            out_key, targets = inter_keys[out.uid], inter_codes[out.uid]
        else:
            return False
        if shape_table.get(key) != out_key:
            return False
        for q, target in enumerate(targets):
            p = position_table.get((key, q))
            if p is None or not 0 <= p < len(in_codes) or in_codes[p] != target:
                return False
    return True


def describe_witness(summary: WitnessSummary, problem: Problem) -> str:
    """Human-readable rendering of a witness of `problem`'s steps: each
    grounding key shown as the shape of each input part, each output key
    as a shape of the result functor, and the atoms labelled."""
    parts = input_parts(problem.signature, problem.sketch)
    result = (problem.signature.result,)
    lines = ["shape morphism:"]
    for key in sorted(summary.shape_table):
        lines.append(f"  {show_key(parts, key)} -> {show_key(result, summary.shape_table[key])}")
    lines.append("position morphism (input shape, output position) -> input position:")
    for key, q in sorted(summary.position_table):
        lines.append(f"  {show_key(parts, key)} q={q} -> {summary.position_table[(key, q)]}")
    if summary.intermediates:
        lines.append("intermediate results:")
        for uid in sorted(summary.intermediates):
            ext = extension_of(summary.intermediates[uid], problem.atoms)
            lines.append(
                f"  y{uid} = {show_value(from_extension(ext))}"
                f" (shape {show_shape(ext.shape)})"
            )
    return "\n".join(lines)
