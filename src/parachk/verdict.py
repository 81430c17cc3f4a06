"""Verdicts and realizability witnesses, shared by the SMT backend and the
brute-force oracle.

A witness is reported as three finite tables keyed by flattened shape slots:
the shape morphism at every queried input shape, the source position of
every output position at those shapes, and a concrete container for every
intermediate result. Witness validation replays every constraint against
the tables by direct enumeration of positions, so a Realizable verdict never
rests on unchecked solver output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .functors import Extension, flatten_shape, show_shape, show_value, size_of
from .propagate import ConstraintSet, Known, MorphismConstraint


@dataclass(frozen=True)
class WitnessSummary:
    shape_table: Mapping[tuple[int, ...], tuple[int, ...]]
    position_table: Mapping[tuple[tuple[int, ...], int], int]
    intermediates: Mapping[int, Extension]


@dataclass(frozen=True)
class Realizable:
    witness: WitnessSummary


@dataclass(frozen=True)
class Unrealizable:
    detail: str = ""

    def __eq__(self, other):
        return isinstance(other, Unrealizable)

    def __hash__(self):
        return hash(Unrealizable)


@dataclass(frozen=True)
class UnknownVerdict:
    # "timeout" | "solver-unknown" | "witness-validation-failed" |
    # "base-case-undecided"
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


def same_variant(a: Verdict, b: Verdict) -> bool:
    return type(a) is type(b)


def resolve_constraint(
    c: MorphismConstraint, intermediates: Mapping[int, Extension]
) -> tuple[list[Extension], Extension] | None:
    """Substitute intermediates into a constraint; None if one is missing."""
    parts = []
    for part in c.inputs:
        ext = part.ext if isinstance(part, Known) else intermediates.get(part.uid)
        if ext is None:
            return None
        parts.append(ext)
    out = c.output.ext if isinstance(c.output, Known) else intermediates.get(c.output.uid)
    if out is None:
        return None
    return parts, out


def constraint_key(parts: list[Extension]) -> tuple[int, ...]:
    key: list[int] = []
    for ext in parts:
        key.extend(flatten_shape(ext.functor).encode_shape(ext.shape))
    return tuple(key)


def validate_summary(cs: ConstraintSet, summary: WitnessSummary) -> bool:
    """Replay every constraint against the witness tables."""
    for uid, ext in summary.intermediates.items():
        if ext.functor != cs.output_functor:
            return False
        if len(ext.elements) != size_of(ext.functor, ext.shape):
            return False
    out_schema = flatten_shape(cs.output_functor)
    for c in cs.constraints:
        resolved = resolve_constraint(c, summary.intermediates)
        if resolved is None:
            return False
        parts, out = resolved
        key = constraint_key(parts)
        if summary.shape_table.get(key) != out_schema.encode_shape(out.shape):
            return False
        in_codes = [a.code for ext in parts for a in ext.elements]
        for q, target in enumerate(out.elements):
            p = summary.position_table.get((key, q))
            if p is None or not 0 <= p < len(in_codes):
                return False
            if in_codes[p] != target.code:
                return False
    return True


def describe_witness(summary: WitnessSummary) -> str:
    """Human-readable rendering of a witness."""
    from .functors import from_extension

    lines = ["shape morphism:"]
    for key in sorted(summary.shape_table):
        lines.append(f"  {key} -> {summary.shape_table[key]}")
    lines.append("position morphism (input shape, output position) -> input position:")
    for key, q in sorted(summary.position_table):
        lines.append(f"  {key} q={q} -> {summary.position_table[(key, q)]}")
    if summary.intermediates:
        lines.append("intermediate results:")
        for uid in sorted(summary.intermediates):
            ext = summary.intermediates[uid]
            lines.append(
                f"  y{uid} = {show_value(from_extension(ext))}"
                f" (shape {show_shape(ext.shape)})"
            )
    return "\n".join(lines)
