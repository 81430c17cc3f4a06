"""Propagation: constraint construction per sketch, trace numbering, and
shape completeness."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachk import (
    CompletenessReport,
    ID,
    INT,
    IntV,
    ListOf,
    ListV,
    PropagationUnrealizable,
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    atom,
    build_problem,
    flatten_shape,
    load_problem,
    propagate,
    propagate_foldr,
    propagate_map,
    shape_complete,
    shape_of,
)
from parachk.propagate import Known, Unknown, show_suffix

import support


def lst(*vs):
    return ListV(tuple(vs))


def pid(*examples):
    return build_problem("t", Signature(UNIT, ID, ID), SketchKind.RAW, list(examples))


def test_raw_one_constraint_per_example():
    p = pid((UnitV(), [atom("A")], atom("C")))
    cs = propagate(p)
    assert len(cs.constraints) == 1 and cs.unknown_count == 0
    assert cs.input_parts == (ID,)
    c = cs.constraints[0]
    assert isinstance(c.inputs[0], Known) and isinstance(c.output, Known)
    assert cs.atoms.label_of(c.inputs[0].codes[0]) == "A"
    assert cs.atoms.label_of(c.output.codes[0]) == "C"


def test_map_splits_into_elementwise_constraints():
    p = build_problem(
        "rev-map",
        Signature(UNIT, ID, ID),
        SketchKind.MAP,
        [(UnitV(), [atom("A"), atom("B"), atom("C")], lst(atom("C"), atom("B"), atom("A")))],
    )
    cs = propagate_map(p)
    pairs = [
        (cs.atoms.label_of(c.inputs[0].codes[0]), cs.atoms.label_of(c.output.codes[0]))
        for c in cs.constraints
    ]
    assert pairs == [("A", "C"), ("B", "B"), ("C", "A")]


def test_map_empty_example_is_vacuous():
    p = build_problem(
        "empty-map", Signature(UNIT, ID, ID), SketchKind.MAP, [(UnitV(), [], lst())]
    )
    assert propagate_map(p).constraints == ()


def test_map_length_mismatch_is_unrealizable():
    p = build_problem(
        "len-mismatch",
        Signature(UNIT, ID, ID),
        SketchKind.MAP,
        [(UnitV(), [atom("A")], lst(atom("B"), atom("C")))],
    )
    with pytest.raises(PropagationUnrealizable):
        propagate_map(p)


def tail_sig():
    return Signature(UNIT, ID, ListOf(ID))


def test_foldr_trace_structure():
    p = build_problem(
        "tail",
        tail_sig(),
        SketchKind.FOLDR,
        [(UnitV(), [atom("A"), atom("B"), atom("C")], lst(atom("B"), atom("C")), lst())],
    )
    cs = propagate_foldr(p)
    assert len(cs.constraints) == 3 and cs.unknown_count == 2
    assert cs.input_parts == (UNIT, ID, ListOf(ID))
    # right-to-left numbering: the constraint holding the known base consumes
    # the last input element
    first = cs.constraints[0]
    assert isinstance(first.inputs[2], Known)
    assert first.inputs[2].codes == ()
    assert cs.atoms.label_of(first.inputs[1].codes[0]) == "C"
    assert isinstance(first.output, Unknown)
    last = cs.constraints[-1]
    assert cs.atoms.label_of(last.inputs[1].codes[0]) == "A"
    assert isinstance(last.output, Known)


def test_foldr_empty_example_contributes_nothing():
    p = build_problem(
        "empty", tail_sig(), SketchKind.FOLDR, [(UnitV(), [], lst(), lst())]
    )
    assert propagate_foldr(p).constraints == ()


def test_foldr_empty_example_base_conflict():
    p = build_problem(
        "conflict", tail_sig(), SketchKind.FOLDR,
        [(UnitV(), [], lst(atom("a")), lst())],
    )
    with pytest.raises(PropagationUnrealizable):
        propagate_foldr(p)


def test_foldr_sum_style_chain():
    p = build_problem(
        "sum",
        Signature(UNIT, INT, INT),
        SketchKind.FOLDR,
        [(UnitV(), [IntV(2), IntV(3), IntV(4)], IntV(10), IntV(1))],
    )
    cs = propagate_foldr(p)
    assert len(cs.constraints) == 3 and cs.unknown_count == 2
    mids = [c.output for c in cs.constraints[:-1]]
    assert all(isinstance(m, Unknown) for m in mids)
    assert all(s.kind == "int" for m in mids for s in flatten_shape(cs.output_functor).slots)


def _check_trace_record(p):
    """`propagate(p).traces` holds, for each nonempty foldr example in
    order, the ids of its suffixes, shortest first, and its steps:
    consecutive constraints from its base, threaded through intermediates
    with consecutive uids. `cs.suffixes` numbers each suffix once."""
    cs = propagate(p)
    sig = p.signature
    if p.sketch is not SketchKind.FOLDR:
        assert cs.traces == ()
        return cs
    nonempty = [ex for ex in p.examples if ex.inputs]
    assert [support.suffix_key(cs, t.suffixes[-1]) for t in cs.traces] == [
        (shape_of(sig.extra, ex.extra), tuple(shape_of(sig.element, v) for v in ex.inputs))
        for ex in nonempty
    ]
    assert [c for t in cs.traces for c in t.steps] == list(cs.constraints)
    uid = 0
    keys = {support.suffix_key(cs, s) for s in range(len(cs.suffixes))}
    assert len(keys) == len(cs.suffixes)
    for t, ex in zip(cs.traces, nonempty):
        h, seq = support.suffix_key(cs, t.suffixes[-1])
        assert [support.suffix_key(cs, s) for s in t.suffixes] == [(h, seq[k:]) for k in range(len(seq), -1, -1)]
        assert len(t.steps) == len(seq)
        assert all(support.known_shape(step.inputs[0]) == h for step in t.steps)
        assert tuple(support.known_shape(step.inputs[1]) for step in reversed(t.steps)) == seq
        assert support.known_shape(t.steps[0].inputs[2]) == shape_of(sig.result, ex.base)
        assert isinstance(t.steps[-1].output, Known)
        for step, after in zip(t.steps, t.steps[1:]):
            assert step.output == Unknown(uid) == after.inputs[2]
            uid += 1
    assert uid == cs.unknown_count
    return cs


def test_traces_record_every_corpus_set():
    from parachk.bench import corpus

    problems = [q for e in corpus() for q in (e.problem_sc, e.problem_si)]
    problems += [load_problem(str(path)) for path in sorted(Path("problems").glob("*.json"))]
    assert len(problems) == 38
    foldr = 0
    for q in problems:
        foldr += bool(_check_trace_record(q).traces)
    assert foldr == 36


def test_traces_record_two_extras_and_two_bases():
    p = build_problem(
        "drop-two-bases",
        Signature(INT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (IntV(1), [atom("a"), atom("b")], lst(atom("b")), lst()),
            (IntV(2), [atom("c")], lst(atom("z")), lst(atom("z"))),
            (IntV(1), [], lst(), lst()),
            (IntV(2), [atom("d"), atom("e"), atom("f")], lst(atom("z")), lst(atom("z"))),
        ],
    )
    cs = _check_trace_record(p)
    assert [show_suffix(cs.suffixes, t.suffixes[-1]) for t in cs.traces] == [
        "extra 1, inputs [*, *]",
        "extra 2, inputs [*]",
        "extra 2, inputs [*, *, *]",
    ]
    assert cs.unknown_count == 3


def test_constraint_count_invariants():
    rng = random.Random(7)
    for _ in range(25):
        p = support.random_foldr_problem(rng)
        cs = propagate(p)
        lengths = [len(ex.inputs) for ex in p.examples]
        assert len(cs.constraints) == sum(lengths)
        assert cs.unknown_count == sum(max(n - 1, 0) for n in lengths)
    for _ in range(10):
        p = support.random_raw_problem(rng)
        assert len(propagate(p).constraints) == len(p.examples)


def test_shape_complete_paper_set():
    p = build_problem(
        "tail-sc",
        tail_sig(),
        SketchKind.FOLDR,
        [
            (UnitV(), [atom("A"), atom("B"), atom("C")], lst(atom("B"), atom("C")), lst()),
            (UnitV(), [atom("x"), atom("y")], lst(atom("y")), lst()),
            (UnitV(), [atom("z")], lst(), lst()),
        ],
    )
    assert shape_complete(p).complete


def test_shape_complete_single_example_missing_suffixes():
    p = build_problem(
        "tail-1",
        tail_sig(),
        SketchKind.FOLDR,
        [(UnitV(), [atom("A"), atom("B"), atom("C")], lst(atom("B"), atom("C")), lst())],
    )
    rep = shape_complete(p)
    assert not rep.complete and len(rep.missing) == 2


def test_shape_complete_two_examples_missing_len_one():
    p = build_problem(
        "tail-2",
        tail_sig(),
        SketchKind.FOLDR,
        [
            (UnitV(), [atom("A"), atom("B"), atom("C")], lst(atom("B"), atom("C")), lst()),
            (UnitV(), [atom("D"), atom("E")], lst(atom("E")), lst()),
        ],
    )
    rep = shape_complete(p)
    assert not rep.complete
    assert list(rep.missing) == ["extra (), inputs [*]"]


def test_shape_complete_distinguishes_extra_shapes():
    sig = Signature(INT, ID, ListOf(ID))
    p = build_problem(
        "drop-mixed",
        sig,
        SketchKind.FOLDR,
        [
            (IntV(1), [atom("a"), atom("b")], lst(atom("b")), lst()),
            (IntV(2), [atom("c")], lst(), lst()),
        ],
    )
    rep = shape_complete(p)
    # the length-1 example has a different extra shape, so it pins nothing
    assert not rep.complete and "extra 1" in rep.missing[0]


def _trace_key(p, ex):
    from parachk import show_shape

    sig = p.signature
    return (
        show_shape(shape_of(sig.extra, ex.extra)),
        tuple(show_shape(shape_of(sig.element, v)) for v in ex.inputs),
    )


def _requirements(p):
    """Independent recomputation: every (extra shape, nonempty proper input
    shape suffix) some example of p demands."""
    out = set()
    for ex in p.examples:
        h, seq = _trace_key(p, ex)
        for k in range(1, len(seq)):
            out.add((h, seq[len(seq) - k :]))
    return out


def _supplied(p, requirement):
    """Some example of p is the trace the requirement names."""
    return any(_trace_key(p, ex) == requirement for ex in p.examples)


def _show(requirement):
    h, seq = requirement
    return f"extra {h}, inputs [" + ", ".join(seq) + "]"


def test_deleting_example_never_fixes_remaining_requirements():
    # once a requirement of a surviving example is missing, deleting more
    # examples can only remove suppliers, never resurrect it
    rng = random.Random(13)
    several_bases = 0
    for _ in range(20):
        p = support.random_foldr_problem(rng)
        examples = [(e.extra, e.inputs, e.output, e.base) for e in p.examples]
        tower = _rebased_tower(rng, p, examples)
        if tower:
            p = build_problem(p.name, p.signature, p.sketch, examples + tower)
        several_bases += len({shape_of(p.signature.result, ex.base) for ex in p.examples}) > 1

        def subset(prob, skip):
            exs = [
                (e.extra, e.inputs, e.output, e.base)
                for j, e in enumerate(prob.examples)
                if j != skip
            ]
            return build_problem("sub", prob.signature, prob.sketch, exs) if exs else None

        for i in range(len(p.examples)):
            q = subset(p, i)
            if q is None:
                continue
            missing_q = {
                m for m in _requirements(q) if not _supplied(q, m)
            }
            # the model is the rule `shape_complete` applies
            assert {_show(m) for m in missing_q} == set(shape_complete(q).missing)
            for k in range(len(q.examples)):
                r = subset(q, k)
                if r is None:
                    continue
                still_required = _requirements(r)
                for m in missing_q & still_required:
                    assert not _supplied(r, m)
    assert several_bases >= 5


def test_raw_and_map_trivially_complete():
    p = pid((UnitV(), [atom("A")], atom("A")))
    assert shape_complete(p).complete


def test_shape_complete_ignores_what_propagation_refutes():
    # the empty example contradicts its base, which propagation refutes;
    # shape completeness still reads every example's shapes and reports the
    # suffix [*] that the length-2 example needs
    p = build_problem(
        "base-conflict",
        tail_sig(),
        SketchKind.FOLDR,
        [
            (UnitV(), [], lst(atom("a")), lst()),
            (UnitV(), [atom("b"), atom("c")], lst(atom("c")), lst()),
        ],
    )
    with pytest.raises(PropagationUnrealizable):
        propagate(p)
    assert shape_complete(p) == CompletenessReport(
        False, ("extra (), inputs [*]",)
    )
    # an example pinning [*] completes it
    q = build_problem(
        "pinned",
        tail_sig(),
        SketchKind.FOLDR,
        [
            (UnitV(), [], lst(atom("a")), lst()),
            (UnitV(), [atom("b"), atom("c")], lst(atom("c")), lst()),
            (UnitV(), [atom("d")], lst(), lst()),
        ],
    )
    assert shape_complete(q) == CompletenessReport(True, ())



def _rebased_tower(rng, p, examples):
    """Half of the examples again, under another extra value and, where the
    draw allows, a base of another shape. The extra keeps its shape when it
    is a nonempty list of atoms, so only the base tells the towers apart;
    None when the extra functor admits no other value."""
    sig = p.signature
    extra = examples[0][0]
    if sig.extra == INT:
        other = IntV(99)
    elif sig.extra == ListOf(ID) and extra.items:
        other = lst(*(atom("w") for _ in extra.items))
    else:
        return None
    old = shape_of(sig.result, examples[0][3])
    bases = [support.random_value(rng, sig.result, list_cap=2) for _ in range(4)]
    base = next((b for b in bases if shape_of(sig.result, b) != old), bases[0])
    return [(other, ins, out if ins else base, base) for _, ins, out, _ in examples if rng.random() < 0.5]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.booleans())
def test_shape_complete_iff_groundable(seed, rebase):
    """`shape_complete` and the oracle's completions read one rule: the
    suffixes `shape_complete` reports missing are those `cs.unpinned` holds,
    in order, which the oracle guesses."""
    rng = random.Random(seed)
    p = support.random_foldr_problem(rng, realizable=rng.random() < 0.5)
    examples = [(e.extra, e.inputs, e.output, e.base) for e in p.examples]
    tower = _rebased_tower(rng, p, examples) if rebase else None
    if tower is None:
        examples = [ex for ex in examples if rng.random() < 0.6] or examples[:1]
    else:
        examples += tower
    q = build_problem(p.name, p.signature, p.sketch, examples)
    # a set with an atom from nowhere is refuted in propagation; it is
    # propagated with that rule off
    if support.atoms_from_nowhere(q):
        support.assert_refuted_from_nowhere(q)
    with support.nowhere_rule_off():
        cs = propagate(q)
    report = shape_complete(q)
    assert report.missing == tuple(show_suffix(cs.suffixes, s) for s in cs.unpinned)
    assert report.complete == (not cs.unpinned)
