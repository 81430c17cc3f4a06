"""The brute-force oracle: grounding, conflicts, search, witnesses."""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachk import (
    BoundExceeded,
    ID,
    INT,
    IntV,
    JustV,
    ListOf,
    ListV,
    MaybeOf,
    NothingV,
    PairV,
    ProdOf,
    Realizable,
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    Unrealizable,
    atom,
    build_problem,
    check,
    corpus,
    ground,
    load_problem,
    oracle_check,
    oracle_decide,
    propagate,
    shape_complete,
    shape_of,
    show_shape,
    validate_summary,
    verdict_name,
)
from parachk.problem import AtomTable, ProblemError, extension_of
from parachk.propagate import ConstraintSet, Known, PropagationUnrealizable, Suffix, read_inputs, show_suffix
from parachk.solver import ORACLE_MAX_STEPS, oracle_verdict
from parachk.verdict import UnknownVerdict, WitnessSummary, constraint_key, resolve_constraint
from parachk.oracle import (
    ShapeConflict,
    StepBudget,
    candidate_shapes,
    completions,
    forced_shapes,
    intermediate_keys,
)
from parachk import oracle
from parachk.functors import flatten_shape, shape_key, size_of

import support


def lst(*vs):
    return ListV(tuple(vs))


def _ground(cs):
    """`ground` with the completion that guesses nothing, `_pinned`."""
    return ground(cs, oracle._pinned(cs))


def tail_sig():
    return Signature(UNIT, ID, ListOf(ID))


def raw_list_sig():
    return Signature(UNIT, ListOf(ID), ListOf(ID))


def tail_sc_problem():
    return build_problem(
        "tail-sc",
        tail_sig(),
        SketchKind.FOLDR,
        [
            (UnitV(), [atom("A"), atom("B"), atom("C")], lst(atom("B"), atom("C")), lst()),
            (UnitV(), [atom("x"), atom("y")], lst(atom("y")), lst()),
            (UnitV(), [atom("z")], lst(), lst()),
        ],
    )


def _nested_extra_fold(name, kept):
    """A fold over an extra of List(List(Id)) whose base is the extra's
    concatenation and whose step conses: the examples of `kept`."""
    h1, h2 = lst(lst(atom("p"), atom("q")), lst(atom("r"))), lst(lst(atom("s")))
    examples = [
        (h1, []),
        (h1, [atom("x")]),
        (h1, [atom("y"), atom("x")]),
        (h2, [atom("z")]),
    ]
    rows = []
    for h, xs in (examples[i] for i in kept):
        base = lst(*(y for inner in h.items for y in inner.items))
        rows.append((h, xs, lst(*xs, *base.items), base))
    return build_problem(name, Signature(ListOf(ListOf(ID)), ID, ListOf(ID)), SketchKind.FOLDR, rows)


@pytest.mark.parametrize(
    "kept, path", [((0, 1, 2, 3), "oracle"), ((0, 2, 3), "oracle+completion")], ids=["complete", "incomplete"]
)
def test_folds_over_a_nested_extra_are_decided_in_process(no_spawn, kept, path):
    # the extra's shapes are not fixed-arity: its keys, the base case and
    # the suffix table all take it as they take a flat one
    p = _nested_extra_fold("nested-extra", kept)
    report = check(p, no_spawn)
    assert (verdict_name(report.verdict), report.path) == ("Realizable", path)
    assert validate_summary(propagate(p), report.verdict.witness)


def test_tail_intermediates_resolved_by_suffix_chase():
    # the fold results on the suffixes [C] and [B,C] are pinned by the
    # length-1 and length-2 examples: sizes 0 and 1
    cs = propagate(tail_sc_problem())
    resolved = intermediate_keys(cs, oracle._pinned(cs))
    schema = flatten_shape(ListOf(ID))
    sizes = sorted(schema.count_value(k) for k in resolved.values())
    assert sizes == [0, 0, 1]  # Y1, Y2 of the 3-example plus Y1 of the 2-example
    trace_sizes = [schema.count_value(resolved[uid]) for uid in (0, 1)]
    assert trace_sizes == [0, 1]
    # every suffix is pinned, so grounding gets as far as the clash that
    # makes tail no fold: (*, []) maps to [] for [z] and to [*] for [x,y]
    with pytest.raises(ShapeConflict):
        _ground(cs)


def test_tail_sc_is_unrealizable():
    assert isinstance(oracle_decide(propagate(tail_sc_problem())), Unrealizable)


def test_raw_and_map_ground_without_unknowns():
    p = build_problem(
        "rev",
        raw_list_sig(),
        SketchKind.RAW,
        [(UnitV(), [lst(atom("a"), atom("b"))], lst(atom("b"), atom("a")))],
    )
    gi = _ground(propagate(p))
    assert gi.inter_keys == {}
    a, b = map(gi.cs.atoms.labels.index, "ab")
    assert list(gi.rows.values()) == [[((a, b), (b, a))]]


def test_shape_conflict_detected_in_ground():
    p = build_problem(
        "sortdedup",
        raw_list_sig(),
        SketchKind.RAW,
        [
            (UnitV(), [lst(atom("a"), atom("a"))], lst(atom("a"))),
            (UnitV(), [lst(atom("a"), atom("b"))], lst(atom("a"), atom("b"))),
        ],
    )
    with pytest.raises(ShapeConflict):
        _ground(propagate(p))
    assert isinstance(oracle_decide(propagate(p)), Unrealizable)


def test_position_conflict_detected_in_search():
    p = build_problem(
        "swap",
        raw_list_sig(),
        SketchKind.RAW,
        [
            (UnitV(), [lst(atom("a"), atom("b"))], lst(atom("a"), atom("b"))),
            (UnitV(), [lst(atom("b"), atom("a"))], lst(atom("a"), atom("b"))),
        ],
    )
    assert isinstance(oracle_decide(propagate(p)), Unrealizable)


def test_atom_consistency_failure():
    p = build_problem(
        "fAC",
        Signature(UNIT, ID, ID),
        SketchKind.RAW,
        [(UnitV(), [atom("A")], atom("C"))],
    )
    assert isinstance(oracle_decide(propagate(p)), Unrealizable)


def test_reverse_witness_positions():
    p = build_problem(
        "rev",
        raw_list_sig(),
        SketchKind.RAW,
        [
            (UnitV(), [lst()], lst()),
            (UnitV(), [lst(atom("a"))], lst(atom("a"))),
            (UnitV(), [lst(atom("a"), atom("b"))], lst(atom("b"), atom("a"))),
            (UnitV(), [lst(atom("a"), atom("b"), atom("c"))], lst(atom("c"), atom("b"), atom("a"))),
        ],
    )
    cs = propagate(p)
    verdict = oracle_decide(cs)
    assert isinstance(verdict, Realizable)
    table = verdict.witness.position_table
    for n in (1, 2, 3):
        for i in range(n):
            assert table[((n,), i)] == n - 1 - i
    assert validate_summary(cs, verdict.witness)


def test_oracle_requires_shape_completeness():
    # no example of the minimal tail set has the one-element suffix [C] as
    # its whole input, so that suffix is unpinned, and `shape_complete`
    # names it by its shapes
    p = build_problem(
        "tail-min",
        tail_sig(),
        SketchKind.FOLDR,
        [
            (UnitV(), [atom("A"), atom("B"), atom("C")], lst(atom("B"), atom("C")), lst()),
            (UnitV(), [atom("D"), atom("E")], lst(atom("E")), lst()),
        ],
    )
    cs = propagate(p)
    assert cs.unpinned
    assert shape_complete(p).missing == tuple(show_suffix(cs.suffixes, s) for s in cs.unpinned)
    assert shape_complete(p).missing == ("extra (), inputs [*]",)


def _concat(width):
    # foldr (++) []: the last step of the two-element example reads the
    # intermediate after a block of `width` atoms and outputs 2 * width
    def block(tag):
        return lst(*(atom(f"{tag}{i}") for i in range(width)))

    xs, ys, zs = block("x"), block("y"), block("z")
    return build_problem(
        "concat",
        raw_list_sig(),
        SketchKind.FOLDR,
        [
            (UnitV(), [xs, ys], lst(*xs.items, *ys.items), lst()),
            (UnitV(), [zs], zs, lst()),
        ],
    )


def _cons(n):
    # foldr (:) [] over the suffixes of one list: an input shape to search
    # per accumulator length 0..n-1
    xs = [atom(f"x{i}") for i in range(n)]
    return build_problem(
        "cons",
        tail_sig(),
        SketchKind.FOLDR,
        [(UnitV(), xs[n - k :], lst(*xs[n - k :]), lst()) for k in range(1, n + 1)],
    )


def _assert_only_the_budget_bounds(gi):
    # decided without a budget; a budget of exactly the steps that search
    # spends gives the same verdict, and one step less raises
    exhaustive = oracle_check(gi)
    assert isinstance(exhaustive, Realizable)
    budget = StepBudget(10**9)
    oracle_check(gi, budget)
    steps = 10**9 - budget.left
    assert steps > 0
    budget = StepBudget(steps)
    assert oracle_check(gi, budget) == exhaustive and budget.left == 0
    with pytest.raises(BoundExceeded):
        oracle_check(gi, StepBudget(steps - 1))


def test_bound_exceeded():
    # one input shape of 18 positions, searched
    _assert_only_the_budget_bounds(_ground(propagate(_concat(9))))


def test_shape_bound_exceeded():
    # 14 searched input shapes
    _assert_only_the_budget_bounds(_ground(propagate(_cons(14))))


def test_scans_spend_no_steps():
    # 15 input shapes, the widest of 20 positions, every one atom-only
    xs = [atom(f"x{i}") for i in range(20)]
    rows = [lst(*xs[:n]) for n in range(14)] + [lst(*xs)]
    p = build_problem(
        "wide", raw_list_sig(), SketchKind.RAW, [(UnitV(), [r], r) for r in rows]
    )
    budget = StepBudget(0)
    verdict = oracle_check(_ground(propagate(p)), budget)
    assert isinstance(verdict, Realizable) and budget.left == 0


def test_unifying_joined_terms_records_nothing():
    budget = StepBudget(10)
    uf = oracle._Unifier(budget)
    assert uf.unify(-1, -2) and uf.unify(-2, 5)
    mark = uf.mark()
    # -1 and -2 share a root: joining them again, either way round, holds
    # and leaves the trail as it was
    assert uf.unify(-2, -1) and uf.unify(-1, -1)
    assert uf.mark() == mark and budget.left == 6
    assert uf.find(-1) == 5 and not uf.unify(-1, 6)


def _naive_unify(labels, a, b):
    """Join the classes of the element terms `a` and `b` in `labels`, each
    term's class label, by relabelling every member of one class: a term
    missing from `labels` is its own class, and an atom labels its class.
    False, with nothing joined, where the classes hold two distinct atoms."""
    la, lb = labels.get(a, a), labels.get(b, b)
    if la == lb:
        return True
    if la >= 0:
        if lb >= 0:
            return False
        la, lb = lb, la
    for t, label in list(labels.items()):
        if label == la:
            labels[t] = lb
    labels[la] = lb
    return True


def test_the_unifier_agrees_with_a_partition_model():
    # random unify, mark and rollback sequences over the terms -1..-8 and
    # the atoms 0..3, against relabelled classes copied at each mark
    rng = random.Random(5)
    nodes = [*range(-8, 0), *range(4)]
    unified = refused = rolled_back = 0
    for _ in range(300):
        budget = StepBudget(float("inf"))
        uf = oracle._Unifier(budget)
        labels, marks = {}, []
        for _ in range(rng.randint(1, 30)):
            move = rng.random()
            if move < 0.15:
                marks.append((uf.mark(), dict(labels)))
            elif move < 0.25 and marks:
                # back to a mark still open; the later ones close
                i = rng.randrange(len(marks))
                mark, labels = marks[i]
                del marks[i:]
                uf.rollback(mark)
                rolled_back += 1
            else:
                a, b = rng.choice(nodes), rng.choice(nodes)
                left = budget.left
                held = uf.unify(a, b)
                assert held == _naive_unify(labels, a, b)
                assert budget.left == left - 1
                unified += held
                refused += not held
            roots = {x: uf.find(x) for x in nodes}
            for x in nodes:
                label = labels.get(x, x)
                assert [roots[y] == roots[x] for y in nodes] == [
                    labels.get(y, y) == label for y in nodes
                ]
                if label >= 0:
                    # a class with an atom has that atom as its root
                    assert roots[x] == label
            assert all(t < 0 for t in uf.parent)
    assert unified >= 2000 and refused >= 800 and rolled_back >= 200


def _swap_conflict():
    # reverse as a fold, and a second three-element example with the last
    # two elements of its reverse swapped: each scan passes, the search
    # refutes
    rows = [
        (["a"], ["a"]),
        (["a", "b"], ["b", "a"]),
        (["d", "e", "f"], ["f", "e", "d"]),
        (["a", "b", "c"], ["c", "a", "b"]),
    ]
    return build_problem(
        "swap",
        tail_sig(),
        SketchKind.FOLDR,
        [(UnitV(), list(map(atom, r)), lst(*map(atom, out)), lst()) for r, out in rows],
    )


def _reverse():
    rows = [["c"], ["b", "c"], ["a", "b", "c"]]
    return build_problem(
        "rev",
        tail_sig(),
        SketchKind.FOLDR,
        [(UnitV(), list(map(atom, r)), lst(*map(atom, reversed(r))), lst()) for r in rows],
    )


@pytest.mark.parametrize("make", [_swap_conflict, _reverse])
def test_step_budget(make):
    gi = _ground(propagate(make()))
    exhaustive = oracle_check(gi)
    # the smallest budget the search fits in gives the exhaustive verdict
    # and is spent to the last step; every smaller one raises
    steps = 1
    while True:
        budget = StepBudget(steps)
        try:
            verdict = oracle_check(gi, budget=budget)
            break
        except BoundExceeded:
            steps += 1
    assert steps > 1 and verdict == exhaustive and budget.left == 0


def test_search_leaves_no_reference_cycle():
    # the search keeps its choices on a stack, not in a closure that refers
    # to itself, so a check frees everything it built without the cyclic
    # collector; the first check builds the per-functor caches
    p = load_problem("problems/reverse_as_foldr.json")
    check(p)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert isinstance(check(p).verdict, Realizable)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_determinism():
    rng = random.Random(99)
    for _ in range(10):
        p = support.random_foldr_problem(rng)
        cs = propagate(p)
        v1, v2 = oracle_decide(cs), oracle_decide(cs)
        assert verdict_name(v1) == verdict_name(v2)
        if isinstance(v1, Realizable):
            assert v1.witness == v2.witness


def test_oracle_witnesses_validate():
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        p = support.random_foldr_problem(rng)
        cs = propagate(p)
        verdict = oracle_decide(cs)
        if isinstance(verdict, Realizable):
            assert validate_summary(cs, verdict.witness)
            checked += 1
    assert checked >= 10


def _random_map_problem(rng):
    sig = Signature(UNIT, rng.choice([ID, ListOf(ID), ProdOf(ID, ID)]), rng.choice([ID, ListOf(ID), MaybeOf(ID)]))
    examples = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, 3)
        inputs = [support.random_value(rng, sig.element) for _ in range(n)]
        examples.append((UnitV(), inputs, lst(*(support.random_value(rng, sig.result) for _ in range(n)))))
    return build_problem(f"map-{rng.randrange(10**6)}", sig, SketchKind.MAP, examples)


def test_the_replay_key_definition_agrees_with_grounding():
    # the benchmark's replay models key a constraint by `constraint_key` of
    # the extensions `resolve_constraint` substitutes; over the oracle's
    # witnesses of drawn raw, map and fold sets, that key is the one
    # grounding reads (`read_inputs`), and the output's `shape_key` the
    # constraint's output key
    rng = random.Random(31)
    drawn = [("raw", support.random_raw_problem(rng)) for _ in range(300)]
    drawn += [("map", _random_map_problem(rng)) for _ in range(300)]
    drawn += [("fold", p) for _, p in support.drawn_folds(random.Random(31), 120)]
    checked = {"raw": 0, "map": 0, "fold": 0}
    left_out = 0
    for kind, p in drawn:
        try:
            cs = propagate(p)
            verdict = oracle_decide(cs, StepBudget(ORACLE_MAX_STEPS))
        except (PropagationUnrealizable, BoundExceeded):
            continue
        if not isinstance(verdict, Realizable):
            continue
        found = verdict.witness.intermediates
        inter_keys = {uid: k.key for uid, k in found.items()}
        inter_codes = {uid: k.codes for uid, k in found.items()}
        mids = {uid: extension_of(k, cs.atoms) for uid, k in found.items()}
        for c in cs.constraints:
            parts, out = resolve_constraint(c, mids)
            assert constraint_key(parts) == read_inputs(c, inter_keys, inter_codes)[0]
            out_key = c.output.key if isinstance(c.output, Known) else inter_keys[c.output.uid]
            assert shape_key(out.functor, out.shape) == out_key
            # a known part's atoms carry their codes, unlabelled
            for part, ext in zip(c.inputs, parts):
                if isinstance(part, Known):
                    assert [a.label for a in ext.elements] == [f"#{code}" for code in part.codes]
            uids = [x.uid for x in (*c.inputs, c.output) if not isinstance(x, Known)]
            if uids:
                assert resolve_constraint(c, {u: e for u, e in mids.items() if u != uids[0]}) is None
                left_out += 1
        checked[kind] += 1
    assert checked["raw"] >= 30 and checked["map"] >= 30 and checked["fold"] >= 80 and left_out >= 250
    assert AtomTable(()).label_of(3) == "#3"


def test_candidate_shapes_cover_schemas_without_lists():
    entries = {e.name: e for e in corpus()}

    def candidates(p):
        cs = propagate(p)
        shapes, covered = candidate_shapes(cs, oracle._pinned(cs))
        schema = flatten_shape(cs.output_functor)
        return [show_shape(support.schema_shape(schema, s)) for s in shapes], covered

    assert candidates(entries["null"].problem_si) == (["F", "T"], True)
    assert candidates(entries["head"].problem_si) == (["N", "J*"], True)
    assert candidates(entries["reverse"].problem_si) == (["[]", "[*]", "[*,*]", "[*,*,*]", "[*,*,*,*]"], False)
    # length's SI outputs are 3 and 2, its base 0, and one suffix is
    # unpinned: one value past the largest, then 0
    assert candidates(entries["length"].problem_si) == (["4", "0"], True)
    # [b, c] is unpinned: Nothing, then Just of a fresh int and of 0
    rows = [
        (UnitV(), [], NothingV(), NothingV()),
        (UnitV(), [atom("a")], JustV(IntV(2)), NothingV()),
        (UnitV(), [atom("a"), atom("b"), atom("c")], JustV(IntV(1)), NothingV()),
    ]
    maybe_int = build_problem("maybe-int", Signature(UNIT, ID, MaybeOf(INT)), SketchKind.FOLDR, rows)
    assert candidates(maybe_int) == (["N", "J3", "J0"], True)


def _completions_past_candidates(cs, missing) -> int:
    """Check that guessing with forcing finds every candidate completion
    of `missing` whose grounding has no shape conflict, and only
    completions that ground; return how many it finds outside the
    candidates, each with a forced shape there, a copy of a pinned one."""
    shapes, _ = candidate_shapes(cs, oracle._pinned(cs))
    # the slot vector of each full example, by suffix id: the last one
    # wins, and a clash between two examples is left to `ground` to find
    pinned = {t.suffixes[-1]: t.steps[-1].output.key for t in cs.traces}
    accepted = []
    for combo in itertools.product(shapes, repeat=len(missing)):
        completion = dict(zip(missing, combo))
        try:
            ground(cs, {**pinned, **completion})
            accepted.append(completion)
        except ShapeConflict:
            pass
    budget = StepBudget(10**9)
    try:
        found = list(completions(forced_shapes(cs, budget), missing, shapes, budget))
    except ShapeConflict:
        found = []
    # each completion carries the pinned shapes along with its guesses
    for c in found:
        assert all(c[k] == shape for k, shape in pinned.items())
        ground(cs, c)
    candidate = [c for c in found if all(c[k] in shapes for k in missing)]
    for c in found:
        if c not in candidate:
            assert {c[k] for k in missing if c[k] not in shapes} <= set(oracle._pinned(cs).values())
    key = lambda c: sorted(repr((k, c[k])) for k in missing)
    assert sorted(map(key, candidate)) == sorted(map(key, accepted))
    return len(found) - len(candidate)


def test_consistent_completions_are_those_ground_accepts():
    rng = random.Random(7)
    compared = 0
    while compared < 25:
        p = support.random_foldr_problem(rng)
        kept = [(e.extra, e.inputs, e.output, e.base) for e in p.examples if rng.random() < 0.5]
        if not kept:
            continue
        cs = propagate(build_problem(p.name, p.signature, p.sketch, kept))
        missing = cs.unpinned
        if not missing:
            continue
        shapes, _ = candidate_shapes(cs, oracle._pinned(cs))
        if len(shapes) ** len(missing) > 3000:
            continue
        _completions_past_candidates(cs, missing)
        compared += 1
    # guessing [[*],[*,*]] length 3 forces [[*,*],[*],[*,*]] to length 5
    cs = propagate(support.forced_past_candidates())
    assert _completions_past_candidates(cs, cs.unpinned) >= 1


def test_guesses_and_groundings_spend_the_budget(monkeypatch):
    # with searches that cost nothing, the groundings alone must still
    # spend the budget: the 58 shape-consistent completions of one
    # 8-element trace cost at least 58 * 8 steps
    monkeypatch.setattr(oracle, "oracle_check", lambda gi, budget=None: Unrealizable())
    cs = propagate(support.long_trace(8, ["x4"]))
    assert len(cs.unpinned) == 7
    guessing = StepBudget(10**9)
    forcing = forced_shapes(cs, guessing)
    assert forcing.known == oracle._pinned(cs)  # no suffix is forced
    shapes, _ = candidate_shapes(cs, forcing.known)
    assert len(list(completions(forcing, cs.unpinned, shapes, guessing))) == 58
    budget = StepBudget(10**9)
    assert oracle_decide(cs, budget) == UnknownVerdict("completions-refuted")
    assert guessing.left - budget.left >= 58 * len(cs.constraints)
    # guessing alone spends steps too
    with pytest.raises(BoundExceeded):
        list(completions(forcing, cs.unpinned, shapes, StepBudget(100)))


def test_shape_forced_past_the_candidates_is_realizable():
    # guessing [[*],[*,*]] length 3 forces [[*,*],[*],[*,*]] to length 5,
    # past every candidate; the forced shape is kept, not dropped
    cs = propagate(support.forced_past_candidates())
    verdict = oracle_verdict(cs, StepBudget(10**6))
    assert isinstance(verdict, Realizable)
    assert validate_summary(cs, verdict.witness)


# The suffix keying of the parent change, kept here to compare with: a
# trace was keyed by (extra shape, base shape, element shapes).


def _keyed_with_bases(q):
    sig = q.signature
    return [
        (
            shape_of(sig.extra, ex.extra),
            shape_of(sig.result, ex.base),
            tuple(shape_of(sig.element, v) for v in ex.inputs),
        )
        for ex in q.examples
        if ex.inputs
    ]


def _unpinned_with_bases(keys):
    present = set(keys)
    missing = {}
    for h, base, seq in keys:
        for k in range(1, len(seq)):
            if (h, base, seq[len(seq) - k :]) not in present:
                missing[(h, base, seq[len(seq) - k :])] = None
    return list(missing)


def _pinned_with_bases(cs, keys):
    full = {}
    if cs.unknown_count == 0:
        return full
    for key, trace in zip(keys, cs.traces):
        out = support.known_shape(trace.steps[-1].output)
        if full.setdefault(key, out) != out:
            raise ShapeConflict("two examples with equal input shapes")
    return full


def _intermediate_shapes_with_bases(cs, keys, shapes):
    resolved = {}
    for (h, base, seq), trace in zip(keys, cs.traces):
        for k in range(1, len(seq)):
            resolved[trace.steps[k - 1].output.uid] = shapes[(h, base, seq[-k:])]
    return resolved


def _decoded(cs, keys):
    """Slot vectors of the result of `cs`, by any key, decoded to shapes."""
    schema = flatten_shape(cs.output_functor)
    return {k: support.schema_shape(schema, v) for k, v in keys.items()}


def _or_conflict(f, *args):
    try:
        return f(*args)
    except ShapeConflict:
        return ShapeConflict


def _dropped_towers(rng):
    """A drawn fold with examples dropped and, half the time, its examples
    again under another extra value and a drawn base, which may be no image
    of that extra: under an extra of the first one's shape, which a list
    of atoms keeps, a base of another shape is a base clash."""
    p = support.random_foldr_problem(rng, realizable=rng.random() < 0.5)
    sig = p.signature
    examples = [(e.extra, e.inputs, e.output, e.base) for e in p.examples]
    kept = [ex for ex in examples if rng.random() < 0.6] or examples[-1:]
    if rng.random() < 0.5:
        first = examples[0][0]
        if isinstance(first, ListV) and first.items and rng.random() < 0.5:
            other = ListV(tuple(atom("w") for _ in first.items))  # of the first one's shape
        else:
            other = support.random_value(rng, sig.extra, list_cap=2)
        base = support.random_value(rng, sig.result, list_cap=2)
        tower = [(other, ins, out if ins else base, base) for _, ins, out, _ in examples]
        try:
            return build_problem(p.name, sig, p.sketch, kept + [ex for ex in tower if rng.random() < 0.6])
        except ProblemError:  # the other extra is the first one, with another base
            pass
    return build_problem(p.name, sig, p.sketch, kept)


def test_keys_without_bases_pin_what_keys_with_bases_did():
    # wherever the base case holds, a base's shape is a function of its
    # extra's shape, so dropping it from the key pins the same suffixes;
    # where it fails, the set stays Unrealizable
    rng = random.Random(15)
    held = incomplete = two_extras = refuted = clashes = 0
    for _ in range(300):
        q = _dropped_towers(rng)
        try:
            cs = propagate(q)
        except PropagationUnrealizable:
            continue
        old = _keyed_with_bases(q)
        if isinstance(oracle_decide(cs.base_case), Unrealizable):
            try:
                steps = oracle_verdict(cs, StepBudget(ORACLE_MAX_STEPS))
            except BoundExceeded:
                steps = None
            refuted += 1
            if cs.unknown_count and len({(h, b) for h, b, _ in old}) > len({h for h, _, _ in old}):
                assert isinstance(steps, Unrealizable)
                clashes += 1
            continue
        missing = _unpinned_with_bases(old)
        assert [support.suffix_key(cs, s) for s in cs.unpinned] == [(h, seq) for h, _, seq in missing]
        pinned = _or_conflict(_pinned_with_bases, cs, old)
        if pinned and pinned is not ShapeConflict:
            pinned = {(h, seq): shape for (h, _, seq), shape in pinned.items()}
            pinned.update({(h, ()): base for h, base, _ in old})
        by_key = _or_conflict(oracle._pinned, cs)
        if by_key and by_key is not ShapeConflict:
            by_key = {support.suffix_key(cs, s): shape for s, shape in _decoded(cs, by_key).items()}
        assert by_key == pinned
        if not missing:
            assert _or_conflict(
                lambda: _decoded(cs, intermediate_keys(cs, oracle._pinned(cs)))
            ) == _or_conflict(
                lambda: _intermediate_shapes_with_bases(cs, old, _pinned_with_bases(cs, old))
            )
        held += 1
        incomplete += bool(missing)
        two_extras += len({x.extra for x in q.extensions}) > 1
    assert held >= 200 and incomplete >= 60 and two_extras >= 20
    assert refuted >= 30 and clashes >= 5


def _plain_backtracking(gi):
    """The search as it was before scans: every position variable in
    (input shape, output position) order, every input position of each in
    turn, backtracking over all of them; no bound. Its classes are its
    own (`_naive_unify`), copied for undo. It groups the constraints of
    `gi.cs` by input shape itself, each key and its terms joined from the
    parts: a known one's own, an intermediate's grounded ones."""
    cs = gi.cs

    def joined(parts):
        key, terms = (), ()
        for x in parts:
            if isinstance(x, Known):
                key, terms = key + x.key, terms + x.codes
            else:
                key, terms = key + gi.inter_keys[x.uid], terms + gi.inter_terms[x.uid]
        return key, terms

    by_key, shape_table = {}, {}
    for c in cs.constraints:
        key, in_terms = joined(c.inputs)
        out, out_terms = joined([c.output])
        by_key.setdefault(key, []).append((in_terms, out_terms))
        shape_table.setdefault(key, out)
    variables = [
        (key, q) for key in sorted(by_key) for q in range(len(by_key[key][0][1]))
    ]
    labels = {}
    assignment = {}

    def assign(idx):
        if idx == len(variables):
            return True
        key, q = variables[idx]
        group = by_key[key]
        for p in range(len(group[0][0])):
            saved = dict(labels)
            if all(_naive_unify(labels, ins[p], outs[q]) for ins, outs in group):
                assignment[(key, q)] = p
                if assign(idx + 1):
                    return True
                del assignment[(key, q)]
            labels.clear()
            labels.update(saved)
        return False

    if not assign(0):
        return Unrealizable()
    out_schema = flatten_shape(cs.output_functor)
    fresh, intermediates, term = {}, {}, -1
    for uid in sorted(gi.inter_keys):
        shape = support.schema_shape(out_schema, gi.inter_keys[uid])
        codes = []
        for _ in range(size_of(cs.output_functor, shape)):
            label = labels.get(term, term)
            if label < 0:
                label = fresh.setdefault(label, cs.atoms.size + len(fresh))
            codes.append(label)
            term -= 1
        intermediates[uid] = Known(cs.output_functor, gi.inter_keys[uid], tuple(codes))
    return Realizable(WitnessSummary(shape_table, dict(assignment), intermediates))


def _assert_same_search(cs):
    """oracle_check gives the verdict and the witness of the plain search;
    returns whether the set got as far as a search."""
    try:
        gi = _ground(cs)
    except ShapeConflict:
        return False
    verdict, plain = oracle_check(gi), _plain_backtracking(gi)
    assert type(verdict) is type(plain)
    if isinstance(plain, Realizable):
        assert verdict.witness == plain.witness
        assert list(verdict.witness.position_table) == list(plain.witness.position_table)
        assert validate_summary(cs, verdict.witness)
    return True


_SMALL_FUNCTORS = [ID, ProdOf(ID, ID), ListOf(ID), MaybeOf(ID), ProdOf(ListOf(ID), ID)]


def _small_values(f):
    # few labels and short lists: realizable and refuted sets both come
    # up, and the plain search stays small
    if f == ID:
        return st.sampled_from("abc").map(atom)
    if isinstance(f, ListOf):
        return st.lists(_small_values(f.inner), max_size=4).map(lambda xs: ListV(tuple(xs)))
    if isinstance(f, ProdOf):
        return st.tuples(_small_values(f.left), _small_values(f.right)).map(
            lambda t: PairV(*t)
        )
    return st.one_of(st.just(NothingV()), _small_values(f.inner).map(JustV))


@st.composite
def _raw_and_map_problems(draw):
    sketch = draw(st.sampled_from([SketchKind.RAW, SketchKind.MAP]))
    element, result = draw(st.sampled_from(_SMALL_FUNCTORS)), draw(st.sampled_from(_SMALL_FUNCTORS))
    examples = []
    for _ in range(draw(st.integers(1, 4))):
        n = 1 if sketch is SketchKind.RAW else draw(st.integers(0, 3))
        inputs = [draw(_small_values(element)) for _ in range(n)]
        outputs = [draw(_small_values(result)) for _ in range(n)]
        output = outputs[0] if sketch is SketchKind.RAW else ListV(tuple(outputs))
        examples.append((UnitV(), inputs, output))
    return build_problem("drawn", Signature(UNIT, element, result), sketch, examples)


@settings(max_examples=300, deadline=None)
@given(_raw_and_map_problems())
def test_scans_agree_with_plain_search_on_drawn_sets(p):
    _assert_same_search(propagate(p))


def test_scans_agree_with_plain_search_on_sampled_folds():
    # the steps and the base case of each fold; a third drawn unrealizable
    rng = random.Random(12)
    searched = 0
    for i in range(300):
        p = support.random_foldr_problem(rng, realizable=i % 3 != 0)
        # a set with an atom from nowhere is refuted before the search; it
        # is searched with that rule off
        if support.atoms_from_nowhere(p):
            support.assert_refuted_from_nowhere(p)
        with support.nowhere_rule_off():
            cs = propagate(p)
        searched += _assert_same_search(cs) + _assert_same_search(cs.base_case)
    assert searched >= 400


# The position listing and search of the parent change, kept here to
# compare with: a scan walked the first constraint's inputs with
# `tuple.index`, and a candidate list tested every input position of every
# constraint.


def _first_source_before(group, q):
    first_ins, first_outs = group[0]
    target = first_outs[q]
    p = -1
    while True:
        try:
            p = first_ins.index(target, p + 1)
        except ValueError:
            return None
        if all(ins[p] == outs[q] for ins, outs in group):
            return p


def _positions_before(by_key):
    settled, open_vars = {}, []
    for key in sorted(by_key):
        group = by_key[key]
        concrete = all(t >= 0 for ins, _ in group for t in ins)
        for q in range(len(group[0][1])):
            if concrete and all(outs[q] >= 0 for _, outs in group):
                p = _first_source_before(group, q)
                if p is None:
                    return settled, [], (key, q)
                settled[(key, q)] = p
            else:
                open_vars.append((key, q))
    variables = []
    for key, q in open_vars:
        group = by_key[key]
        candidates = [
            p
            for p in range(len(group[0][0]))
            if all(outs[q] < 0 or ins[p] < 0 or ins[p] == outs[q] for ins, outs in group)
        ]
        if not candidates:
            return settled, variables, (key, q)
        variables.append(((key, q), candidates))
    return settled, variables, None


def _steps_before(by_key, variables, budget):
    """The search of the parent change over `variables`, spending `budget`:
    whether it assigns them all."""
    uf = oracle._Unifier(budget)
    frames, idx = [], 0
    while idx < len(variables):
        (key, q), candidates = variables[idx]
        if idx == len(frames):
            frames.append((iter(candidates), uf.mark()))
        left, mark = frames[idx]
        group = by_key[key]
        for p in left:
            if all(uf.unify(ins[p], outs[q]) for ins, outs in group):
                idx += 1
                break
            uf.rollback(mark)
        else:
            frames.pop()
            if not frames:
                return False
            idx -= 1
            uf.rollback(frames[idx][1])
    return True


def _sampled_ground_instances(rng):
    """Ground instances of drawn folds, with examples dropped from some and
    searched with the element-from-nowhere rule off: the steps of each
    shape-complete set, the guess-free part and a few completions of each
    shape-incomplete one, and every base case; and drawn raw sets. An
    instance whose grounding is a shape conflict is left out."""

    def grounded(cs, shapes=None):
        try:
            return [_ground(cs) if shapes is None else ground(cs, shapes)]
        except ShapeConflict:
            return []

    for i in range(400):
        p = support.random_foldr_problem(rng, realizable=i % 3 != 0)
        if i % 2:
            p = support.dropped_examples(rng, p)
        with support.nowhere_rule_off():
            try:
                cs = propagate(p)
            except PropagationUnrealizable:
                continue
        yield from grounded(cs.base_case)
        if not cs.unpinned:
            yield from grounded(cs)
            continue
        budget = StepBudget(float("inf"))
        try:
            forcing = forced_shapes(cs, budget)
        except ShapeConflict:
            continue
        yield from grounded(cs, forcing.known)
        missing = [s for s in cs.unpinned if s not in forcing.known]
        shapes, _ = candidate_shapes(cs, forcing.known)
        for completion in itertools.islice(completions(forcing, missing, shapes, budget), 3):
            yield from grounded(cs, completion)
    for _ in range(60):
        yield from grounded(propagate(support.random_raw_problem(rng)))
    for p in (support.wide_reverse(12), support.big_concat(), support.refuted_wide_concat()):
        yield from grounded(propagate(p))


def test_position_index_lists_what_the_comprehension_listed():
    # the scans and candidate lists read an index of each constraint's
    # inputs by atom; they settle, list and refute exactly what the full
    # pass over every input position did, and the search spends the same
    # steps on them
    listed = searched = refuted = 0
    for gi in _sampled_ground_instances(random.Random(23)):
        by_key = gi.rows
        settled, variables, nowhere = oracle._positions(by_key)
        before = _positions_before(by_key)
        assert (settled, [(v, list(c)) for v, c in variables], nowhere) == before
        budget = StepBudget(10**9)
        verdict = oracle_check(gi, budget)
        if nowhere is not None:
            assert verdict == Unrealizable() and budget.left == 10**9
            refuted += 1
            continue
        old = StepBudget(10**9)
        assigned = _steps_before(by_key, before[1], old)
        assert isinstance(verdict, Realizable) == assigned
        assert budget.left == old.left
        listed += 1
        searched += budget.left < 10**9
    assert listed >= 800 and searched >= 180 and refuted >= 50


# Hand-built groups at the edges of the column scan, which transposes each
# input shape's terms: zero-width inputs and outputs, symbolic terms, and a
# group of one constraint beside a larger one. Each constraint is its
# (input terms, output terms).
_EDGE_GROUPS = {
    "no input positions": {(0,): [((), (3,)), ((), (4,))]},
    "no input positions, no output": {(0,): [((), ()), ((), ())]},
    "no output positions": {(2,): [((1, 2), ()), ((5, 5), ())]},
    "symbolic input": {(2,): [((1, -1), (1, 2)), ((3, 4), (4, 3))]},
    "symbolic output": {(2,): [((1, 2), (-1, 2)), ((3, 4), (3, 4))]},
    "symbolic output ruled out": {(2,): [((1, 2), (-1, 1)), ((3, 4), (3, 5))]},
    "two groups, one of one": {
        (1,): [((7,), (7, 7))],
        (3,): [((1, 2, 1), (2, 1)), ((2, 3, 2), (3, 2)), ((4, 4, 5), (4, 5))],
    },
    "two groups, the larger refuted": {
        (1,): [((7,), (7,))],
        (2,): [((1, 2), (2,)), ((3, 4), (3,))],
    },
}


@pytest.mark.parametrize("name", _EDGE_GROUPS)
def test_the_column_scan_lists_what_the_comprehension_listed_at_the_edges(name):
    by_key = _EDGE_GROUPS[name]
    settled, variables, nowhere = oracle._positions(by_key)
    assert (settled, [(v, list(c)) for v, c in variables], nowhere) == _positions_before(by_key)


def test_every_guessed_completion_grounds_without_a_clash():
    # `_force` makes the shape table a function on every tie of known
    # suffixes, and a step's grounding key is its suffix's key then its
    # tail's shape, the table's argument: a completion never clashes
    sets = [
        cs
        for seed, draws in ((3, 400), (9, 400), (21, 400))
        for cs in support.drawn_incomplete_sets(seed, draws)
    ]
    sets += [propagate(support.forced_past_candidates()), propagate(support.long_trace(8, ["x4"]))]
    assert sum(map(support.ground_every_completion, sets)) > 5_000


def test_a_trace_past_the_budget_is_realizable_without_one():
    # `check` spends its budget on the 58 completions of this trace and
    # goes to SMT; the oracle alone runs the same steps to a witness
    cs = propagate(support.long_trace(8, ["x4"]))
    with pytest.raises(BoundExceeded):
        oracle_verdict(cs, StepBudget(ORACLE_MAX_STEPS))
    verdict = oracle_verdict(cs)
    assert isinstance(verdict, Realizable)
    assert validate_summary(cs, verdict.witness)


def test_the_oracle_without_a_budget_agrees_with_check_on_drawn_incomplete_sets():
    # wherever `check`'s budgeted oracle decides a drawn shape-incomplete
    # set, the unbudgeted one, which runs the same steps, gives its variant
    decided = 0
    for cs in support.drawn_incomplete_sets(9, 400) + support.drawn_incomplete_sets(21, 400):
        try:
            budgeted = oracle_verdict(cs, StepBudget(ORACLE_MAX_STEPS))
        except BoundExceeded:
            continue
        unbudgeted = oracle_verdict(cs)
        if budgeted is None:
            assert unbudgeted is None
        else:
            assert verdict_name(unbudgeted) == verdict_name(budgeted)
            decided += 1
    assert decided >= 80


def test_a_dropped_guess_formats_no_conflict(no_spawn, monkeypatch):
    # unzip/si's guesses clash, `_force` returns each clash and `_guesses`
    # drops it unread, so no conflict text is built on the way to the
    # witness
    shown = []
    dropped = []

    def counted(name, f):
        def wrapper(*args):
            shown.append(name)
            return f(*args)
        return wrapper

    def force(*args):
        clash = real_force(*args)
        if clash is not None:
            dropped.append(clash)
        return clash

    real_force = oracle._force
    monkeypatch.setattr(oracle, "_show", counted("_show", oracle._show))
    monkeypatch.setattr(oracle, "show_suffix", counted("show_suffix", oracle.show_suffix))
    monkeypatch.setattr(oracle, "_force", force)
    (unzip,) = [e for e in corpus() if e.name == "unzip"]
    report = check(unzip.problem_si, no_spawn)
    assert isinstance(report.verdict, Realizable) and report.path == "oracle+completion"
    assert dropped and shown == []


def _hand_forcing(shape_of_y):
    """A Forcing over a fold with an Id extra: roots 0 and 1, the empty
    suffixes under the extras a and b, and suffixes 2 = [x] under a and
    3 = [y] under b, on those tails. Every suffix is pinned: the roots to
    [], [x] to [*] and [y] to `shape_of_y`, so the one argument of both
    steps, (*, *, []), maps to [*] and to `shape_of_y`."""
    a, b, x, y = (Known(ID, (), (code,)) for code in range(4))
    suffixes = (
        Suffix(a, None, -1, 0, ()),
        Suffix(b, None, -1, 0, ()),
        Suffix(a, x, 0, 1, ()),
        Suffix(b, y, 1, 1, ()),
    )
    cs = ConstraintSet((ID, ID, ListOf(ID)), ListOf(ID), (), 2, AtomTable(tuple("abxy")), suffixes=suffixes)
    known = {0: (0,), 1: (0,), 2: (1,), 3: shape_of_y}
    return oracle.Forcing(cs, known, {}, {0: [2], 1: [3]}, {})


def test_force_returns_a_clash_among_pinned_ties():
    # the tail of [y] has the shape [], so [y]'s argument is the one [x]
    # gave the table: the clash is (tail, its shape, the table's shape,
    # [y]'s shape), and each of the two ties looked at spends one step
    budget = StepBudget(10)
    assert oracle._force(_hand_forcing((2,)), [0, 1, 2, 3], budget) == (1, (0,), (1,), (2,))
    assert budget.left == 8


def test_force_returns_none_without_a_clash():
    budget = StepBudget(10)
    state = _hand_forcing((1,))
    assert oracle._force(state, [0, 1, 2, 3], budget) is None
    assert state.table == {(0,): (1,)} and budget.left == 8
