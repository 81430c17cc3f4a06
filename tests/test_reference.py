"""Reference deciders that share no code with propagation, grounding or the
oracle's search, and their agreement with `check`: for raw and map sets
over nested containers, and for folds of `Unit -> Id -> List(Id)` by
concrete execution (below). Last, the int slots of guessed fold
intermediates are checked against a wide search of int values.

A raw or map set is realizable exactly when one container morphism maps
each example input to its output: a shape function, and for each output
position the input position it copies. The reference reads that off the
example values with `to_extension` and plain loops; it shares no code with
propagation, grounding or the oracle's search. Its two rules:
- equal input shapes give equal output shapes;
- every output position of an input shape has one input position that
  holds its atom in every example with that input shape.
"""

import itertools
import random
from collections import Counter

from parachk import (
    Atom,
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
    SolverError,
    UNIT,
    UnitV,
    atom,
    build_problem,
    check,
    from_extension,
    propagate,
    shape_complete,
    to_extension,
    validate_summary,
)
from parachk import oracle
from parachk.functors import Extension, schema_of
from parachk.propagate import PropagationUnrealizable
from parachk.verdict import UnknownVerdict, verdict_name

import support


def reference_verdict(p) -> str:
    """"Realizable" or "Unrealizable" for a raw or map set `p`."""
    sig = p.signature
    pairs = []
    for ex in p.examples:
        outputs = ex.output.items if p.sketch is SketchKind.MAP else (ex.output,)
        if len(ex.inputs) != len(outputs):
            return "Unrealizable"
        pairs += zip(ex.inputs, outputs)
    groups = {}
    for x, y in pairs:
        xe, ye = to_extension(sig.element, x), to_extension(sig.result, y)
        groups.setdefault(xe.shape, []).append((xe.elements, ye))
    for group in groups.values():
        first = group[0][1]
        for _, ye in group:
            if ye.shape != first.shape:
                return "Unrealizable"
        for q in range(len(first.elements)):
            if not any(
                all(ins[i] == ye.elements[q] for ins, ye in group)
                for i in range(len(group[0][0]))
            ):
                return "Unrealizable"
    return "Realizable"


# element and result functors, four of them without fixed-arity shapes
POOL = [
    ListOf(ListOf(ID)),
    ListOf(MaybeOf(ID)),
    MaybeOf(ListOf(ProdOf(ID, INT))),
    ProdOf(ID, ListOf(ListOf(ID))),
    ListOf(ID),
]


def _image(rng, morphism, element, result, x):
    """The output of input `x` under `morphism`, a container morphism
    sampled lazily: a drawn result shape per new input shape and a drawn
    input position per output position, or an atom from nowhere where the
    input has no positions."""
    xe = to_extension(element, x)
    if xe.shape not in morphism:
        ye = to_extension(result, support.random_value(rng, result, list_cap=2))
        morphism[xe.shape] = ye.shape, [
            rng.randrange(len(xe.elements)) if xe.elements else None for _ in ye.elements
        ]
    shape, sources = morphism[xe.shape]
    elements = tuple(Atom(-1, "z") if p is None else xe.elements[p] for p in sources)
    return from_extension(Extension(result, shape, elements))


def drawn_set(rng):
    """A raw or map set over functors of POOL: outputs under one sampled
    morphism, and in about a third of the sets one output drawn at random."""
    sketch = rng.choice([SketchKind.RAW, SketchKind.MAP])
    element, result = rng.choice(POOL), rng.choice(POOL)
    morphism = {}
    examples = []
    for _ in range(rng.randint(1, 4)):
        n = 1 if sketch is SketchKind.RAW else rng.randint(0, 3)
        xs = [support.random_value(rng, element, list_cap=2) for _ in range(n)]
        ys = [_image(rng, morphism, element, result, x) for x in xs]
        examples.append([UnitV(), xs, ys])
    outputs = [ex[2] for ex in examples if ex[2]]
    if outputs and rng.random() < 0.35:
        ys = rng.choice(outputs)
        ys[rng.randrange(len(ys))] = support.random_value(rng, result, list_cap=2)
    for ex in examples:
        ex[2] = ex[2][0] if sketch is SketchKind.RAW else ListV(tuple(ex[2]))
    return build_problem("drawn", Signature(UNIT, element, result), sketch, examples)


def test_check_agrees_with_the_reference_on_nested_raw_and_map_sets(no_spawn):
    rng = random.Random(22)
    tally = {"Realizable": 0, "Unrealizable": 0}
    for _ in range(300):
        p = drawn_set(rng)
        expected = reference_verdict(p)
        verdict = check(p, no_spawn).verdict
        assert verdict_name(verdict) == expected, (p.signature, p.examples)
        if isinstance(verdict, Realizable):
            assert validate_summary(propagate(p), verdict.witness)
        tally[expected] += 1
    assert min(tally.values()) >= 60, tally


# ---------------------------------------------------------------------------
# Folds by concrete execution, for Unit -> Id -> List(Id)
#
# The step of such a fold is a container morphism from (x, acc) to a list:
# at each accumulator length n it has an output length, and for each output
# position a source, x (0) or acc[i - 1] (i). The reference runs each
# example's fold from its base on the concrete atoms, and where it reaches
# an accumulator length its table has no entry for, branches over every
# entry with an output length up to N; the table is shared by all examples.
# A base must be [], since Unit has no position to fill one from.

FOLD_SIG = Signature(UNIT, ID, ListOf(ID))

# the output length up to which an Unrealizable shape-incomplete set must
# have no realization: two past the longest output `drawn_fold` gives
N_INCOMPLETE = 5


def fold_reference(examples, n_max: int) -> bool:
    """Whether one step table with output lengths up to `n_max` folds each
    of `examples`, (inputs, output, base) lists of atom labels, from its
    base to its output. The shortest examples run first, so a wrong table
    fails early."""
    if any(base for _, _, base in examples):
        return False
    examples = sorted(examples, key=lambda ex: len(ex[0]))

    def entries(n, x, acc, output):
        # an output length, and a source for each output position; at an
        # example's last step, only those that give its output
        if output is None:
            for m in range(n_max + 1):
                yield from itertools.product(range(n + 1), repeat=m)
        elif len(output) <= n_max:
            held = [x, *acc]
            yield from itertools.product(*([s for s in range(n + 1) if held[s] == y] for y in output))

    def search(table) -> bool:
        for inputs, output, _ in examples:
            acc = []
            for k in reversed(range(len(inputs))):
                n, x = len(acc), inputs[k]
                if n not in table:
                    last = output if k == 0 else None
                    return any(search({**table, n: entry}) for entry in entries(n, x, acc, last))
                acc = [x if s == 0 else acc[s - 1] for s in table[n]]
            if acc != output:
                return False
        return True

    return search({})


def drawn_fold(rng):
    """A small set of FOLD_SIG, as (inputs, output, base) label lists: up to
    four examples of up to three inputs, folded by one step table sampled
    lazily with output lengths up to 3. About a third have one output
    redrawn, and one in ten a base that is not []."""
    labels = "abcd"
    base = [] if rng.random() < 0.9 else [rng.choice(labels)]
    table = {}
    examples = []
    for _ in range(rng.randint(1, 4)):
        inputs = [rng.choice(labels) for _ in range(rng.randint(0, 3))]
        acc = base
        for x in reversed(inputs):
            n = len(acc)
            if n not in table:
                table[n] = [rng.randrange(n + 1) for _ in range(rng.randint(0, 3))]
            acc = [x if s == 0 else acc[s - 1] for s in table[n]]
        examples.append((inputs, acc, base))
    if rng.random() < 0.35:
        i = rng.randrange(len(examples))
        output = [rng.choice(labels) for _ in range(rng.randint(0, 3))]
        examples[i] = (examples[i][0], output, base)
    return examples


def _fold_problem(examples):
    def atoms(labels):
        return ListV(tuple(map(atom, labels)))

    rows = [(UnitV(), list(map(atom, inputs)), atoms(out), atoms(base)) for inputs, out, base in examples]
    return build_problem("drawn-fold", FOLD_SIG, SketchKind.FOLDR, rows)


def test_check_agrees_with_the_fold_reference(no_spawn):
    # a claim of the reference is bounded by N: on a shape-complete set
    # every table entry is some output's length, so N is the longest
    # output; on an incomplete one a witness bounds the realization it
    # gives, and Unrealizable must leave none up to N
    rng = random.Random(6)
    tally = Counter()
    for _ in range(600):
        examples = drawn_fold(rng)
        p = _fold_problem(examples)
        try:
            verdict = check(p, no_spawn).verdict
        except SolverError:
            tally["smt"] += 1
            continue
        if isinstance(verdict, UnknownVerdict):
            tally["unknown"] += 1
            continue
        longest = max(len(out) for _, out, _ in examples)
        complete = shape_complete(p).complete
        if complete:
            assert fold_reference(examples, longest) == isinstance(verdict, Realizable), examples
        elif isinstance(verdict, Realizable):
            widths = [len(k.codes) for k in verdict.witness.intermediates.values()]
            assert fold_reference(examples, max([longest, *widths])), examples
        else:
            assert not fold_reference(examples, N_INCOMPLETE), examples
        tally["complete" if complete else "incomplete", verdict_name(verdict)] += 1
    decided = sum(n for k, n in tally.items() if k not in ("smt", "unknown"))
    assert decided >= 500, tally
    assert min(n for k, n in tally.items() if k not in ("smt", "unknown")) >= 20, tally


# ---------------------------------------------------------------------------
# Int slots of guessed intermediates, against a wide search
#
# An int slot carries no positions, so a guessed int matters only through
# which other shapes hold it (`oracle.candidate_shapes`). The same decision
# with every int from -2 to past one fresh value per unpinned suffix as a
# candidate must give the same verdicts, and no Unknown: these results
# have no list slot.

INT_RESULTS = [
    INT,
    ProdOf(INT, ID),
    ProdOf(ID, INT),
    MaybeOf(INT),
    ProdOf(INT, MaybeOf(ID)),
    MaybeOf(ProdOf(INT, ID)),
    ProdOf(INT, INT),
]


def _int_value(rng, f, labels):
    """A value of `f`, a functor of INT_RESULTS or a part of one, with ints
    0 to 3 and atoms labelled from `labels`."""
    if f == ID:
        return atom(rng.choice(labels))
    if f == INT:
        return IntV(rng.randint(0, 3))
    if isinstance(f, ProdOf):
        return PairV(_int_value(rng, f.left, labels), _int_value(rng, f.right, labels))
    return JustV(_int_value(rng, f.inner, labels)) if rng.random() < 0.6 else NothingV()


def drawn_int_fold(rng):
    """A fold `Id -> Id -> r` for an r of INT_RESULTS: one extra atom and
    one base, and 2 to 6 examples of 0 to 4 inputs whose outputs hold only
    atoms of the extra and the inputs."""
    sig = Signature(ID, ID, rng.choice(INT_RESULTS))
    h = rng.choice("abcd")
    base = _int_value(rng, sig.result, [h])
    rows = []
    for _ in range(rng.randint(2, 6)):
        inputs = [rng.choice("abcd") for _ in range(rng.randint(0, 4))]
        output = _int_value(rng, sig.result, [h, *inputs])
        rows.append((atom(h), list(map(atom, inputs)), output, base))
    return build_problem("drawn-int-fold", sig, SketchKind.FOLDR, rows)


def _every_small_int(cs, known):
    """`oracle.candidate_shapes` for a result with no list slot, with every
    int in range(-2, 6 + len(cs.unpinned)) as a candidate."""
    schema = schema_of(cs.output_functor)
    ranges = [(0, 1) if slot.kind == "bool" else range(-2, 6 + len(cs.unpinned)) for slot in schema.slots]
    return [v for v in itertools.product(*ranges) if schema.refines(v)], True


def test_int_candidates_agree_with_a_wide_search(no_spawn, monkeypatch):
    rng = random.Random(3)
    problems = []
    for _ in range(1500):
        p = drawn_int_fold(rng)
        try:
            if propagate(p).unpinned:
                problems.append(p)
        except PropagationUnrealizable:
            pass
    verdicts = [check(p, no_spawn, backend="oracle").verdict for p in problems]
    assert not [v for v in verdicts if isinstance(v, UnknownVerdict)]
    monkeypatch.setattr(oracle, "candidate_shapes", _every_small_int)
    for p, verdict in zip(problems, verdicts):
        wide = check(p, no_spawn, backend="oracle").verdict
        assert verdict_name(verdict) == verdict_name(wide), (p.signature, p.examples)
    tally = Counter(map(verdict_name, verdicts))
    assert min(tally["Realizable"], tally["Unrealizable"]) >= 150, tally
