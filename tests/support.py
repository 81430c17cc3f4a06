"""Shared test helpers: random shape-complete fold problems with known
construction, plus small transforms used by the invariance suites.

Realizable instances are built by sampling an actual container morphism
lazily (one output shape per fresh input shape, one source per output
position) and running it along each trace, so the sampled morphism is a
witness by construction. Unrealizable instances are made from realizable
ones by local output mutations; mutations may happen to stay realizable,
which is fine for agreement testing.
"""

from __future__ import annotations

import contextlib
import importlib
import random

from parachk import (
    Atom,
    AtomV,
    size_of,
    BoolV,
    ID,
    INT,
    IntS,
    IntV,
    JustV,
    ListOf,
    ListS,
    ListV,
    IdS,
    MaybeOf,
    MaybeS,
    NothingV,
    PairV,
    ProdOf,
    ProdS,
    Problem,
    PropagationUnrealizable,
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    Unrealizable,
    Value,
    atom,
    build_problem,
    flatten_shape,
    from_extension,
    oracle_decide,
    propagate,
    shape_complete,
    shape_of,
    to_extension,
    relabel_problem,
)
from parachk.functors import Extension, ShapeValue

ATOM_POOL = ["a", "b", "c", "d", "e", "f"]

H_POOL = [UNIT, INT, ListOf(ID)]
F_POOL = [ID, ProdOf(ID, ID), ListOf(ID)]
G_POOL = [ListOf(ID), MaybeOf(ID), INT, ProdOf(ListOf(ID), ListOf(ID))]


def _random_atom(rng) -> Value:
    return atom(rng.choice(ATOM_POOL))


def random_value(rng, f, list_cap=3) -> Value:
    if f == ID:
        return _random_atom(rng)
    if f == UNIT:
        return UnitV()
    if f == INT:
        return IntV(rng.randint(-2, 5))
    if isinstance(f, ListOf):
        n = rng.randint(0, list_cap)
        return ListV(tuple(random_value(rng, f.inner, list_cap) for _ in range(n)))
    if isinstance(f, ProdOf):
        return PairV(random_value(rng, f.left, list_cap), random_value(rng, f.right, list_cap))
    if isinstance(f, MaybeOf):
        return JustV(random_value(rng, f.inner, list_cap)) if rng.random() < 0.6 else NothingV()
    if f.__class__.__name__ == "ConstBool":
        return BoolV(rng.random() < 0.5)
    raise AssertionError(f"no generator for {f}")


def _random_g_shape(rng, g, empty: bool) -> ShapeValue:
    """A small shape of g; with empty=True, one with zero positions."""
    if g == INT:
        return IntS(rng.randint(-2, 5))
    if isinstance(g, MaybeOf):
        return MaybeS(None) if (empty or rng.random() < 0.4) else MaybeS(IdS())
    if isinstance(g, ListOf):
        n = 0 if empty else rng.randint(0, 3)
        return ListS(tuple([IdS()] * n)) if g.inner == ID else ListS(
            tuple([ProdS(IdS(), IdS())] * n)
        )
    if isinstance(g, ProdOf):
        return ProdS(_random_g_shape(rng, g.left, empty), _random_g_shape(rng, g.right, empty))
    raise AssertionError(f"no shape generator for {g}")


def random_foldr_problem(rng: random.Random, realizable: bool = True) -> Problem:
    """A shape-complete fold problem with input lengths 0..L (L <= 4).

    One extra value is shared by every example, so the base is shared too
    and suffix closure holds by construction (examples form a tower: the
    length-n example uses the last n shapes of one maximal shape sequence).
    The base is the image of the extra value under a sampled container
    morphism, as every output is under the sampled step morphism.
    """
    sig = Signature(rng.choice(H_POOL), rng.choice(F_POOL), rng.choice(G_POOL))
    extra = random_value(rng, sig.extra, list_cap=2)
    h_ext = to_extension(sig.extra, extra)
    # the base is e(extra) for a sampled container morphism e: a shape of
    # the result, each position filled from a position of the extra value
    base_shape = _random_g_shape(rng, sig.result, empty=not h_ext.elements)
    base = from_extension(
        Extension(
            sig.result,
            base_shape,
            tuple(rng.choice(h_ext.elements) for _ in range(size_of(sig.result, base_shape))),
        )
    )
    max_len = rng.randint(1, 4)
    tower = [random_value(rng, sig.element, list_cap=2) for _ in range(max_len)]
    tower_shapes = [shape_of(sig.element, v) for v in tower]

    shape_morphism: dict = {}
    pos_morphism: dict = {}
    out_schema = flatten_shape(sig.result)

    def apply_morphism(x_ext: Extension, acc_ext: Extension) -> Extension:
        key = (
            tuple(flatten_shape(sig.extra).encode_shape(h_ext.shape)),
            tuple(flatten_shape(sig.element).encode_shape(x_ext.shape)),
            tuple(out_schema.encode_shape(acc_ext.shape)),
        )
        in_elems = [*h_ext.elements, *x_ext.elements, *acc_ext.elements]
        if key not in shape_morphism:
            shape_morphism[key] = _random_g_shape(rng, sig.result, empty=not in_elems)
        shape = shape_morphism[key]
        elems = []
        for q in range(size_of(sig.result, shape)):
            if (key, q) not in pos_morphism:
                pos_morphism[(key, q)] = rng.randrange(len(in_elems))
            elems.append(in_elems[pos_morphism[(key, q)]])
        return Extension(sig.result, shape, tuple(elems))

    examples = []
    for n in range(max_len + 1):
        inputs = []
        for i in range(n):
            shape = tower_shapes[n - 1 - i]
            ext = to_extension(sig.element, tower[n - 1 - i])
            fresh = tuple(Atom(-1, rng.choice(ATOM_POOL)) for _ in ext.elements)
            inputs.append(from_extension(Extension(sig.element, shape, fresh)))
        acc = to_extension(sig.result, base)
        for step in range(n):
            x_ext = to_extension(sig.element, inputs[n - 1 - step])
            acc = apply_morphism(x_ext, acc)
        examples.append((extra, inputs, from_extension(acc), base))

    problem = build_problem(f"random-{rng.randrange(10**6)}", sig, SketchKind.FOLDR, examples)
    if realizable:
        return problem
    return mutate_problem(rng, problem)


def dropped_examples(rng: random.Random, p: Problem) -> Problem:
    """`p` with each example kept at random, so that suffixes go unpinned."""
    examples = [(e.extra, e.inputs, e.output, e.base) for e in p.examples]
    kept = [ex for ex in examples if rng.random() < 0.6] or examples[-1:]
    return build_problem(p.name, p.signature, p.sketch, kept)


def reverse_gap(element=ID) -> Problem:
    """reverse as a fold with its length-5 example left out: the fold of
    [b,c,d,e,f] must hold five atoms, one more than the longest candidate
    shape, so no completion is realizable, yet the set is. No rule that
    guesses nothing refutes it, so `check` sends it to SMT. An `element`
    of lists holds each atom x as a singleton, [x], [[x]] and so on."""

    def wrap(f, x):
        return x if f == ID else ListV((wrap(f.inner, x),))

    xs = [atom(x) for x in "abcdef"]
    examples = [
        (UnitV(), [wrap(element, x) for x in xs[-n:]], ListV(tuple(reversed(xs[-n:]))), ListV(()))
        for n in (1, 2, 3, 4, 6)
    ]
    return build_problem("reverse-gap", Signature(UNIT, element, ListOf(ID)), SketchKind.FOLDR, examples)


def forced_past_candidates() -> Problem:
    """concat as a fold with two suffixes unpinned, [[*],[*,*]] and
    [[*,*],[*],[*,*]]: guessing the first has length 3 forces the second to
    length 5, which ["ab","cde"] gives [[*,*],[*,*,*]], one more than the
    longest candidate shape. The set is realizable."""
    examples = [
        [[atom(c) for c in word] for word in words]
        for words in (["ab", "cde"], ["cde"], ["ij"], ["k", "fg", "h", "ij"])
    ]
    return build_problem(
        "forced-past-candidates",
        Signature(UNIT, ListOf(ID), ListOf(ID)),
        SketchKind.FOLDR,
        [
            (UnitV(), [ListV(tuple(xs)) for xs in lists], ListV(tuple(x for xs in lists for x in xs)), ListV(()))
            for lists in examples
        ],
    )


def wide_reverse(n: int) -> Problem:
    """reverse as a fold, with one example of each length 1..n, each of
    its own atoms: shape complete, with one searched input shape per
    accumulator length 0..n-1. Realizable."""
    examples = []
    for k in range(1, n + 1):
        xs = [atom(f"x{k}_{i}") for i in range(k)]
        examples.append((UnitV(), xs, ListV(tuple(reversed(xs))), ListV(())))
    return build_problem(f"wide-reverse-{n}", Signature(UNIT, ID, ListOf(ID)), SketchKind.FOLDR, examples)


def _concat_fold(name: str, rows: list[tuple[list[list[Atom]], list[Atom]]]) -> Problem:
    return build_problem(
        name,
        Signature(UNIT, ListOf(ID), ListOf(ID)),
        SketchKind.FOLDR,
        [(UnitV(), [ListV(tuple(xs)) for xs in lists], ListV(tuple(out)), ListV(())) for lists, out in rows],
    )


def _atoms(prefix: str) -> list[Atom]:
    return [atom(f"{prefix}{i}") for i in range(10)]


def big_concat() -> Problem:
    """foldr (++) [] with [xs, ys] -> xs ++ ys and [ys] -> ys, 10 atoms a
    list: the last step of the first example reads an intermediate, so its
    20 positions are searched. Realizable."""
    xs, ys = _atoms("x"), _atoms("y")
    return _concat_fold("big-concat", [([xs, ys], xs + ys), ([ys], ys)])


def refuted_wide_concat() -> Problem:
    """`big_concat` with a third example [us, vs] -> us ++ vs', where vs'
    is vs with its first two atoms swapped: the fold of [vs] must be vs,
    as the fold of [ys] is ys, so the search over the 20 positions of its
    step refutes the set."""
    xs, ys, us, vs = _atoms("x"), _atoms("y"), _atoms("u"), _atoms("v")
    swapped = [vs[1], vs[0], *vs[2:]]
    return _concat_fold(
        "refuted-wide-concat", [([ys], ys), ([xs, ys], xs + ys), ([us, vs], us + swapped)]
    )


def long_trace(n: int, output: list[str], base: list[str] = ()) -> Problem:
    """One `Unit -> Id -> List(Id)` fold example over the atoms x0..x{n-1},
    whose output and base hold the atoms labelled `output` and `base`. It
    pins none of its n - 1 proper suffixes."""
    xs = [atom(f"x{i}") for i in range(n)]
    return build_problem(
        f"long-trace-{n}",
        Signature(UNIT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [(UnitV(), xs, ListV(tuple(map(atom, output))), ListV(tuple(map(atom, base))))],
    )


NOWHERE = "occurs in neither its extra argument, its inputs nor its base"


def atom_labels(v: Value) -> list[str]:
    """The labels of the atoms of `v`, left to right."""
    if isinstance(v, AtomV):
        return [v.atom.label]
    if isinstance(v, ListV):
        return [label for x in v.items for label in atom_labels(x)]
    if isinstance(v, PairV):
        return atom_labels(v.first) + atom_labels(v.second)
    if isinstance(v, JustV):
        return atom_labels(v.value)
    return []


def atoms_from_nowhere(p: Problem) -> list[tuple[int, str]]:
    """(i, label) for each fold example i with inputs whose output holds
    an atom that neither its extra, its inputs nor its base holds, `label`
    the first such atom: read off the example values, not the
    extensions propagation reads."""
    if p.sketch is not SketchKind.FOLDR:
        return []
    found = []
    for i, ex in enumerate(p.examples):
        sources = {label for v in (ex.extra, ex.base, *ex.inputs) for label in atom_labels(v)}
        nowhere = [label for label in atom_labels(ex.output) if label not in sources]
        if ex.inputs and nowhere:
            found.append((i, nowhere[0]))
    return found


@contextlib.contextmanager
def nowhere_rule_off():
    """Propagation without its element-from-nowhere rule
    (`propagate.atom_from_nowhere`), so the search decides what it
    refutes."""
    module = importlib.import_module("parachk.propagate")
    rule = module.atom_from_nowhere
    module.atom_from_nowhere = lambda out, sources: None
    try:
        yield
    finally:
        module.atom_from_nowhere = rule


def assert_refuted_from_nowhere(p: Problem) -> None:
    """Propagation refutes `p` by its first example with an atom from
    nowhere (`atoms_from_nowhere`) and names that atom; with the rule off,
    an unbudgeted search refutes `p` too wherever it is shape complete."""
    (i, label), *_ = atoms_from_nowhere(p)
    try:
        propagate(p)
    except PropagationUnrealizable as e:
        assert e.reason == f"example {i}: output atom {label} {NOWHERE}", (p.name, e.reason)
    else:
        raise AssertionError(f"{p.name}: no refutation of the atom {label} of example {i}")
    if shape_complete(p).complete:
        with nowhere_rule_off():
            cs = propagate(p)
        assert isinstance(oracle_decide(cs), Unrealizable), p.name


def suffix_key(cs, s: int) -> tuple[ShapeValue, tuple[ShapeValue, ...]]:
    """Suffix `s` of `cs.suffixes` as (extra shape, element shapes in list
    order), its elements read off its tails."""
    h, elements = cs.suffixes[s].h, []
    while cs.suffixes[s].tail >= 0:
        elements.append(cs.suffixes[s].e)
        s = cs.suffixes[s].tail
    return h, tuple(elements)


def mutate_problem(rng: random.Random, p: Problem) -> Problem:
    """Perturb one output; the result is often, not always, unrealizable."""
    examples = [list(ex) for ex in ((e.extra, e.inputs, e.output, e.base) for e in p.examples)]
    candidates = [i for i, e in enumerate(examples) if e[1]]
    if not candidates:
        return p
    i = rng.choice(candidates)
    ext = to_extension(p.signature.result, examples[i][2])
    if ext.elements and rng.random() < 0.7:
        elems = list(ext.elements)
        j = rng.randrange(len(elems))
        elems[j] = Atom(-1, rng.choice(ATOM_POOL))
        mutated = from_extension(Extension(ext.functor, ext.shape, tuple(elems)))
    else:
        mutated = random_value(rng, p.signature.result, list_cap=2)
    examples[i][2] = mutated
    try:
        return build_problem(p.name + "-mut", p.signature, p.sketch, examples)
    except Exception:
        return p


def random_raw_problem(rng: random.Random) -> Problem:
    sig = Signature(UNIT, rng.choice([ID, ListOf(ID), ProdOf(ID, ID)]),
                    rng.choice([ID, ListOf(ID), MaybeOf(ID)]))
    examples = [
        (UnitV(), [random_value(rng, sig.element, list_cap=3)],
         random_value(rng, sig.result, list_cap=3))
        for _ in range(rng.randint(1, 4))
    ]
    return build_problem(f"raw-{rng.randrange(10**6)}", sig, SketchKind.RAW, examples)


def random_problem(rng: random.Random) -> Problem:
    if rng.random() < 0.25:
        return random_raw_problem(rng)
    return random_foldr_problem(rng, realizable=rng.random() < 0.55)


def fresh_relabeling(p: Problem) -> dict[str, str]:
    return {label: f"{label}$" for label in p.atoms.labels}


def permuted_examples(rng: random.Random, p: Problem) -> Problem:
    order = list(range(len(p.examples)))
    rng.shuffle(order)
    exs = [p.examples[i] for i in order]
    return build_problem(p.name + "-perm", p.signature, p.sketch, exs)


def with_constant_extra(p: Problem, literal: int = 7) -> Problem:
    """Replace a Unit extra with the same integer literal on every example."""
    assert p.signature.extra == UNIT
    sig = Signature(INT, p.signature.element, p.signature.result)
    exs = [(IntV(literal), ex.inputs, ex.output, ex.base) for ex in p.examples]
    return build_problem(p.name + "-extra", sig, p.sketch, exs)


def duplicate_relabeled_example(rng: random.Random, p: Problem) -> Problem:
    """Append a copy of one example with all atoms renamed injectively;
    shapes are unchanged, so shape completeness is preserved."""
    mapping = fresh_relabeling(p)
    shadow = relabel_problem(p, mapping)
    candidates = [i for i, e in enumerate(p.examples) if e.inputs]
    if not candidates:
        return p
    i = rng.choice(candidates)
    exs = [(e.extra, e.inputs, e.output, e.base) for e in p.examples]
    dup = shadow.examples[i]
    # keep the foldr base-consistency invariant: the duplicate must reuse
    # the original extra and base when extras collide after relabeling
    exs.append((p.examples[i].extra, dup.inputs, dup.output, p.examples[i].base))
    return build_problem(p.name + "-dup", p.signature, p.sketch, exs)
