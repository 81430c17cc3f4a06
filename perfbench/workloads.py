"""Seeded instance sets for the three benchmark workloads.

Every instance carries the verdict it must get. That verdict comes from how
the instance was built or from the corpus `expected_fold` column, never from
parachk's output:

- `fold-corpus`: the sixteen corpus functions as shape-complete (SC) and
  shape-incomplete (SI) sets, plus the problem files shipped in `problems/`.
- `oracle-search`: sampled shape-complete fold problems. Half are realizable
  because a container morphism was sampled and run along each trace; the
  other half copy one of those and put an atom that occurs nowhere else into
  the output of its longest example, so no polymorphic function can produce
  it.
- `large-examples`: raw, map and foldr problems with many long examples,
  built from reverse, rotate and pair swap, and made unrealizable by an
  element from nowhere or a map length mismatch.

For realizable instances that go to the SMT path, `fold` is the known
function itself, `(extra, inputs) -> output`. The replay models read their
fold intermediates off it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

from parachk import (
    Atom,
    BoolV,
    Extension,
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
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    atom,
    build_problem,
    from_extension,
    load_problem,
    relabel_problem,
    shape_of,
    size_of,
    to_extension,
)
from parachk.bench import corpus

REALIZABLE = "Realizable"
UNREALIZABLE = "Unrealizable"

# An atom label that no generator below ever draws.
NOWHERE = "nowhere"


@dataclass(frozen=True)
class Instance:
    name: str
    command: str  # the CLI subcommand that decides it: "check" or "oracle"
    problem: Problem
    expected: str
    unknown_ok: bool = False  # the corpus rule for shape-incomplete sets
    fold: Callable | None = None


def _lst(items) -> ListV:
    return ListV(tuple(items))


def _relabel(p: Problem, tag: str) -> Problem:
    return relabel_problem(p, {label: f"{label}{tag}" for label in p.atoms.labels})


def _from_nowhere(rng: random.Random, p: Problem, name: str) -> Problem | None:
    """Copy p with one output atom of its longest example replaced by an atom
    that occurs nowhere in the problem; None if that output has no atom."""
    exs = [[e.extra, e.inputs, e.output, e.base] for e in p.examples]
    i = max(range(len(exs)), key=lambda k: len(exs[k][1]))
    f = ListOf(p.signature.result) if p.sketch is SketchKind.MAP else p.signature.result
    ext = to_extension(f, exs[i][2])
    if not ext.elements:
        return None
    elems = list(ext.elements)
    elems[rng.randrange(len(elems))] = Atom(-1, NOWHERE)
    exs[i][2] = from_extension(Extension(f, ext.shape, tuple(elems)))
    return build_problem(name, p.signature, p.sketch, exs)


# ---------------------------------------------------------------------------
# fold-corpus

# The known fold for every corpus function whose expected_fold is true, and
# for the one realizable problem file. Extra arguments stay constant.
FOLDS: dict[str, Callable] = {
    "null": lambda x, ys: BoolV(not ys),
    "length": lambda x, ys: IntV(len(ys)),
    "head": lambda x, ys: JustV(ys[0]) if ys else NothingV(),
    "last": lambda x, ys: JustV(ys[-1]) if ys else NothingV(),
    "reverse": lambda x, ys: _lst(reversed(ys)),
    "take": lambda x, ys: _lst(ys[: x.value]),
    "splitAt": lambda x, ys: PairV(_lst(ys[: x.value]), _lst(ys[x.value :])),
    "append": lambda x, ys: _lst([*ys, *x.items]),
    "prepend": lambda x, ys: _lst([*x.items, *ys]),
    "zip": lambda x, ys: _lst(PairV(a, b) for a, b in zip(x.items, ys)),
    "unzip": lambda x, ys: PairV(_lst(p.first for p in ys), _lst(p.second for p in ys)),
    "concat": lambda x, ys: _lst(a for y in ys for a in y.items),
    "reverse-as-foldr": lambda x, ys: _lst(reversed(ys)),
}

# Answers for the problem files, known from their construction.
PROBLEM_FILES = {
    "reverse_as_map.json": UNREALIZABLE,
    "tail_as_foldr_minimal.json": UNREALIZABLE,
    "drop_as_foldr.json": UNREALIZABLE,
    "atom_swap_raw.json": UNREALIZABLE,
    "reverse_as_foldr.json": REALIZABLE,
}


def fold_corpus(seed: int, root: str) -> list[Instance]:
    """Thirty-seven fixed problems; the seed picks the atom labels and order."""
    rng = random.Random(seed)
    tag = f"_{rng.randrange(10**6)}"
    out = []
    for entry in corpus():
        expected = REALIZABLE if entry.expected_fold else UNREALIZABLE
        fold = FOLDS[entry.name] if entry.expected_fold else None
        for kind, p, si in (("sc", entry.problem_sc, False), ("si", entry.problem_si, True)):
            out.append(Instance(f"{entry.name}-{kind}", "check", _relabel(p, tag), expected, si, fold))
    for filename, expected in PROBLEM_FILES.items():
        p = _relabel(load_problem(os.path.join(root, "problems", filename)), tag)
        fold = FOLDS.get(p.name) if expected == REALIZABLE else None
        out.append(Instance(filename.removesuffix(".json"), "check", p, expected, False, fold))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# oracle-search

# Size of the draw: how many realizable problems (each also yields one
# unrealizable copy), the longest input list, and the list-length cap of
# sampled values and morphism outputs. These set the search's tail.
ORACLE_PAIRS = 250
MAX_TOWER = 3
LIST_CAP = 1
ATOM_POOL = ("a", "b", "c", "d", "e", "f")

H_POOL = (UNIT, INT, ListOf(ID))
F_POOL = (ID, ProdOf(ID, ID), ListOf(ID))
G_POOL = (ListOf(ID), MaybeOf(ID), INT, ProdOf(ListOf(ID), ListOf(ID)))


def _value(rng: random.Random, f):
    if f == ID:
        return atom(rng.choice(ATOM_POOL))
    if f == UNIT:
        return UnitV()
    if f == INT:
        return IntV(rng.randint(-2, 5))
    if isinstance(f, ListOf):
        return _lst(_value(rng, f.inner) for _ in range(rng.randint(0, LIST_CAP)))
    if isinstance(f, ProdOf):
        return PairV(_value(rng, f.left), _value(rng, f.right))
    if isinstance(f, MaybeOf):
        return JustV(_value(rng, f.inner)) if rng.random() < 0.6 else NothingV()
    raise ValueError(f"no generator for {f}")


def _result_shape(rng: random.Random, g, empty: bool):
    """A small shape of g; with empty=True, one without positions."""
    if g == INT:
        return IntS(rng.randint(-2, 5))
    if isinstance(g, MaybeOf):
        return MaybeS(None) if empty or rng.random() < 0.4 else MaybeS(IdS())
    if isinstance(g, ListOf):
        return ListS((IdS(),) * (0 if empty else rng.randint(0, LIST_CAP + 1)))
    if isinstance(g, ProdOf):
        return ProdS(_result_shape(rng, g.left, empty), _result_shape(rng, g.right, empty))
    raise ValueError(f"no shape generator for {g}")


def _sampled_fold(rng: random.Random, name: str) -> Problem:
    """A shape-complete fold problem made by running a sampled container
    morphism along every trace. The length-n example takes the last n
    element shapes of one tower, so every suffix recurs as an example."""
    sig = Signature(rng.choice(H_POOL), rng.choice(F_POOL), rng.choice(G_POOL))
    extra = _value(rng, sig.extra)
    h_ext = to_extension(sig.extra, extra)
    # The base case must be parametric too, so it holds no elements. Bases
    # drawn from the extra's atoms made the refutations of one seed up to
    # 20 times the work of another's.
    base = from_extension(Extension(sig.result, _result_shape(rng, sig.result, empty=True), ()))
    tower = [shape_of(sig.element, _value(rng, sig.element)) for _ in range(rng.randint(1, MAX_TOWER))]
    shapes: dict = {}
    sources: dict = {}

    def step(x_ext: Extension, acc_ext: Extension) -> Extension:
        key = (h_ext.shape, x_ext.shape, acc_ext.shape)
        pool = (*h_ext.elements, *x_ext.elements, *acc_ext.elements)
        if key not in shapes:
            shapes[key] = _result_shape(rng, sig.result, empty=not pool)
        shape = shapes[key]
        elems = []
        for q in range(size_of(sig.result, shape)):
            if (key, q) not in sources:
                sources[(key, q)] = rng.randrange(len(pool))
            elems.append(pool[sources[(key, q)]])
        return Extension(sig.result, shape, tuple(elems))

    examples = []
    for n in range(len(tower) + 1):
        inputs = [
            from_extension(
                Extension(
                    sig.element,
                    s,
                    tuple(Atom(-1, rng.choice(ATOM_POOL)) for _ in range(size_of(sig.element, s))),
                )
            )
            for s in tower[len(tower) - n :]
        ]
        acc = to_extension(sig.result, base)
        for x in reversed(inputs):
            acc = step(to_extension(sig.element, x), acc)
        examples.append((extra, inputs, from_extension(acc), base))
    return build_problem(name, sig, SketchKind.FOLDR, examples)


def oracle_search(seed: int, root: str) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    while len(out) < 2 * ORACLE_PAIRS:
        k = len(out) // 2
        p = _sampled_fold(rng, f"sampled-{k}")
        mutated = _from_nowhere(rng, p, f"nowhere-{k}")
        if mutated is None:
            continue  # no atom to replace: draw again
        out.append(Instance(p.name, "oracle", p, REALIZABLE))
        out.append(Instance(mutated.name, "oracle", mutated, UNREALIZABLE))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# large-examples


def _atoms(rng: random.Random, n: int) -> list:
    """n atoms with distinct labels."""
    return [atom(f"x{v}") for v in rng.sample(range(10 * n + 10), n)]


def _rotate(xs):
    return xs[1:] + xs[:1]


def _raw(rng, name, fn, lengths) -> Problem:
    sig = Signature(UNIT, ListOf(ID), ListOf(ID))
    exs = []
    for n in lengths:
        xs = _atoms(rng, n)
        exs.append((UnitV(), [_lst(xs)], _lst(fn(xs))))
    return build_problem(name, sig, SketchKind.RAW, exs)


def _swap_map(rng, name, rows, width) -> Problem:
    sig = Signature(UNIT, ProdOf(ID, ID), ProdOf(ID, ID))
    exs = []
    for _ in range(rows):
        xs = _atoms(rng, 2 * width)
        pairs = [PairV(xs[2 * i], xs[2 * i + 1]) for i in range(width)]
        exs.append((UnitV(), pairs, _lst(PairV(p.second, p.first) for p in pairs)))
    return build_problem(name, sig, SketchKind.MAP, exs)


def _reverse_foldr(rng, name, lengths) -> Problem:
    sig = Signature(UNIT, ID, ListOf(ID))
    exs = []
    for n in lengths:
        xs = _atoms(rng, n)
        exs.append((UnitV(), xs, _lst(reversed(xs)), _lst(())))
    return build_problem(name, sig, SketchKind.FOLDR, exs)


def _length_mismatch(rng, p: Problem, name: str) -> Problem:
    """Drop the last output pair of one example: a map keeps list length."""
    exs = [[e.extra, e.inputs, e.output, e.base] for e in p.examples]
    i = rng.randrange(len(exs))
    exs[i][2] = _lst(exs[i][2].items[:-1])
    return build_problem(name, p.signature, p.sketch, exs)


def large_examples(seed: int, root: str) -> list[Instance]:
    """Twenty-four problems whose sizes are fixed; the seed draws the atoms,
    which output atom comes from nowhere, and the order."""
    rng = random.Random(seed)
    reverse_fold = FOLDS["reverse"]
    out = []
    for k in range(3):
        rev = _reverse_foldr(rng, f"reverse-foldr-{k}", range(9))
        rot = _raw(rng, f"rotate-raw-{k}", _rotate, range(1, 13))
        rrev = _raw(rng, f"reverse-raw-{k}", lambda xs: xs[::-1], range(13))
        swap = _swap_map(rng, f"swap-map-{k}", 10, 20)
        out += [
            Instance(rev.name, "check", rev, REALIZABLE, fold=reverse_fold),
            Instance(rot.name, "check", rot, REALIZABLE),
            Instance(rrev.name, "check", rrev, REALIZABLE),
            Instance(swap.name, "check", swap, REALIZABLE),
        ]
        for p in (rev, rot, swap):
            bad = _from_nowhere(rng, p, f"{p.name}-nowhere")
            out.append(Instance(bad.name, "check", bad, UNREALIZABLE))
        short = _length_mismatch(rng, swap, f"{swap.name}-short")
        out.append(Instance(short.name, "check", short, UNREALIZABLE))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "fold-corpus": fold_corpus,
    "oracle-search": oracle_search,
    "large-examples": large_examples,
}
