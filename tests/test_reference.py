"""A reference decider for raw and map sets, and its agreement with `check`
on sets over nested containers.

A raw or map set is realizable exactly when one container morphism maps
each example input to its output: a shape function, and for each output
position the input position it copies. The reference reads that off the
example values with `to_extension` and plain loops; it shares no code with
propagation, grounding or the oracle's search. Its two rules:
- equal input shapes give equal output shapes;
- every output position of an input shape has one input position that
  holds its atom in every example with that input shape.
"""

import random

from parachk import (
    Atom,
    ID,
    INT,
    ListOf,
    ListV,
    MaybeOf,
    ProdOf,
    Realizable,
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    build_problem,
    check,
    from_extension,
    propagate,
    to_extension,
    validate_summary,
)
from parachk.functors import Extension
from parachk.verdict import verdict_name

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
