"""Script generation: structure, determinism, literal element codes, and
the guardedness of every element-function application."""

import re

from parachk import (
    ID,
    ListOf,
    ListV,
    Signature,
    SketchKind,
    UNIT,
    UnitV,
    atom,
    build_problem,
    encode,
    propagate,
)
from parachk.solver import _parse_sexprs

import support


def lst(*vs):
    return ListV(tuple(vs))


def atom_swap_problem():
    return build_problem(
        "fAC",
        Signature(UNIT, ID, ID),
        SketchKind.RAW,
        [(UnitV(), [atom("A")], atom("C"))],
    )


def tail_problem():
    return build_problem(
        "tail",
        Signature(UNIT, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [(UnitV(), [atom("A"), atom("B"), atom("C")], lst(atom("B"), atom("C")), lst())],
    )


def test_atom_swap_script_has_literal_code_equation():
    script = encode(propagate(atom_swap_problem()))
    text = script.text()
    # the codes of A and C appear as a literal element equality
    assert "(= 0 1)" in text
    assert script.logic == "QF_UFLIA"


def test_raw_scripts_are_quantifier_free():
    script = encode(propagate(atom_swap_problem()))
    assert "forall" not in script.text()


def test_foldr_script_declares_intermediate_slots():
    script = encode(propagate(tail_problem()))
    text = script.text()
    # n=3 example: two intermediates, one list-length slot each
    assert text.count("(declare-fun mid") == 2
    assert "(declare-fun mid0_n0 () Int)" in text
    assert "(declare-fun mid1_n0 () Int)" in text
    assert "(declare-fun elem0 (Int) Int)" in text
    assert script.logic == "UFLIA"


def test_encoding_is_deterministic():
    p = tail_problem()
    assert encode(propagate(p)).text() == encode(propagate(p)).text()
    import random

    rng = random.Random(5)
    for _ in range(10):
        q = support.random_problem(rng)
        assert encode(propagate(q)).text() == encode(propagate(q)).text()


def test_refinements_asserted_for_unknowns():
    text = encode(propagate(tail_problem())).text()
    assert "(assert (>= mid0_n0 0))" in text
    assert "(assert (>= mid1_n0 0))" in text


# ---------------------------------------------------------------------------
# Guardedness: every element-function application must sit under dependency
# bounds -- either its argument is the guarded quantified variable, or it is
# offset from a position term that the same conjunction brackets from both
# sides.


def _assertions(script):
    for a in script.assertions:
        yield _parse_sexprs(a)[0]


def _check_guarded(node, guards):
    """Walk a formula; `guards` maps terms (as printed s-exprs) that are
    bracketed below and above in the current context."""
    if isinstance(node, str):
        return
    head = node[0] if node else None
    if head == "forall":
        body = node[2]
        # expected form: (=> (and (>= q 0) (< q C)) ...)
        assert body[0] == "=>" and body[1][0] == "and"
        bounded = _bounds_of(body[1][1:])
        _check_guarded(body[2], guards | bounded)
        return
    if head == "and":
        bounded = _bounds_of(node[1:])
        for sub in node[1:]:
            _check_guarded(sub, guards | bounded)
        return
    if isinstance(head, str) and head.startswith("elem"):
        arg = node[1]
        assert _is_guarded_index(arg, guards), f"unguarded {head} at {arg}"
    for sub in node[1:] if isinstance(node, list) else []:
        _check_guarded(sub, guards)


def _fmt(node):
    if isinstance(node, str):
        return node
    return "(" + " ".join(_fmt(x) for x in node) + ")"


def _bounds_of(conjuncts):
    lower, upper = set(), set()
    for c in conjuncts:
        if isinstance(c, list) and len(c) == 3:
            if c[0] == ">=":
                lower.add(_fmt(c[1]))
            if c[0] == "<":
                upper.add(_fmt(c[1]))
    return lower & upper


def _is_guarded_index(arg, guards):
    if isinstance(arg, str):
        return arg in guards
    if isinstance(arg, list) and arg[0] in ("-", "+"):
        # offset from a bounded term
        return any(_fmt(part) in guards for part in arg[1:])
    return False


def test_every_element_application_is_guarded():
    import random

    rng = random.Random(17)
    problems = [tail_problem()] + [support.random_foldr_problem(rng) for _ in range(15)]
    for p in problems:
        script = encode(propagate(p))
        for form in _assertions(script):
            _check_guarded(form, set())


def test_every_symbol_is_declared():
    import random

    rng = random.Random(23)
    for _ in range(10):
        p = support.random_problem(rng)
        script = encode(propagate(p))
        declared = set(re.findall(r"\(declare-fun (\S+)", "\n".join(script.declarations)))
        used = set(re.findall(r"\b(oshape\d+|srcpos|mid\d+_\w+|elem\d+)\b", "\n".join(script.assertions)))
        assert used <= declared
