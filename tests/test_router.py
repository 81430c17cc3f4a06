"""The engine router inside `check`: shape-complete sets are decided by the
oracle without a solver; the rest, and whatever the oracle cannot settle,
go to SMT. The solver here is a stub that fails when it is spawned, so a
check that returns proves no process ran, and a SolverError proves the SMT
path was taken."""

import os
import stat

import pytest

from parachk import (
    ID,
    ListOf,
    ListV,
    Realizable,
    Signature,
    SketchKind,
    SolverConfig,
    SolverError,
    UNIT,
    UnitV,
    Ungroundable,
    Unrealizable,
    atom,
    build_problem,
    check,
    ground,
    load_problem,
    propagate,
    shape_complete,
    validate_summary,
)
from parachk import solver

PROBLEMS = "problems"


@pytest.fixture
def no_spawn(tmp_path) -> SolverConfig:
    """A solver command that exits non-zero whenever it is spawned."""
    fake = tmp_path / "fake-solver"
    fake.write_text("#!/bin/sh\ncat > /dev/null\necho spawned >&2\nexit 7\n")
    os.chmod(fake, stat.S_IRWXU)
    return SolverConfig(solver_command=str(fake))


def assert_spawns(problem, cfg, backend="auto"):
    with pytest.raises(SolverError, match="spawned"):
        check(problem, cfg, backend=backend)


@pytest.mark.parametrize(
    "name, verdict",
    [
        ("atom_swap_raw", Unrealizable),
        ("reverse_as_map", Unrealizable),
        ("reverse_as_foldr", Realizable),
        ("drop_as_foldr", Unrealizable),
    ],
)
def test_shape_complete_sets_need_no_solver(no_spawn, name, verdict):
    report = check(load_problem(f"{PROBLEMS}/{name}.json"), no_spawn)
    assert report.path == "oracle" and report.solver_ms == 0.0
    assert isinstance(report.verdict, verdict)


def test_oracle_witness_replays(no_spawn):
    p = load_problem(f"{PROBLEMS}/reverse_as_foldr.json")
    report = check(p, no_spawn)
    assert isinstance(report.verdict, Realizable)
    assert validate_summary(propagate(p), report.verdict.witness)


def test_shape_incomplete_set_goes_to_smt(no_spawn):
    assert_spawns(load_problem(f"{PROBLEMS}/tail_as_foldr_minimal.json"), no_spawn)


def test_suffix_with_another_base_shape_pins_nothing(no_spawn):
    # the length-1 example has the extra shape of the length-2 one, but a
    # base of another shape, so the intermediate after [z] stays unpinned
    p = build_problem(
        "base-shapes",
        Signature(ID, ID, ListOf(ID)),
        SketchKind.FOLDR,
        [
            (atom("a"), [atom("x")], ListV((atom("a"),)), ListV((atom("a"),))),
            (atom("b"), [atom("y"), atom("z")], ListV((atom("b"),)), ListV((atom("b"), atom("b")))),
        ],
    )
    report = shape_complete(p)
    assert not report.complete
    assert report.missing == ("extra *, base [*,*], inputs [*]",)
    with pytest.raises(Ungroundable) as err:
        ground(propagate(p))
    assert str(err.value).endswith(report.missing[0])
    assert_spawns(p, no_spawn)


def test_set_over_the_oracle_bounds_goes_to_smt(no_spawn):
    # 20 positions exceed OracleBounds.max_positions
    xs = [atom(f"x{i}") for i in range(20)]
    p = build_problem(
        "big-reverse",
        Signature(UNIT, ListOf(ID), ListOf(ID)),
        SketchKind.RAW,
        [(UnitV(), [ListV(tuple(xs))], ListV(tuple(reversed(xs))))],
    )
    assert_spawns(p, no_spawn)


def test_step_budget_hands_the_set_to_smt(no_spawn, monkeypatch):
    monkeypatch.setattr(solver, "ORACLE_MAX_STEPS", 1)
    assert_spawns(load_problem(f"{PROBLEMS}/reverse_as_foldr.json"), no_spawn)


def test_rejected_oracle_witness_goes_to_smt(no_spawn, monkeypatch):
    monkeypatch.setattr(solver, "validate_summary", lambda cs, summary: False)
    assert_spawns(load_problem(f"{PROBLEMS}/reverse_as_foldr.json"), no_spawn)


def test_smt_backend_skips_the_oracle(no_spawn):
    assert_spawns(load_problem(f"{PROBLEMS}/atom_swap_raw.json"), no_spawn, backend="smt")


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError):
        check(load_problem(f"{PROBLEMS}/atom_swap_raw.json"), backend="oracle")
