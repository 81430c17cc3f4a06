"""Tests of the benchmark itself: seeded inputs, the replay stub, verdict
checking and the metric names it prints.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess

import pytest

import harness
import replay
from workloads import REALIZABLE, WORKLOADS


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_instance_files(workload, tmp_path):
    harness.prepare(workload, 7, str(tmp_path / "a"))
    harness.prepare(workload, 7, str(tmp_path / "b"))
    harness.prepare(workload, 8, str(tmp_path / "c"))
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_stub_answers_each_check_sat(tmp_path):
    answers = tmp_path / "answers"
    answers.write_text("sat\n(\n  (define-fun k () Int 3)\n)\nunsat\n")
    script = (
        "(set-option :produce-models true)\n(set-logic QF_UFLIA)\n(declare-fun k () Int)\n"
        "(check-sat)\n(get-model)\n(push 1)(assert (> k 3))(check-sat)(pop 1)\n"
    )
    out = subprocess.run(
        ["awk", "-v", f"answers={answers}", "-f", replay.STUB],
        input=script, capture_output=True, text=True, check=True, timeout=30,
    ).stdout
    assert out.split() == ["sat", "(", "(define-fun", "k", "()", "Int", "3)", ")", "unsat"]


def test_realizable_models_replay_through_the_stub(tmp_path):
    """A realizable fold-corpus problem goes through `parachk check` with the
    stub and comes out Realizable, so the model survives parachk's replay."""
    cases = harness.prepare("fold-corpus", 1, str(tmp_path / "w"))
    case = next(c for c in cases if c.name == "reverse-si")
    assert case.expected == REALIZABLE
    loop = harness.Loop()
    loop.decide(case)
    assert loop.failed == 0, loop.failures


def _run(capsys, argv, prepare=harness.prepare):
    code = harness.main(argv, prepare=prepare)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_wrong_replay_answer_fails_the_run(capsys):
    def unsat_for_one_realizable(workload, seed, workdir):
        cases = harness.prepare(workload, seed, workdir)
        victim = next(c for c in cases if c.expected == REALIZABLE and not c.unknown_ok)
        with open(os.path.join(workdir, f"{victim.name}.answers"), "w") as fh:
            fh.write("unsat\n")
        return cases

    argv = ["--workload", "fold-corpus", "--seed", "3", "--seconds", "0.3", "--trace", "0"]
    code, lines, result = _run(capsys, argv, unsat_for_one_realizable)
    assert code != 0
    assert result["failed"] > 0 and result["correct"] is False
    assert any(line.strip().startswith("failed_share") and not line.split()[1].startswith("0.0000") for line in lines)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(capsys, trace):
    with open(os.path.join(harness.REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    argv = ["--workload", "fold-corpus", "--seed", "1", "--seconds", "0.3", "--trace", trace]
    code, _, result = _run(capsys, argv)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_layer_self_times_add_up_to_the_traced_check(capsys):
    argv = ["--workload", "large-examples", "--seed", "2", "--seconds", "0.3", "--trace", "1"]
    _, _, result = _run(capsys, argv)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(m[k] for k in harness.SELF_TIMES) + m["oracle.search_ms.realizable"] + m["oracle.search_ms.unrealizable"]
    assert layers == pytest.approx(m["trace.check_ms"], rel=1e-9)
    assert m["solver.calls_per_check"] > 0 and m["encode.script_bytes"] > 0
