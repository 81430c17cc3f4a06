"""The command-line interface: exit codes, output formats, determinism."""

import hashlib
import json
import time

import pytest

from parachk import solver
from parachk.cli import main

from conftest import needs_solver

PROBLEMS = "problems"


# the default backend decides these shape-complete sets without a solver
BACKENDS = [pytest.param([], id="auto"), pytest.param(["--backend", "smt"], id="smt", marks=needs_solver)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_check_unrealizable_exit_one(capsys, backend):
    code = main(["check", f"{PROBLEMS}/reverse_as_map.json", *backend])
    out = capsys.readouterr().out
    assert code == 1 and "Unrealizable" in out


@pytest.mark.parametrize("backend", BACKENDS)
def test_check_realizable_exit_zero(capsys, backend):
    code = main(["check", f"{PROBLEMS}/reverse_as_foldr.json", "--witness", *backend])
    out = capsys.readouterr().out
    assert code == 0 and "Realizable" in out and "shape morphism" in out


def test_check_json_reports_the_deciding_path(capsys):
    code = main(["check", f"{PROBLEMS}/atom_swap_raw.json", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["path"] == "oracle" and "fast_path" not in payload


@needs_solver
def test_check_json_format(capsys):
    code = main(["check", f"{PROBLEMS}/tail_as_foldr_minimal.json", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] == "Unrealizable"
    assert payload["name"] == "tail-as-foldr-minimal"


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_json_shows_the_base_case_detail(capsys, command):
    code = main([command, f"{PROBLEMS}/invented_base.json", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["verdict"] == "Unrealizable"
    assert payload["detail"].startswith(
        "no container morphism of the extra argument gives every base"
    )


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_json_shows_the_propagation_reason(capsys, tmp_path, command):
    widen = tmp_path / "widen.json"
    widen.write_text(
        json.dumps(
            {
                "name": "widen",
                "signature": {"element": "Id", "result": "Id"},
                "sketch": "map",
                "examples": [
                    {"inputs": [{"atom": "a"}], "output": {"list": [{"atom": "a"}, {"atom": "a"}]}}
                ],
            }
        )
    )
    code = main([command, str(widen), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["detail"] == (
        "example 0: map preserves list length, but 1 inputs map to 2 outputs"
    )


def test_check_missing_file_exit_three(capsys):
    code = main(["check", "no_such_file.json"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_bad_problem_files_exit_three(capsys, tmp_path):
    nested = '{"just": ' * 3_000 + '{"atom": "a"}' + "}" * 3_000
    texts = {
        "functor.json": '{"name": "x", "signature": {"element": 5, "result": "Id"}, '
        '"sketch": "raw", "examples": [{"inputs": [{"atom": "a"}], "output": {"atom": "a"}}]}',
        "nested.json": nested,
        "utf16.json": b"\xff\xfe{}",
        # past Python's 4,300-digit limit on converting a string to an int
        "huge-int.json": '{"name": "x", "signature": {"extra": "Int", "element": "Id", '
        '"result": "Id"}, "sketch": "raw", "examples": [{"extra": {"int": ' + "1" * 5_000
        + '}, "inputs": [{"atom": "a"}], "output": {"atom": "a"}}]}',
    }
    for name, text in texts.items():
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        for command in ("check", "emit-smt", "oracle"):
            assert main([command, str(path)]) == 3
            assert capsys.readouterr().err.startswith("error: ")


def test_emit_smt_deterministic(capsys):
    assert main(["emit-smt", f"{PROBLEMS}/atom_swap_raw.json"]) == 0
    first = capsys.readouterr().out
    assert main(["emit-smt", f"{PROBLEMS}/atom_swap_raw.json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "(check-sat)" in first
    assert "(= 0 1)" in first  # the literal codes of A and C


# SHA-256 of the `emit-smt` output per problem file: the encoding must not drift
EMIT_SMT_SHA256 = {
    "atom_swap_raw": "e618ea7c6db49b8dd2cd6399b8da448d0552f92146e92e6a24db9e347e7afb61",
    "drop_as_foldr": "23475ea7395c278913fc23e3db653e533eb8b23ce783451206badeaac8f104c5",
    "reverse_as_foldr": "df49a8e3e39bae50efcb4524b700eaa7fb1eac3f9dfcb03c4249629000441af6",
    "reverse_as_map": "532c7abd934579ef1cce8f39917038b35ce25985e0216cf989df6167e162161d",
    "tail_as_foldr_minimal": "5de1d6de48f25ba1c6d1fc70fd6f4e7867723c691466ea7c942366aec17ac177",
}


@pytest.mark.parametrize("name", sorted(EMIT_SMT_SHA256))
def test_emit_smt_golden(capsys, name):
    assert main(["emit-smt", f"{PROBLEMS}/{name}.json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_SMT_SHA256[name]


def test_emit_smt_fast_path_has_no_script(capsys, tmp_path):
    bad = tmp_path / "mismatch.json"
    bad.write_text(
        json.dumps(
            {
                "name": "widen",
                "signature": {"element": "Id", "result": "Id"},
                "sketch": "map",
                "examples": [
                    {"inputs": [{"atom": "a"}], "output": {"list": [{"atom": "b"}, {"atom": "c"}]}}
                ],
            }
        )
    )
    code = main(["emit-smt", str(bad)])
    err = capsys.readouterr().err
    assert code == 3 and "no script" in err


@needs_solver
def test_oracle_cross_check_agrees(capsys):
    code = main(["oracle", f"{PROBLEMS}/reverse_as_foldr.json", "--cross-check"])
    out = capsys.readouterr().out
    assert code == 0 and "agrees" in out


def test_oracle_refuses_incomplete_sets(capsys):
    code = main(["oracle", f"{PROBLEMS}/tail_as_foldr_minimal.json"])
    err = capsys.readouterr().err
    assert code == 3 and "shape-complete" in err


def test_oracle_propagates_before_checking_completeness(capsys, tmp_path):
    # the empty input contradicts the base; the set also misses the suffix [*]
    conflict = tmp_path / "conflict.json"
    conflict.write_text(
        json.dumps(
            {
                "name": "base-conflict",
                "signature": {"element": "Id", "result": "List(Id)"},
                "sketch": "foldr",
                "examples": [
                    {"inputs": [], "output": {"list": [{"atom": "a"}]}, "base": {"list": []}},
                    {
                        "inputs": [{"atom": "b"}, {"atom": "c"}],
                        "output": {"list": [{"atom": "c"}]},
                        "base": {"list": []},
                    },
                ],
            }
        )
    )
    for command in ("check", "oracle"):
        code = main([command, str(conflict)])
        assert code == 1 and "Unrealizable" in capsys.readouterr().out


def test_oracle_replays_its_witness(capsys, monkeypatch):
    monkeypatch.setattr(solver, "validate_summary", lambda cs, summary: False)
    code = main(["oracle", f"{PROBLEMS}/reverse_as_foldr.json"])
    out = capsys.readouterr().out
    assert code == 2 and "Unknown(witness-validation-failed)" in out


@needs_solver
def test_oracle_unrealizable_exit_one(capsys):
    code = main(["oracle", f"{PROBLEMS}/drop_as_foldr.json"])
    out = capsys.readouterr().out
    assert code == 1 and "Unrealizable" in out


@needs_solver
def test_bench_only_single_row(capsys):
    code = main(["bench", "--only", "reverse"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\nreverse ") == 1 or out.splitlines()[2].startswith("reverse")


@needs_solver
def test_bench_json_schema(capsys):
    code = main(["bench", "--only", "tail", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    entry = payload["entries"][0]
    assert entry["name"] == "tail" and entry["expected_fold"] is False
    assert entry["sc"]["verdict"] == "Unrealizable"
    assert set(entry["sc"]) == {"verdict", "ms"}
    assert {"entries", "ok", "repeat", "sc_median_ms"} <= set(payload)


def test_bench_unknown_entry(capsys):
    code = main(["bench", "--only", "nonexistent"])
    assert code == 3


@needs_solver
def test_bench_repeat_flag(capsys):
    code = main(["bench", "--only", "length", "--repeat", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["repeat"] == 2


def test_exit_codes_follow_verdicts():
    # solver that always reports unknown: exit 2
    import os, stat, tempfile

    with tempfile.TemporaryDirectory() as d:
        fake = os.path.join(d, "fake-solver")
        with open(fake, "w") as fh:
            fh.write("#!/bin/sh\ncat > /dev/null\necho unknown\n")
        os.chmod(fake, stat.S_IRWXU)
        code = main(["check", f"{PROBLEMS}/atom_swap_raw.json", "--solver", fake, "--backend", "smt"])
        assert code == 2


def _fake_solver(tmp_path, answer: str) -> str:
    """A solver command that ignores its script and prints `answer`."""
    import os, stat

    fake = tmp_path / "fake-solver"
    fake.write_text(f"#!/bin/sh\ncat > /dev/null\ncat <<'EOF'\n{answer}\nEOF\n")
    os.chmod(fake, stat.S_IRWXU)
    return str(fake)


def test_oracle_cross_check_disagreement_exit_four(capsys, tmp_path):
    # a stub solver that always answers unsat contradicts the oracle on a
    # realizable problem
    fake = _fake_solver(tmp_path, "unsat")
    code = main(["oracle", f"{PROBLEMS}/reverse_as_foldr.json", "--cross-check", "--solver", fake])
    err = capsys.readouterr().err
    assert code == 4 and "disagreement" in err


def test_solver_env_var_fallback(tmp_path, monkeypatch, capsys):
    fake = _fake_solver(tmp_path, "unknown")
    monkeypatch.setenv("PARACHK_SOLVER", fake)
    code = main(["check", f"{PROBLEMS}/atom_swap_raw.json", "--backend", "smt"])
    out = capsys.readouterr().out
    assert code == 2 and "Unknown" in out


@pytest.mark.parametrize(
    "define",
    [
        "(define-fun srcpos ((x!0 Int)) Int (div 1 0))",
        "(define-fun srcpos ((x!0 Int)) Int (mod 1 0))",
        "(define-fun srcpos ((x!0 Int)) Int (ite false 1))",
        "(define-fun srcpos ((x!0 Int)) Int (ite (not) 1 0))",
        "(define-fun srcpos ((x!0 Int)) Int (-))",
        "(define-fun srcpos ((x!0 Int)) Int (abs))",
        "(define-fun srcpos ((x!0 Int)) Int (let ((a)) a))",
        "(define-fun srcpos ((x!0 Int)) Int (ite (< 1) 1 0))",
        "(define-fun srcpos (()) Int 0)",
        "(define-fun srcpos (x!0) Int 0)",
        # integer literals longer than Python converts, as a value and as a point
        pytest.param(
            "(define-fun srcpos ((x!0 Int)) Int " + "1" * 5_000 + ")", id="huge-value"
        ),
        pytest.param(
            "(define-fun srcpos ((x!0 Int)) Int (ite (= x!0 " + "1" * 5_000 + ") 0 1))",
            id="huge-point",
        ),
    ],
)
def test_malformed_model_gives_unknown(capsys, tmp_path, define):
    fake = _fake_solver(tmp_path, f"sat\n({define})")
    code = main(["check", f"{PROBLEMS}/atom_swap_raw.json", "--solver", fake, "--backend", "smt"])
    out = capsys.readouterr().out
    assert code == 2 and "Unknown(witness-validation-failed)" in out


def _byte_solver(tmp_path, answer: bytes) -> str:
    """A solver command that ignores its script and prints the bytes
    `answer`, which need not be text."""
    import os, stat

    out = tmp_path / "answer"
    out.write_bytes(answer)
    fake = tmp_path / "fake-solver"
    fake.write_text(f"#!/bin/sh\ncat > /dev/null\ncat '{out}'\n")
    os.chmod(fake, stat.S_IRWXU)
    return str(fake)


def test_undecodable_model_gives_unknown(capsys, tmp_path):
    fake = _byte_solver(tmp_path, b"sat\n\377\n")
    code = main(["check", f"{PROBLEMS}/atom_swap_raw.json", "--solver", fake, "--backend", "smt"])
    out = capsys.readouterr().out
    assert code == 2 and "Unknown(witness-validation-failed)" in out


def test_undecodable_status_is_a_solver_error(capsys, tmp_path):
    fake = _byte_solver(tmp_path, b"\377sat\n")
    code = main(["check", f"{PROBLEMS}/atom_swap_raw.json", "--solver", fake, "--backend", "smt"])
    assert code == 3 and capsys.readouterr().err.startswith("error: ")


def test_huge_intermediate_in_a_model_gives_unknown(capsys, tmp_path):
    # a list of 2 * 10**18 positions: building it fails at once, where a
    # length of 10**8 would take seconds and gigabytes before the verdict
    from parachk import load_problem, propagate

    cs = propagate(load_problem(f"{PROBLEMS}/reverse_as_foldr.json"))
    assert cs.unknown_count > 0
    defines = " ".join(
        f"(define-fun mid{uid}_n0 () Int {2 * 10**18})" for uid in range(cs.unknown_count)
    )
    fake = _fake_solver(tmp_path, f"sat\n({defines})")
    code = main(["check", f"{PROBLEMS}/reverse_as_foldr.json", "--solver", fake, "--backend", "smt"])
    out = capsys.readouterr().out
    assert code == 2 and "Unknown(witness-validation-failed)" in out


@pytest.mark.parametrize("timeout", ["0", "-5"])
@pytest.mark.parametrize(
    "command",
    [["check", f"{PROBLEMS}/atom_swap_raw.json"], ["oracle", f"{PROBLEMS}/reverse_as_foldr.json", "--cross-check"]],
    ids=["check", "oracle-cross-check"],
)
def test_nonpositive_timeout_exit_three(capsys, command, timeout):
    code = main([*command, "--timeout", timeout])
    err = capsys.readouterr().err
    assert code == 3 and "--timeout" in err


@pytest.mark.parametrize(
    "command",
    [
        ["check", f"{PROBLEMS}/atom_swap_raw.json", "--backend", "smt"],
        ["oracle", f"{PROBLEMS}/reverse_as_foldr.json", "--cross-check"],
        ["bench", "--only", "length"],
    ],
    ids=["check", "oracle-cross-check", "bench"],
)
def test_timeout_past_a_subprocess_wait_exit_three(capsys, tmp_path, command):
    # a wait of 2**31 ms or more overflows inside subprocess; the solver is
    # never reached, so its unsat answer does not matter
    fake = _fake_solver(tmp_path, "unsat")
    code = main([*command, "--solver", fake, "--timeout", str(2**31)])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("error: --timeout") and str(2**31 - 1) in err


def test_largest_timeout_reaches_the_solver(capsys, tmp_path):
    fake = _fake_solver(tmp_path, "unsat")
    code = main(["check", f"{PROBLEMS}/atom_swap_raw.json", "--backend", "smt", "--solver", fake, "--timeout", str(2**31 - 1)])
    assert code == 1 and "Unrealizable" in capsys.readouterr().out


@pytest.mark.parametrize("timeout", [0, 2**31])
def test_solver_config_rejects_a_timeout_out_of_range(timeout):
    from parachk import SolverConfig

    with pytest.raises(ValueError, match="timeout"):
        SolverConfig(timeout_ms=timeout)


def test_oracle_refutes_an_invented_base(capsys):
    code = main(["oracle", f"{PROBLEMS}/invented_base.json"])
    assert code == 1 and "Unrealizable (oracle)" in capsys.readouterr().out


def test_oracle_leaves_a_base_case_past_its_bounds_unknown(capsys, tmp_path):
    # named for the bounds a base case could once go past: 14 extra shapes
    # are more than oracle.MAX_SHAPES, but scans settle a base case of any
    # width, and e is the identity here
    extras = [{"list": [{"atom": "x"}] * n} for n in range(14)]
    doc = {
        "name": "wide-base",
        "signature": {"extra": "List(Id)", "element": "Id", "result": "List(Id)"},
        "sketch": "foldr",
        "examples": [{"extra": x, "inputs": [], "output": x, "base": x} for x in extras],
    }
    path = tmp_path / "wide-base.json"
    path.write_text(json.dumps(doc))
    code = main(["oracle", str(path)])
    assert code == 0 and "wide-base: Realizable (oracle)" in capsys.readouterr().out


@pytest.mark.parametrize("n", [8, 12])
def test_oracle_refutes_an_element_from_nowhere_at_once(capsys, tmp_path, n):
    # every output position but the last has n sources; the last has none.
    # A search over the earlier positions tries n ** (n - 1) combinations
    # (27 s at n = 8); a scan refutes the set at the last position
    doc = {
        "name": "nowhere",
        "signature": {"element": "List(Id)", "result": "List(Id)"},
        "sketch": "raw",
        "examples": [
            {
                "inputs": [{"list": [{"atom": "a"}] * n}],
                "output": {"list": [{"atom": "a"}] * (n - 1) + [{"atom": "z"}]},
            }
        ],
    }
    path = tmp_path / "nowhere.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["oracle", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 1 and "nowhere: Unrealizable (oracle)" in capsys.readouterr().out
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", f"{PROBLEMS}/atom_swap_raw.json", "--timeout", "abc"], "invalid int value: 'abc'"),
        (["check"], "the following arguments are required: path"),
        (["frob"], "invalid choice: 'frob'"),
        ([], "the following arguments are required: command"),
        (["bench", "--repeat", "0"], "argument --repeat: must be at least 1, not 0"),
        (["bench", "--repeat", "-3"], "argument --repeat: must be at least 1, not -3"),
        (["bench", "--repeat", "abc"], "argument --repeat: invalid int value: 'abc'"),
    ],
    ids=[
        "bad-timeout", "no-path", "unknown-command", "no-command",
        "zero-repeat", "negative-repeat", "bad-repeat",
    ],
)
def test_usage_errors_exit_three(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    err = capsys.readouterr().err
    assert exit_.value.code == 3
    assert err.startswith("usage: parachk") and message in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--help"])
    assert exit_.value.code == 0 and capsys.readouterr().out.startswith("usage: parachk check")
