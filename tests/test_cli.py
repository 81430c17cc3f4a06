"""The command-line interface: exit codes, output formats, determinism."""

import glob
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import parachk
from parachk import ID, ListOf, UnknownVerdict, load_problem, problem_to_json, shape_complete, solver
from parachk.bench import corpus
from parachk.cli import build_parser, main
from parachk.oracle import PART_REFUTED

import support
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


def test_check_json_format(capsys):
    code = main(["check", f"{PROBLEMS}/tail_as_foldr_minimal.json", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] == "Unrealizable"
    assert payload["name"] == "tail-as-foldr-minimal"
    assert payload["path"] == "oracle+completion" and payload["solver_ms"] == 0
    assert payload["detail"] == (
        "the steps whose intermediates have known shapes are already unrealizable"
    )


def test_check_json_names_a_forced_clash(tmp_path, capsys):
    path = tmp_path / "init-si.json"
    (init,) = [e for e in corpus() if e.name == "init"]
    path.write_text(problem_to_json(init.problem_si))
    code = main(["check", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["path"] == "oracle+completion"
    assert payload["detail"] == (
        "the suffix extra (), inputs [*, *] has the shape [], so one "
        "input shape maps to both [] and [*,*]"
    )


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
    assert code == 1 and payload["path"] == "fast-path" and payload["detail"] == (
        "example 0: map preserves list length, but 1 inputs map to 2 outputs"
    )


def _shape_complete_files(tmp_path) -> list[str]:
    """Every shape-complete problem file and corpus SC set, as files."""
    paths = [
        path
        for path in sorted(glob.glob(f"{PROBLEMS}/*.json"))
        if shape_complete(load_problem(path)).complete
    ]
    for entry in corpus():
        path = tmp_path / f"{entry.name}-sc.json"
        path.write_text(problem_to_json(entry.problem_sc))
        paths.append(str(path))
    return paths


def test_check_and_oracle_report_a_shape_complete_set_alike(capsys, tmp_path, no_spawn):
    # both commands decide through one driver, so on a set the oracle
    # decides whole they differ only in their table line's note
    for path in _shape_complete_files(tmp_path):
        code = main(["check", path, "--format", "json", "--solver", no_spawn.solver_command])
        checked = json.loads(capsys.readouterr().out)
        assert main(["oracle", path, "--format", "json"]) == code
        oracle = json.loads(capsys.readouterr().out)
        detail = ["detail"] if oracle["verdict"] == "Unrealizable" else []
        assert list(oracle) == ["name", "verdict", "total_ms", "solver_ms", "path", *detail]
        assert list(checked) == list(oracle) and oracle["solver_ms"] == 0
        for key in ("name", "verdict", "path", *detail):
            assert oracle[key] == checked[key], (path, key)
        assert main(["oracle", path]) == code
        assert capsys.readouterr().out == f"{oracle['name']}: {oracle['verdict']} (oracle)\n"


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


def _surrogate_files(tmp_path, label):
    """A raw problem named `bad{label}name`, and a fold set whose inputs,
    outputs and witness intermediate hold the atom `label`, written by
    `json.dumps`, which escapes a surrogate as `\\uXXXX`."""
    x = {"atom": label}
    raw = {
        "name": f"bad{label}name",
        "signature": {"element": "List(Id)", "result": "List(Id)"},
        "sketch": "raw",
        "examples": [{"inputs": [{"list": [{"atom": "a"}]}], "output": {"list": [{"atom": "a"}]}}],
    }
    fold = {
        "name": "f",
        "signature": {"element": "Id", "result": "List(Id)"},
        "sketch": "foldr",
        "examples": [
            {"inputs": [{"atom": "y"}, x], "output": {"list": [{"atom": "y"}, x]}, "base": {"list": []}},
            {"inputs": [x], "output": {"list": [x]}, "base": {"list": []}},
        ],
    }
    paths = [tmp_path / "name.json", tmp_path / "atom.json"]
    for path, doc in zip(paths, (raw, fold)):
        path.write_text(json.dumps(doc), encoding="ascii")
    return paths


def test_a_lone_surrogate_is_an_input_error(capsys, tmp_path):
    # JSON escapes a lone surrogate and `json.loads` keeps it, but no UTF-8
    # output prints it: the name and atom labels are checked at load
    name, fold = _surrogate_files(tmp_path, "\ud800")
    for path, field in ((name, "problem: 'name'"), (fold, "example 0: field 'inputs[1]'")):
        assert "\\ud800" in path.read_text()
        for command in (["check"], ["oracle"], ["emit-smt"], ["check", "--witness"], ["oracle", "--witness"]):
            assert main([*command, str(path)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {field}") and "lone surrogate" in err
            assert err.count("\n") == 1


def test_an_escaped_surrogate_pair_loads(capsys, tmp_path, no_spawn):
    name, fold = _surrogate_files(tmp_path, "\U0001F600")
    assert "\\ud83d\\ude00" in fold.read_text()
    assert load_problem(str(name)).name == "bad\U0001F600name"
    assert "\U0001F600" in load_problem(str(fold)).atoms.labels
    assert main(["check", "--witness", str(fold), "--solver", no_spawn.solver_command]) == 0
    assert "\U0001F600" in capsys.readouterr().out
    assert main(["oracle", str(name), "--solver", no_spawn.solver_command]) == 0


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


def test_oracle_refutes_the_minimal_tail_set_by_its_guess_free_part(capsys, no_spawn):
    # the paper's two-example tail set leaves the suffix [*] unpinned; the
    # steps whose intermediates are pinned refute it before any guess
    argv = ["oracle", f"{PROBLEMS}/tail_as_foldr_minimal.json", "--format", "json"]
    code = main([*argv, "--solver", no_spawn.solver_command])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 1 and captured.err == ""
    assert out["verdict"] == "Unrealizable" and out["path"] == "oracle+completion"
    assert out["detail"] == PART_REFUTED and out["solver_ms"] == 0


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


def _one_trace(tmp_path, base, last="b"):
    """A foldr set over a unit extra whose one example [b,c] -> [b,c,last]
    leaves the suffix [*] unpinned."""
    path = tmp_path / "one-trace.json"
    path.write_text(
        json.dumps(
            {
                "name": "one-trace",
                "signature": {"element": "Id", "result": "List(Id)"},
                "sketch": "foldr",
                "examples": [
                    {
                        "inputs": [{"atom": "b"}, {"atom": "c"}],
                        "output": {"list": [{"atom": "b"}, {"atom": "c"}, {"atom": last}]},
                        "base": base,
                    }
                ],
            }
        )
    )
    return str(path)


def test_oracle_refutes_a_base_case_of_an_incomplete_set(capsys, tmp_path):
    # the base [z] holds an atom no unit extra gives: both commands refute
    # the set by its base case, before the steps need the suffix [*]
    path = _one_trace(tmp_path, {"list": [{"atom": "z"}]}, last="z")
    code = main(["check", path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["path"] == "oracle"
    code = main(["oracle", path, "--format", "json"])
    oracle_payload = json.loads(capsys.readouterr().out)
    assert code == 1 and oracle_payload["verdict"] == "Unrealizable"
    assert oracle_payload["detail"] == payload["detail"]
    assert oracle_payload["detail"].startswith(
        "no container morphism of the extra argument gives every base"
    )


def _no_schema(tmp_path, inputs, base):
    """A foldr set over a unit extra whose element, List(Maybe(Unit)), has
    no fixed-arity shapes, so no step can be encoded for SMT. Each
    input is a list of "nothing" or "unit" (for Just ()); the output is
    the base."""
    path = tmp_path / "no-schema.json"
    path.write_text(
        json.dumps(
            {
                "name": "no-schema",
                "signature": {"element": "List(Maybe(Unit))", "result": "List(Id)"},
                "sketch": "foldr",
                "examples": [
                    {
                        "inputs": [
                            {"list": [v if v == "nothing" else {"just": v} for v in xs]}
                            for xs in inputs
                        ],
                        "output": base,
                        "base": base,
                    }
                ],
            }
        )
    )
    return str(path)


@pytest.mark.parametrize("inputs", [[["nothing", "unit"]], [["nothing"], ["unit"]]], ids=["complete", "incomplete"])
def test_check_and_oracle_agree_on_a_refuted_base_of_steps_without_a_schema(capsys, tmp_path, inputs):
    # the base [z] holds an atom no unit extra gives: both commands refute
    # the set by its base case, whether the example set is shape complete
    # or not
    path = _no_schema(tmp_path, inputs, {"list": [{"atom": "z"}]})
    details = []
    for command in ("check", "oracle"):
        code = main([command, path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["verdict"] == "Unrealizable"
        details.append(payload["detail"])
    assert details[0] == details[1]
    assert details[0].startswith("no container morphism of the extra argument gives every base")


# flatten_shape's message for the functor the SMT encoding cannot take on
_NO_SCHEMA = (
    "List(List(Id)): element functor List(Id) has a variable shape, so the list shape "
    "is not fixed-arity"
)


def test_steps_without_a_schema_still_fail_where_the_base_case_holds(capsys, tmp_path, no_spawn):
    # reverse over [[x]] elements with a suffix unpinned: the base [], which
    # the unit extra gives, refutes nothing, and no guess settles the steps,
    # so they go to SMT, which has no schema for List(List(Id))
    path = tmp_path / "nested-reverse-gap.json"
    path.write_text(problem_to_json(support.reverse_gap(ListOf(ListOf(ID)))))
    for backend in ("auto", "smt"):
        argv = ["check", str(path), "--backend", backend, "--solver", no_spawn.solver_command]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {_NO_SCHEMA}\n"


def _nested_file(tmp_path, name, sketch, element, examples) -> str:
    """A problem file over a unit extra and a List(Id) result; each
    example is (inputs, output) or, for a fold, (inputs, output, base)."""
    keys = ("inputs", "output", "base")
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps(
            {
                "name": name,
                "signature": {"element": element, "result": "List(Id)"},
                "sketch": sketch,
                "examples": [dict(zip(keys, ex)) for ex in examples],
            }
        )
    )
    return str(path)


def _ls(*items):
    return {"list": [{"atom": x} if isinstance(x, str) else x for x in items]}


def _words(*words):
    """A List(List(Id)) fold element: one list of atoms per word."""
    return _ls(*(_ls(*w) for w in words))


def _concat_examples(*elements):
    """concat after concat over the given lists of words, with the base []."""
    return [
        ([_words(*el) for el in els], _ls(*(x for el in els for w in el for x in w)), _ls())
        for els in elements
    ]


# sets over List(List(Id)) and List(Maybe(Id)), which have no fixed-arity
# shapes: (sketch, element, examples, verdict, path of `check`)
NESTED_SETS = {
    "raw-concat": (
        "raw",
        "List(List(Id))",
        [([_ls(_ls("a", "b"), _ls("c"))], _ls("a", "b", "c")), ([_ls(_ls(), _ls("d"))], _ls("d"))],
        "Realizable",
        "oracle",
    ),
    "raw-shape-clash": (
        "raw",
        "List(List(Id))",
        [([_ls(_ls("a"), _ls("b"))], _ls("a")), ([_ls(_ls("c"), _ls("d"))], _ls("c", "d"))],
        "Unrealizable",
        "oracle",
    ),
    "raw-from-nowhere": (
        "raw", "List(List(Id))", [([_ls(_ls("a"), _ls("b"))], _ls("z"))], "Unrealizable", "oracle"
    ),
    "map-cat-maybes": (
        "map",
        "List(Maybe(Id))",
        [
            (
                [{"list": ["nothing", {"just": {"atom": "a"}}]}, _ls({"just": {"atom": "b"}})],
                _ls(_ls("a"), _ls("b")),
            )
        ],
        "Realizable",
        "oracle",
    ),
    "fold-concat-complete": (
        "foldr",
        "List(List(Id))",
        _concat_examples([], ["c"], ["ab", "c"], ["de", "ab", "c"]),
        "Realizable",
        "oracle",
    ),
    "fold-concat-incomplete": (
        "foldr",
        "List(List(Id))",
        _concat_examples(["c"], ["de", "ab", "c"]),
        "Realizable",
        "oracle+completion",
    ),
}


@pytest.mark.parametrize("name", sorted(NESTED_SETS))
def test_nested_containers_are_decided_in_process(capsys, tmp_path, no_spawn, name):
    sketch, element, examples, verdict, path = NESTED_SETS[name]
    problem = _nested_file(tmp_path, name, sketch, element, examples)
    code = main(["check", problem, "--format", "json", "--solver", no_spawn.solver_command])
    payload = json.loads(capsys.readouterr().out)
    assert (payload["verdict"], payload["path"]) == (verdict, path)
    if path == "oracle":
        assert main(["oracle", problem, "--format", "json"]) == code
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict


@pytest.mark.parametrize(
    "command",
    [["check", "--backend", "smt"], ["emit-smt"], ["oracle", "--cross-check"]],
    ids=["check-smt", "emit-smt", "oracle-cross-check"],
)
def test_nested_containers_leave_the_oracle_with_exit_three(capsys, tmp_path, no_spawn, command):
    # the oracle decides the raw concat set, but the SMT encoding needs a
    # schema for every input, so each way to SMT stops with the message of
    # flatten_shape before a solver is spawned
    sketch, element, examples, _, _ = NESTED_SETS["raw-concat"]
    problem = _nested_file(tmp_path, "raw-concat", sketch, element, examples)
    solver_flags = [] if command == ["emit-smt"] else ["--solver", no_spawn.solver_command]
    assert main([command[0], problem, *command[1:], *solver_flags]) == 3
    assert capsys.readouterr().err == f"error: {_NO_SCHEMA}\n"


def _base_detail(out: str) -> str:
    """The detail of the JSON verdict `out`, the one document printed."""
    payload = json.loads(out)
    assert payload["verdict"] == "Unrealizable"
    return payload["detail"]


@pytest.mark.parametrize(
    "command",
    [["check", "--backend", "smt"], ["oracle", "--cross-check"]],
    ids=["check-smt", "oracle-cross-check"],
)
def test_refuted_base_of_steps_without_a_schema_spawns_no_solver(capsys, tmp_path, no_spawn, command):
    # the base case is decided before the steps, which neither the oracle
    # nor the SMT encoding can take on, so its refutation is the verdict
    # on the SMT backend too
    path = _no_schema(tmp_path, [["nothing", "unit"]], {"list": [{"atom": "z"}]})
    code = main([command[0], path, *command[1:], "--solver", no_spawn.solver_command, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert _base_detail(captured.out).startswith(
        "no container morphism of the extra argument gives every base"
    )


def test_smt_backend_refutes_an_invented_base_without_a_solver(capsys, no_spawn):
    code = main(
        ["check", f"{PROBLEMS}/invented_base.json", "--backend", "smt",
         "--solver", no_spawn.solver_command, "--format", "json"]
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out)["path"] == "oracle"
    assert _base_detail(captured.out).startswith(
        "no container morphism of the extra argument gives every base"
    )


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_refuted_base_is_decided_before_the_steps(capsys, tmp_path, command):
    # foldr (++) over two 10-element lists with the base [z], which no unit
    # extra gives: the step's input shape (10, 11) has 21 positions to
    # search, but the base case refutes the set first
    xs = [{"atom": f"a{i}"} for i in range(10)]
    ys = [{"atom": f"b{i}"} for i in range(10)]
    z = {"atom": "z"}
    doc = {
        "name": "append-invented-base",
        "signature": {"element": "List(Id)", "result": "List(Id)"},
        "sketch": "foldr",
        "examples": [
            {"inputs": [{"list": xs}, {"list": ys}], "output": {"list": xs + ys + [z]}, "base": {"list": [z]}},
            {"inputs": [{"list": ys}], "output": {"list": ys + [z]}, "base": {"list": [z]}},
        ],
    }
    path = tmp_path / "append.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert _base_detail(captured.out).startswith(
        "no container morphism of the extra argument gives every base"
    )


FROM_NOWHERE = "example 0: output atom z occurs in neither its extra argument, its inputs nor its base"


@pytest.mark.parametrize(
    "command",
    [["check"], ["check", "--backend", "smt"], ["oracle"], ["oracle", "--cross-check"]],
    ids=["check", "check-smt", "oracle", "oracle-cross-check"],
)
def test_atom_from_nowhere_is_refuted_in_propagation(capsys, tmp_path, no_spawn, command):
    # [b,c] -> [b,c,z] with the base []: z comes from nowhere, so
    # propagation refutes the set before the oracle needs the suffix [*]
    # or any solver is spawned
    path = _one_trace(tmp_path, {"list": []}, last="z")
    code = main([command[0], path, *command[1:], "--format", "json", "--solver", no_spawn.solver_command])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 1 and captured.err == ""
    assert payload["path"] == "fast-path" and payload["solver_ms"] == 0
    assert (payload["verdict"], payload["detail"]) == ("Unrealizable", FROM_NOWHERE)


def test_emit_smt_refuses_an_atom_from_nowhere(capsys, tmp_path):
    code = main(["emit-smt", _one_trace(tmp_path, {"list": []}, last="z")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: unrealizable before encoding, no script is sent: {FROM_NOWHERE}\n"


def test_oracle_realizes_an_incomplete_set_whose_base_case_holds(capsys, tmp_path, no_spawn):
    path = _one_trace(tmp_path, {"list": []})
    code = main(["oracle", path, "--format", "json", "--solver", no_spawn.solver_command])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 0 and captured.err == ""
    assert out["verdict"] == "Realizable" and out["path"] == "oracle+completion"


def test_oracle_is_unknown_where_every_completion_is_refuted(capsys, tmp_path, no_spawn):
    # reverse with its length-5 example left out: the fold of [b,c,d,e,f]
    # holds five atoms, one more than the longest candidate shape
    path = tmp_path / "reverse-gap.json"
    path.write_text(problem_to_json(support.reverse_gap()))
    code = main(["oracle", str(path), "--solver", no_spawn.solver_command])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "reverse-gap: Unknown(completions-refuted) (oracle)\n"
    assert captured.err.splitlines() == [
        "every guessed completion is refuted; no example pins:",
        "  extra (), inputs [*, *, *, *, *]",
    ]


def test_oracle_replays_its_witness(capsys, monkeypatch):
    monkeypatch.setattr(solver, "validate_summary", lambda cs, summary: False)
    code = main(["oracle", f"{PROBLEMS}/reverse_as_foldr.json"])
    out = capsys.readouterr().out
    assert code == 2 and "Unknown(witness-validation-failed)" in out


@pytest.mark.parametrize(
    "name, code",
    [("just_as_foldr", 0), ("just_mixed_positions_as_foldr", 1)],
)
def test_a_guarded_slot_reaches_the_script(capsys, no_spawn, name, code):
    # a Maybe around the fold result's list slot: the oracle decides the
    # set, and its script asserts the guard, which CI sends to z3
    path = f"tests/data/{name}.json"
    assert main(["oracle", path, "--solver", no_spawn.solver_command]) == code
    capsys.readouterr()
    assert main(["emit-smt", path]) == 0
    assert "(assert (=> (= mid0_b0 0) (= mid0_n0 0)))\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, code, detail",
    [
        ("int_gap_refuted_as_foldr", 1, "every completion of the unpinned suffixes is refuted: extra *, inputs [*, *]"),
        # three distinct nonzero ints for the three unpinned suffixes
        ("int_three_fresh_as_foldr", 0, None),
    ],
)
def test_int_results_are_decided_without_a_solver(capsys, no_spawn, name, code, detail):
    # a result with no list slot: the int candidates cover every shape that
    # matters, so every completion refuted is Unrealizable, not Unknown
    path = f"tests/data/{name}.json"
    assert main(["oracle", path, "--solver", no_spawn.solver_command]) == code
    capsys.readouterr()
    assert main(["check", path, "--format", "json", "--solver", no_spawn.solver_command]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["path"] == "oracle+completion"
    assert payload.get("detail") == detail


def test_oracle_unrealizable_exit_one(capsys, no_spawn):
    code = main(["oracle", f"{PROBLEMS}/drop_as_foldr.json", "--solver", no_spawn.solver_command])
    out = capsys.readouterr().out
    assert code == 1 and "Unrealizable" in out


def test_a_base_witness_that_fails_replay_leaves_the_fold_unknown(capsys, monkeypatch, no_spawn):
    # the base case is decided and replayed on its own; a base witness that
    # fails replay while the steps are Realizable gives Unknown, exit 2.
    # The base case is the one raw set replayed, with no base case itself
    real = solver.validate_summary
    monkeypatch.setattr(solver, "validate_summary", lambda cs, w: cs.base_case is not None and real(cs, w))
    path = f"{PROBLEMS}/reverse_as_foldr.json"
    report = solver.check(load_problem(path), no_spawn)
    assert (report.verdict, report.path) == (UnknownVerdict("base-case-undecided"), "oracle")
    for command in ("check", "oracle"):
        assert main([command, path, "--format", "json", "--solver", no_spawn.solver_command]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"].startswith("Unknown") and "base-case-undecided" in payload["verdict"]


def test_bench_only_single_row(capsys, no_spawn):
    code = main(["bench", "--only", "reverse", "--solver", no_spawn.solver_command])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\nreverse ") == 1 or out.splitlines()[2].startswith("reverse")


def test_bench_json_schema(capsys, no_spawn):
    code = main(["bench", "--only", "tail", "--format", "json", "--solver", no_spawn.solver_command])
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


def test_bench_repeat_flag(capsys, no_spawn):
    code = main(
        ["bench", "--only", "length", "--repeat", "2", "--format", "json", "--solver", no_spawn.solver_command]
    )
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


@pytest.mark.parametrize(
    "problem, answer, code, line",
    [
        # the oracle refutes every completion, the solver refutes the set
        (support.reverse_gap, "unsat", 2, "oracle Unknown(completions-refuted), solver Unrealizable"),
        # the oracle realizes the set, the solver gives up
        (
            lambda: load_problem(f"{PROBLEMS}/reverse_as_foldr.json"),
            "unknown",
            0,
            "oracle Realizable, solver Unknown(solver-unknown)",
        ),
    ],
    ids=["oracle-unknown", "solver-unknown"],
)
def test_oracle_cross_check_with_an_unknown_is_inconclusive(capsys, tmp_path, problem, answer, code, line):
    path = tmp_path / "problem.json"
    path.write_text(problem_to_json(problem()))
    fake = _fake_solver(tmp_path, answer)
    assert main(["oracle", str(path), "--cross-check", "--solver", fake]) == code
    assert capsys.readouterr().out.splitlines()[-1] == f"cross-check inconclusive: {line}"


PROBLEM_FILES = sorted(glob.glob(f"{PROBLEMS}/*.json") + glob.glob("tests/data/*.json"))


@pytest.mark.parametrize("command", ["check", "oracle"])
@pytest.mark.parametrize("path", PROBLEM_FILES)
def test_json_is_one_document_with_the_witness_of_the_table(capsys, no_spawn, path, command):
    # a Realizable payload holds the witness lines the table prints
    argv = [command, path, "--witness", "--solver", no_spawn.solver_command]
    code = main(argv)
    table = capsys.readouterr().out.splitlines()
    assert main([*argv, "--format", "json"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 1) and payload.get("witness", []) == table[1:]
    assert ("witness" in payload) == (payload["verdict"] == "Realizable")


@pytest.mark.parametrize("answer", ["unsat", "unknown"])
@pytest.mark.parametrize("path", PROBLEM_FILES)
def test_oracle_cross_check_json_is_one_document(capsys, tmp_path, path, answer):
    fake = _fake_solver(tmp_path, answer)
    code = main(["oracle", path, "--cross-check", "--format", "json", "--solver", fake])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    # the fake's answer, unless the SMT backend refutes the set unspawned
    solved = payload["cross_check"]["solver"]
    assert solved in ("Unrealizable", "Unknown(solver-unknown)")
    if solved != "Unrealizable":
        outcome = "inconclusive"
    else:
        outcome = "agrees" if payload["verdict"] == "Unrealizable" else "disagreement"
    assert payload["cross_check"]["outcome"] == outcome
    assert code == (4 if outcome == "disagreement" else {"Realizable": 0, "Unrealizable": 1}[payload["verdict"]])
    assert (outcome == "disagreement") == ("cross-check disagreement" in captured.err)


def test_unspawnable_solver_exit_three(capsys, unspawnable):
    code = main(["check", f"{PROBLEMS}/atom_swap_raw.json", "--backend", "smt", "--solver", unspawnable])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"error: cannot spawn solver {unspawnable!r}: [Errno ")


@pytest.mark.parametrize("via", ["flag", "env"])
def test_unbalanced_quote_in_the_solver_command_is_an_input_error(tmp_path, capsys, monkeypatch, via):
    # the problem goes to SMT on the auto backend, so the command is parsed
    path = tmp_path / "reverse-gap.json"
    path.write_text(problem_to_json(support.reverse_gap()))
    argv = ["check", str(path)]
    if via == "flag":
        argv += ["--solver", "z3 '-in"]
    else:
        monkeypatch.setenv("PARACHK_SOLVER", "z3 '-in")
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: cannot parse solver command \"z3 '-in\"")


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


def test_oracle_decides_a_wide_base_case_by_scans(capsys, tmp_path):
    # 14 extra shapes: scans settle a base case of any width, and e is the
    # identity here
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


@pytest.mark.parametrize(
    "make, code",
    [(lambda: support.wide_reverse(20), 0), (support.refuted_wide_concat, 1)],
    ids=["reverse", "refuted-concat"],
)
def test_oracle_searches_a_wide_set_without_a_limit(capsys, tmp_path, make, code):
    # 20 searched input shapes, or 20 searched positions of one
    path = tmp_path / "wide.json"
    path.write_text(problem_to_json(make()))
    assert main(["oracle", str(path)]) == code
    assert capsys.readouterr().err == ""


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
        (
            ["check", f"{PROBLEMS}/reverse_as_foldr.json", "--frob"],
            "parachk check: error: unrecognized arguments: --frob",
        ),
    ],
    ids=[
        "bad-timeout", "no-path", "unknown-command", "no-command",
        "zero-repeat", "negative-repeat", "bad-repeat", "unrecognized-args",
    ],
)
def test_usage_errors_exit_three(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    err = capsys.readouterr().err
    assert exit_.value.code == 3
    assert err.startswith("usage: parachk") and message in err
    # the parser that reports the error prints its own usage
    prog = err.splitlines()[-1].split(": error: ")[0]
    assert err.startswith(f"usage: {prog} ")


def _decided(capsys, argv):
    """The exit code and output of `main(argv)`, without its timings."""
    code = main(argv)
    captured = capsys.readouterr()
    if "--format" in argv:
        payload = json.loads(captured.out)
        del payload["total_ms"], payload["solver_ms"]
        return code, payload, captured.err
    return code, captured.out, captured.err


def test_a_command_line_is_parsed_once(capsys, monkeypatch):
    # a line that starts with a command goes to that command's parser only
    lines = [
        ["oracle", f"{PROBLEMS}/reverse_as_foldr.json"],
        ["check", f"{PROBLEMS}/reverse_as_map.json", "--format", "json"],
    ]
    expected = [_decided(capsys, argv) for argv in lines]
    assert [code for code, _, _ in expected] == [0, 1]

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command line")

    parser = build_parser()
    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    assert [_decided(capsys, argv) for argv in lines] == expected
    # every other line reaches the top-level parser
    for argv in ([], ["frob"], ["-h"], ["--witness", "check"]):
        with pytest.raises(AssertionError, match="top-level parser"):
            main(argv)


def test_main_reads_the_command_line_of_the_process(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["parachk", "oracle", f"{PROBLEMS}/reverse_as_foldr.json"])
    assert main() == 0
    assert capsys.readouterr().out == "reverse-as-foldr: Realizable (oracle)\n"


def test_the_cli_module_runs_as_a_program():
    src = os.path.dirname(os.path.dirname(parachk.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "parachk.cli", "oracle", f"{PROBLEMS}/reverse_as_foldr.json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "reverse-as-foldr: Realizable (oracle)\n", "")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--help"])
    assert exit_.value.code == 0 and capsys.readouterr().out.startswith("usage: parachk check")
