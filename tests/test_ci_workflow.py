"""The CI workflow keeps up with the benchmark and the supported Pythons,
and pytest's warning policy stays strict.

The workflow and `pyproject.toml` are read as text: a YAML or TOML parser
is no test dependency on every supported Python, and a test skipped for
want of one would fail the CI job that forbids skips.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_the_smoke_run_covers_every_benchmark_workload():
    loops = re.findall(r"^\s*for w in ([^;\n]*); do$", WORKFLOW, re.MULTILINE)
    assert len(loops) == 1, "one smoke loop over the workloads"
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert {w["name"] for w in workloads} <= set(loops[0].split())


def test_the_oracle_cross_check_covers_every_problem_file():
    # one loop over the problems/ and tests/data/ globs, failing on exit 3
    # (an error) and 4 (a disagreement); an Unknown's exit 2 is no failure
    loops = re.findall(
        r'^\s*for (\w+) in problems/\*\.json tests/data/\*\.json; do\n'
        r'\s*code=0\n'
        r'\s*parachk oracle "\$\1" --cross-check \|\| code=\$\?\n'
        r'\s*if \[ "\$code" -ge 3 \]; then$',
        WORKFLOW,
        re.MULTILINE,
    )
    assert loops == ["f"]
    assert sorted((ROOT / "problems").glob("*.json"))
    assert sorted((ROOT / "tests" / "data").glob("*.json"))


def _job(name: str) -> str:
    """The text of the workflow job `name`, up to the next job."""
    jobs = re.split(r"^  (?=[\w-]+:$)", WORKFLOW.split("\njobs:\n", 1)[1], flags=re.MULTILINE)
    (job,) = [j for j in jobs if j.startswith(f"{name}:\n")]
    return job


def test_a_job_runs_tier1_without_a_solver_and_bounds_the_skips():
    # the solver-gated tests skip there and nothing else may: a test that
    # needs no solver must not move behind the gate unseen
    job = _job("tier1-no-solver")
    assert "z3" not in job.replace("! command -v z3", "")
    assert re.search(r"^\s*! command -v z3$", job, re.MULTILINE)
    assert re.search(r"^\s*MAX_SKIPPED: 20$", job, re.MULTILINE)
    assert 'if [ "$skipped" -gt "$MAX_SKIPPED" ]; then' in job
    assert "python -m pytest -q --continue-on-collection-errors" in job
    assert "z3-solver" in _job("tier1")


def test_the_python_matrix_starts_at_the_supported_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (floor,) = re.findall(r'^requires-python = ">=([\d.]+)"$', pyproject, re.MULTILINE)
    (matrix,) = re.findall(r"^\s*python-version: \[(.*)\]$", WORKFLOW, re.MULTILINE)
    versions = [_version(v) for v in re.findall(r'"([\d.]+)"', matrix)]
    assert versions and min(versions) <= _version(floor)


def _warning_filters() -> list[str]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (body,) = re.findall(r"^filterwarnings = \[(.*?)\]$", pyproject, re.MULTILINE | re.DOTALL)
    return re.findall(r'"([^"]*)"', re.sub(r"#.*", "", body))


def test_every_warning_is_an_error_but_the_scoped_ignores():
    # an ignore names the message it forgives, so it can never widen into
    # a blanket loosening of "error"
    first, *rest = _warning_filters()
    assert first == "error"
    for entry in rest:
        action, message, *_ = entry.split(":")
        assert action == "ignore" and message.strip(), entry


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # with every warning an error, a deprecation warning that hypothesis's
    # pytest plugin raises while it reports a failure turned into an
    # INTERNALERROR and stopped the session before the next test
    (tmp_path / "pyproject.toml").write_text(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"), encoding="utf-8"
    )
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
