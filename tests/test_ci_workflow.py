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
