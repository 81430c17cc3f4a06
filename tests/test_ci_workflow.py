"""The CI workflow keeps up with the benchmark and the supported Pythons.

The workflow is read as text: a YAML parser is no test dependency, and a
test skipped for want of one would fail the CI job that forbids skips.
"""

import json
import re
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
