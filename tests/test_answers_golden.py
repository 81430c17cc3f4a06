"""Golden answers: every detail, witness line and suffix text that `check`
prints for the fold corpus and the problem files, pinned by one SHA-256
digest, so that a change of representation moves no answer by a byte."""

import hashlib
import json
import os
import re

from parachk import load_problem, shape_complete
from parachk.cli import main

import support

PROBLEMS = "problems"

# the timings of a table line, the one part of `check`'s output that varies
_TIMINGS = re.compile(r"\(\d+\.\d ms total, \d+\.\d ms solver\)")

ANSWERS_SHA256 = "f3733cb2c8d7fde8d7b68ca67d6422bff08c6c95bc27c6e1dda0e853bf530918"


def _answers(capsys, path: str, solver: str) -> list[str]:
    """The JSON payload without its timings, the `--witness` table output
    without its timings, and the suffixes no example pins."""
    code = main(["check", path, "--format", "json", "--solver", solver])
    payload = json.loads(capsys.readouterr().out)
    del payload["total_ms"], payload["solver_ms"]
    code_table = main(["check", path, "--witness", "--solver", solver])
    table = _TIMINGS.sub("(timings)", capsys.readouterr().out)
    missing = shape_complete(load_problem(path)).missing
    return [
        os.path.basename(path),
        str(code),
        json.dumps(payload, sort_keys=True),
        str(code_table),
        table,
        *missing,
    ]


def test_answers_are_byte_identical(capsys, tmp_path, no_spawn):
    lines = []
    for path in support.answer_paths(tmp_path):
        lines.extend(_answers(capsys, path, no_spawn.solver_command))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ANSWERS_SHA256


def test_reverse_fold_witness_shows_each_intermediate(capsys, no_spawn):
    code = main(["check", f"{PROBLEMS}/reverse_as_foldr.json", "--witness", "--solver", no_spawn.solver_command])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    # every key shows as the shape of each input part, and of the result
    assert out[1:3] == ["shape morphism:", "  ((), *, []) -> [*]"]
    assert "  ((), *, [*]) q=0 -> 1" in out
    at = out.index("intermediate results:")
    assert out[at + 1 :] == [
        "  y0 = [c] (shape [*])",
        "  y1 = [c,b] (shape [*,*])",
        "  y2 = [e] (shape [*])",
    ]
