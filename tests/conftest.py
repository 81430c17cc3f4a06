import os
import shutil
import stat

import pytest

from parachk import SolverConfig


def solver_available() -> bool:
    cmd = SolverConfig().solver_command.split()[0]
    return shutil.which(cmd) is not None


needs_solver = pytest.mark.skipif(
    not solver_available(), reason="no SMT solver on PATH (install z3 or set PARACHK_SOLVER)"
)


@pytest.fixture(scope="session")
def cfg() -> SolverConfig:
    return SolverConfig()


@pytest.fixture
def no_spawn(tmp_path) -> SolverConfig:
    """A solver command that exits non-zero whenever it is spawned."""
    fake = tmp_path / "fake-solver"
    fake.write_text("#!/bin/sh\ncat > /dev/null\necho spawned >&2\nexit 7\n")
    os.chmod(fake, stat.S_IRWXU)
    return SolverConfig(solver_command=str(fake))
