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


@pytest.fixture(params=["directory", "not-executable", "no-shebang"])
def unspawnable(request, tmp_path) -> str:
    """A solver path that exists but cannot be executed."""
    path = tmp_path / request.param
    if request.param == "directory":
        path.mkdir()
    elif request.param == "not-executable":
        path.write_text("#!/bin/sh\necho sat\n")
        os.chmod(path, stat.S_IRUSR | stat.S_IWUSR)
    else:  # an executable text file without a shebang line
        path.write_text("echo sat\n")
        os.chmod(path, stat.S_IRWXU)
    return str(path)
