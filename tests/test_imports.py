"""Every module of the package uses each name it imports; the package's
`__init__.py`, which re-exports, is exempt."""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "parachk")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for p in sorted(glob.glob(os.path.join(SRC, "*.py"))) if not p.endswith("__init__.py")]
    assert paths
    unused = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.basename(path)] = names
    assert not unused


def test_the_cli_imports_no_heavy_standard_module():
    # a fresh `parachk check` pays for every module the CLI imports:
    # dataclasses brings inspect, ast, dis and tokenize, statistics brings
    # decimal and fractions, and subprocess brings signal, selectors and
    # threading, though only a solver spawn needs it. -S keeps the site
    # hooks of the environment out of the answer.
    code = (
        "import sys, parachk.cli, parachk.bench\n"
        "heavy = ('dataclasses', 'inspect', 'statistics', 'subprocess')\n"
        "print(*[m for m in heavy if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.split() == []


def test_an_unused_import_is_found():
    source = "import os\nimport re\nfrom json import dumps, loads\nre.compile(loads('1'))\n"
    assert unused_imports(source) == ["os (line 1)", "dumps (line 3)"]
