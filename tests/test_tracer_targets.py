"""The benchmark's tracer wraps parachk functions at the module attributes
their callers look them up by (`perfbench/spans.py` TARGETS), and its
modules import parachk names. A rename in `src/` must fail here, not in a
benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def _parachk_imports():
    """(module, name) for every name a benchmark module imports from
    parachk, read from its source; name None for a plain `import`."""
    for path in sorted(SPANS.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "parachk":
                yield from ((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "parachk")


def test_every_name_the_benchmark_imports_resolves():
    imports = list(_parachk_imports())
    assert {name for _, name in imports} >= {"cli", "resolve_constraint", "to_extension"}
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            # `from parachk import cli` names a submodule; anything else
            # raises ModuleNotFoundError naming the lost attribute
            importlib.import_module(f"{module_name}.{name}")
