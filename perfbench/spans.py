"""Span tracing from outside parachk.

`Tracer.install()` replaces public functions at the names their callers
look up (for example `parachk.solver.run_solver`, which `check` calls) with
wrappers that record one span per call: check id, name, start, end, parent
and a note taken from the result. Spans stay in memory; `write` saves them
and `layer_metrics` turns them into per-check self times and counts.
"""

from __future__ import annotations

import importlib
import time

from parachk import PropagationUnrealizable


# (module, attribute, span name, what to note from the return value)
TARGETS = (
    ("parachk.cli", "load_problem", "problem.load", None),
    ("parachk.cli", "shape_complete", "propagate", None),
    ("parachk.cli", "propagate", "propagate", "constraints"),
    ("parachk.solver", "propagate", "propagate", "constraints"),
    ("parachk.solver", "encode", "encode", "script"),
    ("parachk.solver", "shrink_assertions", "encode", None),
    ("parachk.solver", "run_solver", "solver.wait", "model"),
    ("parachk.solver", "extract_witness", "solver.extract", None),
    ("parachk.solver", "validate_summary", "verdict.replay", None),
    ("parachk.oracle", "ground", "oracle.ground", None),
    ("parachk.oracle", "oracle_check", "oracle.search", "verdict"),
)

ROOT = "cli"
FAST_PATH = "fast-path"

# Per-layer metric -> span name whose self time it sums.
SELF_TIMES = {
    "problem.load_ms": "problem.load",
    "propagate.ms": "propagate",
    "encode.ms": "encode",
    "solver.wait_ms": "solver.wait",
    "solver.extract_ms": "solver.extract",
    "verdict.replay_ms": "verdict.replay",
    "oracle.ground_ms": "oracle.ground",
    "cli.self_ms": ROOT,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [check, name, start_ns, end_ns, parent, note]
        self._scripts: dict = {}  # instance -> its SMT script
        self._stack: list[int] = []
        self._saved: list = []
        self.check = -1
        self.instance = ""

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([self.check, name, time.perf_counter_ns(), 0, parent, None])
        return idx

    def end(self, idx: int, note=None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter_ns()
        span[5] = note
        self._stack.pop()

    def _note(self, kind, result):
        if kind == "constraints":
            return len(result.constraints)
        if kind == "model":
            return len(result.model_text)
        if kind == "verdict":
            return type(result).__name__
        if kind == "script":
            # encoding is deterministic: keep one script per instance and
            # size it after the run, outside every span
            self._scripts.setdefault(self.instance, result)
            return self.instance
        return None

    def _wrap(self, fn, name, kind):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except PropagationUnrealizable:
                self.end(idx, FAST_PATH)
                raise
            except BaseException:
                self.end(idx)
                raise
            self.end(idx, self._note(kind, result) if kind else None)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, kind))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("check\tname\tstart_ns\tend_ns\tparent\tnote\n")
            for check, name, start, end, parent, note in self.spans:
                fh.write(f"{check}\t{name}\t{start}\t{end}\t{parent}\t{'' if note is None else note}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-check self times (ms) and counts over every traced check."""
        script_bytes = {inst: len(script.text().encode()) for inst, script in self._scripts.items()}
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = {}
        search_ns = {"Realizable": 0, "Unrealizable": 0}
        checks = total_ns = fast = constraints = calls = model_bytes = script_total = 0
        for i, (_, name, start, end, _, note) in enumerate(self.spans):
            own = end - start - child_ns[i]
            self_ns[name] = self_ns.get(name, 0) + own
            if name == ROOT:
                checks += 1
                total_ns += end - start
            elif name == "oracle.search" and note in search_ns:
                search_ns[note] += own
            elif name == "propagate" and note == FAST_PATH:
                fast += 1
            elif name == "propagate" and note is not None:
                constraints += note
            elif name == "solver.wait":
                calls += 1
                model_bytes += note or 0
            elif name == "encode" and note is not None:
                script_total += script_bytes[note]
        checks = max(checks, 1)
        ms = 1e-6 / checks
        metrics = {m: self_ns.get(span, 0) * ms for m, span in SELF_TIMES.items()}
        metrics["oracle.search_ms.realizable"] = search_ns["Realizable"] * ms
        metrics["oracle.search_ms.unrealizable"] = search_ns["Unrealizable"] * ms
        metrics["trace.check_ms"] = total_ns * ms
        metrics["propagate.fast_path_share"] = fast / checks
        metrics["propagate.constraints"] = constraints / checks
        metrics["encode.script_bytes"] = script_total / checks
        metrics["solver.calls_per_check"] = calls / checks
        metrics["solver.model_bytes"] = model_bytes / checks
        return metrics
