"""The benchmark loop: set up one workload, decide its problems one at a time
through `parachk.cli.main` in this process, check every verdict, and report
the end-to-end metrics (untraced) or the per-layer metrics (traced).

One process, one client, a closed loop: the next problem starts when the
previous verdict is in. After one untimed warm-up pass, timed passes over
all of the workload's problems run for the given seconds; the reported
times come from each problem's fastest tenth of timings.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from parachk import cli, parse_problem, problem_to_json

import replay
from spans import ROOT, SELF_TIMES, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
WORK = os.path.join(REPO, ".perfbench_work")
OUT = os.path.join(REPO, ".perfbench_out")

# Fresh interpreters timed for setup_s, spread over the run; the median is
# reported.
SETUP_RUNS = 20
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import parachk.cli, parachk.bench\n"
    "parachk.bench.corpus()\n"
    "print(time.perf_counter() - t)\n"
)

# End-to-end timings come from each problem's fastest 1/PASS_SHARE of
# timings, and from at least MIN_SAMPLES timings in all, so that the 90th
# percentile has at least 20 samples beyond it.
PASS_SHARE = 10
MIN_SAMPLES = 200

VERDICT_OF_EXIT = {0: "Realizable", 1: "Unrealizable", 2: "Unknown"}


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    expected: str
    unknown_ok: bool

    def correct(self, code: int, output: str) -> bool:
        verdict = VERDICT_OF_EXIT.get(code)
        if verdict == "Unknown":
            return self.unknown_ok and "Unknown" in output
        return verdict == self.expected and f": {verdict} " in output


def load_metric_names() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


def prepare(workload: str, seed: int, workdir: str) -> list[Case]:
    """Write the workload's problem files, replay answers and expected
    verdicts under workdir. Every realizable answer's model passes parachk's
    own replay first."""
    os.makedirs(workdir)
    cases = []
    for inst in WORKLOADS[workload](seed, REPO):
        path = os.path.join(workdir, f"{inst.name}.json")
        text = problem_to_json(inst.problem)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [inst.command, path]
        if inst.command == "check":
            # the model is built against the problem exactly as the CLI reads it
            parsed = dataclasses.replace(inst, problem=parse_problem(text))
            answers = os.path.join(workdir, f"{inst.name}.answers")
            with open(answers, "w", encoding="utf-8") as fh:
                fh.write(replay.answer_text(parsed))
            argv += ["--solver", replay.solver_command(answers)]
        cases.append(Case(inst.name, tuple(argv), inst.expected, inst.unknown_ok))
    with open(os.path.join(workdir, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({c.name: {"expected": c.expected, "unknown_ok": c.unknown_ok} for c in cases}, fh, indent=1)
    return cases


class Loop:
    """Decides cases one at a time and counts the wrong verdicts."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def decide(self, case: Case) -> float:
        buf = io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(list(case.argv))
            else:
                tracer.check += 1
                tracer.instance = case.name
                idx = tracer.begin(ROOT)
                code = cli.main(list(case.argv))
                tracer.end(idx)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if not case.correct(code, buf.getvalue()):
            self.failed += 1
            self.failures.append(f"{case.name}: exit {code}, expected {case.expected}: {buf.getvalue().strip()}")
        return elapsed

    def one_pass(self, cases: list[Case]) -> tuple[list[float], float]:
        start = time.perf_counter()
        latencies = [self.decide(c) for c in cases]
        return latencies, time.perf_counter() - start


def setup_once() -> float:
    """Wall time of `import parachk.cli` plus `parachk.bench.corpus()` in a
    fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(out.stdout)


def fastest(passes: list[tuple[list[float], float]]) -> list[float]:
    """Each problem's fastest tenth of timings, and at least enough of them
    for MIN_SAMPLES in all. The host's speed moves by up to 1.5x over
    seconds to minutes; a problem's fastest timings are the ones the host
    disturbed least."""
    n = len(passes[0][0])
    keep = max(len(passes) // PASS_SHARE, -(-MIN_SAMPLES // n))
    return [t for c in range(n) for t in sorted(lat[c] for lat, _ in passes)[:keep]]


def timed_passes(cases: list[Case], seconds: float, loop: Loop, setups: list[float] | None = None):
    """Whole passes until `seconds` of them have run. With `setups`, also
    time SETUP_RUNS fresh interpreters, spread between the passes."""
    passes = []
    busy = 0.0
    while busy < seconds:
        passes.append(loop.one_pass(cases))
        busy += passes[-1][1]
        if setups is not None and len(setups) < SETUP_RUNS * busy / seconds:
            setups.append(setup_once())
    while setups is not None and len(setups) < SETUP_RUNS:
        setups.append(setup_once())
    return passes


def end_to_end(cases: list[Case], seconds: float, loop: Loop) -> tuple[dict, int]:
    loop.one_pass(cases)  # warm-up: file cache, lazy imports
    setups: list[float] = []
    kept = fastest(timed_passes(cases, seconds, loop, setups))
    metrics = {
        "checks_per_s": len(kept) / sum(kept),
        "latency_p50_ms": statistics.median(kept) * 1e3,
        "latency_p90_ms": statistics.quantiles(kept, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, len(kept)


def throughput(passes) -> float:
    kept = fastest(passes)
    return len(kept) / sum(kept)


def per_layer(cases: list[Case], seconds: float, loop: Loop, tracer: Tracer) -> tuple[dict, int]:
    """Alternate untraced and traced passes; the traced ones give the layer
    numbers, the pair gives the tracing overhead."""
    plain = Loop()
    plain.one_pass(cases)
    untraced, traced = [], []
    while sum(t for _, t in untraced + traced) < seconds or not traced:
        untraced.append(plain.one_pass(cases))
        tracer.install()
        try:
            traced.append(loop.one_pass(cases))
        finally:
            tracer.uninstall()
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.failures += plain.failures
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_share"] = 1.0 - throughput(traced) / throughput(untraced)
    return metrics, sum(len(lat) for lat, _ in traced)


def main(argv=None, prepare=prepare) -> int:
    parser = argparse.ArgumentParser(description="parachk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    e2e_names, layer_names = load_metric_names()

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        cases = prepare(args.workload, args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            loop = Loop(tracer)
            metrics, samples = per_layer(cases, args.seconds, loop, tracer)
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.tsv"))
            names = layer_names
        else:
            loop = Loop()
            metrics, samples = end_to_end(cases, args.seconds, loop)
            names = e2e_names
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} problems, closed loop, one client, "
          f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, solver: replay stub (no z3 on PATH)")
    for name, unit in names:
        print(f"  {name:32s} {metrics[name]:14.4f} {unit}")
    print(f"  {'failed_share':32s} {loop.failed / loop.attempted:14.4f} ({loop.failed} of {loop.attempted})")
    print(f"  {'traced checks' if args.trace else 'timings kept':32s} {samples:14d}")
    if args.trace:
        layers = sum(metrics[m] for m in SELF_TIMES) + metrics["oracle.search_ms.realizable"] + metrics["oracle.search_ms.unrealizable"]
        print(f"  {'layer self times sum (ms)':32s} {layers:14.4f} of {metrics['trace.check_ms']:.4f} traced")
    for line in loop.failures[:10]:
        print(f"  WRONG {line}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if loop.failed == 0 else 1
