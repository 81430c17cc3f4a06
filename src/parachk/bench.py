"""The benchmark corpus: sixteen list functions checked for realizability as
a right fold, each with a shape-complete example set and a shape-incomplete
subset obtained by removing every other example (indices 1, 3, 5, ...).

Example sets are authored here and validated at construction time: every
shape-complete set is checked by `shape_complete`, and outputs are computed
from small reference implementations rather than written by hand. Partial
functions return Maybe or the empty list, extra arguments are kept constant
through the fold, and two-parameter functions are specialized to a single
element type.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .functors import (
    BOOL,
    BoolV,
    ID,
    INT,
    IntV,
    JustV,
    ListOf,
    ListV,
    MaybeOf,
    NothingV,
    PairV,
    ProdOf,
    UNIT,
    UnitV,
    Value,
)
from .problem import Problem, Signature, SketchKind, atom, build_problem
from .propagate import shape_complete
from .solver import SolverConfig, check
from .verdict import verdict_name


class BenchEntry(NamedTuple):
    name: str
    problem_sc: Problem
    problem_si: Problem
    expected_fold: bool


def _lst(*vs: Value) -> ListV:
    return ListV(tuple(vs))


def _atoms(labels: str) -> list[Value]:
    return [atom(x) for x in labels.split()]


def _entry(name, signature, expected, examples) -> BenchEntry:
    sc = build_problem(name, signature, SketchKind.FOLDR, examples)
    report = shape_complete(sc)
    if not report.complete:
        raise AssertionError(f"{name}: curated set is not shape complete: {report.missing}")
    si = build_problem(name, signature, SketchKind.FOLDR, examples[::2])
    return BenchEntry(name, sc, si, expected)


# The input atoms of an example, by its length.
_POOL = ["", "g", "e f", "a b c", "h i j k"]


def _fold_entry(
    name, result, out_fn, base, expected, lengths, extra=(UNIT, UnitV())
) -> BenchEntry:
    """A function of one list of atoms, with the extra argument `extra`
    (functor, value) kept constant through the fold. Input atoms are chosen
    per example by length; outputs come from the reference function."""
    sig = Signature(extra[0], ID, result)
    examples = []
    for n in lengths:
        xs = _atoms(_POOL[n])
        examples.append((extra[1], xs, out_fn(xs), base))
    return _entry(name, sig, expected, examples)


def _corpus() -> list[BenchEntry]:
    entries = [
        _fold_entry("null", BOOL, lambda xs: BoolV(len(xs) == 0), BoolV(True), True, [3, 0, 2, 1]),
        _fold_entry("length", INT, lambda xs: IntV(len(xs)), IntV(0), True, [3, 0, 2, 1]),
        _fold_entry(
            "head",
            MaybeOf(ID),
            lambda xs: JustV(xs[0]) if xs else NothingV(),
            NothingV(),
            True,
            [3, 0, 2, 1],
        ),
        _fold_entry(
            "last",
            MaybeOf(ID),
            lambda xs: JustV(xs[-1]) if xs else NothingV(),
            NothingV(),
            True,
            [3, 0, 2, 1],
        ),
        _fold_entry("tail", ListOf(ID), lambda xs: _lst(*xs[1:]), _lst(), False, [3, 0, 2, 1]),
        _fold_entry("init", ListOf(ID), lambda xs: _lst(*xs[:-1]), _lst(), False, [3, 0, 1, 2]),
        _fold_entry(
            "reverse", ListOf(ID), lambda xs: _lst(*reversed(xs)), _lst(), True, [4, 0, 3, 1, 2]
        ),
    ]

    # integer-argument functions
    one, two = (INT, IntV(1)), (INT, IntV(2))
    entries += [
        _fold_entry(
            "index",
            MaybeOf(ID),
            lambda xs: JustV(xs[1]) if len(xs) > 1 else NothingV(),
            NothingV(),
            False,
            [3, 0, 2, 1],
            one,
        ),
        _fold_entry("drop", ListOf(ID), lambda xs: _lst(*xs[1:]), _lst(), False, [3, 0, 2, 1], one),
        _fold_entry("take", ListOf(ID), lambda xs: _lst(*xs[:2]), _lst(), True, [3, 0, 2, 1], two),
        _fold_entry(
            "splitAt",
            ProdOf(ListOf(ID), ListOf(ID)),
            lambda xs: PairV(_lst(*xs[:1]), _lst(*xs[1:])),
            PairV(_lst(), _lst()),
            True,
            [3, 0, 2, 1],
            one,
        ),
    ]

    # list-argument functions
    pq = _atoms("p q")
    other = (ListOf(ID), _lst(*pq))
    entries += [
        _fold_entry(
            "append", ListOf(ID), lambda ys: _lst(*ys, *pq), _lst(*pq), True, [3, 0, 2, 1], other
        ),
        _fold_entry(
            "prepend", ListOf(ID), lambda ys: _lst(*pq, *ys), _lst(*pq), True, [3, 0, 2, 1], other
        ),
        _fold_entry(
            "zip",
            ListOf(ProdOf(ID, ID)),
            lambda ys: _lst(*(PairV(a, b) for a, b in zip(pq, ys))),
            _lst(),
            True,
            [3, 0, 2, 1],
            other,
        ),
    ]

    # unzip :: [(a, a)] -> ([a], [a])
    def unzip_entry():
        sig = Signature(UNIT, ProdOf(ID, ID), ProdOf(ListOf(ID), ListOf(ID)))
        pairs = [
            ("a", "b"), ("c", "d"), ("e", "f"), ("g", "h"),
        ]
        def example(n):
            ps = [PairV(atom(x), atom(y)) for x, y in pairs[:n]]
            out = PairV(
                _lst(*(p.first for p in ps)), _lst(*(p.second for p in ps))
            )
            return (UnitV(), ps, out, PairV(_lst(), _lst()))
        return _entry(
            "unzip", sig, True, [example(3), example(0), example(2), example(1)]
        )

    entries.append(unzip_entry())

    # concat :: [[a]] -> [a]; element shapes vary, so the suffix closure is
    # spelled out per example
    def concat_entry():
        sig = Signature(UNIT, ListOf(ID), ListOf(ID))
        def ex(*rows):
            xs = [_lst(*_atoms(r)) if r else _lst() for r in rows]
            flat = [a for r in rows for a in _atoms(r)]
            return (UnitV(), xs, _lst(*flat), _lst())
        return _entry(
            "concat",
            sig,
            True,
            [
                ex("a", "b c"),     # needs suffix [2]
                ex(),               # empty input
                ex("d e"),          # the [2] suffix
                ex("f"),            # the [1] suffix
                ex("x", "y"),       # needs suffix [1]
                ex("", "u", "v"),   # needs suffixes [1,1] and [1]
            ],
        )

    entries.append(concat_entry())
    return entries


_CORPUS: list[BenchEntry] | None = None


def corpus() -> list[BenchEntry]:
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _corpus()
    return _CORPUS


# ---------------------------------------------------------------------------
# Running the benchmark


class BenchRow(NamedTuple):
    name: str
    expected_fold: bool
    sc_verdict: str
    sc_ms: float
    si_verdict: str
    si_ms: float

    @property
    def sc_ok(self) -> bool:
        return self.sc_verdict == ("Realizable" if self.expected_fold else "Unrealizable")

    @property
    def si_ok(self) -> bool:
        expected = "Realizable" if self.expected_fold else "Unrealizable"
        return self.si_verdict == expected or self.si_verdict.startswith("Unknown")


def _median_check(problem, cfg, repeat, backend) -> tuple[str, float]:
    """The first run's verdict and the median time over `repeat` runs: one
    slow run (a cold cache, a busy host) does not move a median."""
    times = []
    verdict = None
    for _ in range(repeat):
        report = check(problem, cfg, backend=backend)
        if verdict is None:
            verdict = report.verdict
        times.append(report.total_ms)
    return verdict_name(verdict), _median(times)


def _median(values: list[float]) -> float:
    """The middle value for an odd count, else the mean of the two middle
    values: `statistics.median`, without loading the `statistics` module
    and the `decimal` and `fractions` modules it imports."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def run_bench(
    cfg: SolverConfig | None = None,
    repeat: int = 1,
    only: str | None = None,
    backend: str = "auto",
) -> tuple[list[BenchRow], bool]:
    """Run the corpus; ok means every shape-complete verdict matches the
    expected fold column and every shape-incomplete verdict is the expected
    one or Unknown. `backend` is passed to `check`; `repeat` must be at
    least 1."""
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, not {repeat}")
    cfg = cfg or SolverConfig()
    rows = []
    for entry in corpus():
        if only is not None and entry.name != only:
            continue
        sc_v, sc_ms = _median_check(entry.problem_sc, cfg, repeat, backend)
        si_v, si_ms = _median_check(entry.problem_si, cfg, repeat, backend)
        rows.append(BenchRow(entry.name, entry.expected_fold, sc_v, sc_ms, si_v, si_ms))
    ok = all(r.sc_ok and r.si_ok for r in rows)
    return rows, ok


def format_table(rows: list[BenchRow]) -> str:
    header = f"{'name':10s} {'fold?':6s} {'SC verdict':14s} {'SC ms':>8s} {'SI verdict':14s} {'SI ms':>8s}  ok"
    lines = [header, "-" * len(header)]
    for r in rows:
        flag = "ok" if (r.sc_ok and r.si_ok) else "MISMATCH"
        lines.append(
            f"{r.name:10s} {'yes' if r.expected_fold else 'no':6s} "
            f"{r.sc_verdict:14s} {r.sc_ms:8.1f} {r.si_verdict:14s} {r.si_ms:8.1f}  {flag}"
        )
    sc_times = [r.sc_ms for r in rows]
    if sc_times:
        lines.append(f"median SC time: {_median(sc_times):.1f} ms")
    return "\n".join(lines)


def format_json(rows: list[BenchRow], ok: bool, repeat: int) -> str:
    payload = {
        "entries": [
            {
                "name": r.name,
                "expected_fold": r.expected_fold,
                "sc": {"verdict": r.sc_verdict, "ms": round(r.sc_ms, 3)},
                "si": {"verdict": r.si_verdict, "ms": round(r.si_ms, 3)},
                "ok": r.sc_ok and r.si_ok,
            }
            for r in rows
        ],
        "ok": ok,
        "repeat": repeat,
        "sc_median_ms": round(_median([r.sc_ms for r in rows]), 3) if rows else None,
    }
    return json.dumps(payload, indent=2)
