"""The benchmark corpus itself: the sixteen functions of the fold benchmark,
their curated example sets, and the derivation of the shape-incomplete
subsets."""

import hashlib
import itertools
import random
import statistics

import pytest

from parachk import Unrealizable, corpus, problem_to_json, shape_complete
from parachk import bench
from parachk.bench import BenchRow, format_json, format_table, run_bench
from parachk.solver import CheckReport

import support

EXPECTED = {
    "null": True,
    "length": True,
    "head": True,
    "last": True,
    "tail": False,
    "init": False,
    "reverse": True,
    "index": False,
    "drop": False,
    "take": True,
    "splitAt": True,
    "append": True,
    "prepend": True,
    "zip": True,
    "unzip": True,
    "concat": True,
}


def test_corpus_has_the_sixteen_functions():
    names = [e.name for e in corpus()]
    assert names == list(EXPECTED)


def test_expected_fold_column():
    assert {e.name: e.expected_fold for e in corpus()} == EXPECTED


# SHA-256 of every corpus entry's two problem files and fold column, in
# order: the fold-corpus benchmark workload is built from `corpus()`, so a
# refactor of the corpus builders must not move a single byte
CORPUS_SHA256 = "0ab3edcd9b56420523bd92d43da432edf332d39aeb0245a695a797373fc50c5d"


def test_corpus_golden():
    h = hashlib.sha256()
    for e in corpus():
        for text in (problem_to_json(e.problem_sc), problem_to_json(e.problem_si), str(e.expected_fold)):
            h.update(text.encode())
    assert h.hexdigest() == CORPUS_SHA256


def test_example_set_sizes():
    for e in corpus():
        assert 4 <= len(e.problem_sc.examples) <= 10


def test_sc_sets_are_shape_complete():
    for e in corpus():
        assert shape_complete(e.problem_sc).complete, e.name


def test_si_sets_drop_every_other_example():
    for e in corpus():
        sc, si = e.problem_sc.examples, e.problem_si.examples
        kept = sc[::2]
        assert len(si) == len(kept)
        for a, b in zip(si, kept):
            # same content modulo re-interned atom codes
            assert [x.label for x in _labels(a)] == [x.label for x in _labels(b)]


def _labels(example):
    atoms = []

    def collect(a):
        atoms.append(a)
        return a

    for v in (example.extra, *example.inputs, example.output, *( [example.base] if example.base else [] )):
        support.map_atoms(v, collect)
    return atoms


def test_si_sets_are_shape_incomplete():
    for e in corpus():
        assert not shape_complete(e.problem_si).complete, e.name


def test_formatting_round_trips():
    rows = [BenchRow("tail", False, "Unrealizable", 10.0, "Unrealizable", 12.0)]
    table = format_table(rows)
    assert "tail" in table and "median" in table
    import json

    payload = json.loads(format_json(rows, True, 3))
    assert payload["ok"] is True and payload["repeat"] == 3


def test_repeat_reports_the_median(monkeypatch):
    # an even count gives the mean of the two middle timings
    for times, median in [([1.0, 2.0, 100.0], 2.0), ([1.0, 2.0, 100.0, 4.0], 3.0)]:
        cycle = itertools.cycle(times)
        monkeypatch.setattr(
            bench, "check", lambda problem, cfg, backend="auto": CheckReport(Unrealizable(), next(cycle), 0.0)
        )
        rows, _ = run_bench(repeat=len(times), only="tail")
        assert (rows[0].sc_ms, rows[0].si_ms) == (median, median)


def test_median_is_the_statistics_median():
    rng = random.Random(5)
    for n in range(1, 12):
        values = [rng.choice([rng.uniform(0, 50), float(rng.randint(0, 5))]) for _ in range(n)]
        assert bench._median(values) == statistics.median(values)


@pytest.mark.parametrize("repeat", [0, -1])
def test_repeat_below_one_is_rejected(monkeypatch, repeat):
    monkeypatch.setattr(bench, "check", lambda *args, **kwargs: pytest.fail("checked a problem"))
    with pytest.raises(ValueError, match=f"repeat must be at least 1, not {repeat}"):
        run_bench(repeat=repeat, only="length")
