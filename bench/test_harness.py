"""Tests of the benchmark's own helpers: python3 -m pytest bench/test_harness.py"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import Experiment  # noqa: E402


def test_best_of_takes_the_fastest_repeat():
    assert harness.best_of({"a": [0.3, 0.1, 0.2], "b": [0.5], "c": []}) == {"a": 0.1, "b": 0.5}


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 41)]  # 40 samples
    value, pct, n = harness.tail_percentile(values)
    assert n == 40
    assert sum(v > value for v in values) == 10
    assert value == 30.0 and pct == 75.0


def test_tail_with_exactly_eleven_samples_is_the_smallest_with_ten_beyond():
    value, pct, n = harness.tail_percentile([5.0] + [9.0] * 10)
    assert (value, n) == (5.0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_falls_back_to_the_maximum():
    assert harness.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fail_frac_carries_its_base():
    assert harness.fail_frac(3, 120) == (0.025, 120)
    with pytest.raises(ValueError):
        harness.fail_frac(0, 0)


def test_canonical_and_digest():
    value = harness.canonical({"b": (Fraction(1, 3), None), "a": [True, 2.5]})
    assert value == {"a": [True, "2.5"], "b": ["1/3", None]}
    assert harness.digest(value) == harness.digest(harness.canonical({"a": [True, 2.5], "b": (Fraction(2, 6), None)}))
    assert harness.digest(value) != harness.digest(harness.canonical({"a": [True, 2.5], "b": (Fraction(1, 4), None)}))


def test_compare_expected_reports_changed_and_missing_names():
    expected = {"x": "1", "y": "2", "z": "3"}
    actual = {"x": "1", "y": "9", "w": "4"}
    assert harness.compare_expected(expected, actual) == ["w", "y", "z"]
    assert harness.compare_expected(expected, dict(expected)) == []


def test_max_den_bits_reads_rationals_only():
    assert harness.max_den_bits(["1/1024", {"k": "3/7"}, "abc", 5]) == 11


def _experiments(outputs):
    return [Experiment(name, "g", lambda v=v: v) for name, v in outputs.items()]


def test_run_rounds_checks_recorded_outputs_and_drops_failures_from_timings():
    good = {"a": Fraction(1, 2), "b": 7}
    recorded = {n: harness.digest(harness.canonical(v)) for n, v in good.items()}
    out = harness.run_rounds(lambda: _experiments(good), 0, recorded, min_rounds=2)
    assert out.attempted == 4 and not out.failures
    assert sorted(out.logs["plain"].times) == ["a", "b"]
    assert all(len(t) == 2 for t in out.logs["plain"].times.values())

    wrong = dict(good, b=8)
    out = harness.run_rounds(lambda: _experiments(wrong), 0, recorded, min_rounds=2)
    assert len(out.failures) == 2 and all(f.startswith("b:") for f in out.failures)
    assert list(out.logs["plain"].times) == ["a"]


def test_run_rounds_counts_exceptions_and_invariant_problems():
    def boom():
        raise ZeroDivisionError("x")

    exps = [
        Experiment("raises", "g", boom),
        Experiment("negative", "g", lambda: -1, check=lambda v: ["negative"] if v < 0 else []),
        Experiment("fine", "g", lambda: 1),
    ]
    out = harness.run_rounds(lambda: exps, 0, None, min_rounds=1)
    assert out.attempted == 3
    assert sorted(f.split(":")[0] for f in out.failures) == ["negative", "raises"]
    assert harness.fail_frac(len(out.failures), out.attempted) == (2 / 3, 3)


def test_summarize_reports_the_tail_rule():
    best = {f"e{i}": float(i) for i in range(1, 21)}
    s = harness.summarize(best)
    assert s["solve_s"] == 210.0
    assert s["exp_p50_s"] == 10.5
    assert (s["exp_tail_s"], s["exp_tail_pct"], s["exp_count"]) == (10.0, 50.0, 20)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_experiments_are_pinned_except_for_all_cpus_ones():
    full = os.sched_getaffinity(0)
    seen = {}
    exps = [
        Experiment("pinned", "g", lambda: seen.setdefault("pinned", os.sched_getaffinity(0))),
        Experiment("wide", "g", lambda: seen.setdefault("wide", os.sched_getaffinity(0)), all_cpus=True),
    ]
    harness.run_rounds(lambda: exps, 0, None, min_rounds=1, cpus=sorted(full))
    assert len(seen["pinned"]) == 1 and seen["wide"] == full
    assert os.sched_getaffinity(0) == full
