"""Round-robin timing, output checking and metric aggregation.

Nothing here imports ergoarrays: the helpers take plain callables and
numbers, so they can be tested without the library (see test_harness.py).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

# The tail percentile is the highest one that still has this many samples
# beyond it, so a single slow experiment cannot set it alone.
TAIL_BEYOND = 10


@dataclass
class Experiment:
    """One timed call into the library.

    ``fn`` runs the call and returns its raw output; ``canon`` turns that
    output into the JSON value that is frozen for the recorded seeds;
    ``check`` returns a list of problems found by implementation-independent
    invariants (empty when the output is plausible).
    """

    name: str
    group: str
    fn: Callable[[], object]
    canon: Callable[[object], object] = lambda out: canonical(out)
    check: Callable[[object], list[str]] = lambda out: []
    computed: Callable[[object], Mapping[str, float]] = lambda out: {}
    # run on every CPU of the process, not pinned to the fastest one: for
    # calls that start worker threads, which inherit the mask
    all_cpus: bool = False


@dataclass
class Probe:
    """An untimed check of a known defect; ``fn`` returns a problem or None."""

    name: str
    fn: Callable[[], str | None]


# ---------------------------------------------------------------------------
# canonical outputs and their comparison


def canonical(value):
    """JSON-able form of an output: Fractions become "num/den" strings,
    tuples lists, dataclasses dicts of their fields, dict keys strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Mapping):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=lambda v: json.dumps(v))
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return {name: canonical(getattr(value, name)) for name in fields}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 of the canonical JSON text: equal digests mean equal outputs."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compare_expected(expected: Mapping[str, str], actual: Mapping[str, str]) -> list[str]:
    """Names whose digest differs from the recorded one, or is missing on
    either side, in sorted order."""
    names = sorted(set(expected) | set(actual))
    return [n for n in names if expected.get(n) != actual.get(n)]


_RATIONAL = re.compile(r"^-?\d+/(\d+)$")


def max_den_bits(value) -> int:
    """Largest denominator bit length among the rationals of a canonical value."""
    if isinstance(value, str):
        m = _RATIONAL.match(value)
        return int(m.group(1)).bit_length() if m else 0
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return max((max_den_bits(v) for v in value), default=0)
    return 0


# ---------------------------------------------------------------------------
# metrics


def best_of(samples: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Each experiment's time is its fastest repeat."""
    return {name: min(times) for name, times in samples.items() if times}


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that
    still has at least TAIL_BEYOND samples strictly beyond its position.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies and the
    maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * (idx + 1) / n, n


def fail_frac(failed: int, attempted: int) -> tuple[float, int]:
    """(failed / attempted, attempted): the ratio always travels with its base."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return failed / attempted, attempted


def summarize(best: Mapping[str, float]) -> dict:
    """End-to-end timing metrics from the per-experiment best times."""
    times = list(best.values())
    tail, pct, n = tail_percentile(times)
    return {
        "solve_s": sum(times),
        "exp_p50_s": statistics.median(times),
        "exp_tail_s": tail,
        "exp_tail_pct": pct,
        "exp_count": n,
    }


# ---------------------------------------------------------------------------
# the round-robin loop


@dataclass
class RoundLog:
    """Everything measured over the rounds of one mode (plain or traced)."""

    rounds: int = 0
    wall_s: float = 0.0
    build_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    computed: dict[str, dict[str, float]] = field(default_factory=dict)
    max_den_bits: int = 0
    logs: dict[str, RoundLog] = field(default_factory=dict)
    calibration_s: list[float] = field(default_factory=list)


def run_rounds(
    build: Callable[[], list[Experiment]],
    seconds: float,
    expected: Mapping[str, str] | None,
    modes: Sequence[str] = ("plain",),
    hooks: Mapping[str, object] | None = None,
    min_rounds: int = 2,
    cpus: Sequence[int] = (),
    setup_probe: Callable[[], float] | None = None,
) -> Outcome:
    """Run every experiment once per round until ``seconds`` have passed.

    Rounds cycle through ``modes``; ``hooks[mode]`` (optional) is an object
    with ``begin_round()``, ``end_round()``, ``begin(name)`` and
    ``end(name, seconds)`` methods, used by the tracer.  Inputs are rebuilt
    every round so no cache carries from one repeat to the next.  A new
    round starts only while it is expected to end before the deadline, and
    at least ``min_rounds`` rounds of each mode are run.  Every output is
    checked; an experiment that fails once is left out of the timings.
    ``setup_probe`` (optional) measures a further set-up cost every round,
    so that it is sampled as often as the build and under the same
    conditions.

    With several ``cpus``, each experiment runs pinned to one that runs a
    short calibration loop near its fastest time right now (see
    CpuChooser): on a shared host a core can run nearly twice as slow as
    the other for seconds at a time, and the fastest repeat should not
    depend on which core the process happened to be on.  Experiments
    marked ``all_cpus`` run with the process's whole mask.
    """
    hooks = hooks or {}
    out = Outcome(logs={m: RoundLog() for m in modes})
    affinity = os.sched_getaffinity(0)
    chooser = CpuChooser(cpus, out.calibration_s) if len(cpus) > 1 else None
    start = time.perf_counter()
    last_round = 0.0
    r = 0
    try:
        while True:
            mode = modes[r % len(modes)]
            need_more = any(log.rounds < min_rounds for log in out.logs.values())
            if not need_more and time.perf_counter() - start + last_round > seconds:
                break
            round_start = time.perf_counter()
            _round(build, expected, out, out.logs[mode], hooks.get(mode), setup_probe, chooser, affinity)
            last_round = time.perf_counter() - round_start
            out.logs[mode].wall_s += last_round
            r += 1
    finally:
        os.sched_setaffinity(0, affinity)
    if expected is not None:
        for name in compare_expected(expected, out.digests):
            if name not in out.digests:
                out.attempted += 1
                out.failures.append(f"{name}: recorded output, but no such experiment ran")
    failed = set().union(*(log.failed for log in out.logs.values()))
    for log in out.logs.values():
        for name in failed:
            log.times.pop(name, None)
    return out


def _round(build, expected, out: Outcome, log: RoundLog, hook, setup_probe, chooser, affinity) -> None:
    """One round: rebuild the inputs, then run and check every experiment.

    With a ``chooser`` each experiment is pinned to the CPU it picks;
    experiments marked ``all_cpus`` run with ``affinity`` instead.
    """
    if hook is not None:
        hook.begin_round()
    if setup_probe is not None:
        log.probe_s.append(setup_probe())
    t0 = time.perf_counter()
    experiments = build()
    log.build_s.append(time.perf_counter() - t0)
    for exp in experiments:
        if chooser is not None:
            if exp.all_cpus:
                os.sched_setaffinity(0, affinity)
            else:
                chooser.pin()
        gc.collect()
        if hook is not None:
            hook.begin(exp.name)
        problem = None
        t0 = time.perf_counter()
        try:
            result = exp.fn()
        except Exception as exc:  # an unexpected exception is a failure
            problem = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if hook is not None:
            hook.end(exp.name, dt)
        out.attempted += 1
        if problem is None:
            problem = _check(exp, result, expected, out)
        if problem is not None:
            out.failures.append(f"{exp.name}: {problem}")
            log.failed.add(exp.name)
        log.times.setdefault(exp.name, []).append(dt)
    if hook is not None:
        hook.end_round()
    log.rounds += 1


def calibration_seconds() -> float:
    """Time of a short fixed loop (about 0.25 ms) on the current CPU."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i)
    return time.perf_counter() - t0


class CpuChooser:
    """Keeps the process on a CPU that currently runs the calibration loop
    within SLACK of the fastest time seen so far; when the current CPU falls
    behind, moves to whichever of ``cpus`` runs the loop fastest now.

    Staying put unless needed keeps the check to one short loop and avoids
    needless moves, which leave the caches cold.  Every calibration time is
    appended to ``samples``.
    """

    SLACK = 1.15

    def __init__(self, cpus: Sequence[int], samples: list[float]):
        self.cpus = list(cpus)
        self.samples = samples
        self.cpu = self.cpus[0]
        self.floor = float("inf")

    def pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        best = self._calibrate()
        if best <= self.SLACK * self.floor:
            return
        current = self.cpu
        for cpu in self.cpus:
            if cpu != current:
                os.sched_setaffinity(0, {cpu})
                dt = self._calibrate()
                if dt < best:
                    self.cpu, best = cpu, dt
        os.sched_setaffinity(0, {self.cpu})

    def _calibrate(self) -> float:
        dt = calibration_seconds()
        self.samples.append(dt)
        self.floor = min(self.floor, dt)
        return dt


def _check(exp: Experiment, result, expected, out: Outcome) -> str | None:
    try:
        value = exp.canon(result)
        problems = list(exp.check(result))
    except Exception as exc:
        return f"output check raised {type(exc).__name__}: {exc}"
    d = digest(value)
    if exp.name in out.digests and out.digests[exp.name] != d:
        problems.append("output differs between repeats")
    out.digests.setdefault(exp.name, d)
    if expected is not None and expected.get(exp.name) != d:
        problems.append("output differs from the recorded expected output")
    out.max_den_bits = max(out.max_den_bits, max_den_bits(value))
    out.computed[exp.name] = dict(exp.computed(result))
    return "; ".join(problems) if problems else None
