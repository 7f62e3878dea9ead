"""One workload in a fresh interpreter; prints one JSON line as its result.

Started by run.py with ``PYTHONPATH=src:bench``; not meant to be run by
hand.  With ``--trace 1`` plain and traced rounds alternate, and the
per-layer metrics come from the traced ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness
from workloads.common import Context

WORKLOADS = ("pairsum", "series", "symbolic", "patterns")
LIBRARY = ("sets", "systems", "intpoly", "util", "averages", "recurrence", "pet", "mixing", "szemeredi", "repro", "cli")

# times one import of the whole library in a fresh interpreter
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ergoarrays.cli, ergoarrays.repro; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """One import of the library in a fresh interpreter (same environment)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class TraceHook:
    """Installs the tracer for each traced round and keeps, per experiment,
    the counters of every traced repeat."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.records: dict[str, list[tuple[float, dict]]] = {}
        self.setup: list[dict] = []
        self._in_setup = False

    def begin_round(self):
        self.tracer.install()
        self.tracer.begin("setup")
        self._in_setup = True

    def begin(self, name):
        if self._in_setup:
            self.setup.append(self.tracer.end())
            self._in_setup = False
        self.tracer.begin(name)

    def end(self, name, seconds):
        self.records.setdefault(name, []).append((seconds, self.tracer.end()))

    def end_round(self):
        self.tracer.uninstall()


def _counts(rec: dict) -> dict:
    return {k: (v[0] if isinstance(v, list) else v) for k, v in rec.items()}


def layer_metrics(hook: TraceHook, outcome: harness.Outcome, groups: dict[str, str]) -> tuple[dict, dict]:
    """Per-layer metrics from each experiment's fastest traced repeat.

    Returns (metrics, diagnostics).  Times are self times (a call's
    duration minus its wrapped callees) unless noted; counts must repeat
    exactly, and repeats that disagree are reported.
    """
    best: dict[str, dict] = {}
    unstable = []
    failed = set().union(*(log.failed for log in outcome.logs.values()))
    for name, reps in hook.records.items():
        if name in failed:
            continue
        if any(_counts(r) != _counts(reps[0][1]) for _, r in reps[1:]):
            unstable.append(name)
        best[name] = min(reps, key=lambda r: r[0])[1]

    def calls(key, names=None):
        return sum(r[key][0] for n, r in best.items() if key in r and (names is None or n in names))

    def self_s(prefix):
        return sum(v[2] for r in best.values() for k, v in r.items() if isinstance(v, list) and (k == prefix or k.startswith(prefix + ".")))

    def total(keys, names):
        return sum(r[k][1] for n, r in best.items() if n in names for k in keys if k in r)

    def count(key, reduce=sum):
        return reduce([r.get(key, 0) for r in best.values()] or [0])

    def computed(key):
        return sum(c.get(key, 0) for n, c in outcome.computed.items() if n in best)

    def ratio(num, den):
        return num / den if den else 0.0

    def in_group(g):
        return {n for n in best if groups.get(n) == g}

    entries = ("averages.l2_distance_exact", "averages.commuting_average")
    intersects = calls("sets.intersect")
    reduce_calls = calls("pet.reduce_step")
    terms = computed("recurrence.terms")
    in_series = sum(
        r.get(f"sets.intersect@recurrence.{fn}", 0)
        for r in best.values()
        for fn in ("recurrence_series", "commuting_recurrence_series")
    )
    setup_parse = min((r["intpoly.parse"][2] for r in hook.setup if "intpoly.parse" in r), default=0.0)
    m = {
        "sets.intersect_calls": (intersects, "count"),
        "sets.intersect_s": (self_s("sets.intersect"), "s"),
        "sets.empty_frac": (ratio(count("sets.intersect_empty"), intersects), "ratio"),
        "sets.measure_calls": (calls("sets.measure"), "count"),
        "systems.preimage_calls": (calls("systems.preimage"), "count"),
        "systems.preimage_s": (self_s("systems.preimage"), "s"),
        "systems.measure_calls": (calls("systems.measure"), "count"),
        "systems.measure_s": (self_s("systems.measure"), "s"),
        "systems.power_calls": (calls("systems.power"), "count"),
        "fractions.ops": (count("fractions.ops"), "count"),
        "fractions.max_den_bits": (outcome.max_den_bits, "bits"),
        "averages.self_s": (self_s("averages"), "s"),
        "averages.stationary_s": (total(entries, in_group("stationary")), "s"),
        "averages.fast_indicator_s": (total(entries, in_group("fast_indicator")), "s"),
        "averages.generic_s": (total(entries, in_group("generic")), "s"),
        "averages.commuting_s": (total(entries, in_group("commuting")), "s"),
        "averages.inner_calls": (calls("averages.inner"), "count"),
        "intpoly.eval_calls": (calls("intpoly.eval"), "count"),
        "intpoly.eval_s": (self_s("intpoly.eval"), "s"),
        "intpoly.from_coeffs_calls": (calls("intpoly.from_coeffs"), "count"),
        "intpoly.parse_s": (setup_parse, "s"),
        "util.ordered_map_s": (total(["util.ordered_map"], set(best)), "s"),
        "recurrence.self_s": (self_s("recurrence"), "s"),
        "recurrence.terms": (terms, "count"),
        "recurrence.intersect_per_term": (ratio(in_series, terms), "ratio"),
        "recurrence.syndetic_s": (self_s("recurrence.detect_syndetic"), "s"),
        "pet.trace_calls": (calls("pet.pet_trace"), "count"),
        "pet.reduce_step_calls": (reduce_calls, "count"),
        "pet.reduce_step_s": (self_s("pet.reduce_step"), "s"),
        "pet.shift_retry_frac": (ratio(count("pet.reduce_step.raised.ShiftTooSmallError"), reduce_calls), "ratio"),
        "pet.max_system_size": (count("pet.max_system_size", max), "count"),
        "pet.expr_mul_calls": (calls("pet.expr_mul"), "count"),
        "mixing.alpha_calls": (calls("mixing.alpha"), "count"),
        "mixing.alpha_s": (self_s("mixing.alpha"), "s"),
        "mixing.subset_pairs": (count("mixing.subset_pairs"), "count"),
        "mixing.joint_measure_s": (self_s("mixing.joint_measure"), "s"),
        "szemeredi.pattern_count_calls": (calls("szemeredi.pattern_count"), "count"),
        "szemeredi.pattern_count_s": (self_s("szemeredi.pattern_count"), "s"),
        "szemeredi.set_build_s": (self_s("szemeredi.set_build"), "s"),
        "szemeredi.density_s": (self_s("szemeredi.density"), "s"),
        "szemeredi.lattice_s": (self_s("szemeredi.lattice"), "s"),
        "szemeredi.bits_scanned": (count("szemeredi.bits_scanned"), "bits"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_written": (computed("cli.bytes_written"), "bytes"),
    }
    diagnostics = {
        "trace.absent": hook.tracer.absent,
        "trace.unstable_counts": sorted(unstable),
        "trace.spans": len(hook.tracer.spans),
        "sets.intersect_empty": count("sets.intersect_empty"),
        "pet.shift_too_small": count("pet.reduce_step.raised.ShiftTooSmallError"),
    }
    return m, diagnostics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    root = Path(args.root)

    # deep recursion in MarkovShift.power doubles in depth under the tracer
    sys.setrecursionlimit(20000)
    for name in LIBRARY:
        module = importlib.import_module(f"ergoarrays.{name}")
        if not Path(module.__file__).resolve().is_relative_to(root / "src"):
            print(f"ergoarrays was imported from {module.__file__}, not from this checkout", file=sys.stderr)
            return 2
    workload = importlib.import_module(f"workloads.{args.workload}")
    # keep what is loaded now out of every later collection, so the
    # gc.collect() before each experiment stays well under a millisecond
    gc.freeze()
    expected_path = root / "bench" / "expected" / f"{args.workload}.json"
    recorded = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    expected = None if args.record else recorded.get(str(args.seed))

    tmp = root / ".bench_tmp" / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    try:
        ctx = Context(tmp)
        probes = []
        for probe in workload.probes(ctx):
            try:
                problem = probe.fn()
            except Exception as exc:
                problem = f"probe raised {type(exc).__name__}: {exc}"
            probes.append({"name": probe.name, "ok": problem is None, "problem": problem})

        groups = {e.name: e.group for e in workload.build(args.seed, ctx)}
        tracer = hook = None
        modes = ("plain",)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            hook = TraceHook(tracer)
            modes = ("plain", "traced")
        outcome = harness.run_rounds(
            lambda: workload.build(args.seed, ctx),
            0 if args.record else args.seconds,
            expected,
            modes=modes,
            hooks={"traced": hook} if hook else None,
            min_rounds=1 if (args.trace or args.record) else 2,
            cpus=sorted(os.sched_getaffinity(0)),
            setup_probe=import_seconds,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = outcome.logs["plain"]
    result = {
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "failures": outcome.failures[:20],
        "probes": probes,
        "experiments": len(groups),
        "rounds": {mode: log.rounds for mode, log in outcome.logs.items()},
        "rounds_wall_s": plain.wall_s,
        "build_s": min(plain.build_s),
        "import_s": min(plain.probe_s),
        "timing": harness.summarize(harness.best_of(plain.times)) if plain.times else None,
        "best_s": harness.best_of(plain.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": min(outcome.calibration_s, default=None),
        "recorded": expected is not None,
    }
    if hook is not None and result["timing"] is not None:
        traced = harness.summarize(harness.best_of(outcome.logs["traced"].times))
        layers, diagnostics = layer_metrics(hook, outcome, groups)
        layers["trace.overhead"] = (traced["solve_s"] / result["timing"]["solve_s"], "ratio")
        result["layers"] = layers
        result["trace_diagnostics"] = diagnostics
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        dump = {
            "workload": args.workload,
            "seed": args.seed,
            "layers": layers,
            "diagnostics": diagnostics,
            "experiments": {name: reps for name, reps in hook.records.items()},
            "spans": tracer.spans,
        }
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(dump) + "\n")
    if args.record and not outcome.failures:
        recorded[str(args.seed)] = dict(sorted(outcome.digests.items()))
        expected_path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
