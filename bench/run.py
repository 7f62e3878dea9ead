"""Benchmark of ergoarrays: one workload per run, in a fresh child interpreter.

    python3 bench/run.py --workload pairsum --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The workloads are described in bench/NOTES.md.  Each run prints
one line per metric with its unit, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
separate traced run with ``--trace 1``.

``--record`` runs one round and stores the digests of the outputs as the
expected outputs for the given seed (bench/expected/<workload>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from harness import fail_frac

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pairsum", "series", "symbolic", "patterns")
CHILD_TIMEOUT_S = 170
# Per-layer times are printed and written to the trace file, but only these
# enter the JSON line: a layer that a workload never enters reads 0 s on
# every run, while every workload runs the CLI.
JSON_LAYER_TIMES = ("cli.self_s",)
# per-layer figures computed from the inputs or outputs, not counted at runtime
COMPUTED = ("fractions.max_den_bits", "recurrence.terms", "mixing.subset_pairs",
            "szemeredi.bits_scanned", "cli.bytes_written")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args) -> dict:
    cmd = [
        sys.executable, str(ROOT / "bench" / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", str(ROOT),
    ]
    if args.record:
        cmd.append("--record")
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name:34s} {text:>14s} {unit:6s} {note}".rstrip())


def report(args, res: dict) -> dict:
    """Print every metric with its unit; return the metrics of the JSON line."""
    probes = res["probes"]
    probe_failures = sum(not p["ok"] for p in probes)
    ff, base = fail_frac(res["failed"] + probe_failures, res["attempted"] + len(probes))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"rounds {res['rounds']}  experiments {res['experiments']}  "
          f"outputs checked against {'recorded digests' if res['recorded'] else 'invariants only'}")
    for p in probes:
        print(f"probe {'pass' if p['ok'] else 'FAIL'}: {p['name']}" + ("" if p["ok"] else f" ({p['problem']})"))
    for f in res["failures"]:
        print(f"failure: {f}")
    for name, best in sorted(res["best_s"].items(), key=lambda kv: -kv[1]):
        _line(f"exp {name}", best, "s", "best repeat")
    t = res["timing"]
    metrics = {
        "solve_s": (t["solve_s"], "s", "sum of per-experiment best times"),
        "exp_p50_s": (t["exp_p50_s"], "s", "median experiment"),
        "exp_tail_s": (t["exp_tail_s"], "s", f"p{t['exp_tail_pct']:.1f} of {t['exp_count']} experiments"),
        "setup_s": (res["import_s"] + res["build_s"], "s",
                    f"import {res['import_s']:.4f} + build {res['build_s']:.4f}, each best of rounds"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
    }
    extra = {
        "fail_frac": (ff, "ratio", f"{res['failed'] + probe_failures} of {base} operations "
                                   f"({res['failed']} timed, {probe_failures} known-defect probes)"),
        "rounds_wall_s": (res["rounds_wall_s"], "s", "diagnostic: raw wall time of the plain rounds"),
    }
    if res["calibration_s"] is not None:
        extra["host.calibration_ms"] = (1000 * res["calibration_s"], "ms",
                                        "diagnostic: best time of the fixed CPU-choice loop; it shows host drift")
    if args.trace:
        for name, (value, unit) in res["layers"].items():
            _line(name, value, unit, "computed" if name in COMPUTED else "")
        for name, value in res["trace_diagnostics"].items():
            print(f"{name:34s} {value}")
    for name, (value, unit, note) in {**metrics, **extra}.items():
        _line(name, value, unit, note)
    if args.trace:
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in res["layers"].items()
            if unit != "s" or name in JSON_LAYER_TIMES
        }
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store expected outputs for this seed")
    args = ap.parse_args()
    if not (ROOT / "src" / "ergoarrays" / "__init__.py").is_file():
        print(f"no ergoarrays sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = run_child(args)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if res["timing"] is None:
        print("every experiment failed:", *res["failures"], sep="\n", file=sys.stderr)
        return 1
    metrics = report(args, res)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
