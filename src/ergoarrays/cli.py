"""Command-line entry point: one subcommand per experiment.

Exit codes: 0 success, 2 argument/validation error, 3 resource cap hit,
4 a reproduction verdict failed.  Exact rationals are serialized as
{"num": "...", "den": "..."} decimal strings; reports are JSON (machine)
with optional CSV series for plotting.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import averages, mixing, pet, recurrence, repro, szemeredi
from .averages import ArraySpec, Observable
from .intpoly import IntPoly2
from .pet import PExpr
from .sets import ArcUnion
from .systems import (
    BernoulliLattice,
    CircleRotation,
    GaussMap,
    IrrationalRotation,
    MarkovShift,
    SampledSystem,
    build_system,
)
from .util import ResourceCapError, fraction_to_json, parse_fraction


@dataclass
class ExperimentConfig:
    """Validated experiment description; config files override flags."""

    kind: str
    options: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "."
    format: str = "json"

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExperimentConfig":
        kind = args.command
        options = {
            k.replace("_", "-"): v
            for k, v in vars(args).items()
            if k not in {"command", "seed", "out_dir", "format", "config"}
            and v is not None
        }
        cfg = cls(
            kind,
            options,
            seed=args.seed,
            out_dir=args.out_dir,
            format=args.format,
        )
        if args.config:
            overrides = _require(json.loads(Path(args.config).read_text()), dict, "config file")
            flags = _flags(kind)
            unknown = set(overrides) - set(flags)
            if unknown:
                raise ValueError(f"unknown config fields for {kind}: {sorted(unknown)}")
            for k, v in overrides.items():
                v = _config_value(k, flags[k], v)
                if k == "seed":
                    cfg.seed = v
                elif k == "out-dir":
                    cfg.out_dir = v
                elif k == "format":
                    cfg.format = v
                else:
                    cfg.options[k] = v
        return cfg


def _flags(kind: str) -> dict[str, argparse.Action]:
    """Config key -> the argparse action of its flag, global or of the subcommand."""
    parser = _build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    return {
        a.dest.replace("_", "-"): a
        for p in (parser, commands[kind])
        for a in p._actions
        if a.dest not in {"help", "command", "config"}
    }


def _config_value(key: str, action: argparse.Action, value):
    """A config-file value through its flag's own argparse type and choices."""
    if action.nargs == 0:  # a switch such as --verify
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false, not {json.dumps(value)}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r} must be a JSON string or number, not {json.dumps(value)}")
    convert = action.type or str
    try:
        value = convert(str(value))
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid {convert.__name__} value {str(value)!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r} must be one of {', '.join(action.choices)}, not {value!r}")
    return value


def _load_json_arg(text: str, what: str) -> dict:
    """Accept inline JSON or a path to a JSON file holding one object."""
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        doc = json.loads(text)
    else:
        doc = json.loads(Path(text).read_text())
    return _require(doc, dict, what)


def _require(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def _set_kinds(system) -> tuple[str, ...]:
    """The set descriptor keys a system's set algebra takes."""
    if isinstance(system, (CircleRotation, IrrationalRotation, GaussMap)):
        return ("arc", "arcs")
    return ("cylinder",) if hasattr(system, "cylinder") else ("points",)


def _coordinate(system, key: str):
    """A cylinder key: an integer, or on a lattice a Z^d vector such as "0,1"."""
    lattice = isinstance(system, BernoulliLattice)
    try:
        vector = tuple(int(x) for x in key.split(","))
    except ValueError:
        vector = ()
    if not vector or (not lattice and len(vector) != 1):
        raise ValueError(f"cylinder coordinate {key!r} is not {'a comma-separated integer vector' if lattice else 'an integer'}")
    return vector if lattice else vector[0]


def _build_set(system, descriptor):
    _require(descriptor, dict, "set descriptor")
    kind = next((k for k in ("arc", "arcs", "cylinder", "points") if k in descriptor), None)
    if kind is None:
        raise ValueError(f"unknown set descriptor {sorted(descriptor)}")
    accepted = _set_kinds(system)
    if kind not in accepted:
        raise ValueError(f"{type(system).__name__} takes set descriptors {' or '.join(accepted)}, not {kind}")
    if kind == "cylinder":
        constraints = {}
        for k, v in _require(descriptor["cylinder"], dict, "cylinder").items():
            coord = _coordinate(system, k)
            try:
                constraints[coord] = int(v)
            except (TypeError, ValueError):
                raise ValueError(f"cylinder symbol {v!r} is not an integer") from None
        return system.cylinder(constraints)
    if kind == "points":
        try:
            return system.point_set(_require(descriptor["points"], list, "points"))
        except TypeError:
            raise ValueError(f"points {descriptor['points']} are not points of {type(system).__name__}") from None
    arcs = [descriptor["arc"]] if kind == "arc" else _require(descriptor["arcs"], list, "arcs")
    if any(not isinstance(arc, list) or len(arc) != 2 for arc in arcs):
        raise ValueError("an arc must be a JSON list [a, b]")
    return ArcUnion.from_arcs([(parse_fraction(str(a)), parse_fraction(str(b))) for a, b in arcs])


def _build_observable(system, descriptor) -> Observable:
    _require(descriptor, dict, "observable descriptor")
    if "constant" in descriptor:
        return Observable.const(parse_fraction(str(descriptor["constant"])))
    return Observable.indicator(_build_set(system, descriptor["set"]))


@contextmanager
def _unbounded_int_digits():
    """Lift CPython's int-to-str digit limit (Python 3.11+) while exact
    series cells are written or read back; argument and config parsing keep
    the limit as its guard against quadratic conversions."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _rationalize(value):
    if isinstance(value, Fraction):
        return fraction_to_json(value)
    if isinstance(value, dict):
        return {k: _rationalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rationalize(v) for v in value]
    return value


def _emit(cfg: ExperimentConfig, name: str, report: dict, csv_rows: list[dict] | None = None) -> None:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = cfg.options.get("out", name)
    if cfg.format in ("json", "both"):
        path = out_dir / f"{base}.json" if not str(base).endswith(".json") else out_dir / str(base)
        path.write_text(json.dumps(_rationalize(report), sort_keys=True) + "\n")
        print(f"wrote {path}")
    if csv_rows and cfg.format in ("csv", "both"):
        path = out_dir / f"{base}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(csv_rows[0]))
            writer.writeheader()
            writer.writerows(csv_rows)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_avg_sweep(cfg: ExperimentConfig) -> int:
    system = build_system(_load_json_arg(cfg.options["system"], "--system"))
    spec_doc = _load_json_arg(cfg.options["spec"], "--spec")
    for key in ("center", "assert_distinct"):
        if not isinstance(spec_doc.get(key, False), bool):
            raise ValueError(f"spec field {key!r} must be true or false, not {json.dumps(spec_doc[key])}")
    observables = [
        _build_observable(system, o) for o in _require(spec_doc["observables"], list, "observables")
    ]
    spec = ArraySpec.create(
        system,
        observables,
        [IntPoly2.parse(p) for p in _require(spec_doc["exponents"], list, "exponents")],
        center=spec_doc.get("center", False),
        assert_distinct_linear=spec_doc.get("assert_distinct", False),
    )
    Ns = [int(x) for x in str(cfg.options["Ns"]).split(",")]
    method = cfg.options["method"]
    if method == "exact" and isinstance(system, SampledSystem):
        raise ValueError("sampled-tier system: use --method mc")
    report = averages.convergence_sweep(
        spec,
        Ns,
        method=method,
        samples=cfg.options["samples"],
        seed=cfg.seed,
    )
    rows = [{"N": r.N, "value": r.value, "method": r.method, "stderr": r.stderr} for r in report.rows]
    doc = {
        "experiment": "avg-sweep",
        "verdict": report.verdict,
        "target": report.target,
        "rows": rows,
        "even_tail": report.even_tail,
        "odd_tail": report.odd_tail,
        "seed": cfg.seed,
    }
    _emit(cfg, "avg_sweep", doc, rows)
    print(f"verdict: {report.verdict}")
    return 0


def _cmd_recurrence(cfg: ExperimentConfig) -> int:
    system = build_system(_load_json_arg(cfg.options["system"], "--system"))
    A = _build_set(system, _load_json_arg(cfg.options["set"], "--set"))
    pairs = szemeredi.PatternSpec.parse(cfg.options["pq"]).pairs
    spec = recurrence.RecurrenceSpec(system, A, pairs)
    series = recurrence.recurrence_series(spec, cfg.options["Nmax"])
    out = cfg.options.get("out", "series")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (out if str(out).endswith(".csv") else f"{out}.csv")
    with _unbounded_int_digits():
        # every cell is text before the file opens, so a failed conversion leaves no partial CSV
        rows = [[str(N), str(v.numerator), str(v.denominator)] for N, v in series.values]
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["N", "S_num", "S_den"])
            writer.writerows(rows)
        print(f"wrote {path}")
        if cfg.format in ("json", "both"):
            doc = {
                "experiment": "recurrence",
                "mu_A": series.mu_A,
                "values": {str(N): v for N, v in series.values},
            }
            _emit(cfg, "recurrence_series", doc)
    return 0


def _cmd_syndetic(cfg: ExperimentConfig) -> int:
    path = Path(cfg.options["in"])
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    bad = lambda line: ValueError(f"{path}, line {line}: a series CSV is N,S_num,S_den with integer cells and S_den > 0")
    if rows[:1] != [["N", "S_num", "S_den"]]:
        raise bad(1)
    values = {}
    with _unbounded_int_digits():
        for line, row in enumerate(rows[1:], 2):
            try:
                N, num, den = map(int, row)
            except ValueError:
                raise bad(line) from None
            if den <= 0:
                raise bad(line)
            values[N] = Fraction(num, den)
    eps = cfg.options["eps"]
    rep = recurrence.detect_syndetic(values, "auto" if eps == "auto" else parse_fraction(eps))
    doc = {
        "experiment": "syndetic",
        "threshold": rep.threshold,
        "members": list(rep.members),
        "max_gap": rep.max_gap,
        "verdict": rep.verdict,
        "liminf_estimate": rep.liminf_estimate,
        "window": rep.window,
        "note": "certificate covers only N <= window",
    }
    with _unbounded_int_digits():
        _emit(cfg, "syndetic", doc)
    print(f"verdict: {rep.verdict} (max_gap={rep.max_gap})")
    return 0


def _parse_window(text: str, name: str) -> tuple[int, int]:
    """A window "lo,hi"; ``name`` says where it was given."""
    try:
        lo, hi = map(int, text.split(","))
    except ValueError:
        raise ValueError(f"{name} must be lo,hi with two integers, got {text!r}") from None
    return lo, hi


def _parse_set_descriptor(text: str, window) -> szemeredi.IntegerSet:
    text = text.strip()
    if text.endswith(".txt") or os.path.exists(text):
        return szemeredi.IntegerSet.from_text(Path(text).read_text(), window)
    parts = text.split()
    if len(parts) == 3 and parts[1] == "mod":
        if window is None:
            raise ValueError("residue sets need an explicit --window lo,hi")
        return szemeredi.IntegerSet.from_residue(int(parts[0]), int(parts[2]), window)
    if parts and parts[0] == "random":
        if len(parts) == 4:
            window = _parse_window(parts[3], "the window of 'random <density> <seed> lo,hi'")
        if window is None:
            raise ValueError("random sets need a window (inline or --window lo,hi)")
        return szemeredi.IntegerSet.from_random(float(parts[1]), int(parts[2]), window)
    raise ValueError(
        "set descriptor must be a file, 'r mod m', or 'random <density> <seed> [lo,hi]'"
    )


def _cmd_pattern_search(cfg: ExperimentConfig) -> int:
    window = _parse_window(str(cfg.options["window"]), "--window") if "window" in cfg.options else None
    s = _parse_set_descriptor(cfg.options["set"], window)
    spec = szemeredi.PatternSpec.parse(cfg.options["spec"])
    n_max = cfg.options["Nmax"]
    if n_max < 1:
        raise ValueError("--Nmax must be >= 1")
    eps = cfg.options["eps"]
    counts = {N: szemeredi.pattern_count(s, spec, N, 0).count for N in range(1, n_max + 1)}  # no witnesses
    rep = recurrence.detect_syndetic(
        {N: Fraction(c, N) for N, c in counts.items()},
        "auto" if eps == "auto" else parse_fraction(eps),
    )
    doc = {
        "experiment": "pattern-search",
        "window": list(s.window),
        "set_size": len(s),
        "threshold": rep.threshold,
        "members": list(rep.members),
        "max_gap": rep.max_gap,
        "verdict": rep.verdict,
        "counts": {str(N): c for N, c in counts.items()},
    }
    rows = [{"N": N, "count": c} for N, c in counts.items()]
    _emit(cfg, "pattern_search", doc, rows)
    print(f"verdict: {rep.verdict} (max_gap={rep.max_gap})")
    return 0


def _cmd_pet_reduce(cfg: ExperimentConfig) -> int:
    doc_in = _load_json_arg(cfg.options["exprs"], "--exprs")
    system = []
    for entry in _require(doc_in["system"], list, "system"):
        _require(entry, dict, "system entry")
        N_exps = entry.get("N")
        system.append(PExpr.make(
            _require(entry.get("n"), list, "n-exponents"),
            None if N_exps is None else _require(N_exps, list, "N-exponents"),
        ))
    chain = pet.pet_trace(system)
    doc = {
        "experiment": "pet-reduce",
        "chain": [m.to_json() for m in chain],
        "steps": len(chain) - 1,
        "terminal_is_m0": chain[-1].is_m0(),
    }
    _emit(cfg, "pet_reduce", doc)
    print(f"descent length {len(chain) - 1}")
    return 0


def _load_chain(cfg: ExperimentConfig) -> MarkovShift:
    doc = _load_json_arg(cfg.options["chain"], "--chain")
    return MarkovShift(doc["matrix"])


def _cmd_mixing(cfg: ExperimentConfig) -> int:
    chain = _load_chain(cfg)
    spec = str(cfg.options["alpha"]).removeprefix("n=")
    if ".." in spec:
        lo, hi = spec.split("..")
        ns = range(int(lo), int(hi) + 1)
    else:
        ns = [int(x) for x in spec.split(",")]
    horizon = cfg.options["horizon"]
    table = {n: mixing.alpha_coefficient(chain, n, horizon) for n in ns}
    doc = {
        "experiment": "mixing",
        "horizon": horizon,
        "stationary": list(chain.stationary),
        "alpha": {str(n): v for n, v in table.items()},
    }
    _emit(cfg, "mixing_alpha", doc, [{"n": n, "alpha": str(v)} for n, v in table.items()])
    return 0


def _cmd_mixing_check(cfg: ExperimentConfig) -> int:
    chain = _load_chain(cfg)
    trials, k, horizon = (cfg.options[key] for key in ("trials", "k", "horizon"))
    for flag, value, least in (("trials", trials, 1), ("k", k, 2), ("horizon", horizon, 0)):
        if value < least:
            raise ValueError(f"--{flag} must be >= {least}, not {value}")
    rng = random.Random(cfg.seed)
    failures = []
    for t in range(trials):
        events = repro.random_window_events(rng, chain, k, horizon)
        chk = mixing.mixing_inequality_check(chain, events, horizon)
        if not chk.holds:
            failures.append(t)
    doc = {
        "experiment": "mixing-check",
        "trials": trials,
        "holds": trials - len(failures),
        "failures": failures,
        "seed": cfg.seed,
    }
    _emit(cfg, "mixing_check", doc)
    print(f"{trials - len(failures)}/{trials} inequalities hold")
    return 0 if not failures else 4


def _cmd_spectral(cfg: ExperimentConfig) -> int:
    eps = parse_fraction(str(cfg.options["eps"]))
    kmax = cfg.options["kmax"]
    c = mixing.spectral_levels(eps, kmax)
    doc = {
        "experiment": "spectral",
        "eps": c.eps,
        "Ns": list(c.Ns),
        "eps_k": list(c.eps_ks),
    }
    if cfg.options.get("verify"):
        samples = cfg.options["samples"]
        for k in range(1, kmax + 1):
            rep = mixing.verify_spectral_bound(c, k, samples)
            doc[f"verify_k{k}"] = {
                "max_deviation": rep.max_deviation,
                "samples": rep.samples,
                "n_max": rep.n_max,
            }
    _emit(cfg, "spectral", doc)
    print(f"N_k = {list(c.Ns)}")
    return 0


def _cmd_repro_all(cfg: ExperimentConfig) -> int:
    criteria = None
    if "criteria" in cfg.options:
        criteria = [int(x) for x in str(cfg.options["criteria"]).split(",")]
    results = repro.run_all(criteria)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"criterion {r.number:2d}: {status}  {r.name}")
    doc = {
        "experiment": "repro-all",
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
    _emit(cfg, "repro_all", doc)
    return 0 if all_ok else 4


_HANDLERS = {
    "avg-sweep": _cmd_avg_sweep,
    "recurrence": _cmd_recurrence,
    "syndetic": _cmd_syndetic,
    "pattern-search": _cmd_pattern_search,
    "pet-reduce": _cmd_pet_reduce,
    "mixing": _cmd_mixing,
    "mixing-check": _cmd_mixing_check,
    "spectral": _cmd_spectral,
    "repro-all": _cmd_repro_all,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="ergoarrays",
        description="exact experiments with nonconventional ergodic averages",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="json")
    parser.add_argument("--config", help="JSON config file; its values override flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("avg-sweep", help="array-average convergence sweep")
    p.add_argument("--system", required=True, help="system descriptor (JSON or file)")
    p.add_argument("--spec", required=True, help="observables + exponents (JSON or file)")
    p.add_argument("--Ns", required=True, help="comma-separated N values")
    p.add_argument("--method", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out")

    p = sub.add_parser("recurrence", help="multiple-recurrence series S(N)")
    p.add_argument("--system", required=True)
    p.add_argument("--set", required=True, help="target set descriptor (JSON or file)")
    p.add_argument("--pq", required=True, help='pairs like "(1,0),(-1,1)"')
    p.add_argument("--Nmax", required=True, type=int)
    p.add_argument("--out")

    p = sub.add_parser("syndetic", help="threshold a recurrence series CSV")
    p.add_argument("--in", dest="in", required=True, metavar="CSV")
    p.add_argument("--eps", default="auto")
    p.add_argument("--out")

    p = sub.add_parser("pattern-search", help="Szemeredi-type pattern counts")
    p.add_argument("--set", required=True, help="file, 'r mod m', or 'random d seed'")
    p.add_argument("--window", help="lo,hi for generated sets")
    p.add_argument("--spec", required=True, help='pairs like "(0,0),(1,0),(-1,1)"')
    p.add_argument("--Nmax", required=True, type=int)
    p.add_argument("--eps", default="auto")
    p.add_argument("--out")

    p = sub.add_parser("pet-reduce", help="weight-matrix descent of a system")
    p.add_argument("--exprs", required=True, help='JSON {"system": [{"n": [...], "N": [...]}]}')
    p.add_argument("--out")

    p = sub.add_parser("mixing", help="alpha coefficients of a Markov chain")
    p.add_argument("--chain", required=True, help='JSON {"matrix": [["9/10","1/10"],...]}')
    p.add_argument("--alpha", default="1..10", help="separations, e.g. 1..10 or 1,2,5")
    p.add_argument("--horizon", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("mixing-check", help="random-event inequality trials")
    p.add_argument("--chain", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("spectral", help="Cantor-like level sets and bound check")
    p.add_argument("--eps", default="1/10")
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out")

    p = sub.add_parser("repro-all", help="regenerate every acceptance artifact")
    p.add_argument("--criteria", help="subset, e.g. 1,3,8")
    p.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = ExperimentConfig.from_args(args)
        return _HANDLERS[cfg.kind](cfg)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
