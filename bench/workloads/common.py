"""Helpers shared by the workload definitions."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class CliResult:
    code: int
    reports: dict  # file name -> parsed JSON report, or CSV text
    bytes_written: int


class Context:
    """Per-run state a workload may use: a scratch directory inside the
    checkout, removed when the run ends."""

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def cli(self, args: list[str]) -> CliResult:
        """Run the ergoarrays CLI in-process with stdout captured and
        ``--out-dir`` in a fresh directory that is removed afterwards."""
        from ergoarrays.cli import main

        out_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["--out-dir", str(out_dir), *args])
            reports, size = {}, 0
            for path in sorted(out_dir.iterdir()):
                text = path.read_text()
                size += len(text.encode())
                reports[path.name] = json.loads(text) if path.suffix == ".json" else text
            return CliResult(code, reports, size)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def scratch_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.tmp))


def rational(doc) -> Fraction:
    """A CLI report rational {"num": ..., "den": ...} as a Fraction."""
    return Fraction(int(doc["num"]), int(doc["den"]))


def cli_canon(res: CliResult, drop: tuple[str, ...] = ()) -> dict:
    """Exit code plus every report, without the fields named in ``drop``
    (fields a planned fix is expected to change) and without paths."""
    reports = {}
    for name, doc in res.reports.items():
        if isinstance(doc, dict):
            doc = {k: v for k, v in doc.items() if k not in drop}
        reports[name] = doc
    return {"code": res.code, "reports": reports}


def check_code(res: CliResult, expected: int = 0) -> list[str]:
    if res.code != expected:
        return [f"CLI exit code {res.code}, expected {expected}"]
    return []


def gap_problems(members, max_gap, verdict) -> list[str]:
    """Certificate invariants that hold before and after the planned
    leading/trailing-gap fix: members sorted, and a certified max_gap never
    smaller than the largest gap between consecutive members."""
    members = list(members)
    out = []
    if members != sorted(set(members)):
        out.append("syndetic members not strictly increasing")
    if verdict == "syndetic-in-window" and len(members) >= 2:
        inner = max(b - a for a, b in zip(members, members[1:]))
        if max_gap is None or max_gap < inner:
            out.append(f"max_gap {max_gap} below the largest member gap {inner}")
    if verdict not in ("syndetic-in-window", "not-found"):
        out.append(f"unknown verdict {verdict!r}")
    return out


# ---------------------------------------------------------------------------
# seeded input generators shared by the workloads


def random_probs(rng: random.Random, symbols: int, den: int) -> tuple[Fraction, ...]:
    """Random positive probabilities over a prime denominator: none of them
    reduces, so the size of the rationals does not depend on the seed."""
    cuts = sorted(rng.sample(range(1, den), symbols - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return tuple(Fraction(p, den) for p in parts)


def random_chain(rng: random.Random, states: int, den: int):
    return tuple(random_probs(rng, states, den) for _ in range(states))


def random_points(rng: random.Random, moduli: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """k distinct points of Z_{m_1} x ... x Z_{m_d}."""
    return rng.sample(list(itertools.product(*(range(m) for m in moduli))), k)


def lattice_action(system, z, zhat):
    """A lattice action without the commutation check of
    ``build_lattice_action``, which would put set algebra into set-up."""
    from ergoarrays.systems import LatticeAction

    vec = lambda v: (v,) if isinstance(v, int) else tuple(v)
    return LatticeAction(system, tuple(map(vec, z)), tuple(map(vec, zhat)))
