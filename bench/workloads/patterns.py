"""patterns: Szemeredi-type pattern search on big-integer bitmask sets.

``szemeredi`` is measured nowhere else, and its cost is big-integer bit
operations rather than Fraction arithmetic.  CLI ``pattern-search`` runs
over the three set descriptors (``random d seed lo,hi``, ``r mod m`` and a
newline file this module writes while building), so set construction is
experiment work, as the CLI pays it on every run.  Windows are 4000-5000
wide with Nmax 28-32: only runs of a few milliseconds have a steady best
time on a shared host (see NOTES.md), and a single 10^6 window run takes
about 7 s.  At these windows the quadratic part of set construction is a
small share of a CLI run, so it is also timed alone: ``from_residue`` and
``from_random`` over a 24 000 wide window, a few ms each, most of it the
quadratic part.  Also
``upper_density``, ``empirical_cylinder_measure``, and
``lattice_pattern_count`` / ``syndetic_pattern_report`` on 2-d boxes.
"""

from __future__ import annotations

import hashlib
import random

from harness import Experiment, canonical
from workloads.common import Context, check_code, cli_canon, gap_problems

SPECS = ["(0,0),(1,0),(-1,1)", "(0,0),(2,0),(-1,1)", "(0,0),(1,0),(2,0)", "(0,0),(1,1),(3,0)"]
GAP_FIELDS = ("max_gap", "verdict")
BOX = 14
# wide enough that building a set costs a few ms, mostly in its quadratic part
BUILD_WIDTH = 24_000
# copies of every slot, each with its own random parameters
REPEATS = 6
LATTICE_PATTERNS = [
    (((1, 0), (0, 1)), ((0, 0), (0, -1))),
    (((1, 1), (1, -1)), ((0, 0), (1, 0))),
    (((2, 1), (0, 1)), ((0, -1), (1, 0))),
    (((1, 0), (1, 1)), ((0, 1), (0, 0))),
]


def _search_problems(res, n_max: int) -> list[str]:
    out = check_code(res)
    doc = res.reports.get("pattern_search.json")
    if doc is None:
        return out + ["no pattern_search.json report"]
    lo, hi = doc["window"]
    if not 0 <= doc["set_size"] <= hi - lo:
        out.append("set size outside the window")
    bad = [N for N, c in doc["counts"].items() if not 0 <= c <= int(N) + 1]
    if bad or len(doc["counts"]) != n_max:
        out.append(f"pattern counts outside [0, N+1] or missing: {bad[:3]}")
    return out + gap_problems(doc["members"], doc["max_gap"], doc["verdict"])


def _set_canon(s) -> dict:
    """Window, size and a digest of the bitmask (repr fails on wide sets)."""
    raw = s.bits.to_bytes((s.bits.bit_length() + 7) // 8, "little")
    return {"window": [s.lo, s.hi], "size": len(s), "bits": hashlib.sha256(raw).hexdigest()}


def _residue_problems(s, r: int) -> list[str]:
    """The members r mod 2 of the window, built in linear time as 0b...0101."""
    width = s.hi - s.lo
    alternating = (4 ** ((width + 1) // 2) - 1) // 3  # bits 0, 2, 4, ...
    expected = (alternating << ((r - s.lo) % 2)) & ((1 << width) - 1)
    return [] if s.bits == expected else ["members differ from r mod 2"]


def _random_problems(s, density: float) -> list[str]:
    share = len(s) / (s.hi - s.lo)
    return [] if abs(share - density) < 0.05 else [f"{share:.3f} of the window is a member, density {density}"]


def build(seed: int, ctx: Context) -> list[Experiment]:
    from ergoarrays import szemeredi as sz

    rng = random.Random(seed)
    exps: list[Experiment] = []
    specs = [sz.PatternSpec(gamma=g, gamma_hat=gh) for g, gh in LATTICE_PATTERNS]
    files = ctx.scratch_dir()
    for rep in range(REPEATS):
        _slots(rng, ctx, sz, specs, files, exps, rep)
    for rep in range(REPEATS):
        _build_slots(rng, sz, exps, rep)
    return exps


def _build_slots(rng, sz, exps, rep):
    """Set construction alone, at a window where its quadratic cost (each
    new member copies the whole bitmask) is most of the run."""
    lo = rng.randrange(-1000, 1000)
    window = (lo, lo + BUILD_WIDTH)
    r = rng.randrange(2)
    exps.append(Experiment(f"build.residue.{rep}", "build", lambda r=r, w=window: sz.IntegerSet.from_residue(r, 2, w),
                           canon=_set_canon, check=lambda s, r=r: _residue_problems(s, r)))
    exps.append(Experiment(f"build.random.{rep}", "build",
                           lambda seed=rng.randrange(10**6), w=window: sz.IntegerSet.from_random(0.5, seed, w),
                           canon=_set_canon, check=lambda s: _random_problems(s, 0.5)))


def _slots(rng, ctx, sz, specs, files, exps, rep):
    """One copy of every slot, with fresh random parameters."""

    def search(name, set_arg, window, n_max, spec):
        args = ["pattern-search", "--set", set_arg, "--spec", spec, "--Nmax", str(n_max)]
        if window is not None:
            args.append(f"--window={window[0]},{window[1]}")  # lo may be negative
        exps.append(Experiment(f"{name}.{rep}", "cli", lambda: ctx.cli(args), canon=lambda r: cli_canon(r, GAP_FIELDS),
                               check=lambda r: _search_problems(r, n_max),
                               computed=lambda r: {"cli.bytes_written": r.bytes_written}))

    # -- CLI pattern-search over the three descriptor kinds
    lo = rng.randrange(-1000, 1000)
    search("cli.random", f"random 0.5 {rng.randrange(10**6)} {lo},{lo + 5000}", None, 28, SPECS[0])
    search("cli.random_dense", f"random 0.7 {rng.randrange(10**6)} 0,4000", None, 28, SPECS[1])
    search("cli.random_sparse", f"random 0.2 {rng.randrange(10**6)} 0,4000", None, 32, SPECS[2])
    search("cli.residue_3", f"{rng.randrange(3)} mod 3", (0, 4000), 32, SPECS[0])
    search("cli.residue_5", f"{rng.randrange(5)} mod 5", (lo, lo + 5000), 28, SPECS[3])
    for i, (width, density, n_max, spec) in enumerate([(5000, 0.3, 28, SPECS[3]), (4000, 0.5, 32, SPECS[0])]):
        path = files / f"set{i}.{rep}.txt"
        members = [x for x in range(width) if rng.random() < density]
        path.write_text("\n".join(map(str, members)) + "\n")
        search(f"cli.file{i}", str(path), (0, width), n_max, spec)

    # -- densities and cylinder frequencies of random sets
    for i in range(2):
        s = sz.IntegerSet.from_random(rng.choice([0.3, 0.5]), rng.randrange(10**6), (0, 1500))
        exps.append(Experiment(f"density.upper.{i}.{rep}", "density", lambda s=s: sz.upper_density(s, [100, 400]),
                               check=lambda d: [] if 0 <= d.density <= 1 else ["density outside [0, 1]"]))
        s = sz.IntegerSet.from_random(0.5, rng.randrange(10**6), (0, 20_000))
        cyls = [{o: rng.randrange(2) for o in rng.sample(range(12), 1 + j % 5)} for j in range(150)]
        exps.append(Experiment(f"density.cylinders.{i}.{rep}", "density",
                               lambda s=s, c=cyls: sz.empirical_cylinder_measure(s, None, c),
                               check=lambda out: [] if all(0 <= v <= 1 for v in out.values()) else ["frequency outside [0, 1]"]))

    # -- 2-d boxes, each against every fixed lattice pattern
    for i in range(4):
        members = [(x, y) for x in range(BOX) for y in range(BOX) if rng.random() < 0.5]
        box = sz.LatticeSet.from_members(members, (0, 0), (BOX, BOX))
        if i % 2 == 0:
            exps.append(Experiment(f"lattice.count.{i}.{rep}", "lattice",
                                   lambda b=box: [sz.lattice_pattern_count(b, sp, N) for sp in specs for N in range(1, 7)],
                                   check=lambda cs: [f"count {c.count} > N+1" for c in cs if not 0 <= c.count <= c.N + 1]))
        else:
            exps.append(Experiment(f"lattice.syndetic.{i}.{rep}", "lattice",
                                   lambda b=box: [sz.syndetic_pattern_report(b, sp, 6) for sp in specs],
                                   canon=lambda reps: [{k: v for k, v in canonical(r).items() if k not in GAP_FIELDS} for r in reps],
                                   check=lambda reps: [p for r in reps for p in gap_problems(r.members, r.max_gap, r.verdict)]))


def probes(ctx: Context) -> list:
    return []
