"""pairsum: exact squared L^2 distances of array averages (O(N^2) pair sums).

Every engine path of ``l2_distance_exact`` / ``commuting_average`` runs
here, with sizes fixed per slot so that the seed changes symbols, angles,
steps and sets but not the amount of work:

* fast-indicator: Bernoulli shifts with 2-3 plain cylinders at fixed
  coordinates, N 24-26;
* generic quadratic: rotations, cyclic and product rotations, Markov shifts,
  centered and multi-row Bernoulli observables, N 6-12;
* stationary: one factor with an exponent linear in n, N 40-100, one
  rotation angle with a 3.1e11 denominator;
* commuting: lattice actions on Bernoulli shifts and cyclic lattices,
  N 10-12, one single-generator family at N 100;

plus three CLI ``avg-sweep`` runs, in the first copy only (default
``--jobs``, i.e. the thread pool, run on every CPU of the process rather
than the pinned one), and ``vdc_correlations``.  No symbolic code runs
here.

Apart from the three CLI runs, the 24 fast-indicator experiments (6 slots
x REPEATS) are the heaviest of the workload, so ``exp_tail_s`` (the 11th
slowest experiment) falls inside that group: it measures the
fast-indicator path, and neither a single input draw nor the thread-pool
noise of the CLI runs decides it.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

from harness import Experiment, Probe
from workloads.common import (
    Context,
    check_code,
    cli_canon,
    lattice_action,
    random_chain,
    random_points,
    random_probs,
    rational,
)

# denominator of the slow stationary angle (about 3.1e11)
BIG_DEN = 311_111_111_117
# copies of every slot, each with its own random parameters
REPEATS = 4


def _angle(rng: random.Random, den: int) -> Fraction:
    while True:
        p = rng.randrange(1, den)
        if math.gcd(p, den) == 1:
            return Fraction(p, den)


def _arc(rng: random.Random, rot, twelfths: int):
    a = Fraction(rng.randrange(12), 12)
    return rot.arc(a, a + Fraction(twelfths, 12))


def _cylinder(rng, system, coords, alphabet):
    return system.cylinder({c: rng.randrange(alphabet) for c in coords})


def _nonneg(value) -> list[str]:
    return [] if value >= 0 else [f"negative squared distance {value}"]


def build(seed: int, ctx: Context) -> list[Experiment]:
    from ergoarrays import averages as av
    from ergoarrays import systems as sy

    rng = random.Random(seed)
    ind = av.Observable.indicator
    exps: list[Experiment] = []
    for rep in range(REPEATS):
        _slots(rng, ctx, av, sy, ind, exps, rep)
    return exps


def _slots(rng, ctx, av, sy, ind, exps, rep):
    """One copy of every slot, with fresh random parameters."""

    def distance(name, group, system, observables, exponents, N, center=False):
        spec = av.ArraySpec.create(system, observables, exponents, center=center)
        exps.append(Experiment(f"{name}.{rep}", group, lambda: av.l2_distance_exact(spec, N), check=_nonneg))

    # -- fast-indicator path: plain single cylinders on a Bernoulli shift
    # (coordinates are fixed: where the cylinders sit decides which terms
    # vanish, and so the cost)
    fast_slots = [
        (2, [[0], [1]], ["n", "2*n + N"], 26),
        (2, [[0], [0], [2]], ["n", "2*n", "3*n + N"], 24),
        (3, [[0, 1], [0]], ["2*n", "n + N"], 24),
        (2, [[0], [1], [0]], ["n", "3*n + N", "2*n + 2*N"], 24),
        (2, [[0], [2]], ["2*n", "3*n + N"], 26),
        (3, [[0], [1]], ["n", "2*n + N"], 26),
    ]
    for i, (symbols, coords, exponents, N) in enumerate(fast_slots):
        bern = sy.BernoulliShift(random_probs(rng, symbols, 13))
        obs = [ind(_cylinder(rng, bern, cs, symbols)) for cs in coords]
        distance(f"fast_indicator.{i}", "fast_indicator", bern, obs, exponents, N)

    # -- generic quadratic path; small-denominator angles are fixed, since
    # which terms vanish, and so the cost, depends on the angle
    rot7 = sy.CircleRotation(Fraction(3, 7))
    distance("generic.rot7", "generic", rot7, [ind(_arc(rng, rot7, 3)), ind(_arc(rng, rot7, 4))], ["n**2", "n*N"], 10)
    rot11 = sy.CircleRotation(Fraction(4, 11))
    distance("generic.rot11_sq", "generic", rot11, [ind(_arc(rng, rot11, 5))], ["n**2"], 12)
    rot_nn = sy.CircleRotation(Fraction(5, 13))
    distance("generic.rot13", "generic", rot_nn, [ind(_arc(rng, rot_nn, 4)), ind(_arc(rng, rot_nn, 6))], ["n*N", "n"], 10)
    cyc12 = sy.CyclicRotation(12, rng.choice([1, 5, 7, 11]))
    distance("generic.cyc12", "generic", cyc12, [ind(cyc12.point_set(rng.sample(range(12), 4)))] * 2, ["n**2", "n*N"], 12)
    cyc10 = sy.CyclicRotation(10, rng.choice([1, 3, 7, 9]))
    distance("generic.cyc10", "generic", cyc10, [ind(cyc10.point_set(rng.sample(range(10), 3))), ind(cyc10.point_set(rng.sample(range(10), 5)))], ["n**2 + N", "n"], 12)
    prod = sy.CyclicLattice((4, 6), (rng.choice([1, 3]), rng.choice([1, 5])))
    distance("generic.product46", "generic", prod, [ind(prod.point_set(random_points(rng, (4, 6), 5)))] * 2, ["n**2", "n*N"], 12)
    prod35 = sy.CyclicLattice((3, 5), (rng.choice([1, 2]), rng.choice([1, 2, 3, 4])))
    distance("generic.product35", "generic", prod35, [ind(prod35.point_set(random_points(rng, (3, 5), 4)))] * 2, ["n*N", "n"], 12)
    mk2 = sy.MarkovShift(random_chain(rng, 2, 7))
    distance("generic.markov2", "generic", mk2, [ind(_cylinder(rng, mk2, [0], 2)), ind(_cylinder(rng, mk2, [0, 1], 2))], ["n", "2*n + N"], 8)
    mk3 = sy.MarkovShift(random_chain(rng, 3, 7))
    distance("generic.markov3", "generic", mk3, [ind(_cylinder(rng, mk3, [0], 3)), ind(_cylinder(rng, mk3, [0], 3))], ["n", "n + N"], 8)
    bern2 = sy.BernoulliShift(random_probs(rng, 2, 7))
    distance("generic.centered", "generic", bern2, [ind(_cylinder(rng, bern2, [0], 2)), ind(_cylinder(rng, bern2, [0, 2], 2))], ["n", "n**2"], 10, center=True)
    multi = _cylinder(rng, bern2, [0], 2).union(_cylinder(rng, bern2, [1, 2], 2))
    distance("generic.multirow", "generic", bern2, [ind(multi), ind(_cylinder(rng, bern2, [0], 2))], ["n", "2*n + N"], 6)
    bern3 = sy.BernoulliShift(random_probs(rng, 3, 13))
    affine = av.Observable(Fraction(rng.randint(1, 3), 4), ((Fraction(-1), _cylinder(rng, bern3, [0], 3)),))
    distance("generic.affine", "generic", bern3, [affine, ind(_cylinder(rng, bern3, [1], 3))], ["n", "n*N"], 10)

    # -- stationary path: one factor, exponent linear in n
    slow = sy.CircleRotation(_angle(rng, BIG_DEN))
    distance("stationary.bigden", "stationary", slow, [ind(_arc(rng, slow, 4))], ["n*N"], 40)
    rot13 = sy.CircleRotation(Fraction(6, 13))
    distance("stationary.rot13", "stationary", rot13, [ind(_arc(rng, rot13, 5))], ["n*N"], 60)
    cyc = sy.CyclicRotation(30, rng.choice([1, 7, 11, 13]))
    distance("stationary.cyc30", "stationary", cyc, [ind(cyc.point_set(rng.sample(range(30), 9)))], ["n*N"], 100)
    bern = sy.BernoulliShift(random_probs(rng, 2, 7))
    distance("stationary.bernoulli", "stationary", bern, [ind(_cylinder(rng, bern, [0, 1], 2))], ["n*N"], 60)
    mkst = sy.MarkovShift(random_chain(rng, 2, 7))
    distance("stationary.markov", "stationary", mkst, [ind(_cylinder(rng, mkst, [0], 2))], ["n"], 50)
    prod_st = sy.CyclicLattice((6, 7), (1, rng.choice([2, 3, 4])))
    distance("stationary.product", "stationary", prod_st, [ind(prod_st.point_set(random_points(rng, (6, 7), 8)))], ["n*N"], 80)

    # -- commuting families on lattice actions
    def commuting(name, system, z, zhat, observables, N):
        cspec = av.CommutingArraySpec(lattice_action(system, z, zhat), tuple(observables))
        exps.append(Experiment(f"{name}.{rep}", "commuting", lambda: av.commuting_average(cspec, N), check=_nonneg))

    cb = sy.BernoulliShift(random_probs(rng, 2, 7))
    commuting("commuting.bern12", cb, [1, 2], [0, 1], [ind(_cylinder(rng, cb, [0], 2)), ind(_cylinder(rng, cb, [1], 2))], 10)
    commuting("commuting.bern13", cb, [1, 3], [1, 0], [ind(_cylinder(rng, cb, [0], 2)), ind(_cylinder(rng, cb, [0], 2))], 10)
    cl = sy.CyclicLattice((5, 7))
    commuting("commuting.cyclic57", cl, [(1, 0), (0, 1)], [(0, rng.randrange(7)), (rng.randrange(5), 1)], [ind(cl.point_set(random_points(rng, (5, 7), 6)))] * 2, 12)
    cl4 = sy.CyclicLattice((8, 8))
    commuting("commuting.cyclic88_single", cl4, [(1, rng.choice([1, 3]))], [(rng.randrange(8), 0)], [ind(cl4.point_set(random_points(rng, (8, 8), 10)))], 100)
    lat = sy.build_system({"kind": "bernoulli-lattice", "params": {"probs": [str(p) for p in random_probs(rng, 2, 7)], "d": 2}})
    commuting("commuting.lattice2d", lat, [(1, 0), (0, 1)], [(0, 0), (1, 1)], [ind(_cylinder(rng, lat, [(0, 0)], 2)), ind(_cylinder(rng, lat, [(0, 1)], 2))], 10)
    cl3 = sy.CyclicLattice((3, 4, 5))
    commuting("commuting.cyclic345", cl3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 1), (1, 0, 0), (0, 1, 0)], [ind(cl3.point_set(random_points(rng, (3, 4, 5), 12)))] * 3, 10)

    # -- CLI avg-sweep, default --jobs (the thread pool), on every CPU
    def sweep(name, system_doc, spec_doc, Ns):
        if rep > 0:  # a few runs: each costs about 5 ms of fixed overhead
            return
        args = ["avg-sweep", "--system", json.dumps(system_doc), "--spec", json.dumps(spec_doc), "--Ns", Ns]
        exps.append(Experiment(f"{name}.{rep}", "cli", lambda: ctx.cli(args), canon=cli_canon, check=_sweep_problems,
                               computed=lambda res: {"cli.bytes_written": res.bytes_written}, all_cpus=True))

    a = rng.randrange(4)
    sweep("cli.sweep_half", {"kind": "circle-rotation-rational", "params": {"angle": "1/2"}},
          {"observables": [{"set": {"arc": [f"{a}/8", f"{a + 2}/8"]}}] * 2, "exponents": ["N - n", "n"]}, "3,4,5")
    probs = [str(p) for p in random_probs(rng, 2, 7)]
    sweep("cli.sweep_bernoulli", {"kind": "bernoulli-shift", "params": {"probs": probs}},
          {"observables": [{"set": {"cylinder": {"0": rng.randrange(2)}}}, {"set": {"cylinder": {"1": rng.randrange(2)}}}],
           "exponents": ["n", "2*n + N"]}, "4,8")
    sweep("cli.sweep_cyclic", {"kind": "cyclic-rotation", "params": {"modulus": 10, "step": 1}},
          {"observables": [{"set": {"points": rng.sample(range(10), 3)}}] * 2, "exponents": ["n**2", "n*N"], "center": True},
          "4,6")

    # -- van der Corput correlation tables
    def vdc(name, system, observables, exponents, N, H):
        spec = av.ArraySpec.create(system, observables, exponents)
        exps.append(Experiment(f"{name}.{rep}", "vdc", lambda: av.vdc_correlations(spec, N, H),
                               check=lambda out, H=H: [] if len(out.rows) == H else ["wrong number of rows"]))

    vdc("vdc.rot", rot7, [ind(_arc(rng, rot7, 3)), ind(_arc(rng, rot7, 5))], ["n", "2*n"], 12, 4)
    vdc("vdc.cyclic", cyc12, [ind(cyc12.point_set(rng.sample(range(12), 5)))] * 2, ["n**2", "n"], 16, 4)
    vdc("vdc.bernoulli", bern2, [ind(_cylinder(rng, bern2, [0], 2)), ind(_cylinder(rng, bern2, [0], 2))], ["n", "2*n + N"], 12, 4)
    vdc("vdc.markov", mk2, [ind(_cylinder(rng, mk2, [0], 2))], ["n"], 16, 4)


def _sweep_problems(res) -> list[str]:
    out = check_code(res)
    doc = res.reports.get("avg_sweep.json")
    if doc is None:
        return out + ["no avg_sweep.json report"]
    for row in doc["rows"]:
        if rational(row["value"]) < 0:
            out.append(f"negative distance at N={row['N']}")
    if doc["verdict"] not in ("decaying", "oscillating", "inconclusive"):
        out.append(f"unknown verdict {doc['verdict']!r}")
    return out


def probes(ctx: Context) -> list[Probe]:
    def lattice_indicators():
        # Two plain indicators on a Bernoulli lattice: today the fast path
        # raises TypeError; the correct value is the pairwise expansion.
        from ergoarrays import averages as av
        from ergoarrays import systems as sy

        lat = sy.build_system({"kind": "bernoulli-lattice", "params": {"probs": ["1/2", "1/2"], "d": 2}})
        F, G = lat.cylinder({(0, 0): 0}), lat.cylinder({(0, 1): 1})
        spec = av.ArraySpec.create(lat, [av.Observable.indicator(F), av.Observable.indicator(G)], ["n", "2*n"])
        N = 6
        c = spec.product_of_integrals()
        pairs = sum(av.array_term_inner(spec, N, n, m) for n in range(1, N + 1) for m in range(1, N + 1))
        means = sum(lat.measure(lat.preimage(F, n).intersect(lat.preimage(G, 2 * n))) for n in range(1, N + 1))
        oracle = Fraction(pairs, N * N) - 2 * c * Fraction(means, N) + c * c
        try:
            value = av.l2_distance_exact(spec, N)
        except Exception as exc:
            return f"raised {type(exc).__name__}: {exc}"
        return None if value == oracle else f"value {value} differs from the pairwise expansion {oracle}"

    def malformed_probs():
        # "probs": 5 is an argument error (exit 2); today it escapes as a
        # TypeError traceback with exit 1.  Run as a real process so the
        # exit code is the one a user sees.
        spec = {"observables": [{"set": {"cylinder": {"0": 0}}}], "exponents": ["n"]}
        cmd = [sys.executable, "-m", "ergoarrays.cli", "--out-dir", str(ctx.scratch_dir()), "avg-sweep",
               "--system", '{"kind": "bernoulli-shift", "params": {"probs": 5}}',
               "--spec", json.dumps(spec), "--Ns", "4"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return None if proc.returncode == 2 else f"exit code {proc.returncode}, expected 2"

    return [
        Probe("l2_distance_exact on a Bernoulli lattice with two plain indicators", lattice_indicators),
        Probe('CLI exit code for a system descriptor with "probs": 5', malformed_probs),
    ]
