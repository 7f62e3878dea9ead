"""symbolic: PET descents, alpha-mixing coefficients and IntPoly2 analysis.

No set algebra runs here, so a change to the pair-sum engine should leave
this workload unchanged.  Three groups:

* ``pet_trace`` over a seeded corpus from this module's own generator
  (the shapes of ``repro.pet_corpus``, without its module cache and without
  running any descent while building), CLI ``pet-reduce`` on shapes that
  always finish, and single ``reduce_step`` calls.  A descent that hits
  ``max_system_size`` is an expected, recorded outcome;
* ``alpha_coefficient`` for s = 3..5 states (O(4^s s^2) today),
  ``higher_mixing_gap`` and ``mixing_inequality_check``;
* ``count_small_values`` and ``minimal_distinct_shift`` on random IntPoly2.

Markov rows share one prime denominator so the seed does not change the
size of the rationals involved.

The 25 four-state alpha experiments (5 per copy, n = 1 and 2) are, after
the one 5-state alpha, the heaviest experiments, and they cost the same
for every seed, so ``exp_tail_s`` (the 11th slowest) falls among them:
the PET descents, whose cost the seed moves a lot, do not decide it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from harness import Experiment
from workloads.common import Context, check_code, cli_canon, random_chain

# (generators, members, max degree), the shapes repro.pet_corpus draws from,
# grouped so that every experiment costs a few milliseconds: one system of
# a costly shape, or one of each cheap shape in a group
PET_GROUPS = [
    [(1, 2, 3)], [(1, 3, 2)], [(1, 3, 3)], [(2, 3, 2)], [(2, 2, 3)], [(3, 3, 2)],
    [(1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 2)],
    [(2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 1, 2)],
    [(3, 1, 3), (3, 2, 1), (3, 2, 2)],
]
# copies of every slot, each with its own random systems
REPEATS = 5
# shapes of the systems given to single reduce_step calls
STEP_SHAPES = [(1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 3, 2), (1, 2, 3), (3, 2, 2)]
# caps on one descent; hitting them is recorded as the outcome "capped"
MAX_SYSTEM_SIZE = 8
MAX_STEPS = 16
# shapes whose descent always finishes quickly under the CLI's default caps
CLI_SHAPES = [(1, 1, 2), (2, 2, 2), (3, 2, 2)]


def random_pet_system(rng: random.Random, k: int, size: int, max_deg: int):
    """A system meeting the nonconstant-quotient hypotheses, or None.

    Same distribution as the corpus generator of ``repro``; checking the
    hypotheses is cheap and runs no descent.
    """
    from ergoarrays import pet
    from ergoarrays.intpoly import IntPoly2

    system = []
    for _ in range(size):
        n_exps = []
        for _ in range(k):
            coeffs = {d: rng.randint(-2, 2) for d in range(1, max_deg + 1) if rng.random() < 0.6}
            n_exps.append(IntPoly2.from_coeffs({(d, 0): c for d, c in coeffs.items() if c}))
        N_exps = [IntPoly2.from_coeffs({(0, 1): rng.randint(-2, 2)}) for _ in range(k)]
        system.append(pet.PExpr(tuple(n_exps), tuple(N_exps)))
    try:
        pet.weight_matrix(system)
    except ValueError:
        return None
    for i in range(len(system)):
        for j in range(i + 1, len(system)):
            if system[i].mul(system[j].inv()).is_constant_in_n():
                return None
    return system


def draw_system(rng: random.Random, shape):
    while True:
        system = random_pet_system(rng, *shape)
        if system is not None:
            return system


def _descend(system):
    from ergoarrays import pet

    try:
        return pet.pet_trace(system, max_steps=MAX_STEPS, max_system_size=MAX_SYSTEM_SIZE)
    except RuntimeError as exc:
        if "grew past" in str(exc) or "did not terminate" in str(exc):
            return "capped"
        raise


def _chain_problems(chain) -> list[str]:
    from ergoarrays import pet

    if chain == "capped":
        return []
    if not all(pet.precedes(b, a) for a, b in zip(chain, chain[1:])):
        return ["descent chain is not strictly descending"]
    return []


def _batch_canon(chains):
    return [c if c == "capped" else [m.to_json() for m in c] for c in chains]


def build(seed: int, ctx: Context) -> list[Experiment]:
    from ergoarrays import mixing, pet
    from ergoarrays.intpoly import count_small_values, minimal_distinct_shift
    from ergoarrays.repro import random_intpoly

    rng = random.Random(seed)
    exps: list[Experiment] = []

    def chain(states):
        return mixing.MarkovChainModel(random_chain(rng, states, 13))

    def alphas(name, states, ns):
        model = chain(states)
        exps.append(Experiment(name, "alpha", lambda: [mixing.alpha_coefficient(model, n) for n in ns],
                               check=lambda out: [f"alpha {a} outside [0, 1/4]" for a in out if not 0 <= a <= Fraction(1, 4)]))

    def one_step(system):
        for h in range(1, 1000):
            try:
                return pet.reduce_step(system, h)
            except pet.ShiftTooSmallError:
                continue
        raise RuntimeError("no usable shift below 1000")

    def step_problems(outs, systems):
        return [f"reduction {j} did not descend" for j, (out, s) in enumerate(zip(outs, systems))
                if not pet.precedes(pet.weight_matrix(out), pet.weight_matrix(s))]

    # one 5-state alpha: a single larger unit, a few percent of solve_s
    alphas("mixing.alpha_s5", 5, (1,))
    for rep in range(REPEATS):
        # -- PET descents
        for i, group in enumerate(PET_GROUPS):
            batch = [draw_system(rng, shape) for shape in group]
            exps.append(Experiment(
                f"pet.trace.{i}.{rep}", "pet", lambda b=batch: [_descend(s) for s in b],
                canon=_batch_canon, check=lambda chains: [p for c in chains for p in _chain_problems(c)]))

        # -- CLI pet-reduce
        system = draw_system(rng, CLI_SHAPES[rep % len(CLI_SHAPES)])
        doc = {"system": [{"n": [str(p) for p in e.n_exps], "N": [str(q) for q in e.N_exps]} for e in system]}
        args = ["pet-reduce", "--exprs", json.dumps(doc)]
        exps.append(Experiment(f"cli.pet_reduce.{rep}", "cli", lambda a=args: ctx.cli(a), canon=cli_canon,
                               check=_pet_cli_problems,
                               computed=lambda res: {"cli.bytes_written": res.bytes_written}))

        # -- single reduction steps, scanning h past too-small shifts
        for i in range(0, len(STEP_SHAPES), 3):
            systems = [draw_system(rng, shape) for shape in STEP_SHAPES[i:i + 3]]
            exps.append(Experiment(
                f"pet.reduce_step.{i // 3}.{rep}", "pet", lambda ss=systems: [one_step(s) for s in ss],
                canon=lambda outs: [pet.weight_matrix(o).to_json() for o in outs],
                check=lambda outs, ss=systems: step_problems(outs, ss)))

        # -- alpha coefficients, gaps and the alpha-sum inequality
        alphas(f"mixing.alpha_s3.{rep}", 3, (1, 2, 3))
        # five 4-state alphas: the heaviest group, see the module docstring
        for i in range(5):
            alphas(f"mixing.alpha_s4.{i}.{rep}", 4, (1, 2))
        for i in range(2):
            cases = []
            for _ in range(10):
                model = chain(2 + i)
                cyls = [{c: rng.randrange(model.states) for c in rng.sample(range(3), 2)} for _ in range(3)]
                cases.append((model, cyls, [rng.randint(1, 4) for _ in range(2)]))
            exps.append(Experiment(f"mixing.gap.{i}.{rep}", "mixing",
                                   lambda cs=cases: [mixing.higher_mixing_gap(*c) for c in cs],
                                   check=lambda gaps: [f"gap {g} outside [0, 1]" for g in gaps if not 0 <= g <= 1]))
            model = chain(3)
            events = _window_events(rng, mixing, model, 3, 1)
            exps.append(Experiment(f"mixing.inequality.{i}.{rep}", "mixing",
                                   lambda m=model, e=events: mixing.mixing_inequality_check(m, e, 1),
                                   check=lambda chk: [] if chk.holds else ["alpha-sum inequality failed"]))

        # -- IntPoly2 analysis; the small-value scans cost the same for every
        # seed and are the largest group, so the median experiment is steady
        for i in range(8):
            p, K, N = _poly_of_degree(rng, random_intpoly, 3), rng.randint(0, 20), 5000
            exps.append(Experiment(f"intpoly.small_values.{i}.{rep}", "intpoly",
                                   lambda p=p, K=K, N=N: count_small_values(p, K, N),
                                   check=lambda res, N=N: [] if 0 <= res.count <= min(N, res.bound) else [f"count {res.count} out of bounds"]))
        for i in range(2):
            families = [_distinct_family(rng, random_intpoly) for _ in range(10)]
            exps.append(Experiment(f"intpoly.distinct_shift.{i}.{rep}", "intpoly",
                                   lambda fs=families: [minimal_distinct_shift(ps, cap=200) for ps in fs],
                                   check=lambda hs: [f"shift {h} below 1" for h in hs if h < 1]))
    return exps


def _poly_of_degree(rng, random_intpoly, degree):
    """A random IntPoly2 of n-degree ``degree``: the cost of scanning its
    values grows with the degree, so the seed should not pick it."""
    while True:
        p = random_intpoly(rng)
        if p.deg_n == degree:
            return p


def _window_events(rng, mixing, model, k, horizon):
    """k ordered events of fixed shape (width horizon + 1, two rows each)."""
    events, start = [], rng.randint(-5, 0)
    for _ in range(k):
        width = horizon + 1
        rows = [tuple(rng.randrange(model.states) for _ in range(width)) for _ in range(2)]
        events.append(mixing.WindowEvent.of(start, rows))
        start = events[-1].end + rng.randint(1, 6)
    return events


def _distinct_family(rng, random_intpoly):
    """Three pairwise essentially distinct polynomials that depend on n."""
    from ergoarrays.intpoly import essentially_distinct

    while True:
        ps = [random_intpoly(rng, 3, 1) for _ in range(3)]
        if essentially_distinct(ps):
            return ps


def _pet_cli_problems(res) -> list[str]:
    out = check_code(res)
    doc = res.reports.get("pet_reduce.json")
    if doc is None:
        return out + ["no pet_reduce.json report"]
    if doc["steps"] != len(doc["chain"]) - 1:
        out.append("steps does not match the chain length")
    return out


def probes(ctx: Context) -> list:
    # alpha_coefficient has no state cap yet; probing it would start an
    # unbounded O(4^s s^2) computation, so it is left unprobed.
    return []
