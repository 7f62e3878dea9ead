import contextlib
import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoarrays import averages, systems
from ergoarrays.averages import (
    ArraySpec,
    CommutingArraySpec,
    Observable,
    array_term_inner,
    commuting_average,
    convergence_sweep,
    l2_distance_exact,
    l2_distance_mc,
    vdc_correlations,
    _Engine,
    _shift_columns,
)
from ergoarrays.intpoly import IntPoly2
from ergoarrays.recurrence import RecurrenceSpec, recurrence_series
from ergoarrays.sets import ArcUnion, CylinderUnion, FiniteSubset, intersect
from ergoarrays.systems import (
    BernoulliLattice,
    BernoulliShift,
    CircleRotation,
    CyclicLattice,
    CyclicRotation,
    GaussMap,
    IrrationalRotation,
    MarkovShift,
    build_lattice_action,
)
from ergoarrays.util import ResourceCapError

from conftest import exact_zoo, markov_chain, markov_sets, periodic_systems


def bernoulli_spec(center=False, exponents=("n",), ell=1):
    bern = BernoulliShift.uniform(2)
    f = Observable.indicator(bern.cylinder({0: 0}))
    return ArraySpec.create(bern, [f] * ell, list(exponents), center=center)


def class_cap(n):
    """Lower the pair sums' class cap ``averages._MAX_CLASSES`` to n."""
    return mock.patch.object(averages, "_MAX_CLASSES", n)


def half_rotation_spec(center=False):
    rot = CircleRotation(Fraction(1, 2))
    f = Observable.indicator(rot.arc(0, Fraction(1, 4)))
    return ArraySpec.create(rot, [f, f], ["N - n", "n"], center=center)


# -- independent oracles -----------------------------------------------------


def reference_inner(system, factors) -> Fraction:
    """Exact integral of prod_j (const_j + sum_i coeff_ij 1_{S_ij}) for
    factors given as (const, ((coeff, set), ...)): every choice of one
    summand per factor is expanded recursively with Fraction coefficients and
    its intersection measured by the system, with no caching, grouping or
    merging (the exact engine's original expansion)."""
    total = Fraction(0)

    def rec(idx, coeff, inter):
        nonlocal total
        if idx == len(factors):
            total += coeff if inter is None else coeff * system.measure(inter)
            return
        const, terms = factors[idx]
        if const != 0:
            rec(idx + 1, coeff * const, inter)
        for c, S in terms:
            if c == 0:
                continue
            nxt = S if inter is None else intersect(inter, S)
            if not nxt.is_empty():
                rec(idx + 1, coeff * c, nxt)

    rec(0, Fraction(1), None)
    return total


def raw_factor(f, shifted):
    """A reference factor, built from a raw preimage of each set."""
    return (f.constant, tuple((c, shifted(S)) for c, S in f.terms))


def raw_rows(system, observables, exponents, ns, N):
    """Reference factors of x_n for n in ns (scalar exponents)."""
    return [
        [raw_factor(f, lambda S, s=p.eval(n, N): system.preimage(S, s)) for f, p in zip(observables, exponents)]
        for n in ns
    ]


def commuting_rows(action, observables, N):
    """Reference factors of x_n = prod_j T_j^n That_j^N f_j for n = 0..N."""
    return [
        [
            raw_factor(f, lambda S, v=action.shift_vector(j, n, N): action.system.translate_preimage(S, v))
            for j, f in enumerate(observables, 1)
        ]
        for n in range(N + 1)
    ]


def all_pairs_distance(system, rows, c) -> Fraction:
    """|| mean_t x_t - c ||^2 with every ordered pair <x_t, x_u> evaluated
    by the reference expansion; rows[t] are the reference factors of x_t."""
    T = len(rows)
    pairs = sum((reference_inner(system, a + b) for a in rows for b in rows), Fraction(0))
    means = sum((reference_inner(system, a) for a in rows), Fraction(0))
    return pairs / T**2 - 2 * c * means / T + c * c


def bitstring_oracle(N: int, exponents, centered: bool) -> Fraction:
    """|| A_N - c ||^2 by enumerating all bit assignments on the touched
    coordinates of the uniform Bernoulli shift (observable 1_{w_0=0})."""
    coords = sorted({p.eval(n, N) for p in exponents for n in range(1, N + 1)})
    idx = {c: i for i, c in enumerate(coords)}
    mean = Fraction(1, 2)
    total = Fraction(0)
    count = 0
    for bits in itertools.product((0, 1), repeat=len(coords)):
        a = Fraction(0)
        for n in range(1, N + 1):
            term = Fraction(1)
            for p in exponents:
                v = Fraction(1) if bits[idx[p.eval(n, N)]] == 0 else Fraction(0)
                if centered:
                    v -= mean
                term *= v
            a += term
        c = Fraction(0) if centered else mean ** len(exponents)
        total += (a / N - c) ** 2
        count += 1
    return total / count


def step_function_oracle(spec: ArraySpec, N: int, target: Fraction) -> Fraction:
    """|| A_N - c ||^2 for arc observables on a circle rotation, integrating
    the piecewise-constant function A_N atom by atom (no inner products)."""
    rot = spec.system
    shifted = []
    for n in range(1, N + 1):
        row = []
        for f, p in zip(spec.observables, spec.exponents):
            sets = [(coeff, rot.preimage(S, p.eval(n, N))) for coeff, S in f.terms]
            row.append((f.constant, sets))
        shifted.append(row)
    cuts = {Fraction(0), Fraction(1)}
    for row in shifted:
        for _, sets in row:
            for _, S in sets:
                for a, b in S.arcs:
                    cuts.update((a, b))
    cuts = sorted(cuts)
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        x = (lo + hi) / 2
        a_val = Fraction(0)
        for row in shifted:
            term = Fraction(1)
            for const, sets in row:
                v = const
                for coeff, S in sets:
                    if S.contains_point(x):
                        v += coeff
                term *= v
            a_val += term
        total += (a_val / N - target) ** 2 * (hi - lo)
    return total


# -- exact engine ------------------------------------------------------------


def test_closed_form_quarter_over_N():
    spec = bernoulli_spec(center=True)
    for N in list(range(1, 17)) + [64, 100]:
        assert l2_distance_exact(spec, N) == Fraction(1, 4 * N)


def test_closed_form_matches_bitstring_oracle():
    spec = bernoulli_spec(center=True)
    for N in (1, 2, 3, 5, 6):
        assert l2_distance_exact(spec, N) == bitstring_oracle(N, spec.exponents, True)


def test_counterexample_exact_values():
    spec = half_rotation_spec()
    target = spec.product_of_integrals()
    assert target == Fraction(1, 16)
    for N in (3, 5, 7, 199):
        assert l2_distance_exact(spec, N) == Fraction(1, 256)
        assert l2_distance_exact(spec, N, target=0) == 0  # A_N vanishes
    for N in (4, 6, 8, 200):
        assert l2_distance_exact(spec, N) == Fraction(25, 256)
        assert l2_distance_exact(spec, N, target=0) == Fraction(1, 8)


def test_counterexample_matches_step_function_oracle():
    spec = half_rotation_spec()
    for N in (3, 4, 5, 6, 9, 10):
        assert l2_distance_exact(spec, N) == step_function_oracle(spec, N, Fraction(1, 16))


def test_linear_pair_closed_form():
    # distinct (p, q) = (1,0), (2,1): only the diagonal pairs contribute
    spec = bernoulli_spec(exponents=("n", "2*n + N"), ell=2)
    for N in (2, 5, 16, 64):
        assert l2_distance_exact(spec, N) == Fraction(3, 16 * N)
    assert l2_distance_exact(spec, 2) == bitstring_oracle(2, spec.exponents, False)


def test_linear_family_decay_sample():
    # random members of the linear family with distinct nonzero p_j and
    # |p|, |q| <= 3, l <= 3: the exact distance at N = 2^10 sits below 1e-2
    # and below half its value at N = 2^6.  (p_j = 0 genuinely breaks the
    # decay: the factor T^{qN}f is constant in n and keeps the distance near
    # Var(f)/16 forever, which the exact engine confirms.)
    import random

    rng = random.Random(6021)
    bern = BernoulliShift.uniform(2)
    f = Observable.indicator(bern.cylinder({0: 0}))
    nonzero = [p for p in range(-3, 4) if p != 0]
    for _ in range(2):
        ell = rng.choice((2, 3))
        ps = rng.sample(nonzero, ell)
        qs = [rng.randint(-3, 3) for _ in range(ell)]
        exps = [f"{p}*n + {q}*N" for p, q in zip(ps, qs)]
        spec = ArraySpec.create(bern, [f] * ell, exps, assert_distinct_linear=True)
        small = l2_distance_exact(spec, 2**6)
        big = l2_distance_exact(spec, 2**10)
        assert big < Fraction(1, 100)
        assert big < small / 2


def test_zero_p_factor_blocks_decay():
    # exact witness for the nonzero-p hypothesis: with p_1 = 0 the distance
    # stabilizes at Var(f)/16 = 1/64 instead of vanishing
    bern = BernoulliShift.uniform(2)
    f = Observable.indicator(bern.cylinder({0: 0}))
    spec = ArraySpec.create(bern, [f, f, f], ["0*n + N", "-2*n - N", "n + N"])
    far = l2_distance_exact(spec, 512)
    assert abs(far - Fraction(1, 64)) < Fraction(1, 512)


def test_constant_observables_trivial():
    bern = BernoulliShift.uniform(2)
    spec = ArraySpec.create(bern, [Observable.const(1)] * 2, ["n", "2*n"])
    for N in (1, 7, 32):
        assert l2_distance_exact(spec, N) == 0


def _single_mean(spec, N, n):
    row = [p.eval(n, N) for p in spec.exponents]
    return _Engine(spec.system).scan(spec.observables, [row]).exact(enumerate(row))


def test_fast_indicator_path_matches_generic_expansion():
    # the counted plain-cylinder path must agree with the inner-product
    # engine; on the lattice its coordinates are tuples (this once raised
    # TypeError)
    lat = BernoulliLattice((Fraction(1, 3), Fraction(2, 3)), 2)
    lattice_spec = ArraySpec.create(
        lat,
        [Observable.indicator(lat.cylinder({(0, 0): 0})), Observable.indicator(lat.cylinder({(0, 1): 1}))],
        ["n", "2*n"],
    )
    for spec in (bernoulli_spec(exponents=("n", "2*n + N"), ell=2), lattice_spec):
        for N in (3, 8):
            total = sum(
                array_term_inner(spec, N, i, j)
                for i in range(1, N + 1)
                for j in range(1, N + 1)
            )
            mean_sum = sum(_single_mean(spec, N, n) for n in range(1, N + 1))
            c = spec.product_of_integrals()
            manual = total / N**2 - 2 * c * mean_sum / N + c * c
            assert l2_distance_exact(spec, N) == manual


# -- counted path against the all-pairs oracle ----------------------------------

@st.composite
def affine_observables(draw, system, sets=None):
    """A plain indicator, or an affine combination (constant and 0-3 terms,
    zero, negative and fractional coefficients) of sets drawn from a pool of
    two sets (the system's random sets, or draws from ``sets``) and a
    complement, so that terms repeat and overlap."""
    if sets is None:
        rng = random.Random(draw(st.integers(0, 10**6)))
        pool = [system.random_set(rng), system.random_set(rng)]
    else:
        pool = [draw(sets), draw(sets)]
    pool.append(system.complement(pool[0]))
    if draw(st.booleans()):
        return Observable.indicator(draw(st.sampled_from(pool)))
    coeff = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), st.fractions(-3, 3, max_denominator=6))
    terms = tuple((draw(coeff), draw(st.sampled_from(pool))) for _ in range(draw(st.integers(0, 3))))
    return Observable(draw(coeff), terms)


ORACLE_EXPONENTS = ["n", "2*n", "n**2", "n*N", "N - n", "5*n - 2*N", "-n + 3", "3*n + N"]


@st.composite
def iid_systems(draw, lattice_only=False):
    """A Bernoulli shift or lattice and a drawer of single cylinders on a
    small window, so that supports meet and symbols often disagree."""
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    probs = tuple(Fraction(w, sum(weights)) for w in weights)
    d = draw(st.sampled_from([1, 2] if lattice_only else [0, 1, 2]))
    system = BernoulliShift(probs) if d == 0 else BernoulliLattice(probs, d)
    coord = st.integers(-2, 2) if d == 0 else st.tuples(*[st.integers(-1, 1)] * d)
    symbol = st.integers(0, len(probs) - 1)
    cylinder = st.dictionaries(coord, symbol, min_size=1, max_size=3).map(system.cylinder)
    return system, cylinder


def iid_observables(data, system, cylinder, ell):
    """(observables, N, affine): ell plain single cylinders and N up to 12,
    or (a third of the draws) ell affine observables over the same small
    window (constants, negative and fractional coefficients, multi-row
    complements) and N up to 4, since the all-pairs oracle expands every
    pair of affine terms."""
    if data.draw(st.integers(0, 2)):
        return [Observable.indicator(data.draw(cylinder)) for _ in range(ell)], data.draw(st.integers(1, 12)), False
    narrow = cylinder.filter(lambda S: len(S.coords) <= 2)
    return [data.draw(affine_observables(system, narrow)) for _ in range(ell)], data.draw(st.integers(1, 4)), True


@settings(max_examples=225, deadline=None)
@given(st.data())
def test_counted_path_matches_all_pairs_oracle(data):
    system, cylinder = data.draw(iid_systems())
    ell = data.draw(st.integers(1, 3))
    obs, N, affine = iid_observables(data, system, cylinder, ell)
    exps = data.draw(st.lists(st.sampled_from(ORACLE_EXPONENTS), min_size=ell, max_size=ell))
    spec = ArraySpec.create(system, obs, exps, center=affine and data.draw(st.booleans()))
    rows = raw_rows(system, spec.observables, spec.exponents, range(1, N + 1), N)
    assert l2_distance_exact(spec, N) == all_pairs_distance(system, rows, spec.product_of_integrals())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_counted_commuting_path_matches_all_pairs_oracle(data):
    system, cylinder = data.draw(iid_systems(lattice_only=True))
    ell = data.draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * system.d)
    z = data.draw(st.lists(vec.filter(any), min_size=ell, max_size=ell, unique=True))
    zhat = data.draw(st.lists(vec, min_size=ell, max_size=ell))
    obs, N, _ = iid_observables(data, system, cylinder, ell)
    action = build_lattice_action(system, z, zhat)
    cspec = CommutingArraySpec(action, tuple(obs))
    rows = commuting_rows(action, obs, N)
    assert commuting_average(cspec, N) == all_pairs_distance(system, rows, cspec.product_of_integrals())


CONSTANT_IN_N = ["N", "2*N", "N - 2", "3*N + 1", "N**2", "7", "-3", "0"]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_counted_classes_match_all_pairs_oracle(data):
    # exponents constant in n put every term in one class of multiplicity N
    system, cylinder = data.draw(iid_systems())
    ell = data.draw(st.integers(1, 3))
    obs = [Observable.indicator(data.draw(cylinder)) for _ in range(ell)]
    exps = data.draw(st.lists(st.sampled_from(CONSTANT_IN_N), min_size=ell, max_size=ell))
    N = data.draw(st.integers(1, 30))
    spec = ArraySpec.create(system, obs, exps)
    rows = raw_rows(system, obs, spec.exponents, range(1, N + 1), N)
    with class_cap(1):
        assert l2_distance_exact(spec, N) == all_pairs_distance(system, rows, spec.product_of_integrals())


def test_counted_path_caps_classes_not_terms():
    # x_n = 1{w_N = 0} 1{w_{2N+1} = 1} for every n: one class, || x - 1/4 ||^2 = 3/16
    bern = BernoulliShift.uniform(2)
    obs = [Observable.indicator(bern.cylinder({0: 0})), Observable.indicator(bern.cylinder({1: 1}))]
    spec = ArraySpec.create(bern, obs, ["N", "2*N"])
    with class_cap(1):
        assert l2_distance_exact(spec, 4096) == Fraction(3, 16)
        with pytest.raises(ResourceCapError, match="2 classes"):
            l2_distance_exact(ArraySpec.create(bern, obs, ["n", "2*N"]), 2)


def rank_mod3(forms) -> int:
    """The rank over F_3 of a list of integer vectors."""
    rows, rank = [list(v) for v in forms], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % 3), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [x * rows[rank][col] % 3 for x in rows[rank]]  # 1 and 2 are their own inverses mod 3
        for i in range(len(rows)):
            if i != rank and rows[i][col] % 3:
                rows[i] = [(x - rows[i][col] * y) % 3 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def sum_condition_integral(width: int, a: Fraction, b: Fraction, shifts) -> Fraction:
    """The integral of prod_s (b + a 1_{U_s}) on the uniform shift on 3
    symbols, U_s = {x_s + ... + x_{s+width-1} = 0 mod 3}, by
    inclusion-exclusion: an intersection of copies of U is a homogeneous
    linear system over F_3, of measure 3^-rank."""
    lo = min(shifts, default=0)
    span = max(shifts, default=0) - lo + width
    forms = [[int(0 <= c - (s - lo) < width) for c in range(span)] for s in shifts]
    return sum(
        (a ** len(J) * b ** (len(forms) - len(J)) * Fraction(1, 3 ** rank_mod3(J))
         for k in range(len(forms) + 1) for J in itertools.combinations(forms, k)),
        Fraction(0),
    )


def sum_condition_set(width: int) -> CylinderUnion:
    rows = frozenset(r for r in itertools.product(range(3), repeat=width) if sum(r) % 3 == 0)
    return CylinderUnion(tuple(range(width)), rows, 3)


def test_wide_unions_match_rank_count():
    # the cylinder union U = {symbol sum = 0 mod 3} over 8 coordinates has
    # 2187 rows and its complement 4374, but at most 3 scan states a
    # coordinate; f = 1 - 1_U, and the oracle counts ranks over F_3
    bern = BernoulliShift.uniform(3)
    f = Observable.indicator(bern.complement(sum_condition_set(8)))
    integral = functools.partial(sum_condition_integral, 8, Fraction(-1), Fraction(1))

    def oracle(exponents, N):
        rows = [[IntPoly2.parse(p).eval(n, N) for p in exponents] for n in range(1, N + 1)]
        c = Fraction(2, 3) ** len(exponents)
        pairs = sum((integral(r + t) for r in rows for t in rows), Fraction(0))
        return pairs / N**2 - 2 * c * sum(map(integral, rows), Fraction(0)) / N + c * c

    cases = [(["N"], 8, Fraction(2, 9)), (["n"], 5, Fraction(2, 45)), (["N", "N", "N"], 3, Fraction(262, 729)),
             (["N", "N + 8", "N + 16"], 3, Fraction(152, 729)), (["n", "2*n", "3*n"], 3, Fraction(8, 81))]
    for exponents, N, value in cases:
        assert l2_distance_exact(ArraySpec.create(bern, [f] * len(exponents), exponents), N) == oracle(exponents, N) == value
    spec = ArraySpec.create(bern, [f] * 3, ["n", "2*n", "3*n"])
    x = [[p.eval(n, 3) for p in spec.exponents] for n in range(5)]
    assert vdc_correlations(spec, 3, 1).rows == ((1, sum((integral(x[n] + x[n + 1]) for n in range(1, 4)), Fraction(0)) / 3),)
    # the centered indicator of the 27-row union over 4 coordinates, ell = 2
    g = Observable.indicator(sum_condition_set(4))
    spec = ArraySpec.create(bern, [g, g], ["n", "2*n"], center=True)
    rows = [[n, 2 * n] for n in range(1, 25)]
    integral = functools.partial(sum_condition_integral, 4, Fraction(1), Fraction(-1, 3))
    assert l2_distance_exact(spec, 24) == sum((integral(r + t) for r in rows for t in rows), Fraction(0)) / 24**2 == Fraction(1, 486)


def test_scan_state_cap_raises():
    bern = BernoulliShift.uniform(3)
    f = Observable.indicator(bern.complement(sum_condition_set(8)))
    spec = ArraySpec.create(bern, [f] * 3, ["n", "2*n", "3*n"])
    assert l2_distance_exact(spec, 3) == Fraction(8, 81)
    with mock.patch.object(systems, "_MAX_STATES", 8), pytest.raises(ResourceCapError, match="scan of over 8 states"):
        l2_distance_exact(spec, 3)


def test_markov_power_cap_is_checked_before_any_integral():
    # D = 2^16, so A^t may reach t = 4096; N = 5000 spreads the shifts over
    # 4999 coordinates, which is refused before any power past the support
    # span (0 here) is taken
    p = Fraction(12345, 2**16)
    chain = MarkovShift(((p, 1 - p), (1 - p, p)))
    spec = ArraySpec.create(chain, [Observable.indicator(chain.cylinder({0: 0}))], ["n"], center=True)
    with pytest.raises(ResourceCapError, match="matrix power 4999 would pass"):
        l2_distance_exact(spec, 5000)
    with pytest.raises(ResourceCapError, match="matrix power 5000 would pass"):
        vdc_correlations(spec, 1, 5000)
    assert max(chain._powers) <= 1
    assert l2_distance_exact(spec, 20) > 0


@pytest.mark.parametrize("a, b", [(Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 10), Fraction(1, 5)), (Fraction(6, 7), Fraction(4, 5)), (1, 1)])
def test_two_state_distance_matches_geometric_correlations(a, b):
    # with f = 1{x_0 = 0} - pi_0, C_f(d) = pi_0 pi_1 lam^|d| for lam = 1 - a - b,
    # so ||A_N||^2 = N^-2 sum_{n,m <= N} pi_0 pi_1 lam^|n-m|: the Markov
    # distances at their largest fixed denominators, D^(N - 1)
    chain = MarkovShift(((1 - a, a), (b, 1 - b)))
    pi0, pi1 = chain.stationary
    lam = 1 - Fraction(a) - Fraction(b)
    spec = ArraySpec.create(chain, [Observable.indicator(chain.cylinder({0: 0}))], ["n"], center=True)
    for N in (1, 2, 50, 500):
        pairs = N + 2 * sum((N - k) * lam**k for k in range(1, N))
        assert l2_distance_exact(spec, N) == pi0 * pi1 * pairs / N**2


def test_markov_integral_refuses_calls_past_its_spread():
    chain = MarkovShift(((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2))))
    for s in (0, 1, 7):
        integral = chain.integral([(1, 0, ((1, chain.cylinder({0: 0})),))], spread=s)
        assert integral.exact([(0, 0), (0, s)]) == chain.stationary[0] * chain.power(s)[0][0]
        with pytest.raises(ValueError, match=f"spanning {s + 1} coordinates pass the {s}"):
            integral([(0, 0), (0, s + 1)])


@st.composite
def observables(draw, system):
    """An affine combination of up to two of the system's random sets."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    coeff = st.fractions(-2, 2, max_denominator=3)
    terms = tuple((draw(coeff), system.random_set(rng)) for _ in range(draw(st.integers(1, 2))))
    return Observable(draw(coeff), terms)


# -- the inner-product kernel and the one-factor path against the reference --


def shift_systems():
    """The shift systems of the zoo: ``_Engine.scan`` integrates on these."""
    return [system for system in exact_zoo() if hasattr(system, "cylinder")]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_engine_inner_matches_reference_expansion(data):
    # the coordinate scan (``_ShiftSystem.integral``) on Bernoulli shifts and
    # lattices and on random chains: affine observables over single
    # cylinders, unions of two and complements, scalar and vector shifts,
    # near ones whose supports meet and far ones that the cluster split
    # must keep apart
    if data.draw(st.booleans()):
        system = markov_chain(data)
        pool = [markov_sets(data, system), markov_sets(data, system)]
    else:
        system, cylinder = data.draw(iid_systems())
        narrow = cylinder.filter(lambda S: len(S.coords) <= 2)
        union = st.tuples(narrow, narrow).map(lambda p: p[0].union(p[1])).filter(lambda S: len(S.coords) <= 3)
        pool = [data.draw(union | cylinder), data.draw(union | cylinder)]
    # the reference intersects one set per factor, so wide sets take fewer factors
    wide = max(len(T.rows) for S in pool for T in (S, system.complement(S)))
    k = data.draw(st.integers(1, max(k for k in range(1, 5) if wide**k <= 4096 or k == 1)))
    obs = [data.draw(affine_observables(system, st.sampled_from(pool))) for _ in range(k)]
    vector = data.draw(st.booleans())
    scalar = st.integers(-3, 3) | st.integers(-40, 40)
    shifts = data.draw(st.lists(st.tuples(*[scalar] * getattr(system, "d", 1)) if vector else scalar, min_size=k, max_size=k))
    move = system.translate_preimage if vector else system.preimage
    raw = [raw_factor(f, lambda S, s=s: move(S, s)) for f, s in zip(obs, shifts)]
    assert _Engine(system, vector_shifts=vector).scan(obs, [shifts]).exact(enumerate(shifts)) == reference_inner(system, raw)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grid_row_integral_matches_reference_expansion(data):
    # rotations and point systems integrate a row of shifts on ``_Grid``,
    # reached through array_term_inner: 2 or 4 factors
    system = data.draw(st.sampled_from([s for s in exact_zoo() if s not in shift_systems()]))
    ell = data.draw(st.integers(1, 2))
    obs = [data.draw(affine_observables(system)) for _ in range(ell)]
    spec = ArraySpec.create(system, obs, data.draw(st.lists(st.sampled_from(["n", "-n", "2*n - N", "N"]), min_size=ell, max_size=ell)))
    N, n1, n2 = data.draw(st.integers(0, 3)), data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    x1, x2 = raw_rows(system, spec.observables, spec.exponents, (n1, n2), N)
    assert array_term_inner(spec, N, n1, n2) == reference_inner(system, x1 + x2)


@pytest.mark.parametrize("system", exact_zoo(), ids=lambda s: type(s).__name__)
def test_exact_paths_intersect_no_sets(system):
    # the grid and the coordinate scan integrate products, and recurrence
    # terms, without set algebra
    rng = random.Random(5)
    S, U = system.random_set(rng), system.random_set(rng)
    f, g = Observable.indicator(S), Observable(Fraction(1, 3), ((Fraction(-2), U), (Fraction(1, 2), system.complement(S))))
    specs = [ArraySpec.create(system, [f], ["n**2"], center=True), ArraySpec.create(system, [f, g], ["n", "2*n + N"])]
    recurrence = RecurrenceSpec(system, S, [(1, 0), (2, 1)])
    answers = lambda: [(l2_distance_exact(s, 5), vdc_correlations(s, 5, 2).rows, array_term_inner(s, 5, 1, 3)) for s in specs] + [
        recurrence_series(recurrence, 6).values
    ]
    expected = answers()

    def refuse(*_):
        raise AssertionError("an exact path intersected sets")

    with contextlib.ExitStack() as stack:
        for cls in (CylinderUnion, ArcUnion, FiniteSubset):
            stack.enter_context(mock.patch.object(cls, "intersect", refuse))
        assert answers() == expected
        with pytest.raises(AssertionError, match="intersected"):
            intersect(S, U)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_markov_paths_match_reference_expansion(data):
    # random 2-4-state chains with zero entries; affine observables over
    # single cylinders, unions and complements spanning up to 4 coordinates
    system = markov_chain(data)
    pool = [markov_sets(data, system), markov_sets(data, system)]
    sets = st.sampled_from(pool)
    # the oracle intersects 2 * ell factors, so ell = 2 takes narrow sets
    wide = max(len(T.rows) for S in pool for T in (S, system.complement(S)))
    ell = data.draw(st.integers(1, 2 if wide**4 <= 4096 else 1))
    obs = [data.draw(affine_observables(system, sets)) for _ in range(ell)]
    vector = data.draw(st.booleans())
    shifts = data.draw(st.lists(st.integers(-4, 4).map(lambda s: (s,) if vector else s), min_size=2 * ell, max_size=2 * ell))
    move = system.translate_preimage if vector else system.preimage
    raw = [raw_factor(f, lambda S, s=s: move(S, s)) for f, s in zip(obs * 2, shifts)]
    assert _Engine(system, vector_shifts=vector).scan(obs * 2, [shifts]).exact(enumerate(shifts)) == reference_inner(system, raw)
    N = data.draw(st.integers(1, 4))
    if vector:  # a lattice action on the chain: commuting_average
        z = data.draw(st.lists(st.integers(-2, 2).filter(bool), min_size=ell, max_size=ell, unique=True))
        action = build_lattice_action(system, z, data.draw(st.lists(st.integers(-2, 2), min_size=ell, max_size=ell)))
        cspec = CommutingArraySpec(action, tuple(obs))
        assert commuting_average(cspec, N) == all_pairs_distance(system, commuting_rows(action, obs, N), cspec.product_of_integrals())
        return
    exps = data.draw(st.lists(st.sampled_from(ORACLE_EXPONENTS), min_size=ell, max_size=ell))
    spec = ArraySpec.create(system, obs, exps, center=data.draw(st.booleans()))
    rows = raw_rows(system, spec.observables, spec.exponents, range(1, N + 1), N)
    assert l2_distance_exact(spec, N) == all_pairs_distance(system, rows, spec.product_of_integrals())
    H = data.draw(st.integers(1, 2))
    x = raw_rows(system, spec.observables, spec.exponents, range(N + H + 1), N)
    expected = [(h, sum((reference_inner(system, x[n] + x[n + h]) for n in range(1, N + 1)), Fraction(0)) / N) for h in range(1, H + 1)]
    assert list(vdc_correlations(spec, N, H).rows) == expected


ONE_FACTOR_EXPONENTS = ["n", "n*N", "3*n + N", "-n + 2", "N", "n**2", "n**2 - 3*n", "2*n**2 + n*N", "N*n**2 - 5"]


def one_factor_systems():
    """Every exact kind, plus rotations whose period is far beyond N."""
    return exact_zoo() + [CircleRotation(Fraction(3, 1000003)), CircleRotation(Fraction(5, 97))]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_one_factor_path_matches_all_pairs_oracle(data):
    system = data.draw(st.sampled_from(one_factor_systems()))
    f = data.draw(affine_observables(system))
    spec = ArraySpec.create(system, [f], [data.draw(st.sampled_from(ONE_FACTOR_EXPONENTS))], center=data.draw(st.booleans()))
    N = data.draw(st.integers(1, 12))
    target = data.draw(st.one_of(st.none(), st.fractions(-1, 1, max_denominator=5)))
    c = spec.product_of_integrals() if target is None else target
    rows = raw_rows(system, spec.observables, spec.exponents, range(1, N + 1), N)
    assert l2_distance_exact(spec, N, target=target) == all_pairs_distance(system, rows, c)
    H = data.draw(st.integers(1, 4))
    x = raw_rows(system, spec.observables, spec.exponents, range(N + H + 1), N)
    expected = [(h, sum((reference_inner(system, x[n] + x[n + h]) for n in range(1, N + 1)), Fraction(0)) / N) for h in range(1, H + 1)]
    assert list(vdc_correlations(spec, N, H).rows) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_pair_commuting_path_matches_all_pairs_oracle(data):
    system = data.draw(
        st.sampled_from(
            [
                CyclicRotation(5, 2),
                CyclicLattice((2, 3)),
                BernoulliShift((Fraction(1, 4), Fraction(3, 4))),
                MarkovShift.two_state(Fraction(2, 3)),
                BernoulliLattice((Fraction(1, 3), Fraction(2, 3)), 2),
            ]
        )
    )
    vec = st.tuples(*[st.integers(-3, 3)] * getattr(system, "d", 1))
    action = build_lattice_action(system, [data.draw(vec.filter(any))], [data.draw(vec)])
    f = data.draw(affine_observables(system))
    N = data.draw(st.integers(1, 12))
    target = data.draw(st.one_of(st.none(), st.fractions(-1, 1, max_denominator=5)))
    cspec = CommutingArraySpec(action, (f,))
    c = cspec.product_of_integrals() if target is None else target
    assert commuting_average(cspec, N, target=target) == all_pairs_distance(system, commuting_rows(action, (f,), N), c)


def test_one_factor_quadratic_exponent_at_large_N():
    # n**2 on a rotation of period far beyond N (grid) and on
    # independent coordinates (neighbour scan, with n = 1, 2 exactly one
    # support diameter apart): no class cap at N = 4096
    rot = CircleRotation(Fraction(3, 1000003))
    bern = BernoulliShift((Fraction(1, 3), Fraction(2, 3)))
    for system, S in ((rot, rot.arc(0, Fraction(1, 3))), (bern, bern.cylinder({0: 0, 3: 1}))):
        spec = ArraySpec.create(system, [Observable.indicator(S)], ["n**2"], center=True)
        rows = raw_rows(system, spec.observables, spec.exponents, range(1, 9), 8)
        assert l2_distance_exact(spec, 8) == all_pairs_distance(system, rows, Fraction(0))
        with class_cap(16):
            value = l2_distance_exact(spec, 4096)
        assert 0 < value < Fraction(1, 100)
    # Markov shifts still visit every pair of classes, so the cap applies
    chain = MarkovShift.two_state(Fraction(2, 3))
    spec = ArraySpec.create(chain, [Observable.indicator(chain.cylinder({0: 0}))], ["n**2"])
    with class_cap(12), pytest.raises(ResourceCapError, match="13 classes"):
        l2_distance_exact(spec, 13)


SWEEP_SYSTEMS = [  # (system, vector shifts, max T, max |step|), one per correlation type
    (BernoulliShift((Fraction(1, 3), Fraction(2, 3))), False, 2000, 50),
    (BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2), False, 2000, 50),
    (BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2), True, 2000, 50),
    (MarkovShift.two_state(Fraction(2, 3)), False, 60, 3),  # exact matrix powers grow with the shift
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sweep_matches_constant_step_weights(data):
    # shifts s_0 + k*step give the pair sum sum_k w_k C_f(k*step) with
    # w_0 = T and w_k = 2(T - k), whichever way a correlation sweeps them
    system, vector, max_T, max_step = data.draw(st.sampled_from(SWEEP_SYSTEMS))
    f = data.draw(affine_observables(system))
    T = data.draw(st.integers(1, 40) | st.integers(1, max_T))
    scalar = st.sampled_from([0, 1, -1]) | st.integers(-max_step, max_step)
    shift = st.tuples(scalar, scalar) if vector else scalar
    s0, step = data.draw(shift), data.draw(shift)
    lag = (lambda k: tuple(k * x for x in step)) if vector else (lambda k: k * step)
    shifts = [tuple(a + b for a, b in zip(s0, lag(k))) if vector else s0 + lag(k) for k in range(T)]
    weights = Counter()
    for k in range(T):
        weights[lag(k)] += 2 * (T - k) if k else T
    eng = _Engine(system, vector_shifts=vector)
    corr = averages._Correlation(eng, f, lag(0), [shifts])
    assert corr.sweep(shifts) == corr.total(weights)


# -- grid integrals on rotations and finite point systems against raw all-pairs sums --

GROUPED_EXPONENTS = ORACLE_EXPONENTS + ["N", "7", "-3", "n**2 + N", "2*n**2 - n", "N*n**2 - 5"]


def grid_systems():
    """A system of period at most 12, or a rotation whose every row of
    shifts is its own class."""
    return periodic_systems() | st.just(CircleRotation(Fraction(3, 1000003)))


def grid_observables(data, system, ell):
    """(observables, N): ell affine combinations of random sets (negative
    and fractional coefficients; arcs that wrap through 0), or of sets and
    complements with zero coefficients, and N up to 40, or up to 8 for
    ell = 3, where the all-pairs oracle expands 6 factors per pair."""
    draw = affine_observables(system) if data.draw(st.booleans()) else observables(system)
    return [data.draw(draw) for _ in range(ell)], data.draw(st.integers(1, 40 if ell < 3 else 8))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_grouped_distance_matches_all_pairs_oracle(data):
    # shifts far beyond the period (n**2, n*N up to 1600) fold into few classes
    system = data.draw(grid_systems())
    ell = data.draw(st.integers(1, 3))
    obs, N = grid_observables(data, system, ell)
    exps = data.draw(st.lists(st.sampled_from(GROUPED_EXPONENTS), min_size=ell, max_size=ell))
    spec = ArraySpec.create(system, obs, exps, center=data.draw(st.booleans()))
    rows = raw_rows(system, spec.observables, spec.exponents, range(1, N + 1), N)
    oracle = all_pairs_distance(system, rows, spec.product_of_integrals())
    assert l2_distance_exact(spec, N) == oracle


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_grouped_commuting_average_matches_all_pairs_oracle(data):
    moduli = data.draw(st.sampled_from([(2,), (5,), (2, 3), (3, 4), (2, 2, 3)]))
    system = CyclicLattice(moduli)
    vec = st.tuples(*[st.integers(-3, 3)] * system.d)
    ell = data.draw(st.integers(1, 3))
    z = data.draw(st.lists(vec.filter(any), min_size=ell, max_size=ell, unique=True))
    zhat = data.draw(st.lists(vec, min_size=ell, max_size=ell))
    action = build_lattice_action(system, z, zhat)
    obs, N = grid_observables(data, system, ell)
    cspec = CommutingArraySpec(action, tuple(obs))
    assert commuting_average(cspec, N) == all_pairs_distance(system, commuting_rows(action, obs, N), cspec.product_of_integrals())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_grouped_vdc_matches_per_n_sum(data):
    # ell = 1 on rotations included: one grid integral per key, no correlation
    system = data.draw(grid_systems())
    ell = data.draw(st.integers(1, 3))
    obs, N = grid_observables(data, system, ell)
    exps = data.draw(st.lists(st.sampled_from(GROUPED_EXPONENTS), min_size=ell, max_size=ell))
    H = data.draw(st.integers(1, 5))
    spec = ArraySpec.create(system, obs, exps)
    x = raw_rows(system, spec.observables, spec.exponents, range(N + H + 1), N)
    expected = [(h, sum((reference_inner(system, x[n] + x[n + h]) for n in range(1, N + 1)), Fraction(0)) / N) for h in range(1, H + 1)]
    assert list(vdc_correlations(spec, N, H).rows) == expected


def test_periodic_distance_caps_classes_not_terms():
    cyc = CyclicRotation(12)
    spec = ArraySpec.create(cyc, [Observable.indicator(cyc.point_set([0, 1, 5, 7]))], ["n**2"], center=True)
    rows = raw_rows(cyc, spec.observables, spec.exponents, range(1, 49), 48)
    assert l2_distance_exact(spec, 48) == all_pairs_distance(cyc, rows, Fraction(0))
    value = l2_distance_exact(spec, 10**5)  # 12 classes
    assert 0 <= value <= spec.observables[0].sup_bound() ** 2
    # ell = 2 vector shifts on Z_3 x Z_4 (period 12): 2001 terms in 12
    # classes, one per n mod 12, and every shift reduced mod 12 on each axis,
    # so each factor takes at most 12 shifted sets; a grid's cost is linear
    # in classes, so it answers under any class cap
    lat = CyclicLattice((3, 4))
    action = build_lattice_action(lat, [(1, 0), (1, 1)], [(0, 1), (2, 0)])
    f = Observable.indicator(lat.point_set([(0, 0), (1, 2), (2, 3)]))
    cspec = CommutingArraySpec(action, (f, f))
    move = mock.patch.object(CyclicLattice, "translate_preimage", autospec=True, side_effect=CyclicLattice.translate_preimage)
    with class_cap(1), move as moved:
        assert 0 <= commuting_average(cspec, 2000) <= 1
    assert moved.call_count <= 24


def test_stationary_path_matches_quadratic_path():
    bern = BernoulliShift.uniform(2)
    f = Observable.indicator(bern.cylinder({0: 0}))
    for expo in ("n", "n*N", "3*n + N"):
        spec = ArraySpec.create(bern, [f], [expo], center=True)
        for N in (2, 5, 9):
            manual = Fraction(0)
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    manual += array_term_inner(spec, N, i, j)
            assert l2_distance_exact(spec, N) == manual / N**2


def test_shift_in_n_stability_exact_bound():
    # A'_N - A_N telescopes to (x_{N+1} - x_1)/N; its norm is bounded by
    # 2 * prod sup|f_j| / N, asserted exactly on the squared form
    for spec in (half_rotation_spec(), bernoulli_spec(exponents=("n", "2*n + N"), ell=2)):
        N = 12
        ip = lambda a, b: array_term_inner(spec, N, a, b)
        diff_sq = ip(N + 1, N + 1) - 2 * ip(N + 1, 1) + ip(1, 1)
        bound = Fraction(2)
        for f in spec.observables:
            bound *= f.sup_bound()
        # || A' - A || = || x_{N+1} - x_1 || / N <= bound / N, squared form
        assert diff_sq <= bound**2


def test_distinctness_necessity():
    rot = CircleRotation(Fraction(1, 2))
    f1 = Observable.indicator(rot.arc(0, Fraction(1, 4))).shifted_by(Fraction(1, 4))
    f2 = Observable.indicator(rot.arc(0, Fraction(1, 4)))
    spec = ArraySpec.create(rot, [f1, f2], ["n", "n + N"])
    report = convergence_sweep(spec, list(range(4, 16)))
    assert report.verdict != "decaying"


def test_assert_distinct_linear():
    bern = BernoulliShift.uniform(2)
    f = Observable.indicator(bern.cylinder({0: 0}))
    with pytest.raises(ValueError, match="pairwise distinct"):
        ArraySpec.create(bern, [f, f], ["n", "n + N"], assert_distinct_linear=True)
    ArraySpec.create(bern, [f, f], ["n", "2*n + N"], assert_distinct_linear=True)


def test_quadratic_cap():
    spec = bernoulli_spec(exponents=("n", "2*n"), ell=2)
    with pytest.raises(ResourceCapError):
        l2_distance_exact(spec, 5000)  # 5000 classes over the 4096 cap


# -- sweeps ------------------------------------------------------------------


def test_sweep_counterexample_oscillates():
    report = convergence_sweep(half_rotation_spec(), list(range(3, 13)))
    assert report.verdict == "oscillating"
    assert report.even_tail == 25 / 256
    assert report.odd_tail == 1 / 256


def test_sweep_decaying_and_trivial():
    spec = bernoulli_spec(exponents=("n", "2*n + N"), ell=2)
    report = convergence_sweep(spec, [16, 32, 64, 128])
    assert report.verdict == "decaying"
    triv = ArraySpec.create(spec.system, [Observable.const(1)], ["n"])
    report = convergence_sweep(triv, [4, 8, 16])
    assert report.verdict == "decaying"
    assert all(r.value == 0 for r in report.rows)


def test_sweep_validates_Ns():
    with pytest.raises(ValueError):
        convergence_sweep(bernoulli_spec(), [8, 8])
    with pytest.raises(ValueError):
        convergence_sweep(bernoulli_spec(), [])


def test_sweep_rejects_unknown_methods():
    # any method but "exact" and "mc" used to run Monte Carlo
    with pytest.raises(ValueError, match="method must be exact or mc, not 'exakt'"):
        convergence_sweep(bernoulli_spec(), [4, 8], method="exakt")


# -- van der Corput tables -----------------------------------------------------


def test_vdc_distinct_coordinates_vanish():
    spec = bernoulli_spec(center=True, exponents=("n*N",))
    table = vdc_correlations(spec, 16, 8)
    assert all(v == 0 for _, v in table.rows)
    assert table.dlim_diagnostic == 0


def test_vdc_half_rotation_periodic():
    rot = CircleRotation(Fraction(1, 2))
    f = Observable.indicator(rot.arc(0, Fraction(1, 4)))
    spec = ArraySpec.create(rot, [f], ["n"], center=True)
    table = vdc_correlations(spec, 8, 6)
    values = [v for _, v in table.rows]
    assert values == [Fraction(-1, 16), Fraction(3, 16)] * 3  # period 2 in h
    assert max(abs(v) for v in values) >= Fraction(1, 16)  # no decay


def test_vdc_constant_observable():
    bern = BernoulliShift.uniform(2)
    spec = ArraySpec.create(bern, [Observable.const(3)], ["n"], center=True)
    table = vdc_correlations(spec, 8, 4)
    assert all(v == 0 for _, v in table.rows)
    with pytest.raises(ValueError, match="N must be >= 1"):
        vdc_correlations(spec, 0, 4)


# -- Monte Carlo ---------------------------------------------------------------


def test_mc_agrees_with_exact():
    spec = bernoulli_spec(center=True)
    N = 16
    exact = l2_distance_exact(spec, N)
    hits = 0
    runs = 100
    for seed in range(runs):
        est = l2_distance_mc(spec, N, samples=120, seed=seed)
        if abs(est.value - float(exact)) <= 4 * est.stderr:
            hits += 1
    assert hits >= 99


def test_mc_validation_and_determinism():
    spec = bernoulli_spec()
    with pytest.raises(ValueError, match="2 samples"):
        l2_distance_mc(spec, 4, samples=1)
    a = l2_distance_mc(spec, 8, samples=50, seed=3)
    b = l2_distance_mc(spec, 8, samples=50, seed=3)
    assert (a.value, a.stderr) == (b.value, b.stderr)


def test_mc_irrational_rotation_against_arc_oracle():
    irr = IrrationalRotation.sqrt2_minus_1()
    A = __import__("ergoarrays.sets", fromlist=["ArcUnion"]).ArcUnion.from_arcs(
        [(0, Fraction(1, 4))]
    )
    f = Observable.indicator(A).shifted_by(Fraction(1, 4))
    spec = ArraySpec.create(irr, [f], ["n"])
    N = 64
    # deterministic oracle: pairwise arc overlaps under the dyadic angle
    alpha = irr.angle
    total = Fraction(0)
    for d in range(N):
        shifted = A.rotate(-d * alpha)
        ip = A.intersect(shifted).measure() - Fraction(1, 16)
        total += (N if d == 0 else 2 * (N - d)) * ip
    oracle = total / N**2
    est = l2_distance_mc(spec, N, samples=400, seed=1)
    assert abs(est.value - float(oracle)) <= 5 * est.stderr


def test_mc_rejects_negative_time_on_gauss():
    g = GaussMap()
    A = __import__("ergoarrays.sets", fromlist=["ArcUnion"]).ArcUnion.from_arcs(
        [(Fraction(1, 4), Fraction(1, 2))]
    )
    spec = ArraySpec.create(g, [Observable.indicator(A)], ["-n"])
    with pytest.raises(ValueError, match="negative exponents"):
        l2_distance_mc(spec, 8, samples=10)


def test_mc_sweep_on_sampled_systems():
    A = ArcUnion.from_arcs([(Fraction(1, 4), Fraction(1, 2))])
    for system, mass in (
        (IrrationalRotation.sqrt2_minus_1(), Fraction(1, 4)),
        (GaussMap(), Fraction(math.log2(1.5 / 1.25)).limit_denominator(10**12)),
    ):
        spec = ArraySpec.create(system, [Observable.indicator(A)], ["n"])
        report = convergence_sweep(spec, [4, 8], method="mc", samples=20)
        assert report.target == mass
        assert [r.method for r in report.rows] == ["montecarlo", "montecarlo"]


def test_mc_rejects_exact_system_without_sampler():
    chain = MarkovShift.two_state(Fraction(2, 3))
    spec = ArraySpec.create(chain, [Observable.indicator(chain.cylinder({0: 0}))], ["n"])
    with pytest.raises(ValueError, match="MarkovShift has no sampler"):
        convergence_sweep(spec, [4, 8], method="mc")


def test_shift_rows_match_pointwise_eval():
    system = CyclicRotation(7)
    polys = ["n**2", "3", "N - n", "n*N - 2*n**3", "-n + 5*N"]
    spec = ArraySpec.create(system, [Observable.const(1)] * len(polys), polys)
    for N, n_start, count in ((1, 1, 1), (9, 1, 9), (9, 0, 10), (40, 3, 25)):
        expected = [tuple(p.eval(n, N) for p in spec.exponents) for n in range(n_start, n_start + count)]
        assert list(zip(*_shift_columns(spec, N, n_start, count))) == expected


# -- commuting families ----------------------------------------------------------


def test_commuting_single_factor_closed_form():
    lat = BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2)
    act = build_lattice_action(lat, [(1, 0)], [(0, 0)])
    f = Observable.indicator(lat.cylinder({(0, 0): 0})).shifted_by(Fraction(1, 2))
    cspec = CommutingArraySpec(act, (f,))
    for N in (1, 4, 16, 50):
        # n runs 0..N: N+1 orthogonal centered terms of variance 1/4
        assert commuting_average(cspec, N) == Fraction(1, 4 * (N + 1))


def test_commuting_pair_decays():
    lat = BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2)
    act = build_lattice_action(lat, [(1, 0), (0, 1)], [(0, 0), (0, 0)])
    f = Observable.indicator(lat.cylinder({(0, 0): 0}))
    cspec = CommutingArraySpec(act, (f, f))
    vals = [commuting_average(cspec, N) for N in (8, 16, 32, 64)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_commuting_trivial_and_errors():
    lat = BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2)
    act = build_lattice_action(lat, [(1, 0), (0, 1)], [(0, 0), (0, 0)])
    ones = CommutingArraySpec(act, (Observable.const(1), Observable.const(1)))
    assert commuting_average(ones, 8) == 0
    with pytest.raises(ValueError, match="nonzero"):
        build_lattice_action(lat, [(0, 0)], [(1, 1)])
    with pytest.raises(ValueError):
        CommutingArraySpec(act, (Observable.const(1),))  # wrong arity
