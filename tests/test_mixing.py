import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergoarrays.averages import ArraySpec, Observable, l2_distance_exact
from ergoarrays.mixing import (
    InequalityCheck,
    MarkovChainModel,
    WindowEvent,
    alpha_coefficient,
    event_measure,
    higher_mixing_gap,
    joint_measure,
    mixing_inequality_check,
    spectral_levels,
    verify_spectral_bound,
)
from ergoarrays.repro import random_markov_chain, random_window_events
from ergoarrays.systems import CircleRotation
from ergoarrays.util import PI_HI, ResourceCapError, dist_to_int

STAY = MarkovChainModel.two_state(Fraction(9, 10))
IID = MarkovChainModel.iid([Fraction(1, 2), Fraction(1, 2)])


def brute_force_alpha(chain: MarkovChainModel, n: int) -> Fraction:
    """Exhaustive maximum over all pairs of single-coordinate events."""
    s = chain.states
    pi = chain.stationary
    P = chain.power(n)
    best = Fraction(0)
    atoms = list(range(s))
    for r in range(1, 1 << s):
        for t in range(1, 1 << s):
            A = [a for a in atoms if (r >> a) & 1]
            B = [b for b in atoms if (t >> b) & 1]
            joint = sum(pi[a] * P[a][b] for a in A for b in B)
            prodm = sum(pi[a] for a in A) * sum(pi[b] for b in B)
            best = max(best, abs(joint - prodm))
    return best


def test_alpha_iid_is_zero():
    for n in (1, 2, 5):
        assert alpha_coefficient(IID, n) == 0


def test_alpha_two_state_example():
    # exhaustive maximization over all 16 event pairs at horizon 0
    assert brute_force_alpha(STAY, 1) == Fraction(1, 5)
    assert alpha_coefficient(STAY, 1, 0) == Fraction(1, 5)
    # the Markov property makes the value horizon-invariant
    for h in (1, 2):
        assert alpha_coefficient(STAY, 1, h) == Fraction(1, 5)
    # alpha = pi_0 * |P^n[0][0] - pi_0| = (4/5)^n / 4; far separations once
    # overflowed the recursion in the matrix-power cache
    far = MarkovChainModel.two_state(Fraction(9, 10))
    assert alpha_coefficient(far, 1500) == Fraction(4, 5) ** 1500 / 4


def test_alpha_zero_separation_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = alpha_coefficient(STAY, 0)
    assert v == Fraction(1, 4)  # best variance of a single-coordinate event
    assert len(caught) == 1


def test_alpha_monotone_in_separation():
    rng = random.Random(5150)
    for _ in range(20):
        chain = random_markov_chain(rng)
        vals = [alpha_coefficient(chain, n) for n in range(1, 7)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_alpha_horizon_cap():
    with pytest.raises(ResourceCapError):
        alpha_coefficient(MarkovChainModel.iid([Fraction(1, 4)] * 4), 1, horizon=12)


def test_alpha_matches_bruteforce_on_random_chains():
    rng = random.Random(777)
    for _ in range(10):
        chain = random_markov_chain(rng, max_states=3)
        n = rng.randint(1, 4)
        assert alpha_coefficient(chain, n) == brute_force_alpha(chain, n)


PRIME = 7  # every transition probability is a multiple of 1/PRIME


@st.composite
def prime_chains(draw):
    """Chains on 1..5 states over one prime denominator.  Rows are random
    cuts of PRIME, so zero entries (reducible chains with transient states)
    are common; every fourth chain is a cyclic permutation (periodic)."""
    s = draw(st.integers(1, 5))
    if draw(st.integers(0, 3)) == 0:
        order = draw(st.permutations(range(s)))
        rows = [[0] * s for _ in range(s)]
        for a, b in zip(order, order[1:] + order[:1]):
            rows[a][b] = PRIME
    else:
        rows = []
        for _ in range(s):
            cuts = sorted(draw(st.lists(st.integers(0, PRIME), min_size=s - 1, max_size=s - 1)))
            rows.append([b - a for a, b in zip([0] + cuts, cuts + [PRIME])])
    try:
        return MarkovChainModel([[Fraction(c, PRIME) for c in row] for row in rows])
    except ValueError:
        assume(False)  # no unique stationary distribution


@settings(max_examples=100, deadline=None)
@given(prime_chains(), st.integers(0, 4))
def test_alpha_matches_bruteforce_property(chain, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 0 warns
        assert alpha_coefficient(chain, n) == brute_force_alpha(chain, n)


def test_alpha_state_cap(monkeypatch):
    # 17 states: 17 * 2^17 future-set steps pass the 2^20 budget; the cap
    # fires before any matrix power is taken
    chain = MarkovChainModel.iid([Fraction(1, 17)] * 17)
    monkeypatch.setattr(MarkovChainModel, "power", lambda self, t: pytest.fail("power taken"))
    with pytest.raises(ResourceCapError, match="17 states"):
        alpha_coefficient(chain, 5)


# -- higher-order gaps ----------------------------------------------------------


def test_higher_gap_iid_vanishes():
    assert higher_mixing_gap(IID, [{0: 0}, {0: 1}], [3]) == 0
    assert higher_mixing_gap(IID, [{0: 0}, {0: 0}, {0: 1}], [2, 5]) == 0


def test_higher_gap_decay_closed_form():
    # P^t[0,0] = 1/2 + (1/2)(4/5)^t for the stay-9/10 chain
    def expected(t):
        x = Fraction(4, 5) ** t / 2
        return x / 2 + x * x / 2  # (1/2)(1/2+x)^2 - 1/8

    for t in (1, 5, 10):
        got = higher_mixing_gap(STAY, [{0: 0}, {0: 0}, {0: 0}], [t, t])
        assert got == expected(t)
    assert expected(10) < expected(5) < expected(1)


def test_higher_gap_pairwise_consistent_with_alpha():
    for lag in (1, 3, 6):
        gap = higher_mixing_gap(STAY, [{0: 0}, {0: 0}], [lag])
        assert gap <= alpha_coefficient(STAY, lag)
    # for the symmetric two-state chain the single-atom pair attains alpha
    assert higher_mixing_gap(STAY, [{0: 0}, {0: 0}], [1]) == alpha_coefficient(STAY, 1)


def test_higher_gap_overlap_merging():
    # overlapping spans merge; a contradiction empties the joint event
    gap = higher_mixing_gap(STAY, [{0: 0, 1: 0}, {0: 1}], [1])
    prod = STAY.path_measure({0: 0, 1: 0}) * STAY.path_measure({0: 1})
    assert gap == prod  # mu(joint) = 0
    with pytest.raises(ValueError, match="lag"):
        higher_mixing_gap(STAY, [{0: 0}, {0: 0}], [0])


# -- the inequality -------------------------------------------------------------


def test_inequality_iid_trivial():
    events = [WindowEvent.of(0, [(0,)]), WindowEvent.of(2, [(1,)])]
    chk = mixing_inequality_check(IID, events)
    assert chk.lhs == 0 and chk.rhs == 0 and chk.holds


def test_inequality_examples():
    events = [
        WindowEvent.of(-2, [(0, 0, 0), (1, 0, 0)]),
        WindowEvent.of(3, [(0,), (1,)]),
        WindowEvent.of(6, [(0, 0)]),
    ]
    chk = mixing_inequality_check(STAY, events)
    assert isinstance(chk, InequalityCheck)
    assert chk.holds and chk.lhs <= chk.rhs
    assert chk.alphas == (alpha_coefficient(STAY, 3), alpha_coefficient(STAY, 3))


def test_inequality_adjacent_windows():
    events = [WindowEvent.of(0, [(0,)]), WindowEvent.of(1, [(0,)])]
    chk = mixing_inequality_check(STAY, events)
    assert chk.holds
    assert chk.rhs == alpha_coefficient(STAY, 1)
    assert chk.lhs == higher_mixing_gap(STAY, [{0: 0}, {0: 0}], [1])


def test_inequality_window_order_enforced():
    events = [WindowEvent.of(0, [(0, 0)]), WindowEvent.of(1, [(0,)])]
    with pytest.raises(ValueError, match="ordered"):
        mixing_inequality_check(STAY, events)


def test_inequality_random_trials():
    rng = random.Random(31)
    for _ in range(30):
        chain = random_markov_chain(rng)
        events = random_window_events(rng, chain, rng.randint(2, 3), rng.randint(0, 2))
        assert mixing_inequality_check(chain, events, horizon=1).holds


def test_joint_measure_against_enumeration():
    # enumerate the admissible symbol assignments over the union of windows
    events = [WindowEvent.of(0, [(0,), (1,)]), WindowEvent.of(2, [(0, 1)])]
    enumerated = sum(
        (STAY.path_measure({0: w0, 2: 0, 3: 1}) for w0 in (0, 1)), Fraction(0)
    )
    assert joint_measure(STAY, events) == enumerated
    assert event_measure(STAY, events[1]) == STAY.path_measure({0: 0, 1: 1})


# -- spectral construction -------------------------------------------------------


def test_spectral_levels_sequence():
    c = spectral_levels(Fraction(1, 10), 3)
    assert c.Ns[:3] == (1, 50, 125000)
    assert c.Ns[3] == 5 * 125000**2 * 10
    assert c.eps_ks[1] == Fraction(1, 500)
    assert c.eps_ks[2] == Fraction(1, 1250000)


def test_spectral_eps_domain():
    with pytest.raises(ValueError, match="2\\*pi"):
        spectral_levels(Fraction(1), 2)
    with pytest.raises(ValueError, match="2\\*pi"):
        spectral_levels(Fraction(1592, 10000), 2)  # just above 1/(2 pi)
    spectral_levels(Fraction(1, 7), 1)  # just below
    with pytest.raises(ValueError, match="k_max"):
        spectral_levels(Fraction(1, 10), 9)


def test_spectral_membership_and_trivial_points():
    c = spectral_levels(Fraction(1, 10), 2)
    assert dist_to_int(Fraction(0)) == 0  # 0 sits in every level
    u = Fraction(1, c.Ns[2])
    assert dist_to_int(u * c.Ns[2]) == 0
    pieces = c.intersection_pieces(2)
    assert pieces and all(lo <= hi for lo, hi in pieces)


def test_verify_spectral_bound_k1():
    c = spectral_levels(Fraction(1, 10), 2)
    rep = verify_spectral_bound(c, 1, 64)
    assert rep.max_deviation <= Fraction(1, 10)
    assert rep.n_max == 50


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_spectral_bound_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify_spectral_bound(spectral_levels(Fraction(1, 10), 2), 1, samples)


@pytest.mark.parametrize("k, samples, n_cap", [(1, 64, None), (2, 12, 500)])
def test_verify_spectral_bound_matches_enumeration(k, samples, n_cap):
    # the closed form n_max * dist(u N_k, Z) against every n <= n_max
    c = spectral_levels(Fraction(1, 10), 2)
    rep = verify_spectral_bound(c, k, samples, n_cap)
    n_max = n_cap or c.Ns[k]
    enumerated = max(dist_to_int(u * n * c.Ns[k]) for u in c.sample_points(k, samples) for n in range(1, n_max + 1))
    assert (rep.max_deviation, rep.n_max) == (enumerated, n_max)


def test_verify_spectral_bound_k2_closed_form_matches_enumeration():
    c = spectral_levels(Fraction(1, 10), 2)
    u = c.sample_points(2, 5)[3]
    base = dist_to_int(u * c.Ns[2])
    cap = 400
    enumerated = max(dist_to_int(u * n * c.Ns[2]) for n in range(1, cap + 1))
    assert enumerated == cap * base or base == 0


def test_level_containment_property():
    # u in the depth-k intersection keeps n * dist(u N_k, Z) <= eps for n <= N_k
    c = spectral_levels(Fraction(1, 10), 2)
    for u in c.sample_points(2, 24):
        for k in (1, 2):
            assert dist_to_int(u * c.Ns[k]) <= c.eps_ks[k]
        for n in (1, 7, 50):
            assert dist_to_int(u * n * c.Ns[1]) <= n * c.eps_ks[1]


def test_nonconvergence_witness_on_rational_rotation():
    """A rotation by a depth-2 sample keeps the nN-average's norm close to
    ||f||, far from the zero integral of the centered observable."""
    eps = Fraction(1, 10)
    c = spectral_levels(eps, 2)
    pts = c.sample_points(2, 9)
    u_star = next(u for u in pts if u != 0)
    rot = CircleRotation(u_star)
    f = Observable.indicator(rot.arc(0, Fraction(1, 4)))
    spec = ArraySpec.create(rot, [f], ["n*N"], center=True)
    f_norm_sq = Fraction(3, 16)  # mu(A)(1 - mu(A))
    floor = 1 - 2 * PI_HI * eps
    assert floor > 0
    for k in (1, 2):
        N = c.Ns[k]
        dist_sq = l2_distance_exact(spec, N, target=0)
        assert dist_sq >= floor**2 * f_norm_sq


def test_stationarity_and_validation():
    with pytest.raises(ValueError, match="stochastic"):
        MarkovChainModel(((Fraction(1, 2), Fraction(1, 3)),) * 2)
    assert STAY.path_measure({}) == 1
    assert STAY.path_measure({0: 0}) == Fraction(1, 2)
    assert STAY.path_measure({0: 0, 2: 1}) == Fraction(1, 2) * Fraction(18, 100)
