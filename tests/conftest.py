import random
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from ergoarrays.systems import (
    BernoulliLattice,
    BernoulliShift,
    CircleRotation,
    CyclicLattice,
    CyclicRotation,
    MarkovShift,
    RelabeledSystem,
)


def exact_zoo():
    """One system per exact kind, for algebra-wide invariant tests."""
    return [
        CyclicRotation(5),
        CyclicRotation(2),
        CircleRotation(Fraction(1, 3)),
        CircleRotation(Fraction(2, 7)),
        BernoulliShift.uniform(2),
        BernoulliShift((Fraction(1, 4), Fraction(3, 4))),
        MarkovShift(((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))),
        CyclicLattice((2, 3)),
        BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2),
        RelabeledSystem(CyclicRotation(4), ((0, "a"), (1, "b"), (2, "c"), (3, "d"))),
    ]


@st.composite
def periodic_systems(draw):
    """A system of period at most 12: cyclic, p/q rotation, product or relabeled."""
    kind = draw(st.sampled_from(["cyclic", "circle", "lattice", "relabeled"]))
    if kind in ("cyclic", "relabeled"):
        m = draw(st.integers(1, 12))
        system = CyclicRotation(m, draw(st.integers(-12, 12)))  # gcd(step, m) > 1 allowed
        if kind == "relabeled":
            perm = draw(st.permutations(range(m)))
            system = RelabeledSystem(system, tuple((x, f"p{y}") for x, y in enumerate(perm)))
    elif kind == "circle":
        q = draw(st.integers(1, 12))
        system = CircleRotation(Fraction(draw(st.integers(-2 * q, 2 * q)), q))
    else:
        moduli = draw(st.sampled_from([(2,), (5,), (2, 3), (3, 4), (4, 6), (2, 2, 3)]))
        system = CyclicLattice(moduli, tuple(draw(st.integers(-6, 6)) for _ in moduli))
    return system


def markov_chain(data):
    """A 2-4-state chain with zero entries allowed and a unique stationary
    distribution."""
    s = data.draw(st.integers(2, 4))
    weights = data.draw(
        st.lists(st.lists(st.integers(0, 4), min_size=s, max_size=s).filter(any), min_size=s, max_size=s)
    )
    try:
        return MarkovShift(tuple(tuple(Fraction(w, sum(row)) for w in row) for row in weights))
    except ValueError:  # no unique stationary distribution
        assume(False)


def markov_sets(data, system):
    """A single cylinder, a union of two, or the complement of either, all
    inside a window of 4 coordinates, so of support span <= 3: copies of A
    that share one coordinate, and copies whose ranges interleave without
    sharing one (A on {0, 3} shifted by 1), both occur."""
    lo = data.draw(st.integers(-3, 3))
    cylinder = lambda: system.cylinder(
        data.draw(st.dictionaries(st.integers(lo, lo + 3), st.integers(0, system.alphabet - 1), min_size=1, max_size=3))
    )
    A = cylinder()
    if data.draw(st.booleans()):
        A = A.union(cylinder())
    return system.complement(A) if data.draw(st.booleans()) else A


@pytest.fixture
def zoo():
    return exact_zoo()


@pytest.fixture
def rng():
    return random.Random(20240817)
