import random
from fractions import Fraction

import pytest
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


@pytest.fixture
def zoo():
    return exact_zoo()


@pytest.fixture
def rng():
    return random.Random(20240817)
