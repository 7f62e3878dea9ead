import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergoarrays import systems
from ergoarrays.recurrence import CommutingRecurrenceSpec, commuting_recurrence_series
from ergoarrays.sets import _MAX_ROWS, ArcUnion, CylinderUnion, intersect
from ergoarrays.util import ResourceCapError
from ergoarrays.systems import (
    BernoulliLattice,
    BernoulliShift,
    CircleRotation,
    CyclicLattice,
    CyclicRotation,
    GaussMap,
    IrrationalRotation,
    MarkovShift,
    RelabeledSystem,
    build_lattice_action,
    build_system,
    orbit_eval,
)


def test_measure_examples():
    rot = CircleRotation(Fraction(1, 2))
    assert rot.measure(rot.arc(0, Fraction(1, 4))) == Fraction(1, 4)
    bern = BernoulliShift.uniform(2)
    assert bern.measure(bern.cylinder({0: 0})) == Fraction(1, 2)
    S = intersect(bern.cylinder({0: 0}), bern.preimage(bern.cylinder({0: 0}), 3))
    assert bern.measure(S) == Fraction(1, 4)


def test_preimage_examples():
    rot = CircleRotation(Fraction(1, 2))
    A = rot.arc(0, Fraction(1, 4))
    assert rot.preimage(A, 1) == rot.arc(Fraction(1, 2), Fraction(3, 4))
    assert rot.preimage(A, 0) == A
    z4 = CyclicRotation(4)
    # T x = x + 1, so T^3 x = 0 forces x = 1
    assert z4.preimage(z4.point_set([0]), 3) == z4.point_set([1])


def test_intersect_examples():
    rot = CircleRotation(Fraction(1, 2))
    assert intersect(rot.arc(0, Fraction(1, 4)), rot.arc(Fraction(1, 2), Fraction(3, 4))).is_empty()
    bern = BernoulliShift.uniform(2)
    merged = intersect(bern.cylinder({0: 0}), bern.cylinder({3: 1}))
    assert bern.measure(merged) == Fraction(1, 4)
    assert intersect(bern.cylinder({0: 0}), bern.cylinder({0: 1})).is_empty()


def test_arc_canonicalization():
    a = ArcUnion.from_arcs([(0, Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2))])
    assert a == ArcUnion.from_arcs([(0, Fraction(1, 2))])
    wrap = ArcUnion.from_arcs([(Fraction(3, 4), Fraction(5, 4))])
    assert wrap.arcs == ((Fraction(0), Fraction(1, 4)), (Fraction(3, 4), Fraction(1)))
    assert wrap.measure() == Fraction(1, 2)
    assert ArcUnion.from_arcs([(0, 1)]) == ArcUnion.full()
    assert a.union(a.complement()) == ArcUnion.full()


def test_cylinder_canonicalization():
    bern = BernoulliShift.uniform(2)
    u = bern.cylinder({0: 0}).union(bern.cylinder({0: 1}))
    assert u == bern.full_set()
    # a coordinate the set does not depend on is dropped
    v = bern.cylinder({0: 0, 5: 0}).union(bern.cylinder({0: 0, 5: 1}))
    assert v == bern.cylinder({0: 0})
    c = bern.cylinder({0: 0})
    assert c.complement() == bern.cylinder({0: 1})
    assert c.union(c.complement()) == bern.full_set()


def test_markov_measures():
    stay = Fraction(9, 10)
    mk = MarkovShift(((stay, 1 - stay), (1 - stay, stay)))
    assert mk.stationary == (Fraction(1, 2), Fraction(1, 2))
    # two-step return: pi_0 * (P^2)[0,0]
    assert mk.measure(mk.cylinder({0: 0, 2: 0})) == Fraction(1, 2) * Fraction(82, 100)
    assert mk.measure(mk.cylinder({0: 0, 1: 0})) == Fraction(9, 20)
    assert mk.measure(mk.full_set()) == 1
    # closed form of the stay-2/3 chain, P^t[0][1] = (1 - (1/3)^t) / 2; far
    # powers once overflowed the recursion in the matrix-power cache
    mk = MarkovShift(((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3))))
    for t in (1500, 1, 7, 0):
        assert mk.power(t)[0][1] == (1 - Fraction(1, 3) ** t) / 2
    assert mk.measure(mk.cylinder({0: 0, 1500: 1})) == (1 - Fraction(1, 3) ** 1500) / 4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_markov_stationary_is_stationary(seed):
    from ergoarrays.repro import random_markov_chain

    chain = random_markov_chain(random.Random(seed))
    pi = chain.stationary
    s = len(pi)
    assert sum(pi) == 1
    for j in range(s):
        assert sum(pi[i] * chain.matrix[i][j] for i in range(s)) == pi[j]


def test_measure_invariance_across_zoo(zoo, rng):
    checked = 0
    for sys in zoo:
        for _ in range(20):
            S = sys.random_set(rng)
            k = rng.randint(-50, 50)
            assert sys.measure(sys.preimage(S, k)) == sys.measure(S)
            checked += 1
    assert checked == 200


def test_preimage_homomorphism(zoo, rng):
    for sys in zoo:
        for _ in range(5):
            S = sys.random_set(rng)
            a, b = rng.randint(-12, 12), rng.randint(-12, 12)
            assert sys.preimage(S, a + b) == sys.preimage(sys.preimage(S, a), b)


def test_algebra_closure(zoo, rng):
    for sys in zoo:
        S = sys.random_set(rng)
        comp = sys.complement(S) if hasattr(sys, "complement") else S.complement()
        assert sys.measure(S) + sys.measure(comp) == 1
        both = intersect(S, comp)
        assert sys.measure(both) == 0


def test_weak_mixing_witness_bernoulli():
    bern = BernoulliShift.uniform(2)
    A = bern.cylinder({0: 0})
    B = intersect(bern.cylinder({0: 0}), bern.cylinder({1: 1}))
    N = 2**10
    muA, muB = bern.measure(A), bern.measure(B)
    total = Fraction(0)
    for n in range(1, N + 1):
        total += abs(bern.measure(intersect(A, bern.preimage(B, n))) - muA * muB)
    assert total / N < Fraction(1, 1000)


def test_non_weak_mixing_witness_half_rotation():
    rot = CircleRotation(Fraction(1, 2))
    A = rot.arc(0, Fraction(1, 4))
    vals = [rot.measure(intersect(A, rot.preimage(A, n))) for n in range(1, 13)]
    assert vals[0::2] == [Fraction(0)] * 6  # odd n
    assert vals[1::2] == [Fraction(1, 4)] * 6  # even n
    assert vals == vals[:2] * 6


def test_orbit_eval_examples():
    g = GaussMap()
    assert orbit_eval(g, Fraction(2, 5), 1) == Fraction(1, 2)
    assert orbit_eval(g, Fraction(2, 5), 0) == Fraction(2, 5)
    with pytest.raises(ValueError, match="non-invertible"):
        orbit_eval(g, Fraction(2, 5), -1)
    irr = IrrationalRotation.sqrt2_minus_1()
    x = orbit_eval(irr, Fraction(0), 2)
    assert abs(float(x) - ((2 * (math.sqrt(2) - 1)) % 1.0)) < 1e-12


def test_lattice_action_basics():
    lat = BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2)
    act = build_lattice_action(lat, [(1, 0), (0, 1)], [(0, 0), (0, 0)])
    assert act.commutes()
    assert act.shift_vector(1, 3, 7) == (3, 0)
    assert act.shift_vector(0, 3, 7) == (0, 0)
    with pytest.raises(ValueError, match="nonzero"):
        build_lattice_action(lat, [(1, 0), (0, 0)], [(0, 0), (0, 0)])
    with pytest.raises(ValueError, match="distinct"):
        build_lattice_action(lat, [(1, 0), (1, 0)], [(0, 0), (0, 0)])


def test_lattice_action_vectors_have_the_system_dimension():
    # a 1-vector on a 2-d lattice once moved only the first axis: with
    # A = {(0, 0): 0, (1, 0): 1}, S(1) came out 4/81 where z = (1, 0) gives 0
    lat = BernoulliLattice((Fraction(1, 3), Fraction(2, 3)), 2)
    with pytest.raises(ValueError, match="must have 2 coordinates"):
        build_lattice_action(lat, [(1,)], [(0,)])
    with pytest.raises(ValueError, match="must have 2 coordinates"):
        build_lattice_action(CyclicLattice((4, 6)), [(1,)], [(0,)])
    with pytest.raises(ValueError, match="must have 1 coordinates"):
        build_lattice_action(BernoulliShift.uniform(2), [(1, 0)], [(0, 0)])
    with pytest.raises(ValueError, match="must have 2 coordinates"):
        build_lattice_action(lat, [(1, 0)], [(0, 0, 0)])
    A = lat.cylinder({(0, 0): 0, (1, 0): 1})
    spec = CommutingRecurrenceSpec(build_lattice_action(lat, [(1, 0)], [(0, 0)]), A)
    assert commuting_recurrence_series(spec, 1).values == ((1, Fraction(0)),)


def test_bernoulli_lattice_uniform():
    lat = BernoulliLattice.uniform(2)
    assert lat == BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2)
    lat3 = BernoulliLattice.uniform(3, symbols=5)
    assert lat3.d == 3 and lat3.measure(lat3.cylinder({(0, 1, -2): 4})) == Fraction(1, 5)


def test_cyclic_lattice_action():
    lat = CyclicLattice((2, 2))
    act = build_lattice_action(lat, [(1, 0), (0, 1)], [(1, 1), (0, 0)])
    assert act.commutes()
    S = lat.point_set([(0, 0)])
    assert act.preimage_set(S, (1, 1)) == lat.point_set([(1, 1)])
    assert act.measure(S) == Fraction(1, 4)


def test_one_dimensional_action_wraps_integers():
    bern = BernoulliShift.uniform(2)
    act = build_lattice_action(bern, [1, 2], [0, 1])
    A = bern.cylinder({0: 0})
    assert act.preimage_set(A, (3,)) == bern.preimage(A, 3)


def test_relabeled_system_is_isomorphic():
    base = CyclicRotation(3)
    rel = RelabeledSystem(base, ((0, "a"), (1, "b"), (2, "c")))
    S = rel.point_set(["a"])
    assert rel.measure(S) == Fraction(1, 3)
    assert rel.preimage(S, 1) == rel.point_set(["c"])
    assert rel.measure(rel.preimage(S, -7)) == Fraction(1, 3)
    with pytest.raises(ValueError, match="bijection"):
        RelabeledSystem(base, ((0, "a"), (1, "a"), (2, "c")))


def test_relabeled_product_from_json_is_isomorphic_to_its_base():
    # JSON points of a product are lists; relabel pairs and point sets take them as tuples
    from ergoarrays.averages import ArraySpec, Observable, l2_distance_exact

    base_doc = {"kind": "product", "params": {"moduli": [2, 3]}}
    swap = lambda p: [(p[0] + 1) % 2, p[1]]
    points = [[a, b] for a in range(2) for b in range(3)]
    rel = build_system({"kind": "relabeled", "params": {"base": base_doc, "relabel": [[p, swap(p)] for p in points]}})
    base = build_system(base_doc)
    members = [[0, 1], [1, 2]]
    f = Observable.indicator(base.point_set(map(tuple, members)))
    g = Observable.indicator(rel.point_set([swap(p) for p in members]))
    for exps in (["n"], ["n**2"]):
        expected = l2_distance_exact(ArraySpec.create(base, [f], exps, center=True), 7)
        assert l2_distance_exact(ArraySpec.create(rel, [g], exps, center=True), 7) == expected


def test_sampling_determinism():
    bern = BernoulliShift.uniform(2)
    a = bern.sample_point(7, 3)
    b = bern.sample_point(7, 3)
    assert [a.symbol(i) for i in range(-5, 5)] == [b.symbol(i) for i in range(-5, 5)]
    rot = CircleRotation(Fraction(1, 3))
    assert rot.sample_point(1, 2) == rot.sample_point(1, 2)
    assert rot.sample_point(1, 2) != rot.sample_point(1, 3)


def test_build_system_descriptors():
    kinds = [
        {"kind": "cyclic-rotation", "params": {"modulus": 6}},
        {"kind": "circle-rotation-rational", "params": {"angle": "1/2"}},
        {"kind": "bernoulli-shift", "params": {"probs": ["1/2", "1/2"]}},
        {"kind": "markov-shift", "params": {"matrix": [["9/10", "1/10"], ["1/10", "9/10"]]}},
        {"kind": "product", "params": {"moduli": [2, 3]}},
        {"kind": "bernoulli-lattice", "params": {"probs": ["1/2", "1/2"], "d": 2}},
        {
            "kind": "relabeled",
            "params": {
                "base": {"kind": "cyclic-rotation", "params": {"modulus": 2}},
                "relabel": [[0, 1], [1, 0]],
            },
        },
        {"kind": "circle-rotation-irrational", "params": {"angle": "sqrt2-1"}},
        {"kind": "gauss-map", "params": {}},
    ]
    for doc in kinds:
        build_system(doc)
    with pytest.raises(ValueError, match="unknown system kind"):
        build_system({"kind": "nope"})
    with pytest.raises(ValueError, match="unknown descriptor"):
        build_system({"kind": "gauss-map", "extra": 1})


def test_gauss_map_density_and_sampler():
    g = GaussMap()
    assert abs(g.density(0.0) - 1 / math.log(2)) < 1e-12
    xs = [float(g.sample_point(3, i)) for i in range(2000)]
    assert all(0 <= x < 1 for x in xs)
    below_half = sum(1 for x in xs if x < 0.5) / len(xs)
    assert abs(below_half - math.log(1.5, 2)) < 0.05  # F(1/2) = log2(3/2)


def test_invariance_under_rotation_step():
    sys = CyclicRotation(7, step=3)
    S = sys.point_set([0, 2, 3])
    for k in (-3, 1, 5):
        assert sys.measure(sys.preimage(S, k)) == sys.measure(S)


def test_period_contract(zoo, rng):
    # T^q = id and, where translations exist, a translation by q in every
    # coordinate is the identity too; aperiodic systems have no period
    periods = [sys.period for sys in zoo]
    assert periods == [5, 2, 3, 7, None, None, None, 6, None, 4]
    assert CyclicRotation(12, 4).period == 12  # the modulus, not the order 3 of T
    assert CircleRotation(Fraction(5, 2)).period == 2
    assert CyclicLattice((4, 6), (1, 5)).period == 12
    for sys in zoo + [CyclicRotation(12, 4), CyclicLattice((4, 6), (3, 5))]:
        if sys.period is None:
            continue
        for _ in range(5):
            S = sys.random_set(rng)
            assert sys.preimage(S, sys.period) == S
            if hasattr(sys, "translate_preimage"):
                d = getattr(sys, "d", 1)
                assert sys.translate_preimage(S, (sys.period,) * d) == S


def test_cyclic_lattice_rejects_bad_moduli():
    for moduli in ((), (0, 3), (4, -2)):
        with pytest.raises(ValueError, match="moduli"):
            CyclicLattice(moduli)


# -- integer cylinder kernels against the Fraction implementations they replaced --


def oracle_shift(S: CylinderUnion, offset) -> CylinderUnion:
    """Move the support, re-sort it and permute every row to match."""
    if not S.coords:
        return S
    if isinstance(S.coords[0], tuple):
        moved = [tuple(x + o for x, o in zip(c, offset)) for c in S.coords]
    else:
        moved = [c + offset for c in S.coords]
    order = sorted(range(len(moved)), key=lambda i: moved[i])
    rows = frozenset(tuple(row[i] for i in order) for row in S.rows)
    return CylinderUnion(tuple(moved[i] for i in order), rows, S.alphabet)


def oracle_intersect(a: CylinderUnion, b: CylinderUnion) -> CylinderUnion:
    """Expand both sets to the joint support, intersect rows, canonicalize."""
    if a.is_empty() or b.is_empty():
        return CylinderUnion.empty(a.alphabet)
    coords = tuple(sorted(set(a.coords) | set(b.coords)))
    return oracle_canonical(coords, a._expand_to(coords) & b._expand_to(coords), a.alphabet)


def oracle_bernoulli_measure(probs, S: CylinderUnion) -> Fraction:
    return sum((math.prod((probs[s] for s in row), start=Fraction(1)) for row in S.rows), Fraction(0))


def oracle_powers(matrix, t_max: int) -> list:
    """P^0, ..., P^t_max by repeated Fraction matrix products."""
    s = len(matrix)
    out = [tuple(tuple(Fraction(int(i == j)) for j in range(s)) for i in range(s))]
    for _ in range(t_max):
        a = out[-1]
        out.append(tuple(
            tuple(sum((a[i][k] * matrix[k][j] for k in range(s)), Fraction(0)) for j in range(s))
            for i in range(s)
        ))
    return out


def oracle_path(chain: MarkovShift, powers, coords, row) -> Fraction:
    if not row:
        return Fraction(1)
    p = chain.stationary[row[0]]
    for t in range(len(row) - 1):
        p *= powers[coords[t + 1] - coords[t]][row[t]][row[t + 1]]
    return p


@st.composite
def cylinder_sets(draw, alphabet: int, d: int, radius: int = 4):
    """Empty, full, one cylinder, or a union of two (sometimes complemented),
    on integer coordinates (d = 0) or Z^d vectors.  At most 4 coordinates, so
    that intersections stay far below the row cap."""
    coord = st.integers(-radius, radius) if d == 0 else st.tuples(*[st.integers(-2, 2)] * d)
    cylinder = st.dictionaries(coord, st.integers(0, alphabet - 1), max_size=2).map(
        lambda c: CylinderUnion.cylinder(c, alphabet)
    )
    kind = draw(st.sampled_from(["empty", "full", "one", "one", "union", "complement"]))
    if kind == "empty":
        return CylinderUnion.empty(alphabet)
    if kind == "full":
        return CylinderUnion.full(alphabet)
    S = draw(cylinder)
    if kind != "one":
        S = S.union(draw(cylinder))
    return S.complement() if kind == "complement" else S


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cylinder_shift_and_intersect_match_oracles(data):
    alphabet = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(0, 2))
    a = data.draw(cylinder_sets(alphabet, d))
    b = data.draw(cylinder_sets(alphabet, d))
    offset = data.draw(st.integers(-50, 50) if d == 0 else st.tuples(*[st.integers(-50, 50)] * d))
    moved = a.shift(offset)
    assert moved == oracle_shift(a, offset)
    assert list(moved.coords) == sorted(moved.coords)
    assert moved.shift(tuple(-o for o in offset) if d else -offset) == a
    for x, y in ((a, b), (moved, b), (b, moved)):
        assert x.intersect(y) == oracle_intersect(x, y)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bernoulli_measure_matches_fraction_oracle(data):
    weights = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=3).filter(any))
    probs = tuple(Fraction(w, sum(weights)) for w in weights)
    d = data.draw(st.integers(0, 2))
    system = BernoulliShift(probs) if d == 0 else BernoulliLattice(probs, d)
    a = data.draw(cylinder_sets(len(probs), d))
    b = data.draw(cylinder_sets(len(probs), d))
    for S in (a, b, intersect(a, b), a.union(b), a.complement()):
        assert system.measure(S) == oracle_bernoulli_measure(probs, S)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_markov_kernels_match_fraction_oracle(data):
    s = data.draw(st.integers(2, 4))
    weights = data.draw(
        st.lists(st.lists(st.integers(0, 6), min_size=s, max_size=s).filter(any), min_size=s, max_size=s)
    )
    matrix = tuple(tuple(Fraction(w, sum(row)) for w in row) for row in weights)
    try:
        chain = MarkovShift(matrix)
    except ValueError:  # no unique stationary distribution
        assume(False)
    powers = oracle_powers(matrix, 60)
    for t in data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=4)):
        assert chain.power(t) == powers[t]
    constraints = data.draw(st.dictionaries(st.integers(-30, 30), st.integers(0, s - 1), max_size=4))
    coords = sorted(constraints)
    expected = oracle_path(chain, powers, coords, [constraints[c] for c in coords])
    assert chain.path_measure(constraints) == expected
    S = data.draw(cylinder_sets(s, 0, radius=30))
    assert chain.measure(S) == sum((oracle_path(chain, powers, S.coords, row) for row in S.rows), Fraction(0))
    assert chain.measure(S.shift(data.draw(st.integers(-40, 40)))) == chain.measure(S)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_disjoint_intersect_matches_expand_oracle(data):
    alphabet = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(0, 2))
    a = data.draw(cylinder_sets(alphabet, d))
    offset = data.draw(st.integers(-9, 9) if d == 0 else st.tuples(*[st.integers(-5, 5)] * d))
    b = data.draw(cylinder_sets(alphabet, d)).shift(offset)
    assume(set(a.coords).isdisjoint(b.coords))
    got = a.intersect(b)
    assert got == oracle_intersect(a, b) == oracle_product(a, b)
    assert got == b.intersect(a)


def oracle_product(a: CylinderUnion, b: CylinderUnion) -> CylinderUnion:
    """Intersection with a set on a disjoint support: every pair of rows,
    merged in coordinate order, capped before it is built."""
    if a.is_empty() or b.is_empty():
        return CylinderUnion.empty(a.alphabet)
    if len(a.rows) * len(b.rows) > _MAX_ROWS:
        raise ResourceCapError("cylinder product exceeds the cap")
    coords = a.coords + b.coords
    order = sorted(range(len(coords)), key=coords.__getitem__)
    rows = frozenset(tuple(map((r + s).__getitem__, order)) for r in a.rows for s in b.rows)
    return CylinderUnion(tuple(map(coords.__getitem__, order)), rows, a.alphabet)


@st.composite
def multirow_unions(draw, alphabet: int, d: int):
    """A union of 2-4 cylinders of up to 3 coordinates each, sometimes
    complemented, on at most 6 coordinates."""
    coord = st.integers(-3, 3) if d == 0 else st.tuples(*[st.integers(-1, 1)] * d)
    cylinders = st.lists(
        st.dictionaries(coord, st.integers(0, alphabet - 1), min_size=1, max_size=3), min_size=2, max_size=4
    )
    parts = draw(cylinders)
    assume(len(set().union(*parts)) <= 6)
    S = CylinderUnion.empty(alphabet)
    for c in parts:
        S = S.union(CylinderUnion.cylinder(c, alphabet))
    return S.complement() if draw(st.booleans()) else S


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multirow_intersect_matches_expand_oracle(data):
    alphabet = data.draw(st.integers(2, 3))
    d = data.draw(st.integers(0, 2))
    a = data.draw(multirow_unions(alphabet, d))
    offset = data.draw(st.integers(-6, 6) if d == 0 else st.tuples(*[st.integers(-2, 2)] * d))
    b = data.draw(multirow_unions(alphabet, d)).shift(offset)
    got = a.intersect(b)
    assert got == oracle_intersect(a, b)
    assert got == b.intersect(a)
    if set(a.coords).isdisjoint(b.coords):
        assert got == oracle_product(a, b)


def test_intersect_joins_on_shared_coordinates():
    # {symbol sum of coords 0..7 = 0 mod 3} has 2187 rows; expanding both
    # sides to coords 0..14 would take 2187 * 3^7 rows, over the cap
    bern = BernoulliShift.uniform(3)
    rows = frozenset(r for r in itertools.product(range(3), repeat=8) if sum(r) % 3 == 0)
    a = CylinderUnion(tuple(range(8)), rows, 3)
    b = bern.cylinder(dict.fromkeys(range(7, 15), 0)).union(bern.cylinder(dict.fromkeys(range(7, 15), 1)))
    with pytest.raises(ResourceCapError, match="expansion"):
        oracle_intersect(a, b)
    assert bern.measure(a.intersect(b)) == Fraction(2, 19683)


# -- canonical forms: one counting pass against the drop-one-and-restart loop --


def oracle_canonical(coords, rows, alphabet) -> CylinderUnion:
    """Regroup the rows by every position in turn, drop the first position
    at which each group holds all symbols, and start over until none does."""
    coords, rows = tuple(coords), set(rows)
    if not rows:
        return CylinderUnion((), frozenset(), alphabet)
    changed = True
    while changed and coords:
        changed = False
        for pos in range(len(coords)):
            groups: dict[tuple, set[int]] = {}
            for row in rows:
                groups.setdefault(row[:pos] + row[pos + 1 :], set()).add(row[pos])
            if all(len(sym) == alphabet for sym in groups.values()):
                coords, rows, changed = coords[:pos] + coords[pos + 1 :], set(groups), True
                break
    return CylinderUnion(coords, frozenset(rows), alphabet)


@st.composite
def planted_rows(draw):
    """(coords, rows, alphabet): a random row set over some positions,
    repeated with every symbol at the others, so those are free; sometimes
    no rows, or every row."""
    alphabet = draw(st.integers(1, 3))
    width = draw(st.integers(0, 5))
    coord = st.integers(-9, 9) if draw(st.booleans()) else st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    coords = tuple(sorted(draw(st.sets(coord, min_size=width, max_size=width))))
    free = draw(st.sets(st.integers(0, width - 1), max_size=width)) if width else set()
    core = [p for p in range(width) if p not in free]
    every = list(itertools.product(range(alphabet), repeat=len(core)))
    kind = draw(st.sampled_from(["empty", "full", "some", "some", "some"]))
    picked = [] if kind == "empty" else every if kind == "full" else draw(st.lists(st.sampled_from(every)))
    rows = set()
    for base in picked:
        for extra in itertools.product(range(alphabet), repeat=len(free)):
            row, fill = dict(zip(core, base)), iter(extra)
            rows.add(tuple(row[p] if p in row else next(fill) for p in range(width)))
    return coords, rows, alphabet


def slice_canonical(coords, rows, alphabet) -> CylinderUnion:
    """One counting pass whose deleted rows are built by slicing each row."""
    keep = [p for p in range(len(coords)) if len({r[:p] + r[p + 1 :] for r in rows}) * alphabet != len(rows)]
    return CylinderUnion(tuple(coords[p] for p in keep), frozenset(tuple(r[p] for p in keep) for r in rows), alphabet)


@settings(max_examples=400, deadline=None)
@given(planted_rows())
def test_canonical_pass_matches_restart_oracle(case):
    coords, rows, alphabet = case
    got = CylinderUnion._canonical(coords, rows, alphabet)
    assert got == oracle_canonical(coords, rows, alphabet) == slice_canonical(coords, rows, alphabet)
    assert got.complement() == oracle_canonical(
        got.coords, set(itertools.product(range(alphabet), repeat=len(got.coords))) - got.rows, alphabet
    )


def test_canonical_pass_drops_free_coordinates_together():
    # {x_0 = x_2} over coords 0..3 ignores 1 and 3 at once; alphabet 1 ignores everything
    rows = {r for r in itertools.product(range(3), repeat=4) if r[0] == r[2]}
    assert CylinderUnion._canonical((0, 1, 2, 3), rows, 3) == CylinderUnion((0, 2), frozenset({(0, 0), (1, 1), (2, 2)}), 3)
    assert CylinderUnion._canonical((5, 7), {(0, 0)}, 1) == CylinderUnion.full(1)
    assert CylinderUnion._canonical((5, 7), set(), 2) == CylinderUnion.empty(2)


# small denominators, so arcs often touch, and ends past 1 or below 0 wrap
arc_end = st.integers(-12, 24).map(lambda k: Fraction(k, 12))
arc_unions = st.lists(st.tuples(arc_end, arc_end), max_size=4).map(ArcUnion.from_arcs)


@settings(max_examples=400, deadline=None)
@given(arc_unions, arc_unions)
def test_arc_intersect_and_complement_are_canonical_and_pointwise_right(a, b):
    for S in (a, b, a.intersect(b), a.complement(), b.complement()):
        assert S == ArcUnion._canonical(list(S.arcs))
    for k in range(48):  # midpoints and ends of every 1/24 step
        x = Fraction(k, 48)
        assert a.intersect(b).contains_point(x) == (a.contains_point(x) and b.contains_point(x))
        assert a.complement().contains_point(x) != a.contains_point(x)


def test_arc_complement_and_intersect_at_touching_and_wrapping_arcs():
    q = Fraction(1, 4)
    wrap = ArcUnion.from_arcs([(3 * q, 5 * q)])  # [3/4, 1) and [0, 1/4)
    assert wrap.complement() == ArcUnion(((q, 3 * q),))
    touching = ArcUnion.from_arcs([(0, q), (q, 2 * q)])
    assert touching.arcs == ((0, 2 * q),)
    assert touching.complement() == ArcUnion(((2 * q, Fraction(1)),))
    assert wrap.intersect(touching) == ArcUnion(((0, q),))
    assert wrap.intersect(wrap.complement()).is_empty()


# -- the Markov block kernel against path enumeration --


def enumerated_block_measure(chain: MarkovShift, blocks) -> Fraction:
    """Sum over every state path from the first to the last blocked
    coordinate, built one step of P at a time, of the paths every block
    admits."""
    first, last = blocks[0][0][0], blocks[-1][0][-1]
    paths = {(x,): p for x, p in enumerate(chain.stationary)}
    for _ in range(last - first):
        paths = {
            path + (y,): w * chain.matrix[path[-1]][y]
            for path, w in paths.items()
            for y in range(chain.states)
        }
    return sum(
        (
            w
            for path, w in paths.items()
            if all(tuple(path[c - first] for c in coords) in set(rows) for coords, rows in blocks)
        ),
        Fraction(0),
    )


@st.composite
def markov_blocks(draw):
    """A chain on 2-3 states and 1-3 ordered blocks with gaps >= 1 between
    them, at most 8 coordinates from the first to the last."""
    s = draw(st.integers(2, 3))
    weights = draw(st.lists(st.lists(st.integers(1, 4), min_size=s, max_size=s), min_size=s, max_size=s))
    chain = MarkovShift(tuple(tuple(Fraction(w, sum(row)) for w in row) for row in weights))
    first = c = draw(st.integers(-5, 5))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        coords = [c]
        for _ in range(draw(st.integers(0, 2))):
            coords.append(coords[-1] + draw(st.integers(1, 2)))
        rows = draw(st.lists(st.tuples(*[st.integers(0, s - 1)] * len(coords)), max_size=5, unique=True))
        blocks.append((coords, rows))
        c = coords[-1] + draw(st.integers(1, 3))
    assume(blocks[-1][0][-1] - first < 8)
    return chain, blocks


@settings(max_examples=120, deadline=None)
@given(markov_blocks())
def test_block_measure_matches_path_enumeration(case):
    chain, blocks = case
    assert chain.block_measure(blocks) == enumerated_block_measure(chain, blocks)


def test_block_measure_edge_blocks():
    chain = MarkovShift.two_state(Fraction(2, 3))
    assert chain.block_measure([]) == 1
    assert chain.block_measure([((), [()]), ([0], [(1,)])]) == Fraction(1, 2)
    assert chain.block_measure([([0], [(1,)]), ((), [])]) == 0
    with pytest.raises(ValueError, match="ordered and disjoint"):
        chain.block_measure([([0, 2], [(0, 0)]), ([2], [(0,)])])


# -- the bounded matrix-power memo ---------------------------------------------

MEMO_CHAIN = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2)))


def memo_bits(powers) -> int:
    return sum(x.bit_length() for M in powers.values() for row in M for x in row)


def test_far_power_keeps_the_memo_under_its_cap():
    # caching every power up to A^16000 held about 190 MB; with
    # pi = (3/7, 4/7) and P^t[0][1] = (4/7)(1 - (-1/6)^t) the answer is exact
    chain = MarkovShift(MEMO_CHAIN)
    assert chain.path_measure({0: 0, 16000: 1}) == Fraction(3, 7) * Fraction(4, 7) * (1 - Fraction(-1, 6) ** 16000)
    powers = chain._powers
    assert memo_bits(powers) <= systems._POWER_MEMO_BITS
    assert len(powers) < 40  # the squaring chain, not every power


def test_powers_match_the_fraction_oracle_under_a_small_memo(monkeypatch):
    # a memo of 600 bits empties itself many times over the 41 powers, taken
    # in shuffled order so both the one-step and the squaring branch run
    monkeypatch.setattr(systems, "_POWER_MEMO_BITS", 600)
    chain = MarkovShift(MEMO_CHAIN)
    powers = oracle_powers(MEMO_CHAIN, 40)
    ts = list(range(41)) * 2
    random.Random(4).shuffle(ts)
    for t in ts:
        assert chain.power(t) == powers[t]
        assert memo_bits(chain._powers) <= 600


def test_power_past_the_bit_budget_is_refused_before_it_is_built(monkeypatch):
    chain = MarkovShift(MEMO_CHAIN)  # D = 6: entries of A^t reach t * log2(6) bits
    t_max = int(systems._MAX_POWER_BITS / math.log2(6))
    assert chain.power(t_max)[0][0] > 0
    products = []
    matmul = systems._matmul
    monkeypatch.setattr(systems, "_matmul", lambda X, Y: products.append(1) or matmul(X, Y))
    for t in (t_max + 1, 10**9):
        with pytest.raises(ResourceCapError, match=f"matrix power {t} would pass 65536 bits"):
            chain.power(t)
        with pytest.raises(ResourceCapError, match="matrix power"):
            chain.path_measure({0: 0, t: 1})
    assert products == []
    with pytest.raises(ValueError, match=">= 0"):
        chain.power(-1)


def test_zoo_exposes_exact_protocol(zoo):
    for system in zoo:
        for name in ("full_set", "measure", "preimage", "complement", "random_set"):
            assert callable(getattr(system, name)), (type(system).__name__, name)
        assert system.period is None or system.period >= 1
        S = system.random_set(random.Random(3))
        assert system.measure(system.full_set()) == 1
        assert system.measure(S) + system.measure(system.complement(S)) == 1


def test_shift_random_sets_keep_their_spans():
    for system, span in ((BernoulliShift.uniform(3), 6), (MarkovShift.two_state(Fraction(1, 3)), 5)):
        rng = random.Random(11)
        coords = {c for _ in range(300) for c in system.random_set(rng).coords}
        assert max(map(abs, coords)) == span
