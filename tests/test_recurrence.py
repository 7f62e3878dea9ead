import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoarrays.recurrence import (
    CommutingRecurrenceSpec,
    RecurrenceSpec,
    commuting_recurrence_series,
    detect_syndetic,
    extract_syndetic_from_grid,
    recurrence_series,
)
from ergoarrays.repro import random_hypothesis_grid
from ergoarrays.sets import ArcUnion, CylinderUnion, FiniteSubset
from ergoarrays.systems import (
    BernoulliLattice,
    BernoulliShift,
    CircleRotation,
    CyclicLattice,
    CyclicRotation,
    GaussMap,
    IrrationalRotation,
    LatticeAction,
    MarkovShift,
    RelabeledSystem,
    build_lattice_action,
)
from ergoarrays.util import ResourceCapError, box_sums

from conftest import markov_chain, markov_sets, periodic_systems


def half_rotation_series(n_max=20):
    rot = CircleRotation(Fraction(1, 2))
    A = rot.arc(0, Fraction(1, 4))
    return recurrence_series(RecurrenceSpec(rot, A, [(1, 0), (-1, 1)]), n_max)


def test_half_rotation_series_values():
    # oracle: the term at n has measure 1/4 iff both n and N-n are even,
    # i.e. iff n and N are both even; otherwise the arcs are disjoint
    series = half_rotation_series(24)
    for N, v in series.values:
        expected = Fraction(1, 8) if N % 2 == 0 else Fraction(0)
        assert v == expected


def test_cyclic_two_series():
    z2 = CyclicRotation(2)
    series = recurrence_series(RecurrenceSpec(z2, z2.point_set([0]), [(1, 0)]), 12)
    for N, v in series.values:
        assert v == Fraction(N // 2, 2 * N)  # (1/2) * #evens <= N, averaged


def test_full_space_series_is_one():
    rot = CircleRotation(Fraction(1, 2))
    spec = RecurrenceSpec(rot, rot.full_set(), [(1, 0), (-1, 1)])
    assert all(v == 1 for _, v in recurrence_series(spec, 6).values)


def test_series_bounds_and_label():
    series = half_rotation_series(10)
    assert series.mu_A == Fraction(1, 4)
    assert all(0 <= v <= series.mu_A for _, v in series.values)
    assert series.n_max == 10


def test_spec_validation():
    rot = CircleRotation(Fraction(1, 2))
    A = rot.arc(0, Fraction(1, 4))
    with pytest.raises(ValueError, match="nonzero"):
        RecurrenceSpec(rot, A, [(0, 1)])
    with pytest.raises(ValueError, match="exact-tier"):
        RecurrenceSpec(GaussMap(), None, [(1, 0)])
    # leading (0,0) is implied and may be given explicitly
    a = RecurrenceSpec(rot, A, [(1, 0)])
    b = RecurrenceSpec(rot, A, [(0, 0), (1, 0)])
    assert a.pairs == b.pairs == ((0, 0), (1, 0))


def test_specs_reject_sampled_systems_and_foreign_sets():
    # both specs answer with one ValueError, never an AttributeError deep in the series
    irr = IrrationalRotation.sqrt2_minus_1()
    with pytest.raises(ValueError, match="exact-tier"):
        RecurrenceSpec(irr, CircleRotation(Fraction(1, 2)).arc(0, Fraction(1, 4)), [(1, 0)])
    with pytest.raises(ValueError, match="exact-tier"):
        CommutingRecurrenceSpec(LatticeAction(irr, ((1,),), ((0,),)), None)
    rot, z5 = CircleRotation(Fraction(1, 3)), CyclicRotation(5)
    bern = BernoulliShift.uniform(2)
    action = build_lattice_action(z5, [1], [0])
    for spec, match in [
        (lambda: RecurrenceSpec(rot, FiniteSubset.of([0]), [(1, 0)]), "ArcUnion inside the space of CircleRotation"),
        (lambda: RecurrenceSpec(z5, rot.arc(0, Fraction(1, 2)), [(1, 0)]), "FiniteSubset inside"),
        (lambda: RecurrenceSpec(z5, FiniteSubset.of([0, 7]), [(1, 0)]), "FiniteSubset inside"),  # 7 is no point of Z_5
        (lambda: RecurrenceSpec(bern, BernoulliShift.uniform(3).cylinder({0: 2}), [(1, 0)]), "alphabet"),
        (lambda: CommutingRecurrenceSpec(action, rot.arc(0, Fraction(1, 2))), "FiniteSubset inside"),
        (lambda: CommutingRecurrenceSpec(action, FiniteSubset.of([5])), "FiniteSubset inside"),
    ]:
        with pytest.raises(ValueError, match=match):
            spec()


def test_detect_syndetic_half_rotation():
    report = detect_syndetic(half_rotation_series(20), Fraction(1, 16))
    assert report.members == tuple(range(2, 21, 2))
    assert report.max_gap == 2
    assert report.verdict == "syndetic-in-window"
    assert report.liminf_estimate == Fraction(1, 8)
    assert all(v >= report.threshold for v in (Fraction(1, 8),))


def test_detect_syndetic_full_density_on_weak_mixing():
    bern = BernoulliShift.uniform(2)
    A = bern.cylinder({0: 0})
    series = recurrence_series(RecurrenceSpec(bern, A, [(1, 0), (2, 1)]), 32)
    # distinct coordinates: every term has measure exactly 1/8
    assert all(v == Fraction(1, 8) for _, v in series.values)
    report = detect_syndetic(series, "auto")
    assert report.members == tuple(range(1, 33))
    assert report.max_gap == 1


def test_detect_syndetic_not_found():
    values = {N: Fraction(0) for N in range(1, 21)}
    report = detect_syndetic(values, "auto")
    assert report.verdict == "not-found" and report.members == ()
    report = detect_syndetic(values, Fraction(1, 100))
    assert report.verdict == "not-found"


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1)])
def test_thresholds_at_most_zero_are_rejected(eps):
    # every N clears eps <= 0, so a certificate would hold on any series
    with pytest.raises(ValueError, match="eps must be > 0"):
        detect_syndetic({N: Fraction(0) for N in range(1, 6)}, eps)
    with pytest.raises(ValueError, match="eps must be > 0"):
        extract_syndetic_from_grid([[0] * 6 for _ in range(6)], eps, 2)


def test_detect_syndetic_counts_edge_gaps():
    # 1 for N <= 3, then 0 up to 500: the window shows a gap of 498 after
    # the last member, which the certificate must report
    values = {N: Fraction(1 if N <= 3 else 0) for N in range(1, 501)}
    report = detect_syndetic(values, Fraction(1, 2))
    assert report.members == (1, 2, 3)
    assert report.max_gap == 498
    # and the gap before the first member counts from 0
    values = {N: Fraction(1 if N >= 40 else 0) for N in range(1, 51)}
    assert detect_syndetic(values, Fraction(1, 2)).max_gap == 40


def test_detect_syndetic_auto_uses_tail():
    # large early values must not inflate the auto threshold
    values = {N: Fraction(1, 100) for N in range(1, 41)}
    values[1] = Fraction(1, 2)
    report = detect_syndetic(values, "auto")
    assert report.threshold == Fraction(1, 200)
    assert report.members == tuple(range(1, 41))


def test_commuting_series_matches_single(rng):
    bern = BernoulliShift.uniform(2)
    A = bern.cylinder({0: 0})
    pairs = [(1, 0), (2, 1), (-1, 2)]
    single = recurrence_series(RecurrenceSpec(bern, A, pairs), 48)
    action = build_lattice_action(bern, [p for p, _ in pairs], [q for _, q in pairs])
    commuting = commuting_recurrence_series(CommutingRecurrenceSpec(action, A), 48)
    assert single.values == commuting.values


# -- periodic residues against the direct O(Nmax^2) sum -------------------------


def direct_series(A, preimage, measure, shift_fns, n_max):
    """Oracle: every term of every N summed directly, no memo, no period."""
    values = []
    for N in range(1, n_max + 1):
        total = Fraction(0)
        for n in range(1, N + 1):
            inter = A
            for shift in shift_fns:
                inter = inter.intersect(preimage(A, shift(n, N)))
                if inter.is_empty():
                    break
            else:
                total += measure(inter)
        values.append((N, total / N))
    return tuple(values)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_periodic_series_matches_direct_sum(data):
    system = data.draw(periodic_systems())
    A = system.random_set(random.Random(data.draw(st.integers(0, 10**6))))  # CircleRotation: 1-3 arcs
    coeff = st.integers(-4, 4)
    pairs = data.draw(st.lists(st.tuples(coeff.filter(bool), coeff), min_size=1, max_size=3))
    n_max = data.draw(st.integers(1, 40))
    series = recurrence_series(RecurrenceSpec(system, A, pairs), n_max)
    shift_fns = [lambda n, N, p=p, q=q: p * n + q * N for p, q in pairs]
    assert series.values == direct_series(A, system.preimage, system.measure, shift_fns, n_max)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_periodic_commuting_series_matches_direct_sum(data):
    # translations act by the modulus whatever the step, so the period must be
    # the modulus, not the order of T
    system = data.draw(
        st.sampled_from([CyclicRotation(6, 2), CyclicRotation(9, 3), CyclicLattice((2, 3)), CyclicLattice((3, 4), (2, 2))])
    )
    d = getattr(system, "d", 1)
    vec = st.tuples(*[st.integers(-3, 3)] * d)
    ell = data.draw(st.integers(1, 2))
    z = data.draw(st.lists(vec.filter(any), min_size=ell, max_size=ell, unique=True))
    zhat = data.draw(st.lists(vec, min_size=ell, max_size=ell))
    action = build_lattice_action(system, z, zhat)
    A = system.random_set(random.Random(data.draw(st.integers(0, 10**6))))
    n_max = data.draw(st.integers(1, 40))
    series = commuting_recurrence_series(CommutingRecurrenceSpec(action, A), n_max)
    shift_fns = [lambda n, N, j=j: action.shift_vector(j, n, N) for j in range(1, ell + 1)]
    assert series.values == direct_series(A, action.preimage_set, action.measure, shift_fns, n_max)


def single_series_matches_direct_sum(system, A, pairs, n_max):
    series = recurrence_series(RecurrenceSpec(system, A, pairs), n_max)
    shift_fns = [lambda n, N, p=p, q=q: p * n + q * N for p, q in pairs]
    return series.values == direct_series(A, system.preimage, system.measure, shift_fns, n_max)


def bernoulli_sets(system, rng):
    """Random cylinders, their unions and complements, and cylinders whose
    support has gaps: a term's clusters split where shifts lie more than
    the support diameter apart, so shifts exactly that far apart matter."""
    a, b = system.random_set(rng), system.random_set(rng)
    gapped = system.cylinder({0: rng.randrange(system.alphabet), rng.randint(2, 4): rng.randrange(system.alphabet)})
    return [a, a.union(b), system.complement(a), gapped, system.complement(gapped)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_aperiodic_bernoulli_series_matches_direct_sum(data):
    symbols = data.draw(st.integers(2, 3))
    weights = data.draw(st.lists(st.integers(1, 4), min_size=symbols, max_size=symbols))
    system = BernoulliShift(tuple(Fraction(w, sum(weights)) for w in weights))
    A = data.draw(st.sampled_from(bernoulli_sets(system, random.Random(data.draw(st.integers(0, 10**6))))))
    # the oracle multiplies the rows of up to ell + 1 copies of A on disjoint
    # supports, so ell is bounded by A's row count
    ell = max([1] + [k for k in (2, 3) if len(A.rows) ** (k + 1) <= 4096])
    coeff = st.integers(-3, 3)
    pairs = data.draw(st.lists(st.tuples(coeff.filter(bool), coeff), min_size=1, max_size=ell))
    assert single_series_matches_direct_sum(system, A, pairs, data.draw(st.integers(1, 14)))


def test_gapped_cylinder_series_matches_direct_sum():
    # shifts 2 apart meet at one coordinate of {0, 2}: not independent
    bern = BernoulliShift((Fraction(1, 3), Fraction(2, 3)))
    A = bern.cylinder({0: 0, 2: 1})
    for pairs in ([(1, 0)], [(1, 0), (2, 1)], [(2, 0), (-1, 1), (1, -1)]):
        assert single_series_matches_direct_sum(bern, A, pairs, 16)


@pytest.mark.parametrize("arcs", [
    [("5/6", "1/6")], [("2/3", "1/9"), ("1/5", "1/3")], [("0", "1/3")],
    [("999990/1000003", "20/1000003"), ("26/1000003", "90/1000003")],
])
def test_fine_rotation_series_matches_direct_sum(arcs):
    # period 1000003 exceeds N_max, so every term is summed; three of the
    # sets wrap through 0, and the last one's arcs lie a few steps apart, so
    # that shifts of at most 24*5 steps tell a rotation back from one forward
    rot = CircleRotation(Fraction(3, 1000003))
    A = ArcUnion.from_arcs([(Fraction(a), Fraction(b)) for a, b in arcs])
    for pairs in ([(1, 0), (-1, 1)], [(1, 0), (2, 1)], [(2, -1), (-3, 2), (1, 1)]):
        assert single_series_matches_direct_sum(rot, A, pairs, 24)


def test_relabeled_series_matches_direct_sum():
    rng = random.Random(5)
    for base in (CyclicRotation(9, 4), CyclicLattice((2, 3), (1, 2))):
        points = list(base.full_set().members)
        system = RelabeledSystem(base, tuple((x, f"q{i}") for i, x in enumerate(rng.sample(points, len(points)))))
        for _ in range(3):
            A = system.random_set(rng)
            assert single_series_matches_direct_sum(system, A, [(1, 0), (-2, 1)], 30)


@pytest.mark.parametrize("z, zhat", [([(1, 0), (0, 1)], [(0, 1), (1, 1)]), ([(1, 2), (3, -1)], [(2, 0), (0, 5)])])
def test_commuting_cyclic_lattice_series_matches_direct_sum(z, zhat):
    # shifts are reduced mod 5 in the first coordinate and mod 7 in the second
    system = CyclicLattice((5, 7))
    action = build_lattice_action(system, z, zhat)
    rng = random.Random(11)
    for _ in range(3):
        A = system.random_set(rng)
        series = commuting_recurrence_series(CommutingRecurrenceSpec(action, A), 40)
        shift_fns = [lambda n, N, j=j: action.shift_vector(j, n, N) for j in (1, 2)]
        assert series.values == direct_series(A, action.preimage_set, action.measure, shift_fns, 40)


@pytest.mark.parametrize("d", [1, 2])
def test_bernoulli_lattice_series_match_direct_sum(d):
    # no period and, for d = 2, vector shifts: the cluster kernel
    system = BernoulliLattice((Fraction(1, 3), Fraction(2, 3)), d)
    A = system.cylinder({(0,) * d: 0, (1,) + (0,) * (d - 1): 1})
    assert single_series_matches_direct_sum(system, A, [(1, 0), (-1, 1)], 12)
    action = build_lattice_action(system, [(1,) * d, (2,) + (0,) * (d - 1)], [(0,) * d, (1,) * d])
    series = commuting_recurrence_series(CommutingRecurrenceSpec(action, A), 12)
    shift_fns = [lambda n, N, j=j: action.shift_vector(j, n, N) for j in (1, 2)]
    assert series.values == direct_series(A, action.preimage_set, action.measure, shift_fns, 12)


@st.composite
def lattice_sets(draw, system):
    """A cylinder, or a union of two, inside a box whose side is drawn per
    axis, so A's spread along the first axis and along the last one differ."""
    sides = draw(st.lists(st.integers(0, 3), min_size=system.d, max_size=system.d))
    box = st.tuples(*(st.integers(0, side) for side in sides))
    cylinder = lambda: system.cylinder({c: draw(st.integers(0, 1)) for c in draw(st.sets(box, min_size=1, max_size=3))})
    A = cylinder()
    return A.union(cylinder()) if draw(st.booleans()) else A


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_bernoulli_lattice_series_match_direct_sum_on_random_sets(data):
    # terms split into clusters where the first coordinates of neighbouring
    # shifts differ by more than A's spread along the first axis: diagonal
    # scalar shifts and vector ones, negative generators included
    system = BernoulliLattice((Fraction(1, 3), Fraction(2, 3)), data.draw(st.integers(1, 2)))
    A = data.draw(lattice_sets(system))
    ell = max([1] + [k for k in (2, 3) if len(A.rows) ** (k + 1) <= 4096])  # bounds the oracle's rows
    n_max = data.draw(st.integers(1, 10))
    coeff = st.integers(-3, 3)
    pairs = data.draw(st.lists(st.tuples(coeff.filter(bool), coeff), min_size=1, max_size=ell))
    assert single_series_matches_direct_sum(system, A, pairs, n_max)
    vector = st.tuples(*[coeff] * system.d)
    z = data.draw(st.lists(vector.filter(any), min_size=1, max_size=ell, unique=True))
    action = build_lattice_action(system, z, [data.draw(vector) for _ in z])
    series = commuting_recurrence_series(CommutingRecurrenceSpec(action, A), n_max)
    shift_fns = [lambda n, N, j=j: action.shift_vector(j, n, N) for j in range(1, len(z) + 1)]
    assert series.values == direct_series(A, action.preimage_set, action.measure, shift_fns, n_max)


def test_markov_series_matches_direct_sum():
    mk = MarkovShift(((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 4), Fraction(3, 4))))
    for A in (mk.cylinder({0: 0, 2: 1}), mk.complement(mk.cylinder({0: 1, 1: 1}))):
        assert single_series_matches_direct_sum(mk, A, [(1, 0), (2, -1)], 14)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_markov_series_matches_direct_sum_on_random_chains(data):
    system = markov_chain(data)
    A = markov_sets(data, system)
    # the oracle multiplies the rows of up to ell + 1 copies of A, so ell is
    # bounded by A's row count
    ell = max([1] + [k for k in (2, 3) if len(A.rows) ** (k + 1) <= 4096])
    coeff = st.integers(-3, 3)
    pairs = data.draw(st.lists(st.tuples(coeff.filter(bool), coeff), min_size=1, max_size=ell))
    n_max = data.draw(st.integers(1, 12))
    shift_fns = [lambda n, N, p=p, q=q: p * n + q * N for p, q in pairs]
    expected = direct_series(A, system.preimage, system.measure, shift_fns, n_max)
    assert recurrence_series(RecurrenceSpec(system, A, pairs), n_max).values == expected
    if len({p for p, _ in pairs}) == len(pairs):  # a lattice action needs distinct generators
        action = build_lattice_action(system, [p for p, _ in pairs], [q for _, q in pairs])
        assert commuting_recurrence_series(CommutingRecurrenceSpec(action, A), n_max).values == expected


def test_markov_series_edge_sets_and_pairs():
    mk = MarkovShift(((Fraction(1, 2), Fraction(1, 2), 0), (0, Fraction(1, 3), Fraction(2, 3)), (1, 0, 0)))
    A = mk.complement(mk.cylinder({0: 1, 2: 2}))
    # (0, 0) alone: no shift functions, every term is mu(A)
    for B in (A, mk.cylinder({0: 0})):
        series = recurrence_series(RecurrenceSpec(mk, B, [(0, 0)]), 9)
        assert series.values == tuple((N, mk.measure(B)) for N in range(1, 10))
    for B, value in ((mk.full_set(), 1), (CylinderUnion.empty(mk.alphabet), 0)):
        series = recurrence_series(RecurrenceSpec(mk, B, [(1, 0), (-2, 1)]), 9)
        assert series.values == tuple((N, Fraction(value)) for N in range(1, 10)) and series.mu_A == value


def test_markov_series_power_cap_is_checked_before_any_term():
    # D = 2^16, so A^t may reach t = 4096; at n = N = 5 the pair (1000, 0)
    # spreads a term over 5000 coordinates, refused before any power is
    # taken, although each term's cluster gap alone (1000 * n) would fit
    p = Fraction(12345, 2**16)
    chain = MarkovShift(((p, 1 - p), (1 - p, p)))
    with pytest.raises(ResourceCapError, match="matrix power 5000 would pass"):
        recurrence_series(RecurrenceSpec(chain, chain.cylinder({0: 0}), [(1000, 0)]), 5)
    assert max(chain._powers) <= 1


def test_periodic_series_preimages_stay_bounded(monkeypatch):
    # rows are evaluated at residues, so the per-shift memo holds O(q) shifts
    # however long the series
    shifts = []
    preimage = CyclicRotation.preimage
    monkeypatch.setattr(CyclicRotation, "preimage", lambda self, S, k: shifts.append(k) or preimage(self, S, k))
    z6 = CyclicRotation(6)
    recurrence_series(RecurrenceSpec(z6, z6.point_set([0, 1]), [(1, 0), (-1, 1)]), 3000)
    assert len(shifts) == len(set(shifts)) <= 4 * 6


def test_half_rotation_long_series_is_cheap():
    # period 2: the residue rows make Nmax = 20000 a few hundred terms
    for N, v in half_rotation_series(20000).values:
        assert v == (Fraction(1, 8) if N % 2 == 0 else 0)


# -- grid extraction -----------------------------------------------------------


def test_grid_extraction_even_grid():
    L, M = 100, 2
    grid = [
        [1 if ((n + 1) % 2 == 0 and (m + 1) % 2 == 0) else 0 for m in range(L)]
        for n in range(L)
    ]
    ex = extract_syndetic_from_grid(grid, 1, M)
    assert ex.max_gap_between <= 2 * M
    assert all(avg >= Fraction(1, (M + 1) ** 2) for avg in ex.row_averages)
    assert all(ex.Ns[i] < ex.Ns[i + 1] for i in range(len(ex.Ns) - 1))


def test_grid_extraction_all_ones():
    for M in (1, 2, 3):
        ex = extract_syndetic_from_grid([[1] * 40 for _ in range(40)], 1, M)
        assert ex.max_gap_between <= 2 * M
        assert all(avg >= Fraction(1, (M + 1) ** 2) for avg in ex.row_averages)


def test_grid_extraction_hypothesis_failure():
    with pytest.raises(ValueError, match="hypothesis fails"):
        extract_syndetic_from_grid([[0] * 20 for _ in range(20)], 1, 2)
    grid = [[1] * 20 for _ in range(20)]
    for n in range(4, 8):
        for m in range(10, 14):
            grid[n][m] = 0
    with pytest.raises(ValueError, match=r"\(n,m\)=\(5,11\)"):
        extract_syndetic_from_grid(grid, 1, 4)


def first_bad_square(grid, eps, M):
    """(n, m), 1-based, of the first M-square in column order with every
    entry < eps, or None."""
    L = len(grid)
    for m in range(L - M + 1):
        for n in range(L - M + 1):
            if all(grid[n + i][m + j] < eps for i in range(M) for j in range(M)):
                return n + 1, m + 1
    return None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_grid_extraction_reports_first_bad_square_in_column_order(data):
    M = data.draw(st.integers(1, 4))
    L = data.draw(st.integers(M, 24))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    grid = [[rng.choice([0, 1, 2, Fraction(1, 2)]) for _ in range(L)] for _ in range(L)]
    n0, m0 = data.draw(st.integers(0, L - M)), data.draw(st.integers(0, L - M))
    for n in range(n0, n0 + M):
        for m in range(m0, m0 + M):
            grid[n][m] = 0
    n, m = first_bad_square(grid, 1, M)
    with pytest.raises(ValueError, match=rf"hypothesis fails: the {M}x{M} square at \(n,m\)=\({n},{m}\) "):
        extract_syndetic_from_grid(grid, 1, M)


def fraction_grid_extraction(grid, eps, M):
    """Oracle: the strip construction summed in Fractions, column by column."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be > 0, not {eps}: every square holds an entry >= {eps}")
    if M < 1:
        raise ValueError("M must be >= 1")
    L = len(grid)
    if L == 0 or any(len(row) != L for row in grid):
        raise ValueError("grid must be square and nonempty")
    a = [[Fraction(v) for v in row] for row in grid]
    if any(v < 0 for row in a for v in row):
        raise ValueError("grid entries must be nonnegative")
    if L < M:
        raise ValueError("grid smaller than one M-square")
    sums = box_sums([int(a[n][m] >= eps) for m in range(L) for n in range(L)], (L, L), M)
    if 0 in sums:
        m, n = divmod(sums.index(0), L - M + 1)
        raise ValueError(f"hypothesis fails: the {M}x{M} square at (n,m)=({n+1},{m+1}) has every entry < {eps}")
    Ns, averages = [], []
    j = 1
    while (j + 1) * (M + 1) - 1 <= L:
        lo, hi = j * (M + 1), (j + 1) * (M + 1)
        depth = j * (M + 1)
        best_m, best_sum = None, None
        for m in range(lo, hi):
            s = sum((a[n - 1][m - 1] for n in range(1, depth + 1)), Fraction(0))
            if best_sum is None or s > best_sum:
                best_m, best_sum = m, s
        full = sum((a[n - 1][best_m - 1] for n in range(1, best_m + 1)), Fraction(0))
        Ns.append(best_m)
        averages.append(full / best_m)
        j += 1
    if not Ns:
        raise ValueError(f"grid of side {L} holds no full strip for M={M}")
    return tuple(Ns), tuple(averages)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grid_extraction_matches_fraction_oracle(data):
    # mixed denominators, a fractional eps, entries drawn from few values so
    # that columns tie, and grids that fail the hypothesis: the same members
    # and averages, or the same error message
    M = data.draw(st.integers(1, 4))
    L = data.draw(st.integers(1, 20))
    values = st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 4)])
    grid = data.draw(st.lists(st.lists(values, min_size=L, max_size=L), min_size=L, max_size=L))
    eps = data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)]))
    try:
        expected = fraction_grid_extraction(grid, eps, M)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            extract_syndetic_from_grid(grid, eps, M)
        assert str(got.value) == str(exc)
        return
    ex = extract_syndetic_from_grid(grid, eps, M)
    assert (ex.Ns, ex.row_averages, ex.eps) == (*expected, Fraction(eps))


def test_grid_extraction_takes_the_first_of_tied_columns():
    # every column sums alike, so each strip's first column is chosen
    ex = extract_syndetic_from_grid([[1] * 12 for _ in range(12)], Fraction(1, 2), 2)
    assert ex.Ns == (3, 6, 9) == fraction_grid_extraction([[1] * 12 for _ in range(12)], Fraction(1, 2), 2)[0]


def test_grid_extraction_validation():
    with pytest.raises(ValueError, match="square"):
        extract_syndetic_from_grid([[1, 1], [1]], 1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        extract_syndetic_from_grid([[1, -1], [1, 1]], 1, 1)
    with pytest.raises(ValueError, match="no full strip"):
        extract_syndetic_from_grid([[1] * 3 for _ in range(3)], 1, 2)


def test_grid_extraction_random_grids():
    rng = random.Random(99)
    for _ in range(25):
        M = rng.randint(2, 4)
        L = rng.randint(6 * (M + 1), 8 * (M + 1))
        ex = extract_syndetic_from_grid(random_hypothesis_grid(rng, L, M), 1, M)
        assert ex.max_gap_between <= 2 * M
        assert all(avg >= Fraction(1, (M + 1) ** 2) for avg in ex.row_averages)
