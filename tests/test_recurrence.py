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
from ergoarrays.systems import (
    BernoulliShift,
    CircleRotation,
    CyclicLattice,
    CyclicRotation,
    GaussMap,
    build_lattice_action,
)

from conftest import periodic_systems


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
