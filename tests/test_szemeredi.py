import itertools
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoarrays import szemeredi
from ergoarrays.szemeredi import (
    DensityResult,
    IntegerSet,
    LatticeSet,
    PatternCount,
    PatternSpec,
    empirical_cylinder_measure,
    lattice_pattern_count,
    pattern_count,
    syndetic_pattern_report,
    upper_density,
)

SYM = PatternSpec.parse("(0,0),(1,0),(-1,1)")


def naive_pattern_count(members: set, lo: int, hi: int, pairs, N: int) -> int:
    """Straight nested-loop oracle over (n, a), no bit tricks."""
    count = 0
    for n in range(N + 1):
        offsets = [p * n + q * N for p, q in pairs]
        for a in range(lo - min(offsets), hi - max(offsets)):
            if all(a + o in members for o in offsets):
                count += 1
                break
    return count


def test_upper_density_examples():
    evens = IntegerSet.from_residue(0, 2, (0, 1000))
    assert upper_density(evens, [100]).density == Fraction(1, 2)
    mult3 = IntegerSet.from_residue(0, 3, (0, 300))
    assert upper_density(mult3, [300]).density == Fraction(1, 3)
    blocky = IntegerSet.from_members(
        list(range(100)) + list(range(100, 1000, 2)), (0, 1000)
    )
    res = upper_density(blocky, [100])
    assert res.density == 1 and res.window == (0, 100)


def test_pattern_count_parity():
    evens = IntegerSet.from_residue(0, 2, (0, 2000))
    assert pattern_count(evens, SYM, 7).count == 0
    res = pattern_count(evens, SYM, 8)
    assert res.count == 5  # even n in [0, 8]
    assert naive_pattern_count(set(evens.members()), 0, 2000, SYM.pairs, 8) == 5
    n0, a0 = res.witnesses[0]
    assert a0 % 2 == 0 and n0 % 2 == 0


def test_pattern_count_matches_naive_oracle():
    s = IntegerSet.from_random(0.55, 7, (0, 400))
    members = set(s.members())
    for N in (3, 9, 16, 25):
        assert (
            pattern_count(s, SYM, N).count
            == naive_pattern_count(members, 0, 400, SYM.pairs, N)
        )


def test_pattern_count_full_set():
    s = IntegerSet.from_members(range(0, 300), (0, 300))
    for N in (5, 9):
        assert pattern_count(s, SYM, N).count == N + 1


def test_pattern_count_empty_feasible_range():
    tiny = IntegerSet.from_members([0, 1], (0, 2))
    with pytest.raises(ValueError, match="no feasible a"):
        pattern_count(tiny, SYM, 50)


def test_pattern_count_reports_scanned_range():
    evens = IntegerSet.from_residue(0, 2, (0, 100))
    res = pattern_count(evens, SYM, 10)
    lo, hi = res.scanned_a
    assert lo == 0 and hi <= 100


def oracle_pattern_count(s, spec, N, max_witnesses=10):
    """The per-n shift-and-mask loop pattern_count ran before its scan moved
    into C-level maps: one window mask per n, bits shifted both ways."""
    if not spec.pairs:
        raise ValueError("pattern spec carries no (p, q) pairs")
    lo, hi, bits = s.lo, s.hi, s.bits
    width = hi - lo
    count = 0
    witnesses = []
    a_lo_seen, a_hi_seen = None, None
    any_feasible = False
    for n in range(N + 1):
        offsets = [p * n + q * N for p, q in spec.pairs]
        t_lo = max(0, -min(offsets))
        t_hi = width - max(0, max(offsets))
        if t_lo >= t_hi:
            continue
        any_feasible = True
        a_lo_seen = lo + t_lo if a_lo_seen is None else min(a_lo_seen, lo + t_lo)
        a_hi_seen = lo + t_hi if a_hi_seen is None else max(a_hi_seen, lo + t_hi)
        mask = (1 << t_hi) - (1 << t_lo)
        hits = bits
        for o in offsets:
            hits &= bits >> o if o >= 0 else bits << -o
            hits &= mask
            if not hits:
                break
        if hits:
            count += 1
            if len(witnesses) < max_witnesses:
                witnesses.append((n, lo + (hits & -hits).bit_length() - 1))
    if not any_feasible:
        raise ValueError(
            f"no feasible a for any n <= {N}: window [{lo}, {hi}) cannot hold "
            f"offsets spanning up to {max(abs(p) + abs(q) for p, q in spec.pairs) * N}"
        )
    return PatternCount(N, count, tuple(witnesses), (a_lo_seen, a_hi_seen))


def _outcome(counter, *args):
    try:
        return counter(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def pattern_cases(draw):
    """Windows 1-64 wide on either side of 0, dense, sparse, empty or full;
    up to 3 pairs past the anchor, whose offsets often leave the window."""
    width = draw(st.integers(1, 64))
    lo = draw(st.integers(-80, 40))
    bits = draw(st.integers(0, 2**width - 1) | st.sampled_from([0, 2**width - 1]))
    step = st.sampled_from([-3, -2, -1, 1, 2, 3])
    pairs = draw(st.lists(st.tuples(step, st.integers(-3, 3)), min_size=0, max_size=3))
    return IntegerSet(lo, lo + width, bits), PatternSpec(pairs=tuple(pairs))


@settings(max_examples=400, deadline=None)
@given(pattern_cases(), st.integers(0, 30), st.integers(-1, 12))
def test_pattern_count_matches_loop_oracle(case, N, max_witnesses):
    s, spec = case
    expected = _outcome(oracle_pattern_count, s, spec, N, max_witnesses)
    assert _outcome(pattern_count, s, spec, N, max_witnesses) == expected


def test_pattern_count_oracle_examples():
    # offsets leaving the window on the left (K > 0), and a window too narrow
    s = IntegerSet.from_members([-7, -5, -4, -2, 0, 1, 3], (-8, 4))
    spec = PatternSpec.parse("(0,0),(-2,1),(1,-2)")
    for N in range(12):
        assert pattern_count(s, spec, N, 3) == oracle_pattern_count(s, spec, N, 3)
    assert pattern_count(s, spec, 4, 3).witnesses == ((2, 1), (3, -2), (4, 0))
    assert pattern_count(s, spec, 11).scanned_a == (3, 4)  # one feasible n, one a
    assert pattern_count(s, spec, 4, -1).witnesses == ()
    with pytest.raises(ValueError) as got:
        pattern_count(s, spec, 12)
    with pytest.raises(ValueError) as want:
        oracle_pattern_count(s, spec, 12)
    assert str(got.value) == str(want.value) == (
        "no feasible a for any n <= 12: window [-8, 4) cannot hold offsets spanning up to 36"
    )


def test_translation_invariance():
    s = IntegerSet.from_random(0.5, 3, (20, 320))
    base = pattern_count(s, SYM, 12).count
    for t in range(-10, 11):
        shifted = s.translate(t)
        assert pattern_count(shifted, SYM, 12).count == base


def test_monotonicity_under_inclusion():
    small = IntegerSet.from_random(0.3, 5, (0, 500))
    extra = set(small.members()) | set(range(0, 500, 7))
    large = IntegerSet.from_members(extra, (0, 500))
    for N in (4, 11, 20):
        assert pattern_count(small, SYM, N).count <= pattern_count(large, SYM, N).count


def test_dilation_consistency():
    s = IntegerSet.from_random(0.5, 11, (0, 200))
    for k in (2, 3):
        dil = s.dilate(k)
        kspec = PatternSpec(pairs=tuple((k * p, k * q) for p, q in SYM.pairs))
        for N in (5, 8):
            assert pattern_count(s, SYM, N).count == pattern_count(dil, kspec, N).count


def test_repr_of_wide_set():
    # a 20000-bit mask has more digits than int-to-str conversion allows
    s = IntegerSet.from_residue(0, 3, (0, 20000))
    assert repr(s) == "IntegerSet(lo=0, hi=20000, members=6667)"


def test_pattern_spec_validation():
    with pytest.raises(ValueError, match="nonzero"):
        PatternSpec(pairs=((0, 0), (0, 3)))
    assert PatternSpec.parse("(1,0),(-1,1)").pairs[0] == (0, 0)
    for text in ("", "(0,0),(1,0", "((0,0),(1,0))"):  # empty, unclosed, doubled parentheses
        with pytest.raises(ValueError, match="pattern spec"):
            PatternSpec.parse(text)


def test_syndetic_pattern_report_evens():
    evens = IntegerSet.from_residue(0, 2, (0, 10**4))
    rep = syndetic_pattern_report(evens, SYM, 60, Fraction(1, 4))
    assert rep.members == tuple(range(2, 61, 2))
    assert rep.max_gap == 2
    assert rep.verdict == "syndetic-in-window"


def test_syndetic_pattern_report_rejects_zero_threshold():
    with pytest.raises(ValueError, match="eps must be > 0"):
        syndetic_pattern_report(IntegerSet.from_residue(0, 2, (0, 100)), SYM, 6, Fraction(0))


def test_syndetic_pattern_report_progressions():
    # multiples of 5 against the classical no-N pattern a, a+n, a+2n
    fives = IntegerSet.from_residue(0, 5, (0, 3000))
    spec = PatternSpec.parse("(0,0),(1,0),(2,0)")
    rep = syndetic_pattern_report(fives, spec, 50, Fraction(1, 10))
    assert rep.members == tuple(range(1, 51))
    assert rep.max_gap == 1


def test_syndetic_pattern_report_random_dense():
    dense = IntegerSet.from_random(0.9, 123, (0, 4000))
    rep = syndetic_pattern_report(dense, SYM, 40, "auto")
    assert rep.verdict == "syndetic-in-window" and rep.members


def test_lattice_pattern_parity():
    pts = [(x, y) for x in range(48) for y in range(48) if (x + y) % 2 == 0]
    ls = LatticeSet.from_members(pts, (0, 0), (48, 48))
    spec = PatternSpec(gamma=((1, 0), (-1, 0)), gamma_hat=((0, 0), (1, 0)))
    # a, a+(n,0), a+(N-n,0) must all have even coordinate sum
    for N in (3, 5, 7):
        assert lattice_pattern_count(ls, spec, N).count == 0
    for N in (4, 6, 8):
        assert lattice_pattern_count(ls, spec, N).count == N // 2 + 1


def test_lattice_full_box_and_validation():
    full = LatticeSet.from_members(
        [(x, y) for x in range(16) for y in range(16)], (0, 0), (16, 16)
    )
    spec = PatternSpec(gamma=((1, 0),), gamma_hat=((0, 1),))
    assert lattice_pattern_count(full, spec, 5).count == 6
    with pytest.raises(ValueError, match="distinct"):
        PatternSpec(gamma=((1, 0), (1, 0)), gamma_hat=((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="nonzero"):
        PatternSpec(gamma=((0, 0),), gamma_hat=((0, 1),))


@pytest.mark.parametrize("bad", [(-1, 3), (2, 5), (7, 0), (0, -4), (3,), (1, 2, 0), ()])
def test_lattice_set_rejects_members_off_the_box(bad):
    # the box is [0, 7) x [-3, 5); the bad member hides among valid ones,
    # and every valid column reaches both ends of the box
    good = [(x, y) for x in range(7) for y in range(-3, 5) if (x + y) % 3]
    assert LatticeSet.from_members(good, (0, -3), (7, 5)).members == frozenset(good)
    with pytest.raises(ValueError, match=rf"member {re.escape(str(bad))} outside the box"):
        LatticeSet.from_members(good + [bad], (0, -3), (7, 5))


def test_empirical_cylinder_measures():
    evens = IntegerSet.from_residue(0, 2, (0, 1000))
    freqs = empirical_cylinder_measure(evens, None, [{0: 1}, {0: 1, 1: 1}, {0: 1, 2: 1}])
    assert freqs[((0, 1),)] == Fraction(1, 2)
    assert freqs[((0, 1), (1, 1))] == 0  # no two adjacent evens
    assert freqs[((0, 1), (2, 1))] == Fraction(499, 998)


def test_empirical_matches_density_exactly():
    s = IntegerSet.from_random(0.5, 42, (0, 512))
    freqs = empirical_cylinder_measure(s, None, [{0: 1}])
    assert freqs[((0, 1),)] == upper_density(s, [512]).density


def test_empirical_bernoulli_sample_frequency():
    s = IntegerSet.from_random(0.5, 2718, (0, 20000))
    freqs = empirical_cylinder_measure(s, None, [{0: 1, 2: 1}])
    # ~Binomial(n, 1/4): three standard errors around 1/4
    se = (0.25 * 0.75 / 19998) ** 0.5
    assert abs(float(freqs[((0, 1), (2, 1))]) - 0.25) < 3 * se


def test_empirical_span_validation():
    s = IntegerSet.from_residue(0, 2, (0, 100))
    with pytest.raises(ValueError, match="span"):
        empirical_cylinder_measure(s, None, [{0: 1, 70: 1}])
    with pytest.raises(ValueError, match="bits"):
        empirical_cylinder_measure(s, None, [{0: 2}])


def test_integer_set_constructors():
    s = IntegerSet.from_text("3\n5\n9\n")
    assert list(s.members()) == [3, 5, 9]
    assert s.window == (3, 10)
    with pytest.raises(ValueError, match="outside window"):
        IntegerSet.from_members([5], (0, 4))
    r = IntegerSet.from_residue(2, 5, (10, 40))
    assert all(m % 5 == 2 for m in r.members())
    assert len(IntegerSet.from_random(0.0, 1, (0, 50))) == 0


# -- the quadratic IntegerSet code the linear one replaced, kept as oracles --


def oracle_from_members(members, window) -> int:
    lo, hi = window
    bits = 0
    for m in members:
        if not lo <= m < hi:
            raise ValueError(f"member {m} outside window [{lo}, {hi})")
        bits |= 1 << (m - lo)
    return bits


def oracle_from_residue(r, mod, window) -> int:
    lo, hi = window
    bits = 0
    start = lo + ((r - lo) % mod)
    for m in range(start, hi, mod):
        bits |= 1 << (m - lo)
    return bits


def oracle_from_random(density, seed, window) -> int:
    rng = random.Random(seed)
    lo, hi = window
    bits = 0
    for t in range(hi - lo):
        if rng.random() < density:
            bits |= 1 << t
    return bits


def oracle_members(bits, base) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(base + low.bit_length() - 1)
        bits ^= low
    return out


def oracle_prefix_counts(bits, width) -> list[int]:
    counts = [0]
    for t in range(width):
        counts.append(counts[-1] + ((bits >> t) & 1))
    return counts


def oracle_upper_density(s, window_sizes) -> DensityResult:
    counts = oracle_prefix_counts(s.bits, s.hi - s.lo)
    best = None
    for w in window_sizes:
        for a in range(s.hi - s.lo - w + 1):
            d = Fraction(counts[a + w] - counts[a], w)
            if best is None or d > best[0]:
                best = (d, (s.lo + a, s.lo + a + w), w)
    return DensityResult(*best)


@st.composite
def built_sets(draw):
    """A set from one of the three constructors, with the oracle's bits for it.

    Windows are up to 2000 wide with lo on either side of 0; member lists
    repeat members; moduli run past the window, so the first residue can
    fall outside it; densities include 0 and 1."""
    lo = draw(st.integers(-3000, 3000))
    window = (lo, lo + draw(st.integers(1, 2000)))
    width = window[1] - lo
    kind = draw(st.sampled_from(["members", "residue", "random"]))
    if kind == "members":
        rng = random.Random(draw(st.integers(0, 2**32)))
        members = rng.choices(range(*window), k=draw(st.integers(0, 2 * width)))
        return IntegerSet.from_members(members, window), oracle_from_members(members, window)
    if kind == "residue":
        mod = draw(st.integers(1, 12) | st.integers(1, 2 * width + 5))
        r = draw(st.integers(lo - 3 * mod, window[1] + 3 * mod))
        return IntegerSet.from_residue(r, mod, window), oracle_from_residue(r, mod, window)
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    seed = draw(st.integers(0, 2**32))
    return IntegerSet.from_random(density, seed, window), oracle_from_random(density, seed, window)


@settings(max_examples=300, deadline=None)
@given(built_sets())
def test_integer_sets_match_quadratic_oracles(built):
    s, bits = built
    assert s.bits == bits
    assert list(s.members()) == oracle_members(bits, s.lo)
    assert s.prefix_counts() == oracle_prefix_counts(bits, s.hi - s.lo)
    assert IntegerSet.from_members(s.members(), s.window) == s


@settings(max_examples=200, deadline=None)
@given(built_sets(), st.data())
def test_upper_density_matches_quadratic_oracle(built, data):
    s, _ = built
    width = s.hi - s.lo
    # small widths tie often, across positions and across widths
    size = st.integers(1, min(width, 6)) | st.integers(1, width)
    sizes = data.draw(st.lists(size, min_size=1, max_size=4))
    assert upper_density(s, sizes) == oracle_upper_density(s, sizes)


def test_upper_density_ties_keep_first_position_and_first_width():
    s = IntegerSet.from_members([5, 6, 20, 21], (0, 30))
    res = upper_density(s, [2, 1])
    assert res == DensityResult(Fraction(1), (5, 7), 2)
    third = IntegerSet.from_residue(1, 3, (-10, 290))
    assert upper_density(third, [6, 3, 30]) == DensityResult(Fraction(1, 3), (-10, -4), 6)


def test_wide_window_round_trip():
    s = IntegerSet.from_random(0.5, 7, (-17, 10**6 - 17))
    assert IntegerSet.from_members(s.members(), s.window).bits == s.bits
    assert s.prefix_counts()[-1] == len(s)



# -- lattice densities against the corner-by-member scan they replaced --


def oracle_lattice_upper_density(s: LatticeSet, window_sizes) -> DensityResult:
    """Every corner of the box against every member, first best kept."""
    best = None
    for w in window_sizes:
        ranges = [range(a, b - w + 1) for a, b in zip(s.lo, s.hi)]
        for corner in itertools.product(*ranges):
            cnt = sum(1 for p in s.members if all(c <= x < c + w for x, c in zip(p, corner)))
            d = Fraction(cnt, w ** s.d)
            if best is None or d > best[0]:
                best = (d, (tuple(corner), tuple(c + w for c in corner)), w)
    return DensityResult(*best)


@st.composite
def lattice_sets(draw):
    """Boxes up to 24 wide in 1-d and 2-d and 8 wide in 3-d, lo on either
    side of 0; sparse, dense, periodic (ties across corners) or full."""
    d = draw(st.integers(1, 3))
    side = 24 if d < 3 else 8
    lo = tuple(draw(st.integers(-30, 30)) for _ in range(d))
    hi = tuple(a + draw(st.integers(1, side)) for a in lo)
    box = list(itertools.product(*map(range, lo, hi)))
    kind = draw(st.sampled_from(["random", "periodic", "full"]))
    if kind == "full":
        return LatticeSet.from_members(box, lo, hi)
    if kind == "periodic":
        mod = draw(st.integers(2, 4))
        return LatticeSet.from_members([p for p in box if sum(p) % mod == 0], lo, hi)
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    return LatticeSet.from_members([p for p in box if rng.random() < density], lo, hi)


@settings(max_examples=120, deadline=None)
@given(lattice_sets(), st.data())
def test_lattice_upper_density_matches_corner_scan(s, data):
    m = min(b - a for a, b in zip(s.lo, s.hi))
    # small widths tie often, across corners and across widths
    size = st.integers(1, min(m, 3)) | st.integers(1, m)
    sizes = data.draw(st.lists(size, min_size=1, max_size=3))
    assert upper_density(s, sizes) == oracle_lattice_upper_density(s, sizes)


def test_lattice_upper_density_ties_keep_first_corner_and_first_width():
    checker = LatticeSet.from_members(
        [(x, y) for x in range(-3, 5) for y in range(-2, 6) if (x + y) % 2 == 0], (-3, -2), (5, 6)
    )
    assert upper_density(checker, [2, 4]) == DensityResult(Fraction(1, 2), ((-3, -2), (-1, 0)), 2)
    assert upper_density(checker, [4, 2]) == DensityResult(Fraction(1, 2), ((-3, -2), (1, 2)), 4)
    assert upper_density(checker, [2, 1]) == DensityResult(Fraction(1), ((-3, -1), (-2, 0)), 1)


def test_upper_density_rejects_bad_window_sizes():
    flat = LatticeSet.from_members([(0, 0), (1, 1)], (0, 0), (4, 4))
    line = IntegerSet.from_members([1, 2], (0, 10))
    inverted = LatticeSet.from_members([], (0, 5), (4, 2))
    for s, too_wide in ((flat, 5), (line, 11), (inverted, 1)):
        for sizes in ([0], [-1], [2, 0], [too_wide], []):
            with pytest.raises(ValueError, match="window size|no window sizes"):
                upper_density(s, sizes)


# -- lattice pattern counts against the per-n member loop they replaced --


def oracle_lattice_pattern_count(s: LatticeSet, spec: PatternSpec, N: int, max_witnesses: int = 10) -> PatternCount:
    """For each n, the members in frozenset order until one has every
    a + n z_j + N zhat_j in the set."""
    if not spec.gamma:
        raise ValueError("pattern spec carries no lattice vectors")
    count = 0
    witnesses = []
    for n in range(N + 1):
        offs = [
            tuple(n * z + N * zh for z, zh in zip(zv, hv))
            for zv, hv in zip(spec.gamma, spec.gamma_hat)
        ]
        found = None
        for a in s.members:
            if all(tuple(x + o for x, o in zip(a, off)) in s.members for off in offs):
                found = a
                break
        if found is not None:
            count += 1
            if len(witnesses) < max_witnesses:
                witnesses.append((n, found))
    return PatternCount(N, count, tuple(witnesses), (None, None))


@st.composite
def lattice_specs(draw, d: int):
    """1-3 distinct nonzero vectors z_j with coordinates in -3..3, and zhat_j
    in -1..1 or -3..3, so that N zhat_j leaves the box for some draws and
    stays inside for others."""
    z = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    zhat = st.tuples(*[st.integers(-1, 1)] * d) | st.tuples(*[st.integers(-3, 3)] * d)
    gamma = draw(st.lists(z, min_size=1, max_size=3, unique=True))
    gamma_hat = draw(st.lists(zhat, min_size=len(gamma), max_size=len(gamma)))
    return PatternSpec(gamma=tuple(gamma), gamma_hat=tuple(gamma_hat))


@settings(max_examples=250, deadline=None)
@given(lattice_sets(), st.data(), st.integers(0, 12), st.sampled_from([0, 1, 10]), st.sampled_from([0, 10**9]))
def test_lattice_pattern_count_matches_member_loop_oracle(s, data, N, max_witnesses, mask_bits):
    # mask_bits 0 sends every set to the per-n member loop, 10^9 to the mask
    spec = data.draw(lattice_specs(s.d))
    with mock.patch.object(szemeredi, "_MASK_BITS_PER_MEMBER", mask_bits):
        got = lattice_pattern_count(s, spec, N, max_witnesses)
    want = oracle_lattice_pattern_count(s, spec, N, max_witnesses)
    assert (got.N, got.count, got.witnesses) == (want.N, want.count, want.witnesses)


def test_lattice_witnesses_follow_member_order():
    # one hit among many members, many hits, and 16 hits, none among the
    # first 16 members in frozenset order
    box = [(x, y) for x in range(-5, 11) for y in range(-3, 13)]
    full = LatticeSet.from_members(box, (-5, -3), (11, 13))
    sparse = LatticeSet.from_members(random.Random(7).sample(box, 40), (-5, -3), (11, 13))
    specs = [
        PatternSpec(gamma=((1, 0), (0, 1)), gamma_hat=((0, 0), (1, -1))),
        PatternSpec(gamma=((15, 0), (0, 15)), gamma_hat=((0, 0), (0, 0))),
        PatternSpec(gamma=((0, -15),), gamma_hat=((0, 0),)),
    ]
    for s in (full, sparse):
        for spec in specs:
            for N in range(16):
                assert lattice_pattern_count(s, spec, N, 10) == oracle_lattice_pattern_count(s, spec, N, 10)
    # only a = (-5, -3) keeps a + (15, 0) and a + (0, 15) in the box
    assert lattice_pattern_count(full, specs[1], 1).witnesses[1] == (1, (-5, -3))
    # the anchors a with a + (0, -15) in the box are the row y = 12
    assert all(y != 12 for _, y in list(full.members)[:16])
    assert lattice_pattern_count(full, specs[2], 1).witnesses[1][1] == next(a for a in full.members if a[1] == 12)


def test_lattice_pattern_count_infeasible_and_mismatched():
    s = LatticeSet.from_members([(0, 0), (1, 1)], (0, 0), (4, 4))
    far = PatternSpec(gamma=((1, 0),), gamma_hat=((2, 0),))
    assert lattice_pattern_count(s, far, 2) == PatternCount(2, 0, (), (None, None))  # every offset leaves the box
    with pytest.raises(ValueError, match="2 coordinates"):
        lattice_pattern_count(s, PatternSpec(gamma=((1, 0, 0),), gamma_hat=((0, 0, 0),)), 2)
    with pytest.raises(ValueError, match="no lattice vectors"):
        lattice_pattern_count(s, SYM, 2)


def test_few_members_in_a_huge_box_skip_the_mask():
    # a mask of 2·10^10 bits (4·10^9 in 3-d) would not fit; the member loop
    # answers at once and builds no layout
    far = LatticeSet.from_members([(0, 0), (1, 0), (2, 0), (99_999, 99_999)], (0, 0), (10**5, 10**5))
    cube = LatticeSet.from_members(
        [(x, x, 7) for x in range(0, 1000, 2)] + [(x, 999 - x, 3) for x in range(500)], (0, 0, 0), (1000, 1000, 1000)
    )
    specs = [
        PatternSpec(gamma=((1, 0),), gamma_hat=((0, 0),)),
        PatternSpec(gamma=((1, 0), (2, 0)), gamma_hat=((0, 0), (0, 0))),
        PatternSpec(gamma=((1, 1, 0), (2, 2, 0)), gamma_hat=((0, 0, 0), (0, 0, 0))),
        PatternSpec(gamma=((1, -1, 0),), gamma_hat=((1, 0, 0),)),
    ]
    for s, spec in ((far, specs[0]), (far, specs[1]), (cube, specs[2]), (cube, specs[3])):
        for N in range(7):
            assert lattice_pattern_count(s, spec, N) == oracle_lattice_pattern_count(s, spec, N)
        assert "_layout" not in vars(s)
    assert lattice_pattern_count(far, specs[1], 2).count == 2  # n = 0 and n = 1
