from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoarrays.intpoly import (
    IntPoly2,
    SmallValueCount,
    count_small_values,
    essentially_distinct,
    minimal_distinct_shift,
    shifted_distinctness_report,
)
from ergoarrays.util import ResourceCapError

n_sym, N_sym = sympy.symbols("n N")


def to_sympy(p: IntPoly2):
    expr = sympy.Integer(0)
    for (u, v), c in p.to_monomials().items():
        expr += sympy.Rational(c.numerator, c.denominator) * n_sym**u * N_sym**v
    return sympy.expand(expr)


# random integer-valued polynomials via random binomial-basis coefficients
coeff_maps = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=6,
)
polys = coeff_maps.map(IntPoly2.from_coeffs)


def test_eval_examples():
    assert IntPoly2.parse("n*(n-1)/2").eval(5, 0) == 10
    assert IntPoly2.zero().eval(123, -456) == 0
    assert IntPoly2.parse("3*n + 2*N").eval(4, 7) == 26


def test_parser_rejects_non_integer_valued():
    with pytest.raises(ValueError, match="not integer-valued"):
        IntPoly2.parse("n/2")
    with pytest.raises(ValueError, match="not integer-valued"):
        IntPoly2.parse("n**2/3")
    # integer-valued despite rational coefficients
    IntPoly2.parse("n*(n-1)*(n-2)/6")
    IntPoly2.parse("(n + N)*(n + N - 1)/2")


def test_parser_degree_cap():
    # products past the total-degree cap are refused before they are expanded
    for text in ("(n+N)**33", "(n+N)**500", "n**20 * N**13", "(n*N)**17"):
        with pytest.raises(ResourceCapError, match="total degree"):
            IntPoly2.parse(text)
    assert IntPoly2.parse("n**16 * N**16") == IntPoly2.from_monomials({(16, 16): 1})
    # constant factors carry no degree, and a constant's power is one step
    assert IntPoly2.parse("n*2**40") == IntPoly2.from_coeffs({(1, 0): 2**40})
    assert IntPoly2.parse("2**100000 - 1") == IntPoly2.const(2**100000 - 1)
    assert IntPoly2.parse("0**0 + 0**3*n + (-3)**3") == IntPoly2.const(-26)


def test_parser_rejects_junk():
    with pytest.raises(ValueError):
        IntPoly2.parse("x + 1")
    with pytest.raises(ValueError):
        IntPoly2.parse("n / N")
    with pytest.raises(ValueError):
        IntPoly2.parse("n ** N")
    with pytest.raises(ValueError):
        IntPoly2.parse("import os")


@given(coeff_maps)
def test_monomial_roundtrip(coeffs):
    p = IntPoly2.from_coeffs(coeffs)
    assert IntPoly2.from_monomials(p.to_monomials()) == p


@given(polys, st.integers(-30, 30), st.integers(-30, 30))
def test_eval_is_integer_and_matches_sympy(p, n, N):
    value = p.eval(n, N)
    assert isinstance(value, int)
    assert sympy.Integer(value) == to_sympy(p).subs({n_sym: n, N_sym: N})


def test_eval_integrality_bulk():
    # 1000 random polynomials at random integer points: no rational leakage
    import random

    rng = random.Random(404)
    for _ in range(1000):
        coeffs = {
            (rng.randint(0, 4), rng.randint(0, 3)): rng.randint(-9, 9)
            for _ in range(rng.randint(0, 6))
        }
        p = IntPoly2.from_coeffs(coeffs)
        v = p.eval(rng.randint(-100, 100), rng.randint(-100, 100))
        assert type(v) is int


@given(polys, st.integers(-10, 10), st.integers(-20, 20), st.integers(-20, 20))
def test_shift_n_matches_direct_eval(p, h, n, N):
    assert p.shift_n(h).eval(n, N) == p.eval(n + h, N)


@given(polys, polys, st.integers(1, 6), st.integers(-5, 5))
def test_constant_difference_by_terms(pa, pb, h, c):
    # q - p is constant iff their non-constant terms agree, and then it is
    # the difference of their constants
    for q in (pb, pa + IntPoly2.const(c), pa.shift_n(h), pb.shift_n(h)):
        diff = q - pa
        assert (q.varying_terms() == pa.varying_terms()) == diff.is_constant()
        if diff.is_constant():
            assert q.constant_value() - pa.constant_value() == diff.constant_value()
    family = [pa, pb, pa.shift_n(h), pb + IntPoly2.const(c)]
    by_subtraction = all(not (q - p).is_constant() for i, p in enumerate(family) for q in family[i + 1 :])
    assert essentially_distinct(family) == by_subtraction


def test_essentially_distinct_examples():
    n = IntPoly2.parse("n")
    assert essentially_distinct([n, IntPoly2.parse("2*n")]) is True
    assert essentially_distinct([IntPoly2.parse("n+N"), IntPoly2.parse("n+N+1")]) is False
    assert essentially_distinct([IntPoly2.parse("n+N"), IntPoly2.parse("n+2*N")]) is True
    with pytest.raises(ValueError):
        essentially_distinct([n])


def test_depends_on_n_examples():
    assert IntPoly2.parse("n*N").depends_on_n() is True
    assert IntPoly2.parse("N**2").depends_on_n() is False
    assert IntPoly2.parse("5").depends_on_n() is False


def test_shift_report_linear_exception():
    rep = shifted_distinctness_report([IntPoly2.parse("n + N")], 5)
    assert rep.expected == ((0, 5),)
    assert rep.violations == ()
    assert rep.ok


def test_shift_report_square_clean():
    rep = shifted_distinctness_report([IntPoly2.parse("n**2")], 3)
    assert rep.expected == ()
    assert rep.violations == ()
    # oracle: the difference (n+3)^2 - n^2 = 6n + 9 is nonconstant
    diff = sympy.expand((n_sym + 3) ** 2 - n_sym**2)
    assert sympy.degree(diff, n_sym) >= 1


def test_shift_report_nN_clean():
    rep = shifted_distinctness_report([IntPoly2.parse("n*N")], 2)
    assert rep.expected == () and rep.violations == ()
    diff = sympy.expand((n_sym + 2) * N_sym - n_sym * N_sym)
    assert diff == 2 * N_sym  # nonconstant in (n, N)


def test_shift_report_violation_and_minimal_shift():
    # P2(n) = P1(n+1), so h = 1 collides across the family
    fam = [IntPoly2.parse("n**2"), IntPoly2.parse("(n+1)**2")]
    rep = shifted_distinctness_report(fam, 1)
    assert not rep.ok and rep.violations
    assert minimal_distinct_shift(fam) == 2
    assert shifted_distinctness_report(fam, 2).ok


def test_shift_report_preconditions():
    with pytest.raises(ValueError):
        shifted_distinctness_report([IntPoly2.parse("N")], 1)  # no n-dependence
    with pytest.raises(ValueError):
        shifted_distinctness_report([IntPoly2.parse("n"), IntPoly2.parse("n+1")], 1)
    with pytest.raises(ValueError):
        shifted_distinctness_report([IntPoly2.parse("n")], 0)


def _scan_count(p: IntPoly2, K: int, N: int) -> SmallValueCount:
    """count_small_values by a scan over every n in [1, N], its oracle."""
    count = sum(1 for v in p.values_along_n(N, 1, N) if abs(v) <= K)
    # the k-th forward difference of P(0..deg_n, N) is the C(n, k) coefficient
    # at this N, which can vanish (n*C(N, 3) at N = 2)
    diffs, d = list(p.values_along_n(N, 0, p.deg_n + 1)), 0
    for k in range(1, len(diffs)):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        d = k if diffs[0] else d
    return SmallValueCount(count, (2 * K + 1) * d if d else None)


@st.composite
def small_value_cases(draw):
    """(P, K, N): random polynomials, or ones built from integer roots in
    [-20, N + 20], so turning points and zeros fall inside the window; a
    C(N, N + 1) term gives an n-degree that vanishes at this N."""
    N = draw(st.one_of(st.integers(1, 4), st.integers(1, 600)))
    if draw(st.booleans()):
        p = draw(polys)
    else:
        roots = draw(st.lists(st.integers(-20, N + 20), min_size=1, max_size=4))
        scale = draw(st.sampled_from([1, -1, 2, -3]))
        p = IntPoly2.parse(f"{scale}*" + "*".join(f"(n - ({r}))" for r in roots))
        p += IntPoly2.const(draw(st.integers(-3, 3)))
        if draw(st.booleans()):
            p += IntPoly2.from_coeffs({(len(roots) + 1, N + 1): draw(st.sampled_from([1, -2]))})
    top = max(abs(v) for v in p.values_along_n(N, 1, N))
    K = draw(st.sampled_from([0, 1, draw(st.integers(2, 30)), top + draw(st.integers(0, 3))]))
    return p, K, N


@settings(max_examples=400, deadline=None)
@given(small_value_cases())
def test_count_small_values_matches_scan(case):
    p, K, N = case
    assert count_small_values(p, K, N) == _scan_count(p, K, N)


def test_count_small_values_at_scale():
    # exact answers at N = 10^18, far past any scan
    N = 10**18
    assert count_small_values(IntPoly2.parse("(n - 10**17)**2"), 100, N) == SmallValueCount(21, 402)
    p = IntPoly2.parse("(n - 5)*(n - 10**9)*(n - 10**15)")
    assert count_small_values(p, 0, N) == SmallValueCount(3, 3)
    assert count_small_values(IntPoly2.parse("n*N - N**2"), 0, N) == SmallValueCount(1, 1)


def _oracle_count(p: IntPoly2, K: int, N: int) -> int:
    expr = to_sympy(p)
    return sum(1 for n in range(1, N + 1) if abs(expr.subs({n_sym: n, N_sym: N})) <= K)


def test_count_small_values_examples():
    res = count_small_values(IntPoly2.parse("n**2"), 4, 100)
    assert (res.count, res.bound) == (2, 18)
    assert res.count == _oracle_count(IntPoly2.parse("n**2"), 4, 100)

    res = count_small_values(IntPoly2.parse("N"), 4, 10)
    assert (res.count, res.bound) == (0, None)

    res = count_small_values(IntPoly2.parse("n"), 3, 10)
    assert (res.count, res.bound) == (3, 7)

    # n*C(N, 3) vanishes identically at N = 2 and is linear in n at N = 3
    p = IntPoly2.from_coeffs({(1, 3): 1})
    assert count_small_values(p, 0, 2) == SmallValueCount(2, None)
    assert count_small_values(p, 0, 3) == SmallValueCount(0, 1)


def test_count_small_values_validation():
    with pytest.raises(ValueError):
        count_small_values(IntPoly2.parse("n"), -1, 10)
    with pytest.raises(ValueError):
        count_small_values(IntPoly2.parse("n"), 1, 0)


@settings(max_examples=60, deadline=None)
@given(polys.filter(lambda p: p.depends_on_n()), st.integers(0, 20), st.integers(1, 2000))
def test_small_value_bound_property(p, K, N):
    res = count_small_values(p, K, N)
    d = sympy.degree(to_sympy(p).subs(N_sym, N), n_sym)  # degree of n -> P(n, N) at this N
    assert res.bound == ((2 * K + 1) * d if d > 0 else None)
    if d > 0:
        assert res.count <= res.bound


def test_small_value_ratio_vanishes():
    # fixed polynomial and K: the ratio M_K(N)/N sits below 1e-3 at N = 1e5
    p = IntPoly2.parse("n**2 - 50")
    K = 100
    big = count_small_values(p, K, 10**5)
    assert Fraction(big.count, 10**5) < Fraction(1, 1000)
    # and is non-increasing past the largest small-value root
    Ns = (20, 100, 1000, 10**12)
    counts = [count_small_values(p, K, N).count for N in Ns]
    assert counts == [12] * len(Ns)
    ratios = [Fraction(c, N) for c, N in zip(counts, Ns)]
    assert ratios == sorted(ratios, reverse=True)


@given(polys, polys)
def test_arithmetic_matches_sympy(p, q):
    assert to_sympy(p + q) == sympy.expand(to_sympy(p) + to_sympy(q))
    assert to_sympy(p - q) == sympy.expand(to_sympy(p) - to_sympy(q))
    assert to_sympy(-p) == sympy.expand(-to_sympy(p))


def test_linear_n_form():
    p, rest = IntPoly2.parse("3*n + N**2 - 4").linear_n_form()
    assert p == 3 and rest == IntPoly2.parse("N**2 - 4")
    assert IntPoly2.parse("n*N").linear_n_form() is None
    assert IntPoly2.parse("n**2").linear_n_form() is None
