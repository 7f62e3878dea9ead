"""Nonconventional array averages A_N = (1/N) sum_n prod_j T^{P_j(n,N)} f_j.

The exact path expands the squared L^2 distance of A_N to a scalar target
into the mean of the terms x_n and the sum of their pairwise inner products
<x_n, x_m>; every inner product is a finite combination of measures of
intersections of translated algebra sets, so the result is an exact
rational.  Single-transformation arrays and commuting families share one
distance routine that takes, per term, its row of shifts.

The inner-product kernel works in integers: plain indicators (coefficient
1, no constant) are intersected into one set, and affine factors carry
integer numerators over their common denominator, with equal intersections
merged, so each distinct intersection costs one measure and the product one
division at the end.

With one factor (ell = 1, or a commuting family with one generator pair)
every pair term is a correlation C_f(d) = <T^d f, f> of the difference of
two shifts, so the pair sum is sum_d w_d C_f(d):

* weights: shifts linear in n give d = k*step the weight 2(N - k); other
  shifts are swept directly where the system allows it (below), or grouped
  into residue classes whose pairs weigh their differences; differences
  reduce mod the system's period q when it has one (T^q = id), and
  C_f(d) = C_f(-d);
* rotations: C_f(d) is a sum of k^2 piecewise-linear arc overlaps for k
  arcs, in integers over one common denominator; non-linear exponents
  integrate the square of the step function sum_n x_n by sorting its 2kN
  arc ends, O(kN log kN);
* independent coordinates (Bernoulli shifts and lattices): C_f(d) =
  (integral f)^2 once |d| exceeds the support diameter of f (per axis on
  lattices); non-linear exponents sort the shifts and visit only the
  neighbours within that diameter;
* other systems (Markov shifts, finite point systems): ``_Engine.inner``
  memoized by difference.

With more factors terms are grouped into classes by their row of shifts,
each shift reduced mod q, with multiplicities h_r (aperiodic rows key
themselves), and one of two paths runs:

* counted: when every observable is a plain single cylinder on an i.i.d.
  product system, classes are grouped by their count of fixed coordinates
  per symbol, pairs with disjoint supports are counted in integers, and
  only the pairs of classes that share a coordinate are visited, at a cost
  of O(N*ell + overlapping class pairs + distinct signatures^2);
* generic: every pair of classes goes through the inner-product engine,
  weighted h_r*h_r', so O(N*ell + classes^2) set operations, with at most
  q^ell classes (q^(ell*d) for d-vector shifts) at period q; on systems
  with independent coordinates, factors whose supports do not meet split
  off as separate groups, and a centered group of one factor kills the
  whole term.

Wherever pairs of classes are visited they are capped at max_quadratic_n.
The van der Corput tables take C_f(s_{n+h} - s_n) for one factor and group
the pairs (class(n), class(n+h)) otherwise.

A seeded Monte Carlo estimator covers the sampled tier and doubles as a
cross-check of the exact path.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Sequence

from .intpoly import IntPoly2
from .sets import ArcUnion, CylinderUnion
from .systems import CircleRotation, GaussMap, LatticeAction, SampledSystem
from .util import ResourceCapError


@dataclass(frozen=True)
class Observable:
    """Affine combination of set indicators: constant + sum coeff * 1_S."""

    constant: Fraction
    terms: tuple[tuple[Fraction, object], ...]

    @classmethod
    def indicator(cls, S) -> "Observable":
        return cls(Fraction(0), ((Fraction(1), S),))

    @classmethod
    def const(cls, c) -> "Observable":
        return cls(Fraction(c), ())

    def shifted_by(self, mean: Fraction) -> "Observable":
        return Observable(self.constant - mean, self.terms)

    def integral(self, measure_fn) -> Fraction:
        total = self.constant
        for coeff, S in self.terms:
            total += coeff * measure_fn(S)
        return total

    def sup_bound(self) -> Fraction:
        """Upper bound for the sup norm (triangle inequality)."""
        return abs(self.constant) + sum((abs(c) for c, _ in self.terms), Fraction(0))

    def eval_at(self, point, member_fn) -> Fraction:
        total = self.constant
        for coeff, S in self.terms:
            if member_fn(point, S):
                total += coeff
        return total


@dataclass(frozen=True)
class ArraySpec:
    """System, observables f_j and exponent polynomials P_j(n, N)."""

    system: object
    observables: tuple[Observable, ...]
    exponents: tuple[IntPoly2, ...]

    @classmethod
    def create(
        cls,
        system,
        observables: Sequence[Observable],
        exponents: Sequence[IntPoly2 | str],
        center: bool = False,
        assert_distinct_linear: bool = False,
    ) -> "ArraySpec":
        exps = tuple(
            p if isinstance(p, IntPoly2) else IntPoly2.parse(p) for p in exponents
        )
        obs = tuple(observables)
        if len(obs) != len(exps) or not obs:
            raise ValueError("need one exponent per observable, at least one of each")
        if center:
            obs = tuple(f.shifted_by(f.integral(_invariant_measure(system))) for f in obs)
        if assert_distinct_linear:
            ps = []
            for p in exps:
                lin = p.linear_n_form()
                if lin is not None:
                    ps.append(lin[0])
            if len(ps) != len(set(ps)):
                raise ValueError(
                    "linear n-coefficients p_j must be pairwise distinct for the "
                    "product-of-integrals limit claim"
                )
        return cls(system, obs, exps)

    @property
    def ell(self) -> int:
        return len(self.observables)

    def product_of_integrals(self) -> Fraction:
        return _product_of_integrals(self.system, self.observables)


@dataclass(frozen=True)
class CommutingArraySpec:
    """Observables driven by commuting pairs T_j^n That_j^N of a lattice action."""

    action: LatticeAction
    observables: tuple[Observable, ...]

    def __post_init__(self):
        if len(self.observables) != self.action.ell:
            raise ValueError("need one observable per generator pair")

    def product_of_integrals(self) -> Fraction:
        return _product_of_integrals(self.action.system, self.observables)


def _product_of_integrals(system, observables) -> Fraction:
    m = _invariant_measure(system)
    prod = Fraction(1)
    for f in observables:
        prod *= f.integral(m)
    return prod


# ---------------------------------------------------------------------------
# exact engine


class _Engine:
    """Caches translated sets, measures and integrals for one computation."""

    def __init__(self, system, vector_shifts: bool = False):
        self.system = system
        self.vector = vector_shifts
        self._shift_cache: dict = {}
        self._measure_cache: dict = {}
        self.independent = getattr(system, "independent_coords", False)

    def shifted(self, S, shift):
        key = (S, shift)
        out = self._shift_cache.get(key)
        if out is None:
            if self.vector:
                out = self.system.translate_preimage(S, shift)
            else:
                out = self.system.preimage(S, shift)
            self._shift_cache[key] = out
        return out

    def measure(self, S) -> Fraction:
        out = self._measure_cache.get(S)
        if out is None:
            out = self.system.measure(S)
            self._measure_cache[S] = out
        return out

    def factor(self, obs: Observable, shift):
        """(den, constant numerator, ((numerator, shifted set), ...),
        support-or-None): the observable over the common denominator of its
        coefficients, zero terms dropped."""
        const = obs.constant
        den = math.lcm(const.denominator, *(c.denominator for c, _ in obs.terms))
        terms = tuple((c.numerator * (den // c.denominator), self.shifted(S, shift)) for c, S in obs.terms if c)
        support = None
        if self.independent and all(isinstance(S, CylinderUnion) for _, S in terms):
            support = frozenset(c for _, S in terms for c in S.coords)
        return (den, const.numerator * (den // const.denominator), terms, support)

    def inner(self, factors) -> Fraction:
        """Exact integral of the product of the given factors."""
        if self.independent and all(f[3] is not None for f in factors):
            total = Fraction(1)
            for g in _group_by_overlap(factors):
                val = self._expand(g)
                if not val:
                    return val
                total *= val
            return total
        return self._expand(factors)

    def _expand(self, factors) -> Fraction:
        """Plain indicators (coefficient 1, no constant) are intersected into
        one set first.  Each affine factor then maps every (set, integer
        weight) pair to its constant and to each of its terms, and equal
        intersections are merged; the total takes one measure per distinct
        set and one division by the product of the factor denominators."""
        inter = None
        affine = []
        for f in factors:
            den, cnum, terms, _ = f
            if cnum or den != 1 or len(terms) != 1 or terms[0][0] != 1:
                affine.append(f)
                continue
            S = terms[0][1]
            inter = S if inter is None else inter.intersect(S)
            if inter.is_empty():
                return _ZERO
        if not affine:
            return self.measure(inter)
        weights = {inter: 1}
        scale = 1
        for den, cnum, terms, _ in affine:
            scale *= den
            nxt: dict = {}
            for S0, w in weights.items():
                if cnum:
                    nxt[S0] = nxt.get(S0, 0) + w * cnum
                for num, S in terms:
                    S1 = S if S0 is None else S0.intersect(S)
                    if not S1.is_empty():
                        nxt[S1] = nxt.get(S1, 0) + w * num
            weights = nxt
        total = sum((w if S is None else w * self.measure(S) for S, w in weights.items() if w), _ZERO)
        return total / scale


_ZERO = Fraction(0)


def _group_by_overlap(factors):
    """Partition factors into groups with pairwise-disjoint supports."""
    n = len(factors)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if factors[i][3] & factors[j][3]:
                parent[find(i)] = find(j)
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(factors[i])
    return [groups[k] for k in sorted(groups)]


# ---------------------------------------------------------------------------
# one-factor correlations C_f(d) = <T^d f, f>


class _Correlation:
    """C_f(d) for one observable through ``_Engine.inner``, memoized by
    difference: the correlation of systems with no closed form (Markov
    shifts, finite point systems).  ``key`` folds a difference to one
    representative of {d, -d} mod the period, since C_f(d) = C_f(-d) by
    invariance; ``total`` is sum_d w_d C_f(d) over a map of keys to weights,
    and ``sweep`` the pair sum over a list of shifts, or None when only
    pairs of classes give it."""

    def __init__(self, eng: _Engine, f: Observable, zero):
        self.eng = eng
        self.f = f
        self.base = eng.factor(f, zero)
        self.mean = eng.inner([self.base])
        self._memo: dict = {}
        q = eng.system.period
        if eng.vector:
            neg = lambda d: tuple(-x for x in d)
            self.key = (lambda d: min(tuple(x % q for x in d), tuple(x % q for x in neg(d)))) if q else (lambda d: max(d, neg(d)))
        else:
            self.key = (lambda d: min(d % q, -d % q)) if q else abs

    def value(self, d):
        out = self._memo.get(d)
        if out is None:
            out = self._memo[d] = self._uncached(d)
        return out

    def _uncached(self, d):
        return self.eng.inner([self.eng.factor(self.f, d), self.base])

    def total(self, weights) -> Fraction:
        return sum((w * self.value(d) for d, w in weights.items()), _ZERO)

    def sweep(self, shifts) -> Fraction | None:
        return None


class _RotationCorrelation(_Correlation):
    """Closed form on a rational rotation by alpha.  Over the common
    denominator Q of alpha and of every arc endpoint, f = (c + sum_a w_a
    1_{J_a}) / den with integer weights and J_a = [s_a, s_a + L_a) in units
    of 1/Q.  T^{-d} J_a starts delta = s_a - s_b - d*alpha*Q (mod Q) past
    the start of J_b, where it overlaps J_b in min(L_b, delta + L_a) - delta
    when that is positive, plus min(L_b, delta + L_a - Q) when it wraps
    through 0 and that is positive; so den^2 * Q * C_f(d) is an integer, a
    sum of k^2 overlaps for k arcs."""

    def __init__(self, eng: _Engine, f: Observable, zero):
        super().__init__(eng, f, zero)
        den, cnum, terms, _ = self.base
        alpha = eng.system.angle
        Q = math.lcm(alpha.denominator, *(x.denominator for _, S in terms for arc in S.arcs for x in arc))
        scaled = lambda x: x.numerator * (Q // x.denominator)
        self.arcs = [(w, scaled(a), scaled(b) - scaled(a)) for w, S in terms for a, b in S.arcs]
        self.pairs = [(wa * wb, sa - sb, la, lb) for wa, sa, la in self.arcs for wb, sb, lb in self.arcs]
        self.Q, self.step, self.scale = Q, scaled(alpha), den * den * Q
        self.cnum = cnum
        self.const = cnum * cnum * Q + 2 * cnum * sum(w * length for w, _, length in self.arcs)

    def _uncached(self, d) -> int:
        Q = self.Q
        x = d * self.step
        total = self.const
        for w, offset, la, lb in self.pairs:
            delta = (offset - x) % Q
            overlap = min(lb, delta + la) - delta
            if overlap > 0:
                total += w * overlap
            wrap = delta + la - Q
            if wrap > 0:
                total += w * min(lb, wrap)
        return total

    def total(self, weights) -> Fraction:
        # the closed form costs less than a memo lookup
        return Fraction(sum(w * self._uncached(d) for d, w in weights.items()), self.scale)

    def sweep(self, shifts) -> Fraction:
        """sum_{t,u} <x_t, x_u> = integral of V^2 for the step function
        V = sum_t x_t: sort the 2k*T arc ends of the shifted arcs and sweep,
        in integers (V in units of 1/den, lengths in units of 1/Q)."""
        Q = self.Q
        start = len(shifts) * self.cnum  # V on [0, first event)
        events = defaultdict(int)
        for s in shifts:
            p = s * self.step
            for w, a, length in self.arcs:
                lo = (a - p) % Q
                hi = lo + length
                events[lo] += w
                if hi > Q:  # wraps through 0
                    start += w
                    hi -= Q
                events[hi] -= w
        total = prev = 0
        v = start
        for pos in sorted(events):
            total += v * v * (pos - prev)
            v += events[pos]
            prev = pos
        total += v * v * (Q - prev)
        return Fraction(total, self.scale)


class _IndependentCorrelation(_Correlation):
    """On independent coordinates T^d f and f are independent once d moves
    the support of f off itself, so C_f(d) = (integral f)^2 when |d|
    exceeds the support diameter.  On a lattice the diameters are per axis:
    a vector shift needs one axis past its diameter, and the diagonal shift
    of a scalar d moves every axis, so it needs |d| past the smallest."""

    def __init__(self, eng: _Engine, f: Observable, zero):
        super().__init__(eng, f, zero)
        points = [c if isinstance(c, tuple) else (c,) for c in self.base[3]]
        reach = [max(axis) - min(axis) for axis in zip(*points)] if points else None
        self.reach = reach if reach is None or eng.vector else min(reach)
        self.square = self.mean * self.mean

    def far(self, d) -> bool:
        if self.reach is None:
            return True
        if self.eng.vector:
            return any(abs(x) > r for x, r in zip(d, self.reach))
        return abs(d) > self.reach

    def total(self, weights) -> Fraction:
        far, near = 0, {}
        for d, w in weights.items():
            if self.far(d):
                far += w
            else:
                near[d] = w
        return far * self.square + super().total(near)

    def sweep(self, shifts) -> Fraction | None:
        """Neighbour scan: sort the distinct shift values and weigh only the
        pairs within the diameter; every other ordered pair is far."""
        if self.eng.vector:
            return None
        reach = -1 if self.reach is None else self.reach
        values = sorted(Counter(shifts).items())
        near = defaultdict(int)
        for i, (v, h) in enumerate(values):
            near[0] += h * h
            j = i + 1
            while j < len(values) and values[j][0] - v <= reach:
                u, g = values[j]
                near[u - v] += 2 * h * g
                j += 1
        far = len(shifts) ** 2 - sum(near.values())
        return far * self.square + self.total(near)


def _correlation(eng: _Engine, f: Observable, zero) -> _Correlation:
    """The correlation of f for the engine's system type."""
    if isinstance(eng.system, CircleRotation) and not eng.vector:
        return _RotationCorrelation(eng, f, zero)
    if eng.independent and all(isinstance(S, CylinderUnion) for _, S in f.terms):
        return _IndependentCorrelation(eng, f, zero)
    return _Correlation(eng, f, zero)


# ---------------------------------------------------------------------------
# pair sums


def _is_plain_indicator(obs: Observable) -> bool:
    return (
        obs.constant == 0
        and len(obs.terms) == 1
        and obs.terms[0][0] == 1
        and isinstance(obs.terms[0][1], CylinderUnion)
        and len(obs.terms[0][1].rows) == 1
    )


def _residue(eng: _Engine):
    """The map of one shift to its residue mod ``eng.system.period`` (T^q and
    every translation by q*e_i are the identity, so a vector reduces
    componentwise), or None on an aperiodic system."""
    q = eng.system.period
    if not q:
        return None
    return (lambda v: tuple(x % q for x in v)) if eng.vector else (lambda s: s % q)


def _residue_rows(eng: _Engine, shift_rows) -> list[tuple]:
    """Each term's row of shifts as a hashable key, every shift mapped by
    ``_residue``: terms with equal keys are equal functions.  Aperiodic rows
    are kept as they are."""
    mod = _residue(eng)
    if mod is None:
        return [tuple(row) for row in shift_rows]
    return [tuple(map(mod, row)) for row in shift_rows]


def _distance(eng: _Engine, observables, shift_rows, c: Fraction, max_quadratic_n: int) -> Fraction:
    """|| mean_t x_t - c ||^2 over the terms x_t = prod_j T^{shift_rows[t][j]} f_j.

    Single-transformation arrays and commuting families differ only in how a
    term index maps to its row of shifts, so both come through here.

    With one factor every pair term is a correlation, <x_t, x_u> =
    C_f(s_u - s_t), and the pair sum is sum_d w_d C_f(d) with C_f from
    ``_correlation``.  Shifts linear in t give d = s_k - s_0 the weight
    2(T - k) (T for k = 0).  Otherwise the correlation's ``sweep`` takes the
    pair sum directly (rotations, independent coordinates), or the terms
    are grouped into classes by residue (see ``_residue``) and every
    pair of classes weighs its difference h_r*h_r'.

    With more factors the terms are grouped into classes the same way,
    class r with multiplicity h_r: the mean sum is sum_r h_r <x_r> and the
    pair sum is sum_{r,r'} h_r h_r' <x_r, x_r'>, taken over unordered pairs
    with factor 2 off the diagonal.  An aperiodic system keys each row by
    itself, so its classes are its distinct rows.

    Wherever pairs of classes are visited they are capped at
    ``max_quadratic_n``.
    """
    terms = len(shift_rows)
    if len(observables) == 1:
        shifts = [row[0] for row in shift_rows]
        diff = (lambda a, b: tuple(map(sub, a, b))) if eng.vector else sub
        corr = _correlation(eng, observables[0], diff(shifts[0], shifts[0]))
        mean_sum = terms * corr.mean
        step = diff(shifts[1], shifts[0]) if terms > 1 else None
        weights: dict = {}
        if all(diff(b, a) == step for a, b in zip(shifts[1:], shifts[2:])):
            for k, s in enumerate(shifts):
                d = corr.key(diff(s, shifts[0]))
                weights[d] = weights.get(d, 0) + (2 * (terms - k) if k else terms)
            pair_sum = corr.total(weights)
        else:
            pair_sum = corr.sweep(shifts)
            if pair_sum is None:
                mod = _residue(eng)
                classes = list(Counter(shifts if mod is None else map(mod, shifts)).items())
                if len(classes) > max_quadratic_n:
                    raise ResourceCapError(f"{len(classes)} classes exceed the quadratic-path cap {max_quadratic_n}")
                for i, (r, h) in enumerate(classes):
                    for s, g in classes[i:]:
                        d = corr.key(diff(s, r))
                        weights[d] = weights.get(d, 0) + (2 * h * g if s != r else h * h)
                pair_sum = corr.total(weights)
        return pair_sum / terms**2 - 2 * c * mean_sum / terms + c * c

    mult = Counter(_residue_rows(eng, shift_rows))
    if len(mult) > max_quadratic_n:
        raise ResourceCapError(f"{len(mult)} classes exceed the quadratic-path cap {max_quadratic_n}")
    if eng.independent and all(_is_plain_indicator(f) for f in observables):
        sets = [f.terms[0][1] for f in observables]
        mean_sum, pair_sum = _counted_sums(
            eng.system.probs,
            [([eng.shifted(S, s) for S, s in zip(sets, k)], h) for k, h in mult.items()],
        )
    else:
        classes = [([eng.factor(f, s) for f, s in zip(observables, k)], h) for k, h in mult.items()]
        mean_sum = pair_sum = _ZERO
        for i, (xr, h) in enumerate(classes):
            mean_sum += h * eng.inner(xr)
            for j in range(i, len(classes)):
                xs, g = classes[j]
                pair_sum += (1 if i == j else 2) * h * g * eng.inner(xr + xs)
    return pair_sum / terms**2 - 2 * c * mean_sum / terms + c * c


def _counted_sums(probs, classes) -> tuple[Fraction, Fraction]:
    """(sum_t <x_t>, sum_{t,u} <x_t, x_u>) over ordered pairs of terms, for
    terms that are products of single cylinders on an i.i.d. product system,
    given as classes (cylinders already shifted, multiplicity h): a single
    counts h times and a pair of classes h*h' times.

    A term fixes one symbol per coordinate of its support, or is zero when
    two of its factors disagree; its measure depends only on its signature,
    the number of fixed coordinates per symbol.  Terms with disjoint supports
    are independent, so every pair is first counted as if disjoint, by
    convolving the signature counts in integers; then only the pairs that
    share a coordinate are visited, each moving its count from the disjoint
    signature to the merged one (or to nowhere when the merge contradicts).
    Fractions enter once per distinct signature.
    """
    fixed: list[dict] = []
    sigs: list[tuple[int, ...]] = []
    hs: list[int] = []
    singles: Counter = Counter()
    for cylinders, h in classes:
        term: dict = {}
        zero = False
        for S in cylinders:
            (row,) = S.rows
            for c, s in zip(S.coords, row):
                if term.setdefault(c, s) != s:
                    zero = True
                    break
        if not zero:
            sig = [0] * len(probs)
            for s in term.values():
                sig[s] += 1
            fixed.append(term)
            sigs.append(tuple(sig))
            hs.append(h)
            singles[sigs[-1]] += h

    pairs: Counter = Counter()
    for a, ka in singles.items():
        for b, kb in singles.items():
            pairs[tuple(map(add, a, b))] += ka * kb
    where: dict = {}  # coordinate -> indices of the terms that fix it
    for t, term in enumerate(fixed):
        for c in term:
            where.setdefault(c, []).append(t)
    for t, term in enumerate(fixed):
        for u in {u for c in term for u in where[c] if u >= t}:
            k = (1 if u == t else 2) * hs[t] * hs[u]  # (t, u) and (u, t)
            disjoint = tuple(map(add, sigs[t], sigs[u]))
            pairs[disjoint] -= k
            merged = list(disjoint)
            for c, s in fixed[u].items():
                r = term.get(c)
                if r is None:
                    continue
                if r != s:
                    break
                merged[s] -= 1
            else:
                pairs[tuple(merged)] += k

    def weight(sig) -> Fraction:
        return math.prod((p**e for p, e in zip(probs, sig)), start=Fraction(1))

    mean_sum = sum((k * weight(sig) for sig, k in singles.items()), Fraction(0))
    pair_sum = sum((k * weight(sig) for sig, k in pairs.items() if k), Fraction(0))
    return mean_sum, pair_sum


def _shift_rows(spec: ArraySpec, N: int, n_start: int, count: int) -> list[tuple[int, ...]]:
    """Rows (P_1(n, N), ..., P_ell(n, N)) for n = n_start .. n_start+count-1,
    each exponent walked along n by its difference table."""
    return list(zip(*(p.values_along_n(N, n_start, count) for p in spec.exponents)))


def array_term_inner(spec: ArraySpec, N: int, n1: int, n2: int) -> Fraction:
    """Exact <x_{n1,N}, x_{n2,N}> for the array terms of the spec."""
    eng = _Engine(spec.system)
    factors = [
        eng.factor(f, p.eval(n, N))
        for n in (n1, n2)
        for f, p in zip(spec.observables, spec.exponents)
    ]
    return eng.inner(factors)


def l2_distance_exact(
    spec: ArraySpec,
    N: int,
    target: Fraction | None = None,
    max_quadratic_n: int = 4096,
) -> Fraction:
    """Exact squared L^2 distance || A_N - c ||^2, c defaulting to the
    product of the observable integrals."""
    if isinstance(spec.system, SampledSystem):
        raise ValueError("sampled-tier system: use l2_distance_mc")
    if N < 1:
        raise ValueError("N must be >= 1")
    c = spec.product_of_integrals() if target is None else Fraction(target)
    return _distance(
        _Engine(spec.system),
        spec.observables,
        _shift_rows(spec, N, 1, N),
        c,
        max_quadratic_n,
    )


def commuting_average(
    cspec: CommutingArraySpec,
    N: int,
    target: Fraction | None = None,
    max_quadratic_n: int = 4096,
) -> Fraction:
    """Exact squared L^2 distance of the mean of prod_j T_j^n That_j^N f_j
    over n = 0..N to the product of integrals.

    The n-range follows the commuting-family limit statement; the average is
    taken over its N+1 terms (the 1/N vs 1/(N+1) normalization is immaterial
    in the limit, and the mean form keeps constant observables exactly at the
    target).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    action = cspec.action
    c = cspec.product_of_integrals() if target is None else Fraction(target)
    return _distance(
        _Engine(action.system, vector_shifts=True),
        cspec.observables,
        [[action.shift_vector(j, n, N) for j in range(1, action.ell + 1)] for n in range(N + 1)],
        c,
        max_quadratic_n,
    )


# ---------------------------------------------------------------------------
# Monte Carlo path


def _invariant_measure(system):
    """Measure of an algebra set under the system's invariant measure."""
    if isinstance(system, GaussMap):

        def gauss_measure(S: ArcUnion):
            total = 0.0
            for a, b in S.arcs:
                total += math.log((1 + b) / (1 + a), 2)
            return Fraction(total).limit_denominator(10**12)

        return gauss_measure
    if isinstance(system, SampledSystem):
        return lambda S: S.measure()
    return system.measure


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    samples: int
    seed: int


def l2_distance_mc(
    spec: ArraySpec,
    N: int,
    samples: int,
    seed: int = 0,
    target: Fraction | None = None,
) -> McEstimate:
    """Seeded Monte Carlo estimate of || A_N - c ||^2 with its standard error."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    system = spec.system
    if not hasattr(system, "sample_point"):
        raise ValueError(f"{type(system).__name__} has no sampler: use the exact method")
    sampled = isinstance(system, SampledSystem)
    if target is None:
        target = spec.product_of_integrals()
    shifts = _shift_rows(spec, N, 0, N + 1)
    if not getattr(system, "invertible", True):
        if any(s < 0 for row in shifts[1:] for s in row):
            raise ValueError("negative exponents on a non-invertible system")

    if sampled:
        def term_value(x, n):
            v = Fraction(1)
            for f, s in zip(spec.observables, shifts[n]):
                y = system.orbit(x, s)
                v *= f.eval_at(y, lambda pt, S: system.point_in(pt, S))
                if v == 0:
                    return v
            return v
    else:
        eng = _Engine(system)
        pre = [
            [tuple((c, eng.shifted(S, s)) for c, S in f.terms) for f, s in zip(spec.observables, row)]
            for row in shifts
        ]

        def term_value(x, n):
            v = Fraction(1)
            for f, terms in zip(spec.observables, pre[n]):
                acc = f.constant
                for c, S in terms:
                    if system.point_in(x, S):
                        acc += c
                v *= acc
                if v == 0:
                    return v
            return v

    vals = []
    for s in range(samples):
        x = system.sample_point(seed, s)
        acc = Fraction(0)
        for n in range(1, N + 1):
            acc += term_value(x, n)
        vals.append(float((acc / N - target) ** 2))
    mean = sum(vals) / samples
    var = sum((v - mean) ** 2 for v in vals) / (samples - 1)
    return McEstimate(mean, math.sqrt(var / samples), samples, seed)


# ---------------------------------------------------------------------------
# sweeps and van der Corput tables


@dataclass(frozen=True)
class SweepRow:
    N: int
    value: Fraction | float
    method: str
    stderr: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[SweepRow, ...]
    verdict: str
    target: Fraction
    tolerance: Fraction
    even_tail: float | None
    odd_tail: float | None


def convergence_sweep(
    spec: ArraySpec,
    Ns: Sequence[int],
    method: str = "exact",
    samples: int = 200,
    seed: int = 0,
    tolerance: Fraction = Fraction(1, 1000),
) -> ConvergenceReport:
    """Distances per N plus a decaying / oscillating / inconclusive verdict.

    Oscillation compares the final even-N and odd-N entries; decay asks for
    monotone non-increase within tolerance past a burn-in of the first
    quarter of the Ns.
    """
    Ns = list(Ns)
    if not Ns or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be a nonempty increasing sequence")
    target = spec.product_of_integrals()

    def row(N: int) -> SweepRow:
        if method == "exact":
            return SweepRow(N, l2_distance_exact(spec, N), "exact", 0.0)
        est = l2_distance_mc(spec, N, samples, seed + N)
        return SweepRow(N, est.value, "montecarlo", est.stderr)

    rows = tuple(row(N) for N in Ns)
    burn = len(rows) // 4
    tail = rows[burn:]
    evens = [r for r in tail if r.N % 2 == 0]
    odds = [r for r in tail if r.N % 2 == 1]
    even_tail = float(evens[-1].value) if evens else None
    odd_tail = float(odds[-1].value) if odds else None

    def tol_between(a: SweepRow, b: SweepRow) -> float:
        if a.method == "exact" and b.method == "exact":
            return float(tolerance)
        return 3.0 * (a.stderr + b.stderr)

    verdict = "inconclusive"
    if evens and odds and abs(even_tail - odd_tail) > tol_between(evens[-1], odds[-1]):
        verdict = "oscillating"
    elif all(
        float(b.value) <= float(a.value) + tol_between(a, b)
        for a, b in zip(tail, tail[1:])
    ):
        verdict = "decaying"
    return ConvergenceReport(rows, verdict, target, tolerance, even_tail, odd_tail)


@dataclass(frozen=True)
class VdcReport:
    """Averaged correlations (1/N) sum_n <x_{n,N}, x_{n+h,N}> for h = 1..H.

    ``dlim_diagnostic`` is a trimmed mean over h (the largest trim_fraction
    of |values| discarded); it is a heuristic stand-in for a density limit
    and is labeled diagnostic everywhere.
    """

    N: int
    H: int
    rows: tuple[tuple[int, Fraction], ...]
    dlim_diagnostic: Fraction
    trim_fraction: Fraction


def vdc_correlations(
    spec: ArraySpec, N: int, H: int, trim_fraction: Fraction = Fraction(1, 20)
) -> VdcReport:
    if H < 1:
        raise ValueError("H must be >= 1")
    if isinstance(spec.system, SampledSystem):
        raise ValueError("sampled-tier system: correlations need the exact tier")
    eng = _Engine(spec.system)
    shift_rows = _shift_rows(spec, N, 1, N + H)
    rows = []
    if spec.ell == 1:  # <x_n, x_{n+h}> = C_f(s_{n+h} - s_n)
        corr = _correlation(eng, spec.observables[0], 0)
        shifts = [s for s, in shift_rows]
        for h in range(1, H + 1):
            weights = Counter(corr.key(b - a) for a, b in zip(shifts[:N], shifts[h:]))
            rows.append((h, corr.total(weights) / N))
    else:
        keys = _residue_rows(eng, shift_rows)
        x = {k: [eng.factor(f, s) for f, s in zip(spec.observables, k)] for k in keys}
        inners: dict = {}  # one inner product per distinct (class(n), class(n+h))
        for h in range(1, H + 1):
            total = _ZERO
            for pair, count in Counter(zip(keys[:N], keys[h:])).items():
                ip = inners.get(pair)
                if ip is None:
                    ip = inners[pair] = eng.inner(x[pair[0]] + x[pair[1]])
                total += ip if count == 1 else count * ip  # aperiodic pairs: skip the Fraction product
            rows.append((h, total / N))
    drop = math.ceil(H * trim_fraction)
    kept = sorted((abs(v), v) for _, v in rows)[: max(H - drop, 1)]
    dlim = sum((v for _, v in kept), Fraction(0)) / len(kept)
    return VdcReport(N, H, tuple(rows), dlim, trim_fraction)
