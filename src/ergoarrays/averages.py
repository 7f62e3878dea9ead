"""Nonconventional array averages A_N = (1/N) sum_n prod_j T^{P_j(n,N)} f_j.

The exact path expands the squared L^2 distance of A_N to a scalar target
into the mean of the terms x_n and the sum of their pairwise inner products
<x_n, x_m>, each an exact rational.  Single-transformation arrays and
commuting families share one distance routine that takes, per term, its
row of shifts; terms with equal rows, each shift reduced mod the system's
period q when it has one (T^q = id), form classes with multiplicities h_r.

The system type picks the kernel, and every kernel works in integers:

* independent coordinates (Bernoulli shifts and lattices): an observable
  is, over its denominator, an integer combination of 1 and single-row
  cylinders, so a product of factors expands into atoms, coordinate ->
  symbol maps with integer weights (zero where two rows disagree), whose
  measure depends only on their signature, the count of fixed coordinates
  per symbol.  ``_Engine.inner`` sums atom weights by signature; with
  ell >= 2 the pair sum counts every pair of classes as disjoint by
  convolving those sums, then visits only the pairs of classes that share
  a coordinate and, in them, the pairs of atoms that agree:
  O(N*ell*a + overlapping class pairs * a^2 + signatures^2) for a atoms
  per class, where a^2 falls to the agreeing pairs when atoms crowd on
  shared coordinates and are looked up by symbol;
* other exact systems (rotations, Markov shifts, finite point systems):
  ``_Engine.inner`` intersects algebra sets, plain indicators into one
  set, affine factors with integer numerators and equal intersections
  merged; with ell >= 2 every pair of classes takes one inner product,
  O(N*ell + classes^2) with at most q^ell classes (q^(ell*d) for d-vector
  shifts).

With one factor (ell = 1, or one commuting generator pair) every pair term
is a correlation C_f(d) = <T^d f, f>, C_f(d) = C_f(-d), so the pair sum is
sum_d w_d C_f(d), taken by one ``sweep`` per correlation type.  On
rotations C_f(d) is a sum of k^2 arc overlaps for k arcs, and the sweep
integrates (sum_n x_n)^2 by sorting its 2kN arc ends; on independent
coordinates with scalar shifts C_f(d) = (integral f)^2 once |d| exceeds
the support diameter of f, and the sweep visits only neighbouring shifts.
Elsewhere (Markov shifts, finite point systems, vector shifts) linear
shifts give d = k*step the weight 2(N - k), other shifts are grouped into
residue classes whose pairs weigh their differences, and ``_Engine.inner``
runs once per distinct difference.

More than ``_MAX_CLASSES`` = 4096 classes, wherever pairs of classes are
visited, and an atom expansion whose maps fix more than 2^20 coordinates
in total raise ResourceCapError.
The van der Corput tables take C_f(s_{n+h} - s_n) for one factor and group
the pairs (class(n), class(n+h)) otherwise.

A seeded Monte Carlo estimator covers the sampled tier and doubles as a
cross-check of the exact path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, neg, sub
from typing import Sequence

from .intpoly import IntPoly2
from .sets import _MAX_ROWS, ArcUnion, CylinderUnion
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

    @cached_property
    def integer_form(self) -> tuple[int, int, tuple[tuple[int, object], ...]]:
        """(den, constant numerator, ((numerator, set), ...)): the observable
        over the common denominator of its coefficients, zero terms dropped."""
        den = math.lcm(self.constant.denominator, *(c.denominator for c, _ in self.terms))
        scaled = lambda c: c.numerator * (den // c.denominator)
        return den, scaled(self.constant), tuple((scaled(c), S) for c, S in self.terms if c)

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
        self.move = system.translate_preimage if vector_shifts else system.preimage  # uncached
        self._shift_cache: dict = {}
        self._measure_cache: dict = {}
        self.independent = getattr(system, "independent_coords", False)
        # ``residue``: a shift mod the period q (T^q and every translation by
        # q*e_i are the identity, so vectors reduce componentwise), None when
        # aperiodic; ``key``: one representative of {d, -d} (C_f(d) = C_f(-d))
        q = system.period
        self.diff = (lambda a, b: tuple(map(sub, a, b))) if vector_shifts else sub
        minus = (lambda d: tuple(-x for x in d)) if vector_shifts else neg
        mod = None if not q else (lambda v: tuple(x % q for x in v)) if vector_shifts else (lambda s: s % q)
        self.residue = mod
        if mod is not None:
            self.key = lambda d: min(mod(d), mod(minus(d)))
        else:
            self.key = (lambda d: max(d, minus(d))) if vector_shifts else abs

    def residue_rows(self, shift_rows) -> list[tuple]:
        """Each term's row of shifts, every shift mapped by ``residue``, as a
        hashable key: terms with equal keys are equal functions."""
        mod = self.residue
        return [tuple(row if mod is None else map(mod, row)) for row in shift_rows]

    def shifted(self, S, shift):
        key = (S, shift)
        out = self._shift_cache.get(key)
        if out is None:
            out = self.move(S, shift)
            self._shift_cache[key] = out
        return out

    def measure(self, S) -> Fraction:
        out = self._measure_cache.get(S)
        if out is None:
            out = self.system.measure(S)
            self._measure_cache[S] = out
        return out

    def factor(self, obs: Observable, shift):
        """The observable's ``integer_form`` with every set shifted."""
        den, cnum, terms = obs.integer_form
        return den, cnum, tuple((num, self.shifted(S, shift)) for num, S in terms)

    def inner(self, factors) -> Fraction:
        """Exact integral of the product of the given factors."""
        if not self.independent:
            return self._expand(factors)
        alphabet = self.system.alphabet
        counts: Counter = Counter()
        for w, A in _atom_product([_atoms(f, alphabet) for f in factors]):
            counts[_signature(A.values(), alphabet)] += w
        return self.by_signature(counts, math.prod(den for den, _, _ in factors))

    def _expand(self, factors) -> Fraction:
        """Plain indicators (coefficient 1, no constant) are intersected into
        one set first.  Each affine factor then maps every (set, integer
        weight) pair to its constant and to each of its terms, and equal
        intersections are merged; the total takes one measure per distinct
        set and one division by the product of the factor denominators."""
        inter = None
        affine = []
        for f in factors:
            den, cnum, terms = f
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
        for den, cnum, terms in affine:
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

    # atoms on independent coordinates

    def by_signature(self, counts, scale: int) -> Fraction:
        """sum_sig k_sig * mu(sig) / scale, where mu(sig) = prod_s p_s^sig[s]
        is the measure of every atom with that signature: one integer sum
        over den^top, with p_s = nums[s] / den and top the largest atom."""
        nums, den = self.system._nums, self.system._den
        top = max(map(sum, counts), default=0)
        total = sum(k * math.prod(map(pow, nums, sig)) * den ** (top - sum(sig)) for sig, k in counts.items() if k)
        return Fraction(total, scale * den**top)


_ZERO = Fraction(0)
_MAX_CLASSES = 4096  # classes a pair sum may visit pairwise


def _atoms(factor, alphabet: int) -> list[tuple[int, tuple, tuple]]:
    """The numerator cnum + sum num * 1_S of a factor (den, cnum, terms) over
    cylinder unions as weighted atoms (weight, coords, row), each the
    cylinder fixing those coordinates to that row, equal ones merged: the
    whole space ((), ()) for the constant, and per set one atom per row (its
    rows are disjoint cylinders), or, where its complement has fewer rows,
    the whole space minus one atom per missing row."""
    _, cnum, terms = factor
    weights = {((), ()): cnum}
    for num, S in terms:
        rows = S.rows
        if 2 * len(rows) > alphabet ** len(S.coords) + 1:
            weights[(), ()] += num
            rows = S.complement().rows
            num = -num
        for row in rows:
            weights[S.coords, row] = weights.get((S.coords, row), 0) + num
    return [(w, coords, row) for (coords, row), w in weights.items() if w]


def _signature(symbols, alphabet: int) -> tuple[int, ...]:
    """The number of coordinates an atom fixes to each symbol."""
    sig = [0] * alphabet
    for s in symbols:
        sig[s] += 1
    return tuple(sig)


def _agreeing(atoms):
    """A function from a coordinate -> symbol map A to the atoms (weight,
    coords, row) whose row agrees with A where A fixes their coordinates,
    or None when the atoms average at most four per coords, where trying
    each atom costs less than a lookup.  Atoms are grouped by coords and,
    per group and set of positions that A fixes, indexed once by their
    symbols there, so a lookup costs one probe per group however many atoms
    disagree."""
    if len(atoms) <= 4:
        return None
    groups = defaultdict(list)
    for atom in atoms:
        groups[atom[1]].append(atom)
    if len(atoms) <= 4 * len(groups):
        return None
    tables: dict = {}

    def agreeing(A):
        for coords, group in groups.items():
            fixed = tuple(map(A.__contains__, coords))
            table = tables.get((coords, fixed))
            if table is None:
                table = tables[coords, fixed] = defaultdict(list)
                for atom in group:
                    table[tuple(itertools.compress(atom[2], fixed))].append(atom)
            yield from table.get(tuple(map(A.__getitem__, itertools.compress(coords, fixed))), ())

    return agreeing


def _atom_product(atom_lists) -> list[tuple[int, dict]]:
    """The product of factors given as lists of atoms (weight, coords, row),
    as (weight, coordinate -> symbol map) pairs: every choice of one atom
    per factor whose rows agree where they share a coordinate, merged.  A
    factor with one atom extends each map in place, a wider one copies it,
    and atoms that crowd on shared coords are looked up (``_agreeing``)
    rather than tried one by one.  Raises once the maps fix more than
    ``_MAX_ROWS`` coordinates in total."""
    out = [(1, {})]
    for atoms in atom_lists:
        nxt = []
        if len(atoms) == 1:
            ((w, coords, row),) = atoms
            for W, A in out:
                for c, s in zip(coords, row):
                    if A.setdefault(c, s) != s:
                        break
                else:
                    nxt.append((W * w, A))
            out = nxt
            continue
        size = 0
        index = _agreeing(atoms)
        for W, A in out:
            for w, coords, row in atoms if index is None else index(A):
                B = A.copy()
                for c, s in zip(coords, row):
                    if B.setdefault(c, s) != s:
                        break
                else:
                    nxt.append((W * w, B))
                    size += len(B)
            if size > _MAX_ROWS:
                raise ResourceCapError(f"atom expansion fixing over {_MAX_ROWS} coordinates exceeds the cap")
        out = nxt
    return out


def _join(maps, agreeing, k: int, counts: Counter) -> None:
    """Add k * w * v to ``counts`` at the signature of the merged map for
    every map (w, map, signature) and every atom (v, coords, row) that
    ``agreeing`` finds for it: the map's signature plus the symbols of the
    coordinates it leaves free."""
    for w, A, sig in maps:
        for v, coords, row in agreeing(A):
            merged = list(sig)
            for c, s in zip(coords, row):
                if c not in A:
                    merged[s] += 1
            counts[tuple(merged)] += k * w * v


# ---------------------------------------------------------------------------
# one-factor correlations C_f(d) = <T^d f, f>


class _Correlation:
    """C_f(d) for one observable through ``_Engine.inner``, memoized by
    difference: the correlation of systems with no closed form (Markov
    shifts, finite point systems).  ``total`` is sum_d w_d C_f(d) over a map
    of differences (folded by ``_Engine.key``) to weights, and ``sweep`` the
    pair sum over a list of shifts."""

    def __init__(self, eng: _Engine, f: Observable, zero):
        self.eng = eng
        self.f = f
        self.base = eng.factor(f, zero)
        self.mean = eng.inner([self.base])
        self._memo: dict = {}

    def value(self, d):
        out = self._memo.get(d)
        if out is None:
            out = self._memo[d] = self._uncached(d)
        return out

    def _uncached(self, d):
        return self.eng.inner([self.eng.factor(self.f, d), self.base])

    def total(self, weights) -> Fraction:
        return sum((w * self.value(d) for d, w in weights.items()), _ZERO)

    def sweep(self, shifts) -> Fraction:
        """sum_{t,u} C_f(s_u - s_t) as sum_d w_d C_f(d).  Shifts linear in t
        give d = s_k - s_0 the weight 2(T - k) (T for k = 0); other shifts
        are grouped into classes by ``_Engine.residue``, and every pair of
        classes weighs its difference h*h'."""
        eng, terms = self.eng, len(shifts)
        diff = eng.diff
        step = diff(shifts[1], shifts[0]) if terms > 1 else None
        weights: dict = {}
        if all(diff(b, a) == step for a, b in zip(shifts[1:], shifts[2:])):
            for k, s in enumerate(shifts):
                d = eng.key(diff(s, shifts[0]))
                weights[d] = weights.get(d, 0) + (2 * (terms - k) if k else terms)
        else:
            mod = eng.residue
            classes = list(_classes(shifts if mod is None else map(mod, shifts)).items())
            for i, (r, h) in enumerate(classes):
                for s, g in classes[i:]:
                    d = eng.key(diff(s, r))
                    weights[d] = weights.get(d, 0) + (2 * h * g if s != r else h * h)
        return self.total(weights)


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
        den, cnum, terms = self.base
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
        points = [c if isinstance(c, tuple) else (c,) for _, S in self.base[2] for c in S.coords]
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

    def sweep(self, shifts) -> Fraction:
        """Neighbour scan: sort the distinct shift values and weigh only the
        pairs within the diameter; every other ordered pair is far.  T
        equally spaced distinct shifts are weighed at once: the gap j*|step|
        gets 2(T - j).  Vector shifts take the base sweep."""
        if self.eng.vector:
            return super().sweep(shifts)
        reach = -1 if self.reach is None else self.reach
        terms = len(shifts)
        step = shifts[1] - shifts[0] if terms > 1 else 0
        if step and shifts == list(range(shifts[0], shifts[0] + terms * step, step)):
            near = {j * abs(step): 2 * (terms - j) if j else terms for j in range(min(terms, reach // abs(step) + 1))}
        else:
            values = sorted(Counter(shifts).items())
            near = defaultdict(int)
            for i, (v, h) in enumerate(values):
                near[0] += h * h
                j = i + 1
                while j < len(values) and values[j][0] - v <= reach:
                    u, g = values[j]
                    near[u - v] += 2 * h * g
                    j += 1
        far = terms**2 - sum(near.values())
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


def _distance(eng: _Engine, observables, shift_rows, c: Fraction) -> Fraction:
    """|| mean_t x_t - c ||^2 over the terms x_t = prod_j T^{shift_rows[t][j]} f_j.

    Single-transformation arrays and commuting families differ only in how a
    term index maps to its row of shifts, so both come through here.

    With one factor every pair term is a correlation, <x_t, x_u> =
    C_f(s_u - s_t), and the correlation's ``sweep`` (``_correlation``) takes
    the pair sum.

    With more factors the terms are grouped into classes by
    ``_Engine.residue``, class r with multiplicity h_r; an aperiodic system
    keys each row by itself, so its classes are its distinct rows.  On
    independent coordinates ``_counted_sums`` takes both sums from the
    classes' atoms.  Elsewhere the mean sum is sum_r h_r <x_r> and the pair
    sum is sum_{r,r'} h_r h_r' <x_r, x_r'>, taken over unordered pairs with
    factor 2 off the diagonal.
    """
    terms = len(shift_rows)
    if len(observables) == 1:
        shifts = [row[0] for row in shift_rows]
        corr = _correlation(eng, observables[0], eng.diff(shifts[0], shifts[0]))
        return corr.sweep(shifts) / terms**2 - 2 * c * corr.mean + c * c

    mult = _classes(eng.residue_rows(shift_rows))
    if eng.independent:
        mean_sum, pair_sum = _counted_sums(eng, observables, mult)
    else:
        classes = [([eng.factor(f, s) for f, s in zip(observables, k)], h) for k, h in mult.items()]
        mean_sum = pair_sum = _ZERO
        for i, (xr, h) in enumerate(classes):
            mean_sum += h * eng.inner(xr)
            for j in range(i, len(classes)):
                xs, g = classes[j]
                pair_sum += (1 if i == j else 2) * h * g * eng.inner(xr + xs)
    return pair_sum / terms**2 - 2 * c * mean_sum / terms + c * c


def _classes(keys) -> Counter:
    """The multiplicity of every class key; pair sums visit pairs of classes,
    so more than ``_MAX_CLASSES`` classes raise ResourceCapError."""
    mult = Counter(keys)
    if len(mult) > _MAX_CLASSES:
        raise ResourceCapError(f"{len(mult)} classes exceed the quadratic-path cap {_MAX_CLASSES}")
    return mult


def _counted_sums(eng: _Engine, observables, mult) -> tuple[Fraction, Fraction]:
    """(sum_t <x_t>, sum_{t,u} <x_t, x_u>) over ordered pairs of terms on an
    independent-coordinates system, for the classes of terms in ``mult``
    (row of shifts -> multiplicity h).

    Every factor is, over its denominator, an integer combination of atoms
    (``_atoms``), so each class expands into weighted atoms
    (``_atom_product``), its weights scaled by h; the measure of an atom
    depends only on its signature, the number of fixed coordinates per
    symbol.  Classes whose atoms fix disjoint coordinates are independent,
    so every pair of classes is first counted as if disjoint, by convolving
    the signature weights in integers; then only the pairs of classes that
    share a coordinate are visited, each moving its weight from the
    disjoint signatures to the merged ones of the pairs of atoms that
    agree.  Atoms are compared pairwise, or, where the atoms of a class
    crowd on shared coordinates, looked up by symbol (``_agreeing``,
    ``_join``).  Fractions enter once, in ``_Engine.by_signature``.
    """
    alphabet = eng.system.alphabet
    # each atom as a cylinder, to be moved by the system
    bases = [
        [(v, CylinderUnion(coords, frozenset((r,)), alphabet), r) for v, coords, r in _atoms(f.integer_form, alphabet)]
        for f in observables
    ]
    move = eng.move  # shifts rarely repeat across classes, so skip the cache
    classes = []  # (maps (weight, map, signature), ``_agreeing`` over them or None)
    singles: Counter = Counter()
    where: dict = {}  # coordinate -> indices of the classes that fix it
    for i, (row, h) in enumerate(mult.items()):
        maps = []
        shifted = [[(v, move(S, s).coords, r) for v, S, r in base] for base, s in zip(bases, row)]
        for w, A in _atom_product(shifted):
            sig = _signature(A.values(), alphabet)
            maps.append((h * w, A, sig))
            singles[sig] += h * w
            for c in A:
                js = where.setdefault(c, [])
                if not js or js[-1] != i:  # once per class
                    js.append(i)
        index = None
        if len(maps) > 4:  # as ``_agreeing`` would find, without building the list
            index = _agreeing([(w, tuple(A), tuple(A.values())) for w, A, _ in maps])
        classes.append((maps, index))

    pairs: Counter = Counter()
    _convolve(singles, singles, 1, pairs)
    for i, (maps, _) in enumerate(classes):
        for j in {j for _, A, _ in maps for c in A for j in where[c] if j >= i}:
            other, index = classes[j]
            k = 1 if i == j else 2  # (i, j) and (j, i)
            if index is not None:  # many maps of class j share coords: look up the agreeing ones
                _convolve(_signature_weights(maps), _signature_weights(other), -k, pairs)
                _join(maps, index, k, pairs)
                continue
            for w, A, sig in maps:  # otherwise compare every pair of maps directly
                for v, B, other_sig in other:
                    if A.keys().isdisjoint(B):
                        continue  # independent, as counted
                    disjoint = tuple(map(add, sig, other_sig))
                    pairs[disjoint] -= k * w * v
                    merged = list(disjoint)
                    for c, s in B.items():
                        r = A.get(c)
                        if r is None:
                            continue
                        if r != s:
                            break
                        merged[s] -= 1
                    else:
                        pairs[tuple(merged)] += k * w * v

    scale = math.prod(f.integer_form[0] for f in observables)
    return eng.by_signature(singles, scale), eng.by_signature(pairs, scale * scale)


def _signature_weights(maps) -> Counter:
    """The weights of maps (weight, map, signature) summed by signature."""
    out: Counter = Counter()
    for w, _, sig in maps:
        out[sig] += w
    return out


def _convolve(a: dict, b: dict, k: int, counts: Counter) -> None:
    """Add k times the signature weights of every pair of independent atoms
    from a and b to ``counts``."""
    for x, kx in a.items():
        for y, ky in b.items():
            counts[tuple(map(add, x, y))] += k * kx * ky


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
    )


def commuting_average(
    cspec: CommutingArraySpec,
    N: int,
    target: Fraction | None = None,
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
            weights = Counter(eng.key(b - a) for a, b in zip(shifts[:N], shifts[h:]))
            rows.append((h, corr.total(weights) / N))
    else:
        keys = eng.residue_rows(shift_rows)
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
