"""Nonconventional array averages A_N = (1/N) sum_n prod_j T^{P_j(n,N)} f_j.

The exact path expands the squared L^2 distance of A_N to a scalar target
into the mean of the terms x_n and the sum of their pairwise inner products
<x_n, x_m>, each an exact rational.  Single-transformation arrays and
commuting families share one distance routine that takes, per term, its
row of shifts; terms with equal rows form classes with multiplicities h_r.

The system type picks one of two kernels, both in integers:

* rotations by a rational and finite point systems (``_Grid``): every
  factor is an integer step function on a cyclic grid of Q cells, rows are
  keyed mod the period q (T^q = id), and sum_{n,m} <x_n, x_m> = int V^2,
  sum_n <x_n> = int V for V = sum_n x_n, from one sweep over the changes
  of V: O(N + classes * c log c) for c changes per term, at most q^ell
  classes (q^(ell*d) for d-vector shifts), any ell;
* shift systems (Bernoulli and Markov shifts, Bernoulli lattices): an
  observable is, over its denominator, an integer combination of 1 and
  disjoint cylinders, so a product of factors expands into atoms,
  coordinate -> symbol maps with integer weights (zero where two rows
  disagree), and the system weighs each map as an integer over a power of
  its denominator (``_weigh``); ``_Engine.inner`` sums the weighted masses.
  On independent coordinates (Bernoulli) with ell >= 2, terms on disjoint
  coordinates are independent, so the pair sum is the squared mean sum
  plus, for only the pairs of classes that share a coordinate, their joint
  sum over agreeing atoms minus the product of their means:
  O(N*ell*a + overlapping class pairs * a^2) for a atoms per class, where
  a^2 falls to the agreeing pairs when atoms crowd on shared coordinates
  and are looked up by symbol.  On Markov shifts with ell >= 2 every pair
  of classes adds its masses to one integer sum, O(N*ell + classes^2).

Off the grid, with one factor (ell = 1, or one commuting generator pair)
every pair term is a correlation C_f(d) = <T^d f, f>, C_f(d) = C_f(-d), so
the pair sum is sum_d w_d C_f(d), taken by one ``_Correlation.sweep``.
Linear shifts give d = k*step the weight 2(N - k), other shifts pair their
distinct values, and ``_Engine.inner`` runs once per distinct difference.
On independent coordinates with scalar shifts C_f(d) = (integral f)^2 once
|d| exceeds the support diameter of f, so the sweep visits only
neighbouring shifts.

More than ``_MAX_CLASSES`` = 4096 classes, wherever pairs of classes are
visited (off the grid), and an atom expansion whose maps fix more than
2^20 coordinates in total raise ResourceCapError.  The van der Corput
tables take one grid integral or inner product per distinct pair of rows
(x_n, x_{n+h}), both moved by one shift so that the first starts at 0.

A seeded Monte Carlo estimator covers the sampled tier and doubles as a
cross-check of the exact path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import sub
from typing import Sequence

from .intpoly import IntPoly2
from .sets import _MAX_ROWS, ArcUnion, CylinderUnion
from .systems import CircleRotation, GaussMap, LatticeAction, SampledSystem, _PointSystem
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

    @cached_property
    def atoms(self) -> list[tuple[int, CylinderUnion, tuple]]:
        """On a shift system, the numerator cnum + sum num * 1_S of
        ``integer_form`` as weighted atoms (weight, cylinder, row), equal ones
        merged: the whole space for the constant, and per set its rows, or,
        where its complement has fewer rows, the whole space minus those, as
        disjoint cylinders (``_split``)."""
        _, cnum, terms = self.integer_form
        alphabet = terms[0][1].alphabet if terms else 1
        weights = {((), ()): cnum}
        for num, S in terms:
            rows = S.rows
            if 2 * len(rows) > alphabet ** len(S.coords) + 1:
                weights[(), ()] += num
                rows, num = S.complement().rows, -num
            for key in _split(S.coords, rows, alphabet):
                weights[key] = weights.get(key, 0) + num
        return [(w, CylinderUnion(coords, frozenset((row,)), alphabet), row) for (coords, row), w in weights.items() if w]

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
    """Moves sets and factors and integrates products for one computation."""

    def __init__(self, system, vector_shifts: bool = False):
        self.system = system
        self.vector = vector_shifts
        self.move = system.translate_preimage if vector_shifts else system.preimage  # uncached
        self.shifted = cache(self.move)
        self.independent = getattr(system, "independent_coords", False)
        self.grid = isinstance(system, (CircleRotation, _PointSystem))  # integrals take ``_Grid``
        self.diff = (lambda a, b: tuple(map(sub, a, b))) if vector_shifts else sub
        # one representative of {d, -d} (C_f(d) = C_f(-d))
        self.key = (lambda d: max(d, tuple(-x for x in d))) if vector_shifts else abs

    def factor(self, obs: Observable, shift):
        """(den, atoms) on a shift system: the observable over its
        denominator as atoms (``Observable.atoms``), each moved by the shift."""
        return obs.integer_form[0], [(w, self.move(C, shift).coords, row) for w, C, row in obs.atoms]

    def masses(self, factors, acc, h: int = 1) -> None:
        """Add the factors' atom product (``_atom_product``) to acc: a map of
        weight w that the system weighs m / (_unit * _den^e) adds h*w*m to acc[e]."""
        weigh = self.system._weigh
        for w, A in _atom_product([atoms for _, atoms in factors]):
            m, e = weigh(A)
            acc[e] += h * w * m

    def integral(self, acc, den: int) -> Fraction:
        """sum_e acc[e] / (den * _unit * _den^e), over the largest e, by
        Horner's rule over the increasing exponents."""
        D, total, top = self.system._den, 0, 0
        for e in sorted(acc):
            total, top = total * D ** (e - top) + acc[e], e
        return Fraction(total, den * self.system._unit * D**top)

    def inner(self, factors) -> Fraction:
        """Exact integral of the product of the given factors (``factor``)."""
        acc: dict = defaultdict(int)  # exponent -> weighted masses
        self.masses(factors, acc)
        return self.integral(acc, math.prod(den for den, _ in factors))


_ZERO = Fraction(0)
_MAX_CLASSES = 4096  # classes a pair sum may visit pairwise
_TRIM_FRACTION = Fraction(1, 20)  # share of the largest |values| the vdc diagnostic drops


def _split(coords, rows, alphabet: int) -> list[tuple[tuple, tuple]]:
    """Disjoint cylinders (coords, row) whose union is the given rows over
    coords: rows that share a prefix and take every completion of it merge
    into the cylinder of that prefix."""
    if len(rows) == alphabet ** len(coords):
        return [((), ())]
    groups = defaultdict(list)
    for row in rows:
        groups[row[0]].append(row[1:])
    return [((coords[0], *c), (s, *r)) for s, rest in groups.items() for c, r in _split(coords[1:], rest, alphabet)]


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
    per factor whose rows agree where they share a coordinate, merged into
    a copy of the map; atoms that crowd on shared coords are looked up
    (``_agreeing``) rather than tried one by one.  Raises once the maps fix
    more than ``_MAX_ROWS`` coordinates in total."""
    out = [(1, {})]
    for atoms in atom_lists:
        nxt = []
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


# ---------------------------------------------------------------------------
# one-factor correlations C_f(d) = <T^d f, f>


class _Correlation:
    """C_f(d) for one observable through ``_Engine.inner``.  ``total`` is
    sum_d w_d C_f(d) over a map of differences to weights, and ``sweep`` the
    pair sum over a list of shifts, whose differences it folds by
    ``_Engine.key``.  On independent coordinates C_f(d) = (integral f)^2
    once d moves the support of f off itself, past its diameter ``reach``:
    per axis on a lattice, where a vector shift needs one axis past it and
    the diagonal shift of a scalar d needs |d| past the smallest.  Other
    systems have no diameter (``reach`` None)."""

    def __init__(self, eng: _Engine, f: Observable, zero):
        self.eng = eng
        self.f = f
        self.zero = zero
        self.base = eng.factor(f, zero)
        self.mean = eng.inner([self.base])
        self.square = self.mean * self.mean
        self.reach = None
        if eng.independent:
            points = [c if isinstance(c, tuple) else (c,) for _, S in f.integer_form[2] for c in S.coords]
            reach = [max(axis) - min(axis) for axis in zip(*points)] or [-1] * (len(zero) if eng.vector else 1)
            self.reach = reach if eng.vector else min(reach)

    def far(self, d) -> bool:
        if self.reach is None:
            return False
        if self.eng.vector:
            return any(abs(x) > r for x, r in zip(d, self.reach))
        return abs(d) > self.reach

    def total(self, weights) -> Fraction:
        eng, f, base = self.eng, self.f, self.base
        return sum((w * (self.square if self.far(d) else eng.inner([eng.factor(f, d), base])) for d, w in weights.items()), _ZERO)

    def sweep(self, shifts) -> Fraction:
        """sum_{t,u} C_f(s_u - s_t) as sum_d w_d C_f(d).  Shifts linear in t
        give d = s_k - s_0 the weight 2(T - k) (T for k = 0); other shifts
        are sorted into classes of equal shifts, and every pair of classes
        weighs its difference h*h'.  A scalar diameter stops both scans at
        it, and every other pair is far; without one the classes are capped."""
        eng, terms = self.eng, len(shifts)
        diff, key = eng.diff, eng.key
        reach = None if eng.vector else self.reach
        step = diff(shifts[1], shifts[0]) if terms > 1 else None
        near: dict = defaultdict(int)
        if len(set(map(diff, shifts[1:], shifts))) <= 1:
            span = terms if reach is None or not step else min(terms, reach // abs(step) + 1)
            for k in range(span):
                near[key(diff(shifts[k], shifts[0]))] += 2 * (terms - k) if k else terms
        else:
            values = sorted((_classes(shifts) if reach is None else Counter(shifts)).items())
            for i, (v, h) in enumerate(values):
                near[self.zero] += h * h
                for j in range(i + 1, len(values)):
                    u, g = values[j]
                    if reach is not None and u - v > reach:
                        break
                    near[key(diff(u, v))] += 2 * h * g
        far = terms**2 - sum(near.values())
        return far * self.square + self.total(near)


# ---------------------------------------------------------------------------
# step functions on a cyclic grid: rotations and finite point systems


class _Grid:
    """Terms on a rotation by a rational or a finite point system as integer
    step functions on a cyclic grid of Q cells.

    Over its denominator, a factor T^s f_j is its value where the grid
    starts plus its changes (cell -> change), those at cell 0 included.  On
    a rotation by alpha, Q is the common denominator of alpha and every arc
    end, and T^{-s} moves each arc [a, b) s*alpha*Q cells back; on a point
    system the cells are the points, and each point i of a shifted set
    (``_Engine.shifted``) adds its coefficient at cell i and takes it back
    at i + 1.  A term's product is one sort of its factors' changes.
    Shifts are keyed mod the period q (T^q = id, and every translation by
    q*e_i), so equal keys are equal factors."""

    def __init__(self, eng: _Engine, observables):
        self.eng = eng
        self.forms = [f.integer_form for f in observables]
        self.scale = math.prod(den for den, _, _ in self.forms)
        system, q = eng.system, eng.system.period
        self.mod = (lambda v: tuple(x % q for x in v)) if eng.vector else q.__rmod__
        if isinstance(system, CircleRotation):
            self.Q, self.step, arcs = system.cells([S for _, _, terms in self.forms for _, S in terms])
            arcs = iter(arcs)
            self.arcs = [[(w, a, b - a) for w, _ in terms for a, b in next(arcs)] for _, _, terms in self.forms]
            self.cell = None
        else:
            self.cell = {x: i for i, x in enumerate(system.full_set().members)}
            self.Q = len(self.cell)

    def add(self, j: int, shifts, acc) -> int:
        """Add the changes of sum_s h * T^s f_j over the pairs (s, h) in
        ``shifts`` to ``acc`` (a defaultdict(int)) and return its value
        where the grid starts."""
        _, cnum, terms = self.forms[j]
        start, Q = cnum * sum(h for _, h in shifts), self.Q
        for s, h in shifts:
            if self.cell is None:  # arcs of cells, moved s*alpha*Q cells back
                pieces, p = self.arcs[j], s * self.step
            else:  # the points of the shifted sets, one cell each
                pieces, p = [(w, self.cell[x], 1) for w, S in terms for x in self.eng.shifted(S, s).members], 0
            for w, a, length in pieces:
                w *= h
                lo = (a - p) % Q
                hi = lo + length
                acc[lo] += w
                if hi > Q:  # wraps through 0
                    start += w
                    hi -= Q
                acc[hi] -= w
        return start

    def term(self, row, h: int, acc) -> int:
        """Add h times the changes of prod_j T^{row[j]} f_{j mod ell} to
        ``acc`` and return h times its value where the grid starts: the
        product changes wherever a factor does."""
        vals, moves = [], defaultdict(list)
        for j, s in enumerate(row):
            changes = defaultdict(int)
            vals.append(self.add(j % len(self.forms), ((s, 1),), changes))
            for c, d in changes.items():
                moves[c].append((j, d))
        old = start = math.prod(vals)
        for c in sorted(moves):
            for j, d in moves[c]:
                vals[j] += d
            new = math.prod(vals)
            acc[c] += h * (new - old)
            old = new
        return h * start

    def sweep(self, v: int, changes) -> tuple[int, int]:
        """(Q * integral g, Q * integral g^2) for the step function g that
        starts at v and takes the given changes (cell -> change)."""
        one = two = prev = 0
        for pos in sorted(changes):
            width = pos - prev
            one += v * width
            two += v * v * width
            v += changes[pos]
            prev = pos
        width = self.Q - prev
        return one + v * width, two + v * v * width

    def sums(self, columns) -> tuple[Fraction, Fraction]:
        """(sum_t <x_t>, sum_{t,u} <x_t, x_u>) = (integral V, integral V^2)
        for V = sum_t x_t: one sweep over the changes of every class of rows,
        weighted by its multiplicity."""
        start, acc = 0, defaultdict(int)
        if len(self.forms) == 1:  # the term is its factor
            start = self.add(0, Counter(map(self.mod, columns[0])).items(), acc)
        else:
            for row, h in Counter(zip(*(map(self.mod, col) for col in columns))).items():
                start += self.term(row, h, acc)
        one, two = self.sweep(start, acc)
        return Fraction(one, self.Q * self.scale), Fraction(two, self.Q * self.scale**2)


# ---------------------------------------------------------------------------
# pair sums


def _distance(eng: _Engine, observables, columns, c: Fraction) -> Fraction:
    """|| mean_t x_t - c ||^2 over the terms x_t = prod_j T^{columns[j][t]} f_j.

    Single-transformation arrays and commuting families differ only in how a
    term index maps to its row of shifts, so both come through here.

    On a rotation or a finite point system ``_Grid.sums`` takes both sums
    as integrals of V = sum_t x_t.  Elsewhere, with one factor every pair
    term is a correlation, <x_t, x_u> = C_f(s_u - s_t), and
    ``_Correlation.sweep`` takes the pair sum.

    With more factors the terms are grouped into classes of equal rows,
    class r with multiplicity h_r.  On independent coordinates
    ``_counted_sums`` takes both sums from the classes' atoms.  Elsewhere the
    mean sum is sum_r h_r <x_r> and the pair sum is sum_{r,r'} h_r h_r'
    <x_r, x_r'>, taken over unordered pairs with factor 2 off the diagonal,
    each as integer masses per exponent (``_Engine.masses``).
    """
    terms = len(columns[0])
    if eng.grid:
        mean_sum, pair_sum = _Grid(eng, observables).sums(columns)
    elif len(observables) == 1:
        (shifts,) = columns
        corr = _Correlation(eng, observables[0], eng.diff(shifts[0], shifts[0]))
        return corr.sweep(shifts) / terms**2 - 2 * c * corr.mean + c * c
    elif eng.independent:
        mean_sum, pair_sum = _counted_sums(eng, observables, _classes(zip(*columns)))
    else:
        classes = [([eng.factor(f, s) for f, s in zip(observables, k)], h) for k, h in _classes(zip(*columns)).items()]
        means, pairs = defaultdict(int), defaultdict(int)  # exponent -> masses
        for i, (xr, h) in enumerate(classes):
            eng.masses(xr, means, h)
            for j in range(i, len(classes)):
                xs, g = classes[j]
                eng.masses(xr + xs, pairs, (1 if i == j else 2) * h * g)
        scale = math.prod(f.integer_form[0] for f in observables)
        mean_sum, pair_sum = eng.integral(means, scale), eng.integral(pairs, scale * scale)
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

    Each class r expands into weighted maps (``Observable.atoms``,
    ``_atom_product``), and m_r = h_r <x_r> sums their masses (``_weigh``).
    Classes on disjoint coordinates are independent, so the pair sum is
    (sum_r m_r)^2 plus k (h_r h_r' <x_r, x_r'> - m_r m_r'), k = 2 off the
    diagonal, over only the pairs of classes that share a coordinate; the
    joint term streams the maps of r against those of r' as atoms
    (``_agreeing``).  Every sum is an integer over den^(2 top), top the
    most coordinates a map fixes.
    """
    weigh, nums, den = eng.system._weigh, eng.system._nums, eng.system._den
    move = eng.move  # ``_Engine.factor`` inlined: one call per class and factor costs 5 %
    classes = []  # per class: its maps (map, weight * mass), as atoms (weight, coords, row), ``_agreeing``
    where = defaultdict(set)  # coordinate -> indices of the classes that fix it
    for i, (row, h) in enumerate(mult.items()):
        maps, atoms = [], []
        for w, A in _atom_product([[(v, move(C, s).coords, r) for v, C, r in f.atoms] for f, s in zip(observables, row)]):
            maps.append((A, h * w * weigh(A)[0]))
            atoms.append((h * w, tuple(A), tuple(A.values())))
            for c in A:
                where[c].add(i)
        classes.append((maps, atoms, _agreeing(atoms)))

    top = max((len(A) for maps, _, _ in classes for A, _ in maps), default=0)
    pows = [den**e for e in range(2 * top + 1)]
    means = [sum(mass * pows[top - len(A)] for A, mass in maps) for maps, _, _ in classes]
    mean_sum = sum(means)
    pair_sum = mean_sum * mean_sum
    for i, (maps, _, _) in enumerate(classes):
        for j in {j for A, _ in maps for c in A for j in where[c] if j >= i}:
            _, atoms, index = classes[j]
            joint = 0
            for A, mass in maps:
                fixed = len(A)
                for v, coords, row in atoms if index is None else index(A):
                    m, n = mass * v, fixed
                    for c, s in zip(coords, row):
                        r = A.get(c)
                        if r is None:
                            m *= nums[s]
                            n += 1
                        elif r != s:
                            break
                    else:
                        joint += m * pows[2 * top - n]
            pair_sum += (1 if i == j else 2) * (joint - means[i] * means[j])

    scale = math.prod(f.integer_form[0] for f in observables) * pows[top]
    return Fraction(mean_sum, scale), Fraction(pair_sum, scale * scale)


def _shift_columns(spec: ArraySpec, N: int, n_start: int, count: int) -> list[list[int]]:
    """Per exponent, P_j(n, N) for n = n_start .. n_start+count-1, walked
    along n by its difference table."""
    return [list(p.values_along_n(N, n_start, count)) for p in spec.exponents]


def _row_integral(eng: _Engine, observables):
    """(mod, unit, integral) for rows of 2*ell shifts: integral(row) is unit
    times the integral of prod_j T^{row[j]} f_{j mod ell}, an integer on a
    grid (``_Grid``), else by ``_Engine.inner``, and mod reduces a shift
    without changing that."""
    if eng.grid:
        grid = _Grid(eng, observables)
        return grid.mod, grid.Q * grid.scale**2, lambda row: grid.sweep(grid.term(row, 1, acc := defaultdict(int)), acc)[0]
    factor = cache(lambda j, s: eng.factor(observables[j % len(observables)], s))
    return int, 1, lambda row: eng.inner([factor(j, s) for j, s in enumerate(row)])


def array_term_inner(spec: ArraySpec, N: int, n1: int, n2: int) -> Fraction:
    """Exact <x_{n1,N}, x_{n2,N}> for the array terms of the spec."""
    _, unit, integral = _row_integral(_Engine(spec.system), spec.observables)
    return Fraction(integral([p.eval(n, N) for n in (n1, n2) for p in spec.exponents]), unit)


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
    return _distance(_Engine(spec.system), spec.observables, _shift_columns(spec, N, 1, N), c)


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
    columns = [[action.shift_vector(j, n, N) for n in range(N + 1)] for j in range(1, action.ell + 1)]
    return _distance(_Engine(action.system, vector_shifts=True), cspec.observables, columns, c)


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
    shifts = list(zip(*_shift_columns(spec, N, 0, N + 1)))
    if not getattr(system, "invertible", True):
        if any(s < 0 for row in shifts[1:] for s in row):
            raise ValueError("negative exponents on a non-invertible system")
    eng = None if sampled else _Engine(system)

    def term_value(x, n):
        v = Fraction(1)
        for f, s in zip(spec.observables, shifts[n]):
            if sampled:  # T^s x in S
                v *= f.eval_at(system.orbit(x, s), system.point_in)
            else:  # x in T^{-s} S
                v *= f.eval_at(x, lambda pt, S: system.point_in(pt, eng.shifted(S, s)))
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
    if method not in ("exact", "mc"):
        raise ValueError(f"method must be exact or mc, not {method!r}")
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


def vdc_correlations(spec: ArraySpec, N: int, H: int) -> VdcReport:
    if H < 1:
        raise ValueError("H must be >= 1")
    if isinstance(spec.system, SampledSystem):
        raise ValueError("sampled-tier system: correlations need the exact tier")
    columns = _shift_columns(spec, N, 1, N + H)
    mod, unit, inner = _row_integral(_Engine(spec.system), spec.observables)
    # <x_n, x_{n+h}> integrates the product over the joined rows of shifts,
    # which T^{-s_1(n)} moves to start at 0: one integral per distinct key
    rows, inners = [], {}
    for h in range(1, H + 1):
        total = 0
        pairs = Counter(zip(*(map(mod, map(sub, col[k : k + N], columns[0])) for k in (0, h) for col in columns)))
        for key, count in pairs.items():
            ip = inners.get(key)
            if ip is None:
                ip = inners[key] = inner(key)
            total += ip if count == 1 else count * ip  # aperiodic keys: skip the product
        rows.append((h, Fraction(total, unit * N)))
    drop = math.ceil(H * _TRIM_FRACTION)
    kept = sorted((abs(v), v) for _, v in rows)[: max(H - drop, 1)]
    dlim = sum((v for _, v in kept), Fraction(0)) / len(kept)
    return VdcReport(N, H, tuple(rows), dlim, _TRIM_FRACTION)
