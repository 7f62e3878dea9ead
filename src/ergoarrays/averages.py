"""Nonconventional array averages A_N = (1/N) sum_n prod_j T^{P_j(n,N)} f_j.

The exact path expands the squared L^2 distance of A_N to a scalar target
into the mean of the terms x_n and the sum of their pairwise inner products
<x_n, x_m>; every inner product is a finite combination of measures of
intersections of translated algebra sets, so the result is an exact
rational.  Single-transformation arrays and commuting families share one
distance routine that takes, per term, its row of shifts.  Terms are first
grouped into classes by that row, each shift reduced mod the system's period
q when it has one (T^q = id), with multiplicities h_r; aperiodic rows key
themselves.  It then picks the cheapest of three paths:

* stationary: for a single factor whose shifts are linear in n (one
  observable with an exponent of degree <= 1 in n, or a commuting family
  with one generator pair), <x_{n+d}, x_n> = <x_d, x_0> by invariance, so
  one inner product per class suffices;
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

Both quadratic paths are capped at max_quadratic_n classes.  The van der
Corput tables group the pairs (class(n), class(n+h)) the same way.

A seeded Monte Carlo estimator covers the sampled tier and doubles as a
cross-check of the exact path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .intpoly import IntPoly2
from .sets import ArcUnion, CylinderUnion, intersect
from .systems import GaussMap, LatticeAction, SampledSystem
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
        """(constant, ((coeff, shifted set), ...), support-or-None)."""
        terms = tuple((c, self.shifted(S, shift)) for c, S in obs.terms)
        support = None
        if self.independent and all(isinstance(S, CylinderUnion) for _, S in terms):
            support = frozenset(c for _, S in terms for c in S.coords)
        return (obs.constant, terms, support)

    def inner(self, factors) -> Fraction:
        """Exact integral of the product of the given factors."""
        if self.independent and all(f[2] is not None for f in factors):
            groups = _group_by_overlap(factors)
            total = Fraction(1)
            for g in groups:
                val = self._expand(g)
                if val == 0:
                    return Fraction(0)
                total *= val
            return total
        return self._expand(factors)

    def _expand(self, factors) -> Fraction:
        total = Fraction(0)
        n = len(factors)

        def rec(idx, coeff, inter):
            nonlocal total
            if idx == n:
                total += coeff if inter is None else coeff * self.measure(inter)
                return
            const, terms, _ = factors[idx]
            if const != 0:
                rec(idx + 1, coeff * const, inter)
            for c, S in terms:
                if c == 0:
                    continue
                nxt = S if inter is None else intersect(inter, S)
                if not nxt.is_empty():
                    rec(idx + 1, coeff * c, nxt)

        rec(0, Fraction(1), None)
        return total


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
            if factors[i][2] & factors[j][2]:
                parent[find(i)] = find(j)
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(factors[i])
    return [groups[k] for k in sorted(groups)]


def _is_plain_indicator(obs: Observable) -> bool:
    return (
        obs.constant == 0
        and len(obs.terms) == 1
        and obs.terms[0][0] == 1
        and isinstance(obs.terms[0][1], CylinderUnion)
        and len(obs.terms[0][1].rows) == 1
    )


def _residue_rows(eng: _Engine, shift_rows) -> list[tuple]:
    """Each term's row of shifts as a hashable key, every shift reduced mod
    ``eng.system.period`` when there is one (T^q and every translation by
    q*e_i are the identity, so a vector reduces componentwise): terms with
    equal keys are equal functions.  Aperiodic rows are kept as they are."""
    q = eng.system.period
    if not q:
        return [tuple(row) for row in shift_rows]
    mod = (lambda v: tuple(x % q for x in v)) if eng.vector else (lambda s: s % q)
    return [tuple(map(mod, row)) for row in shift_rows]


def _distance(
    eng: _Engine, observables, shift_rows, c: Fraction, stationary: bool, max_quadratic_n: int
) -> Fraction:
    """|| mean_t x_t - c ||^2 over the terms x_t = prod_j T^{shift_rows[t][j]} f_j.

    Single-transformation arrays and commuting families differ only in how a
    term index maps to its row of shifts, so both come through here.  Terms
    are grouped into classes by their residue row (see ``_residue_rows``),
    class r with multiplicity h_r: the mean sum is sum_r h_r <x_r> and the
    pair sum is sum_{r,r'} h_r h_r' <x_r, x_r'>, taken over unordered pairs
    with factor 2 off the diagonal.  An aperiodic system keys each row by
    itself, so its classes are its distinct rows.  The caller sets
    ``stationary`` when the shifts are one vector times t plus a constant:
    then <x_{t+d}, x_t> = <x_d, x_0> by invariance, and the pair weights of
    every d are added into the bin of the class of x_d, one inner product
    per class.  Off the stationary path the classes are capped at
    ``max_quadratic_n``.
    """
    terms = len(shift_rows)
    keys = _residue_rows(eng, shift_rows)
    mult = Counter(keys)
    if not stationary and len(mult) > max_quadratic_n:
        raise ResourceCapError(f"{len(mult)} classes exceed the quadratic-path cap {max_quadratic_n}")
    if not stationary and eng.independent and all(_is_plain_indicator(f) for f in observables):
        sets = [f.terms[0][1] for f in observables]
        mean_sum, pair_sum = _counted_sums(
            eng.system.probs,
            [([eng.shifted(S, s) for S, s in zip(sets, k)], h) for k, h in mult.items()],
        )
    else:
        x = {k: [eng.factor(f, s) for f, s in zip(observables, k)] for k in mult}
        mean_sum = pair_sum = Fraction(0)
        if stationary:
            x0 = x[keys[0]]
            mean_sum = terms * eng.inner(x0)
            weight: Counter = Counter()
            for d, k in enumerate(keys):
                weight[k] += terms if d == 0 else 2 * (terms - d)
            for k, w in weight.items():
                pair_sum += w * eng.inner(x[k] + x0)
        else:
            classes = [(x[k], h) for k, h in mult.items()]
            for i, (xr, h) in enumerate(classes):
                mean_sum += h * eng.inner(xr)
                for j in range(i, len(classes)):
                    xs, g = classes[j]
                    ip = eng.inner(xr + xs)
                    pair_sum += (1 if i == j else 2) * h * g * ip
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
        spec.ell == 1 and spec.exponents[0].deg_n <= 1,
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
        action.ell == 1,
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
    keys = _residue_rows(eng, _shift_rows(spec, N, 1, N + H))
    x = {k: [eng.factor(f, s) for f, s in zip(spec.observables, k)] for k in keys}
    inners: dict = {}  # one inner product per distinct (class(n), class(n+h))
    rows = []
    for h in range(1, H + 1):
        total = Fraction(0)
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
