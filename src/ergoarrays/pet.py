"""Symbolic weight-matrix bookkeeping for polynomial-exponent systems.

Group elements are formal products T_1^{P_1(n)} ... T_k^{P_k(n)} *
That_1^{Q_1(N)} ... That_k^{Q_k(N)} over free abelian generators, with
integer-valued exponent polynomials.  The module implements the weight of an
expression, equivalence of expressions, weight matrices of finite systems,
the precedence (descent) order on weight matrices, and one differencing
reduction step; iterating the step descends strictly in precedence until the
trivial matrix or an all-degree-one system is reached.

``pet_trace``, ``reduce_step`` and ``weight_matrix`` share one kernel on
rows of binomial-basis coefficients, each member encoded once: products are
differences of rows, the h-shift is one Pascal table, the weight is read off
the last nonzero entry.

Only the combinatorial skeleton is certified here: the analytic content that
each reduction step carries (conditional expectations, L^2 limits) lives in
the averages module and is not asserted symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul, sub
from typing import Sequence

from .intpoly import IntPoly2
from .util import ResourceCapError, binom


class SystemHypothesisError(ValueError):
    """An expression (or a quotient of two) is constant in n."""


class ShiftTooSmallError(RuntimeError):
    """The differencing shift h produced an unexpected constant quotient;
    retry with a larger h."""

    def __init__(self, h: int, detail: str):
        super().__init__(f"shift h={h} too small: {detail}; retry with larger h")
        self.h = h


def _as_poly(p) -> IntPoly2:
    if isinstance(p, IntPoly2):
        return p
    if isinstance(p, int):
        return IntPoly2.const(p)
    return IntPoly2.parse(p)


@dataclass(frozen=True)
class PExpr:
    """Formal product with n-exponents and N-exponents per generator.

    Exponents are normalized to vanish at 0 (absorbing constants into the
    observables is always possible), so "constant in n" coincides with "zero
    n-exponents".
    """

    n_exps: tuple[IntPoly2, ...]
    N_exps: tuple[IntPoly2, ...]

    def __post_init__(self):
        if len(self.n_exps) != len(self.N_exps):
            raise ValueError("n-exponent and N-exponent vectors differ in length")
        for p in self.n_exps:
            if p.depends_on_N():
                raise ValueError("n-exponents must be polynomials of n only")
            if p.constant_value() != 0:
                raise ValueError("exponents must be normalized to vanish at 0")
        for q in self.N_exps:
            if q.depends_on_n():
                raise ValueError("N-exponents must be polynomials of N only")
            if q.constant_value() != 0:
                raise ValueError("exponents must be normalized to vanish at 0")

    @classmethod
    def make(cls, n_exps: Sequence, N_exps: Sequence | None = None) -> "PExpr":
        """Build from polynomials or text; constants at the origin are dropped.

        Text exponents use the monomial syntax of :mod:`ergoarrays.intpoly`;
        n-exponents may mention n only, N-exponents N only.
        """
        n_polys = tuple(_as_poly(p).drop_constant() for p in n_exps)
        if N_exps is None:
            N_polys = tuple(IntPoly2.zero() for _ in n_polys)
        else:
            N_polys = tuple(_as_poly(q).drop_constant() for q in N_exps)
        return cls(n_polys, N_polys)

    @property
    def k(self) -> int:
        return len(self.n_exps)

    def mul(self, other: "PExpr") -> "PExpr":
        if self.k != other.k:
            raise ValueError("generator counts differ")
        return PExpr(
            tuple(a + b for a, b in zip(self.n_exps, other.n_exps)),
            tuple(a + b for a, b in zip(self.N_exps, other.N_exps)),
        )

    def inv(self) -> "PExpr":
        return PExpr(tuple(-p for p in self.n_exps), tuple(-q for q in self.N_exps))

    @classmethod
    def identity(cls, k: int) -> "PExpr":
        z = tuple(IntPoly2.zero() for _ in range(k))
        return cls(z, z)

    def is_constant_in_n(self) -> bool:
        return all(p.is_zero() for p in self.n_exps)

    def degree(self) -> int:
        """Max degree in n over the generators (0 when constant in n)."""
        return max((p.deg_n for p in self.n_exps), default=0)


@dataclass(frozen=True, order=True)
class Weight:
    """(generator index, degree); ordered first by index, then degree."""

    r: int
    d: int


def weight(e: PExpr) -> Weight:
    """Largest generator index with nonconstant n-exponent, and its degree."""
    for r in range(e.k, 0, -1):
        p = e.n_exps[r - 1]
        if not p.is_zero():
            return Weight(r, p.deg_n)
    raise ValueError("expression is constant in n and carries no weight")


def equivalent(e1: PExpr, e2: PExpr) -> bool:
    """Same weight and same leading coefficient at the weight index."""
    w1, w2 = weight(e1), weight(e2)
    return w1 == w2 and e1.n_exps[w1.r - 1].top_coeff_n() == e2.n_exps[w2.r - 1].top_coeff_n()


@dataclass(frozen=True)
class WeightMatrix:
    """Counts of equivalence classes per weight (r, d), 1<=r<=k, 1<=d<=D."""

    k: int
    D: int
    entries: tuple[tuple[tuple[int, int], int], ...]  # sorted, nonzero counts

    @classmethod
    def from_counts(cls, k: int, D: int, counts: dict[tuple[int, int], int]) -> "WeightMatrix":
        items = tuple(sorted((rd, c) for rd, c in counts.items() if c))
        return cls(k, D, items)

    def count(self, r: int, d: int) -> int:
        return dict(self.entries).get((r, d), 0)

    def is_m0(self) -> bool:
        """Single class at weight (1, 1) and nothing else."""
        return self.entries == (((1, 1), 1),)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "D": self.D,
            "entries": [{"r": r, "d": d, "count": c} for (r, d), c in self.entries],
        }


def weight_matrix(system: Sequence[PExpr]) -> WeightMatrix:
    if not system:
        raise ValueError("empty system")
    k = system[0].k
    if any(e.k != k for e in system):
        raise ValueError("all expressions must share the generator count")
    rows = _Rows(system)
    members = rows.encode(system)
    if not all(any(n) for n, _ in members):
        raise ValueError("expression is constant in n and carries no weight")
    return rows.matrix([n for n, _ in members])


def precedes(m_prime: WeightMatrix, m: WeightMatrix) -> bool:
    """Strict descent order on weight matrices.

    m' precedes m when some pivot weight (r0, d0) has its class count
    decremented by one, every entry at a strictly larger weight (in the
    (r, d) order with r dominant) is unchanged, and entries at smaller
    weights are arbitrary.  Matrices of different shape are compared by
    padding with zeros.  This one-step relation admits no infinite
    descending chains (it is a lexicographic decrease along weights read
    from the largest down).
    """
    a, b = dict(m_prime.entries), dict(m.entries)
    keys = set(a) | set(b)
    for pivot in sorted(keys):
        if a.get(pivot, 0) != b.get(pivot, 0) - 1:
            continue
        if all(a.get(k, 0) == b.get(k, 0) for k in keys if k > pivot):
            return True
    return False


Member = tuple[tuple[int, ...], tuple[int, ...]]  # (n-row, N-row)


def _first_collision(members: Sequence[Member]) -> tuple[int, int] | None:
    """The lexicographically first pair i < j whose quotient is constant in n.

    Exponents vanish at 0 and rows are canonical, so the quotient is
    constant in n exactly when the two n-rows are equal: one set of n-rows
    replaces the scan over all pairs.
    """
    if len({n for n, _ in members}) == len(members):
        return None
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (n, _) in enumerate(members):
        groups.setdefault(n, []).append(i)
    return min((g[0], g[1]) for g in groups.values() if len(g) > 1)


class _Rows:
    """The descent on coefficient rows of one layout (k, D, D_N).

    Entry r*D + i - 1 of a member's n-row holds the C(n, i) coefficient of
    generator r + 1, and likewise its N-row up to D_N.  A product of members
    is the difference of their rows, and the weight (r, d) is read from the
    last nonzero entry t of the n-row as divmod(t, D) + 1, so comparing
    weights is comparing t.  Shifts and products never raise D.
    """

    def __init__(self, system: Sequence[PExpr]):
        self.k = system[0].k if system else 0
        self.D = D = max((p.deg_n for e in system for p in e.n_exps), default=0)
        self.DN = max((j for e in system for q in e.N_exps for (_, j), _ in q.terms), default=0)
        self.cols = range(self.k * D)
        # 0/1 masks over an n-row: the C(n, d) columns for each d, and every column of degree >= 2
        self.degree_cols = [((0,) * (d - 1) + (1,) + (0,) * (D - d)) * self.k for d in range(1, D + 1)]
        self.high = ((0,) + (1,) * (D - 1)) * self.k

    def encode(self, system: Sequence[PExpr]) -> list[Member]:
        """Members of other generator counts get rows of other lengths."""
        def row(polys, width, axis):
            out = [0] * (len(polys) * width)
            for r, p in enumerate(polys):
                for key, c in p.terms:
                    out[r * width + key[axis] - 1] = c
            return tuple(out)

        return [(row(e.n_exps, self.D, 0), row(e.N_exps, self.DN, 1)) for e in system]

    def terms(self, row: tuple[int, ...], width: int, r: int) -> tuple[tuple[int, int], ...]:
        """(degree, coefficient) of each nonzero entry of generator r + 1."""
        block = row[r * width : r * width + width]
        return tuple(compress(enumerate(block, 1), block))

    def decode(self, members: Sequence[Member]) -> list[PExpr]:
        def polys(row, width, key):
            return tuple(IntPoly2(tuple((key(i), c) for i, c in self.terms(row, width, r))) for r in range(self.k))

        return [PExpr(polys(n, self.D, lambda i: (i, 0)), polys(N, self.DN, lambda j: (0, j))) for n, N in members]

    def matrix(self, rows: Sequence[tuple[int, ...]]) -> WeightMatrix:
        """Weight matrix of a system of nonzero n-rows."""
        if not rows:
            raise ValueError("empty system")
        D, classes = self.D, {}
        for n in rows:
            t = max(compress(self.cols, n))
            classes.setdefault(t, set()).add(n[t])
        top = next((d for d in range(D, 0, -1) if any(any(compress(n, self.degree_cols[d - 1])) for n in rows)), 0)
        return WeightMatrix.from_counts(self.k, top, {(t // D + 1, t % D + 1): len(v) for t, v in classes.items()})

    def shifter(self, h: int):
        """n-row of P -> n-row of P(n + h) - P(h), by the upper-triangular
        table C(n + h, i) = sum_s C(h, i - s) C(n, s) with column s = 0 dropped."""
        D = self.D
        pascal = [binom(h, t) for t in range(D)]
        spans = [(r * D + s, r * D + D, pascal[: D - s]) for r in range(self.k) for s in range(D)]
        return lambda n: tuple(sum(map(mul, w, n[lo:hi])) for lo, hi, w in spans)

    def sort_key(self, member: Member):
        """PExpr's sparse order: per generator its n-terms, then its N-terms."""
        return tuple((self.terms(member[0], self.D, r), self.terms(member[1], self.DN, r)) for r in range(self.k))

    def step(self, system: list[Member], h: int, before: WeightMatrix | None = None,
             pivot: int | None = None) -> tuple[list[Member], WeightMatrix]:
        """One reduction of a system meeting the hypotheses, with the output's
        weight matrix; ``before`` is the input's, if known."""
        shift, aux = self.shifter(h), list(system)
        seen = set(aux)  # systems are sets of members; the list keeps order
        for n, N in system:
            if any(compress(n, self.high)):  # degree-one copies equal their originals
                copy = (shift(n), N)
                if copy not in seen:
                    seen.add(copy)
                    aux.append(copy)
        pair = _first_collision(aux)  # the input has none, so j is a copy
        if pair is not None:
            raise ShiftTooSmallError(h, f"auxiliary members {pair[0]} and {pair[1]} coincide in their n-parts")
        ws = [max(compress(self.cols, n)) for n, _ in aux]
        least = min(ws)
        if pivot is None:
            ties = [i for i, w in enumerate(ws) if w == least]
            pivot = min(ties, key=lambda i: self.sort_key(aux[i])) if len(ties) > 1 else ties[0]
        elif not 0 <= pivot < len(aux):
            raise ValueError(f"pivot index {pivot} outside auxiliary system")
        elif ws[pivot] != least:
            raise ValueError("pivot must select a minimal-weight member")
        pn, pN = aux.pop(pivot)
        # n-rows stay distinct and nonzero: aux's are distinct
        out = [(tuple(map(sub, n, pn)), tuple(map(sub, N, pN))) for n, N in aux]
        after = self.matrix([n for n, _ in out])
        if before is None:
            before = self.matrix([n for n, _ in system])
        if not precedes(after, before):
            raise RuntimeError("internal error: reduction did not descend in precedence")
        return out, after


def _prepare(system: Sequence[PExpr]) -> tuple[_Rows, list[Member]]:
    """Encode a system and check the nonconstant-quotient hypotheses."""
    rows = _Rows(system)
    members = rows.encode(system)
    for i, (n, _) in enumerate(members):
        if not any(n):
            raise SystemHypothesisError(f"expression {i} is constant in n")
    pair = _first_collision(members)
    # the first member whose generator count differs from member 0's
    odd = next((j for j, e in enumerate(system) if e.k != system[0].k), None)
    if odd is not None and (pair is None or (0, odd) < pair):
        raise ValueError("generator counts differ")
    if pair is not None:
        raise SystemHypothesisError(f"expressions {pair[0]} and {pair[1]} have a quotient constant in n")
    return rows, members


def reduce_step(system: Sequence[PExpr], h: int, pivot: int | None = None) -> list[PExpr]:
    """One differencing step: returns the reduced system.

    Builds the auxiliary family (originals plus shifted copies of degree>=2
    members), right-multiplies everything by the inverse of the
    minimal-weight member and drops the resulting identity.  The weight
    matrix of the output always precedes the weight matrix of the input.

    ``pivot`` may pin the pivot index inside the auxiliary family; it must
    select a member of minimal weight (ties in the automatic choice are
    broken by the lexicographic order on exponent coefficient vectors).
    """
    rows, members = _prepare(list(system))
    return rows.decode(rows.step(members, h, pivot=pivot)[0])


def pet_trace(
    system: Sequence[PExpr],
    h_schedule: Sequence[int] | None = None,
    max_steps: int = 10**6,
    h_cap: int = 10_000,
    max_system_size: int = 100_000,
) -> list[WeightMatrix]:
    """Iterate reduce_step until the trivial matrix or an all-degree-one
    system; return the strictly descending chain of weight matrices.

    Without an explicit ``h_schedule`` each step scans h = 1, 2, ... past any
    too-small shifts (success for large h is guaranteed).  An explicit
    schedule is consumed one h per step and its failures propagate.

    Termination is guaranteed by well-foundedness of the precedence order,
    but the intermediate systems can grow by almost a factor of two per step
    (every degree->=2 member spawns a differenced copy), so dense systems
    mixing degree-one and higher-degree members blow up exponentially along
    the descent.  ``max_steps``, ``h_cap`` and ``max_system_size`` raise
    ``ResourceCapError`` instead of grinding.
    """
    rows, members = _prepare(list(system))
    chain = [rows.matrix([n for n, _ in members])]
    step = 0
    while not (chain[-1].is_m0() or chain[-1].D <= 1):
        if step >= max_steps:
            raise ResourceCapError(f"descent did not terminate within {max_steps} steps")
        if len(members) > max_system_size:
            raise ResourceCapError(
                f"system grew past {max_system_size} members at step {step}; "
                "the full expansion of this descent is not desk-scale"
            )
        if h_schedule is not None:
            if step >= len(h_schedule):
                raise ValueError("h_schedule exhausted before descent finished")
            members, nxt = rows.step(members, h_schedule[step], chain[-1])
        else:
            for h in range(1, h_cap + 1):
                try:
                    members, nxt = rows.step(members, h, chain[-1])
                    break
                except ShiftTooSmallError:
                    continue
            else:
                raise ResourceCapError(f"no usable shift h <= {h_cap}")
        chain.append(nxt)  # step checked that it descends from chain[-1]
        step += 1
    return chain
