"""Symbolic weight-matrix bookkeeping for polynomial-exponent systems.

Group elements are formal products T_1^{P_1(n)} ... T_k^{P_k(n)} *
That_1^{Q_1(N)} ... That_k^{Q_k(N)} over free abelian generators, with
integer-valued exponent polynomials.  The module implements the weight of an
expression, equivalence of expressions, weight matrices of finite systems,
the precedence (descent) order on weight matrices, and one differencing
reduction step; iterating the step descends strictly in precedence until the
trivial matrix or an all-degree-one system is reached.

Only the combinatorial skeleton is certified here: the analytic content that
each reduction step carries (conditional expectations, L^2 limits) lives in
the averages module and is not asserted symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intpoly import IntPoly2


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

    def shift_n(self, h: int) -> "PExpr":
        """The h-differenced copy: n-exponents P(n+h) - P(h), N-parts kept."""
        return PExpr(
            tuple((p.shift_n(h)).drop_constant() for p in self.n_exps),
            self.N_exps,
        )

    def sort_key(self):
        return tuple((p.terms, q.terms) for p, q in zip(self.n_exps, self.N_exps))


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
    if w1 != w2:
        return False
    return (
        e1.n_exps[w1.r - 1].top_coeff_n() == e2.n_exps[w2.r - 1].top_coeff_n()
    )


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
    classes: dict[tuple[int, int], set[int]] = {}
    D = 0
    for e in system:
        w = weight(e)  # raises on constant-in-n members
        D = max(D, e.degree())
        lead = e.n_exps[w.r - 1].top_coeff_n()
        classes.setdefault((w.r, w.d), set()).add(lead)
    counts = {rd: len(leads) for rd, leads in classes.items()}
    return WeightMatrix.from_counts(k, D, counts)


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


def _first_collision(system: Sequence[PExpr]) -> tuple[int, int] | None:
    """The lexicographically first pair i < j whose quotient is constant in n.

    Exponents vanish at 0 and ``IntPoly2`` forms are canonical, so the
    quotient e_i e_j^{-1} is constant in n exactly when the two n-parts are
    equal: one dict of n-parts replaces the scan over all pairs.
    """
    groups: dict[tuple[IntPoly2, ...], list[int]] = {}
    for i, e in enumerate(system):
        groups.setdefault(e.n_exps, []).append(i)
    return min(((g[0], g[1]) for g in groups.values() if len(g) > 1), default=None)


def _check_hypotheses(system: Sequence[PExpr]) -> None:
    for i, e in enumerate(system):
        if e.is_constant_in_n():
            raise SystemHypothesisError(f"expression {i} is constant in n")
    pair = _first_collision(system)
    # the first member whose generator count differs from member 0's
    odd = next((j for j, e in enumerate(system) if e.k != system[0].k), None)
    if odd is not None and (pair is None or (0, odd) < pair):
        raise ValueError("generator counts differ")
    if pair is not None:
        raise SystemHypothesisError(
            f"expressions {pair[0]} and {pair[1]} have a quotient constant in n"
        )


def _auxiliary_system(system: Sequence[PExpr], h: int) -> list[PExpr]:
    """Original expressions plus h-differenced copies of the degree>=2 ones.

    Degree-one copies coincide with their originals and are not duplicated;
    any other coincidence in n-parts means h is too small.
    """
    aux = list(system)
    seen = set(aux)  # systems are sets of expressions; the list keeps order
    for e in system:
        if e.degree() >= 2:
            shifted = e.shift_n(h)
            if shifted not in seen:
                seen.add(shifted)
                aux.append(shifted)
    pair = _first_collision(aux)
    if pair is not None:
        i, j = pair
        if j < len(system):
            raise SystemHypothesisError(
                f"expressions {i} and {j} have a quotient constant in n"
            )
        raise ShiftTooSmallError(
            h, f"auxiliary members {i} and {j} coincide in their n-parts"
        )
    return aux


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
    return _reduce_step(system, h, pivot)[0]


def _reduce_step(
    system: Sequence[PExpr], h: int, pivot: int | None = None, before: WeightMatrix | None = None
) -> tuple[list[PExpr], WeightMatrix]:
    """reduce_step plus the output's weight matrix; ``before`` is the input's, if known."""
    system = list(system)
    _check_hypotheses(system)
    aux = _auxiliary_system(system, h)
    min_w = min(weight(e) for e in aux)
    if pivot is None:
        candidates = [i for i, e in enumerate(aux) if weight(e) == min_w]
        pivot = min(candidates, key=lambda i: aux[i].sort_key())
    else:
        if not 0 <= pivot < len(aux):
            raise ValueError(f"pivot index {pivot} outside auxiliary system")
        if weight(aux[pivot]) != min_w:
            raise ValueError("pivot must select a minimal-weight member")
    piv_inv = aux[pivot].inv()
    out: list[PExpr] = []
    for i, e in enumerate(aux):
        if i == pivot:
            continue
        reduced = e.mul(piv_inv)
        if reduced.is_constant_in_n():
            # cannot happen after the auxiliary-system scan; guard anyway
            raise ShiftTooSmallError(h, f"member {i} collapses onto the pivot")
        out.append(reduced)  # distinct: aux is, and multiplying by piv_inv is injective
    after = weight_matrix(out)
    if not precedes(after, weight_matrix(system) if before is None else before):
        raise RuntimeError("internal error: reduction did not descend in precedence")
    return out, after


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
    the descent.  ``max_system_size`` fails loudly instead of grinding.
    """
    system = list(system)
    _check_hypotheses(system)
    chain = [weight_matrix(system)]
    step = 0
    while not (chain[-1].is_m0() or all(e.degree() <= 1 for e in system)):
        if step >= max_steps:
            raise RuntimeError(f"descent did not terminate within {max_steps} steps")
        if len(system) > max_system_size:
            raise RuntimeError(
                f"system grew past {max_system_size} members at step {step}; "
                "the full expansion of this descent is not desk-scale"
            )
        if h_schedule is not None:
            if step >= len(h_schedule):
                raise ValueError("h_schedule exhausted before descent finished")
            system, nxt = _reduce_step(system, h_schedule[step], before=chain[-1])
        else:
            for h in range(1, h_cap + 1):
                try:
                    system, nxt = _reduce_step(system, h, before=chain[-1])
                    break
                except ShiftTooSmallError:
                    continue
            else:
                raise RuntimeError(f"no usable shift h <= {h_cap}")
        chain.append(nxt)  # _reduce_step checked that it descends from chain[-1]
        step += 1
    return chain
