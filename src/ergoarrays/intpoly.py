"""Exact bivariate integer-valued polynomials in the binomial basis.

A polynomial P(n, N) is stored as a finite map (i, j) -> c_ij of integer
coefficients against the basis C(n, i) * C(N, j).  Integer combinations of
these products are exactly the polynomials taking integer values at all
integer points, so integrality is a property of the representation and never
needs a runtime check.  The zero polynomial is the empty map; stored
coefficients are always nonzero, which makes equality of canonical forms
equality of polynomials.

Monomial-basis views (with Fraction coefficients) exist for parsing and
pretty-printing; ``from_monomials`` rejects inputs that are not
integer-valued.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping, Sequence

from .util import ResourceCapError, binom

Key = tuple[int, int]  # (degree in n, degree in N) of a binomial basis term

_MONO = dict[Key, Fraction]

_MAX_DEGREE = 32  # the parser expands no product of higher total degree in n and N


@dataclass(frozen=True)
class IntPoly2:
    """Integer-valued polynomial of (n, N), canonical binomial-basis form."""

    terms: tuple[tuple[Key, int], ...]  # sorted by key, no zero coefficients

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[Key, int]) -> "IntPoly2":
        items = []
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative basis degree {(i, j)}")
            if int(c) != c:
                raise ValueError(f"binomial coefficient {c!r} is not an integer")
            if c != 0:
                items.append(((i, j), int(c)))
        return cls(tuple(sorted(items)))

    @classmethod
    def _of(cls, coeffs: Mapping[Key, int]) -> "IntPoly2":
        """From integer coefficients at nonnegative keys, as the arithmetic
        below produces them: zeros dropped and keys sorted, nothing checked."""
        return cls(tuple(sorted((k, c) for k, c in coeffs.items() if c)))

    @classmethod
    def zero(cls) -> "IntPoly2":
        return cls(())

    @classmethod
    def const(cls, c: int) -> "IntPoly2":
        return cls.from_coeffs({(0, 0): c})

    @classmethod
    def from_monomials(cls, mono: Mapping[Key, Fraction | int]) -> "IntPoly2":
        """Convert sum a_uv n^u N^v; raise if not integer-valued.

        Binomial coefficients are recovered as iterated forward differences
        of the value table at (0..dn, 0..dN), dn and dN the largest powers
        of n and N; the polynomial is integer-valued on integers iff all of
        them are integers.
        """
        mono = {k: Fraction(v) for k, v in mono.items() if v != 0}
        if not mono:
            return cls.zero()
        dn = max(u for u, _ in mono)
        dN = max(v for _, v in mono)
        vals = [
            [_eval_mono(mono, a, b) for b in range(dN + 1)] for a in range(dn + 1)
        ]
        # forward differences in the n direction, per column
        for i in range(1, dn + 1):
            for a in range(dn, i - 1, -1):
                for b in range(dN + 1):
                    vals[a][b] -= vals[a - 1][b]
        # then in the N direction, per row
        for j in range(1, dN + 1):
            for b in range(dN, j - 1, -1):
                for a in range(dn + 1):
                    vals[a][b] -= vals[a][b - 1]
        coeffs: dict[Key, int] = {}
        for a in range(dn + 1):
            for b in range(dN + 1):
                c = vals[a][b]
                if c.denominator != 1:
                    raise ValueError(
                        "polynomial is not integer-valued on integers: basis "
                        f"coefficient at C(n,{a})C(N,{b}) is {c}"
                    )
                coeffs[(a, b)] = int(c)
        return cls._of(coeffs)

    @classmethod
    def parse(cls, text: str) -> "IntPoly2":
        """Parse a monomial expression over n, N, e.g. "3*n + 2*N" or
        "n*(n-1)/2".  Division is allowed by nonzero constants only; the
        result must be integer-valued on integers."""
        return cls.from_monomials(_parse_monomials(text))

    # -- basic queries ------------------------------------------------------

    @property
    def coeffs(self) -> dict[Key, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k, _ in self.terms)

    def varying_terms(self) -> tuple[tuple[Key, int], ...]:
        """The terms but the constant: p - q is constant iff these agree."""
        return self.terms[1:] if self.terms and self.terms[0][0] == (0, 0) else self.terms

    def constant_value(self) -> int:
        """Value at (0, 0)."""
        for k, c in self.terms:
            if k == (0, 0):
                return c
        return 0

    @property
    def deg_n(self) -> int:
        """Degree in n (0 for polynomials free of n, including 0)."""
        return max((i for (i, _), _ in self.terms), default=0)

    def depends_on_n(self) -> bool:
        return any(i >= 1 for (i, _), _ in self.terms)

    def depends_on_N(self) -> bool:
        return any(j >= 1 for (_, j), _ in self.terms)

    def top_coeff_n(self) -> int:
        """Binomial-basis coefficient of C(n, deg_n); requires an n-only
        polynomial (used for leading-coefficient comparisons)."""
        if self.depends_on_N():
            raise ValueError("top_coeff_n is defined for n-only polynomials")
        d = self.deg_n
        return self.coeffs.get((d, 0), 0)

    def linear_n_form(self) -> tuple[int, "IntPoly2"] | None:
        """Decompose as p*n + Q(N) when possible, else None.

        The n-coefficient must be a genuine integer, i.e. no basis term
        couples n with N and no term has n-degree >= 2.
        """
        rest: dict[Key, int] = {}
        p = 0
        for (i, j), c in self.terms:
            if i == 0:
                rest[(i, j)] = c
            elif i == 1 and j == 0:
                p = c
            else:
                return None
        return p, IntPoly2._of(rest)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntPoly2") -> "IntPoly2":
        out = self.coeffs
        for k, c in other.terms:
            out[k] = out.get(k, 0) + c
        return IntPoly2._of(out)

    def __sub__(self, other: "IntPoly2") -> "IntPoly2":
        return self + (-other)

    def __neg__(self) -> "IntPoly2":
        return IntPoly2(tuple((k, -c) for k, c in self.terms))

    def eval(self, n: int, N: int) -> int:
        total = 0
        for (i, j), c in self.terms:
            total += c * binom(n, i) * binom(N, j)
        return total

    def shift_n(self, h: int) -> "IntPoly2":
        """P(n + h, N), exactly, via Vandermonde convolution of the basis."""
        out: dict[Key, int] = {}
        for (i, j), c in self.terms:
            for s in range(i + 1):
                w = c * binom(h, i - s)
                if w:
                    out[(s, j)] = out.get((s, j), 0) + w
        return IntPoly2._of(out)

    def drop_constant(self) -> "IntPoly2":
        """Subtract the value at the origin, so the result vanishes at (0,0)."""
        return self - IntPoly2.const(self.constant_value())

    def to_monomials(self) -> _MONO:
        out: _MONO = {}
        for (i, j), c in self.terms:
            for (u, cu) in _falling_expansion(i):
                for (v, cv) in _falling_expansion(j):
                    k = (u, v)
                    out[k] = out.get(k, Fraction(0)) + c * cu * cv
        return {k: v for k, v in out.items() if v != 0}

    def __str__(self) -> str:
        mono = self.to_monomials()
        if not mono:
            return "0"
        parts = []
        for (u, v) in sorted(mono, reverse=True):
            c = mono[(u, v)]
            piece = []
            if c != 1 or (u == 0 and v == 0):
                piece.append(str(c))
            if u:
                piece.append("n" if u == 1 else f"n**{u}")
            if v:
                piece.append("N" if v == 1 else f"N**{v}")
            parts.append("*".join(piece))
        return " + ".join(parts).replace("+ -", "- ")

    def values_along_n(self, N: int, n_start: int, count: int) -> Iterator[int]:
        """Yield P(n, N) for n = n_start .. n_start+count-1.

        Iterates the forward-difference table, O(deg_n) integer additions per
        point instead of a full evaluation.
        """
        d = self.deg_n
        table = [self.eval(n_start + t, N) for t in range(d + 1)]
        for lvl in range(1, d + 1):
            for t in range(d, lvl - 1, -1):
                table[t] -= table[t - 1]
        for _ in range(count):
            yield table[0]
            for t in range(d):
                table[t] += table[t + 1]


def _eval_mono(mono: _MONO, n: int, N: int) -> Fraction:
    total = Fraction(0)
    for (u, v), c in mono.items():
        total += c * n**u * N**v
    return total


def _falling_expansion(k: int) -> list[tuple[int, Fraction]]:
    """Monomial coefficients of C(x, k) as a list of (power, coefficient)."""
    # x(x-1)...(x-k+1)/k!
    poly = [Fraction(1)]
    for t in range(k):
        nxt = [Fraction(0)] * (len(poly) + 1)
        for p, c in enumerate(poly):
            nxt[p + 1] += c
            nxt[p] -= c * t
        poly = nxt
    fact = 1
    for t in range(2, k + 1):
        fact *= t
    return [(p, c / fact) for p, c in enumerate(poly) if c != 0]


# ---------------------------------------------------------------------------
# parser for the CLI / config text syntax


def _parse_monomials(text: str) -> _MONO:
    if not isinstance(text, str):
        raise ValueError(f"polynomial must be given as text, got {text!r}")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse polynomial {text!r}: {exc}") from None
    return _node_to_mono(tree.body)


def _node_to_mono(node: ast.AST) -> _MONO:
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int):
            raise ValueError(f"only integer constants allowed, got {node.value!r}")
        return {(0, 0): Fraction(node.value)} if node.value else {}
    if isinstance(node, ast.Name):
        if node.id == "n":
            return {(1, 0): Fraction(1)}
        if node.id == "N":
            return {(0, 1): Fraction(1)}
        raise ValueError(f"unknown variable {node.id!r} (only n, N allowed)")
    if isinstance(node, ast.UnaryOp):
        inner = _node_to_mono(node.operand)
        if isinstance(node.op, ast.USub):
            return {k: -v for k, v in inner.items()}
        if isinstance(node.op, ast.UAdd):
            return inner
        raise ValueError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Add):
            return _mono_add(_node_to_mono(node.left), _node_to_mono(node.right))
        if isinstance(node.op, ast.Sub):
            right = {k: -v for k, v in _node_to_mono(node.right).items()}
            return _mono_add(_node_to_mono(node.left), right)
        if isinstance(node.op, ast.Mult):
            return _mono_mul(_node_to_mono(node.left), _node_to_mono(node.right))
        if isinstance(node.op, ast.Div):
            divisor = _node_to_mono(node.right)
            if any(k != (0, 0) for k in divisor):
                raise ValueError("division only by nonzero constants")
            c = divisor.get((0, 0), Fraction(0))
            if c == 0:
                raise ValueError("division by zero")
            return {k: v / c for k, v in _node_to_mono(node.left).items()}
        if isinstance(node.op, ast.Pow):
            exp = node.right
            if not (isinstance(exp, ast.Constant) and isinstance(exp.value, int) and exp.value >= 0):
                raise ValueError("exponents must be literal nonnegative integers")
            base = _node_to_mono(node.left)
            if set(base) <= {(0, 0)}:  # a constant, raised in one step
                c = base.get((0, 0), Fraction(0)) ** exp.value
                return {(0, 0): c} if c else {}
            out: _MONO = {(0, 0): Fraction(1)}
            for _ in range(exp.value):
                out = _mono_mul(out, base)
            return out
        raise ValueError("unsupported operator in polynomial expression")
    raise ValueError(f"unsupported syntax in polynomial expression: {ast.dump(node)}")


def _mono_add(a: _MONO, b: _MONO) -> _MONO:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def _mono_mul(a: _MONO, b: _MONO) -> _MONO:
    if max(u + v for u, v in (*a, (0, 0))) + max(u + v for u, v in (*b, (0, 0))) > _MAX_DEGREE:
        raise ResourceCapError(f"polynomial of total degree over {_MAX_DEGREE} in n and N")
    out: _MONO = {}
    for (u1, v1), c1 in a.items():
        for (u2, v2), c2 in b.items():
            k = (u1 + u2, v1 + v2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# distinctness analysis


def essentially_distinct(ps: Sequence[IntPoly2]) -> bool:
    """True iff every pairwise difference is a nonconstant polynomial."""
    if len(ps) < 2:
        raise ValueError("need at least two polynomials")
    return len({p.varying_terms() for p in ps}) == len(ps)


@dataclass(frozen=True)
class ShiftReport:
    """Constant-difference pairs in the family {P_i(n,N)} u {P_i(n+h,N)}.

    ``expected`` lists the unavoidable self-pairs: indices i where
    P_i = p_i*n + Q_i(N), whose shift differs by the constant p_i*h.
    Any other constant-difference pair lands in ``violations`` and means the
    shift h is too small for this family.
    """

    h: int
    expected: tuple[tuple[int, int], ...]  # (index, constant difference)
    violations: tuple[tuple[tuple[str, int], tuple[str, int], int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def shifted_distinctness_report(ps: Sequence[IntPoly2], h: int) -> ShiftReport:
    if h < 1:
        raise ValueError("shift h must be >= 1")
    if any(p.is_constant() for p in ps):
        raise ValueError("all polynomials must be nonconstant")
    if any(not p.depends_on_n() for p in ps):
        raise ValueError("all polynomials must depend on n")
    if len(ps) >= 2 and not essentially_distinct(ps):
        raise ValueError("polynomials must be pairwise essentially distinct")

    family = [("base", i, p) for i, p in enumerate(ps)]
    family += [("shift", i, p.shift_n(h)) for i, p in enumerate(ps)]
    expected: list[tuple[int, int]] = []
    violations: list[tuple[tuple[str, int], tuple[str, int], int]] = []
    for a in range(len(family)):
        fam_a, ia, pa = family[a]
        for b in range(a + 1, len(family)):
            fam_b, ib, pb = family[b]
            if pb.varying_terms() != pa.varying_terms():
                continue
            diff = pb.constant_value() - pa.constant_value()
            linear = ps[ia].linear_n_form()
            if fam_a == "base" and fam_b == "shift" and ia == ib and linear is not None:
                expected.append((ia, diff))
            else:
                violations.append(((fam_a, ia), (fam_b, ib), diff))
    return ShiftReport(h, tuple(expected), tuple(violations))


def minimal_distinct_shift(ps: Sequence[IntPoly2], cap: int = 10_000) -> int:
    """Smallest h >= 1 whose ShiftReport carries no violations."""
    for h in range(1, cap + 1):
        if shifted_distinctness_report(ps, h).ok:
            return h
    raise ValueError(f"no violation-free shift found up to cap {cap}")


@dataclass(frozen=True)
class SmallValueCount:
    """Count of n in [1, N] with |P(n, N)| <= K, plus the generic bound
    (2K+1)*d for the degree d of n -> P(n, N) at this N, defined only when
    d >= 1."""

    count: int
    bound: int | None


def count_small_values(p: IntPoly2, K: int, N: int) -> SmallValueCount:
    """Count the n in [1, N] with |P(n, N)| <= K in O(d^2 log N) exact
    integer evaluations, d the degree of n -> P(n, N) at this N.

    At this N, P = sum_i a_i C(n, i) with a_i = sum_j c_ij C(N, j), so d is
    the last i with a_i != 0 and the k-th forward difference is D^k =
    sum_i a_(k+i) C(n, i).  Where D^k keeps one sign D^(k-1) is monotone, so
    from the constant D^d down each monotone run of D^k splits where its sign
    changes (one binary search) and runs of one direction merge.  P ends in at
    most d monotone runs, and two binary searches on each bound |P| <= K.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    a = [0] * (p.deg_n + 1)
    for (i, j), c in p.terms:
        a[i] += c * binom(N, j)
    d = max((i for i, c in enumerate(a) if c), default=0)
    # m! D^k = e_0 + n(e_1 + (n - 1)(e_2 + ...)) for m = d - k, with integers e_i = a_(k+i) m!/i!
    e = [[a[k + i] * factorial(d - k) // factorial(i) for i in range(d - k + 1)] for k in range(d + 1)]

    def diff(k: int, n: int) -> int:  # (d - k)! D^k P(n, N)
        v = 0
        for i in range(d - k, -1, -1):
            v = e[k][i] + (n - i) * v
        return v

    def first(lo: int, hi: int, pred) -> int:  # least n in [lo, hi] with pred, else hi + 1
        if (at_lo := pred(lo)) or not pred(hi):
            return lo if at_lo else hi + 1
        while hi - lo > 1:  # pred(lo) is false, pred(hi) true
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if pred(mid) else (mid, hi)
        return hi

    # (start, nondecreasing) of each monotone run of D^(d-1), of P if d = 0, and an end mark
    runs = [(1, a[d] >= 0), (N + 1, None)]
    for k in range(d - 1, 0, -1):
        split = []
        for (lo, up), (end, _) in zip(runs, runs[1:]):
            s = first(lo, end - 1, lambda n: (diff(k, n) >= 0) == up)
            split += [(lo, not up)] * (lo < s) + [(s, up)] * (s < end)
        runs = [r for i, r in enumerate(split) if not i or r[1] != split[i - 1][1]] + [(N + 1, None)]
    count, bar = 0, K * factorial(d)  # diff(0, n) is d! P(n, N)
    for (lo, up), (end, _) in zip(runs, runs[1:]):
        sign = 1 if up else -1
        past = lambda b: first(lo, end - 1, lambda n: sign * diff(0, n) > b)  # sign * P rises on the run
        count += past(bar) - past(-bar - 1)
    return SmallValueCount(count, (2 * K + 1) * d if d else None)
