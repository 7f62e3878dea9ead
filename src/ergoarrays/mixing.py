"""Mixing coefficients of finite-state Markov shifts, higher-order mixing
gaps, and the Cantor-like spectral level sets behind slow nN-averages.

The alpha coefficient is maximized exactly: over a finite window algebra the
extremal events depend only on the boundary coordinate (grouping atoms by
their end state leaves a bilinear form over boxes, maximized at vertices),
so the supremum reduces to subsets of states.  For a Markov measure this
value is the same for every window horizon.

Over subsets S (past) and T (future) of the s states the quantity is
|sum_{a in S, b in T} M_ab| with M_ab = pi_a (P^n_ab - pi_b).  For a fixed T
the best response S is {a : r_a > 0} or {a : r_a < 0}, where r_a is the row
sum of M over T, so only future sets are enumerated.  The columns of M sum
to 0 (pi is stationary), so both responses give the same value; its rows
sum to 0 too, so T and its complement do, and only the 2^(s-1) sets T
without the last state are needed.  They are walked along a Gray code,
which updates the row sums in O(s) integer steps over one common
denominator: O(2^s * s) in all, against O(4^s * s^2) for every pair of
sets.  The state count is capped where 2^s * s passes 2^20 (17 states).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .systems import MarkovShift
from .util import ResourceCapError, dist_to_int, lt_one_over_two_pi, parse_fraction

# the chain model of this module is the Markov shift itself; the old name
# stays importable
MarkovChainModel = MarkovShift


@dataclass(frozen=True)
class WindowEvent:
    """Event measurable from coordinates start..start+width-1, given as the
    set of admissible symbol tuples."""

    start: int
    rows: frozenset[tuple[int, ...]]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("all rows must have equal width")
        object.__setattr__(self, "width", next(iter(widths)) if widths else 1)

    @property
    def end(self) -> int:
        return self.start + self.width - 1

    @classmethod
    def of(cls, start: int, rows: Iterable[Sequence[int]]) -> "WindowEvent":
        return cls(start, frozenset(tuple(r) for r in rows))


def event_measure(chain: MarkovShift, ev: WindowEvent) -> Fraction:
    return chain.block_measure([(range(ev.start, ev.end + 1), ev.rows)])


def joint_measure(chain: MarkovShift, events: Sequence[WindowEvent]) -> Fraction:
    """mu of the intersection of events in disjoint ordered windows, by the
    chain's integer forward pass over the state at each window's end."""
    events = sorted(events, key=lambda e: e.start)
    for a, b in zip(events, events[1:]):
        if b.start <= a.end:
            raise ValueError("event windows must be ordered and disjoint")
    return chain.block_measure((range(e.start, e.end + 1), e.rows) for e in events)


def alpha_coefficient(chain: MarkovShift, n: int, horizon: int = 0) -> Fraction:
    """Exact sup of |mu(A&B) - mu(A)mu(B)| over past events A (coordinates
    [-horizon, 0]) and future events B (coordinates [n, n+horizon]).

    By the Markov property the supremum is attained on events measurable
    from the boundary coordinates 0 and n alone, so the value is the same
    for every horizon and is computed from those two coordinates.  The
    horizon only sizes the window algebra, states^(horizon + 1) cylinders,
    which above 2^20 raises ``ResourceCapError``, as do chains with more
    than 16 states.
    """
    if n < 0:
        raise ValueError("separation n must be >= 0")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if chain.states ** (horizon + 1) > 1 << 20:
        raise ResourceCapError("window algebra too large for this horizon")
    if chain.states * 2**chain.states > 1 << 20:
        raise ResourceCapError(
            f"{chain.states} states give 2^{chain.states} future sets; "
            "alpha is capped at 16 states"
        )
    if n == 0:
        warnings.warn(
            "alpha at separation 0 compares overlapping algebras; the value "
            "is a plain covariance maximum",
            stacklevel=2,
        )
    s = chain.states
    pi = chain.stationary
    P = chain.power(n)
    # M[a][b] = pi_a (P^n_ab - pi_b) as integers over one common denominator
    M = [[pi[a] * (P[a][b] - pi[b]) for b in range(s)] for a in range(s)]
    den = math.lcm(*(x.denominator for row in M for x in row))
    cols = [[M[a][b].numerator * (den // M[a][b].denominator) for a in range(s)] for b in range(s)]
    # walk the future sets T that leave out the last state along a Gray code,
    # one state in or out per step, keeping the row sums r_a over T
    r = [0] * s
    best = 0
    for i in range(1, 1 << (s - 1)):
        b = (i & -i).bit_length() - 1
        if (i ^ (i >> 1)) >> b & 1:
            r = [x + y for x, y in zip(r, cols[b])]
        else:
            r = [x - y for x, y in zip(r, cols[b])]
        best = max(best, sum(x for x in r if x > 0))
    return Fraction(best, den)


def higher_mixing_gap(
    chain: MarkovShift,
    cylinders: Sequence[Mapping[int, int]],
    lags: Sequence[int],
) -> Fraction:
    """Exact | mu(G_1 & T^{-l_1} G_2 & ... ) - prod mu(G_i) | for cylinders
    shifted by the cumulative lags; overlapping spans merge exactly."""
    if len(lags) != len(cylinders) - 1:
        raise ValueError("need one lag fewer than cylinders")
    if any(l < 1 for l in lags):
        raise ValueError("lags must be >= 1")
    merged: dict[int, int] = {}
    offset = 0
    contradiction = False
    for i, cyl in enumerate(cylinders):
        if i > 0:
            offset += lags[i - 1]
        for c, sym in cyl.items():
            cc = c + offset
            if merged.setdefault(cc, sym) != sym:
                contradiction = True
        if not cyl:
            raise ValueError("empty cylinder constraint")
    joint = Fraction(0) if contradiction else chain.path_measure(merged)
    prod = Fraction(1)
    for cyl in cylinders:
        prod *= chain.path_measure(dict(cyl))
    return abs(joint - prod)


@dataclass(frozen=True)
class InequalityCheck:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    alphas: tuple[Fraction, ...]


def mixing_inequality_check(
    chain: MarkovShift,
    events: Sequence[WindowEvent],
    horizon: int = 0,
) -> InequalityCheck:
    """Exact | mu(^ G_i) - prod mu(G_i) | against the sum of alpha values at
    the window separations."""
    events = list(events)
    for a, b in zip(events, events[1:]):
        if not a.start <= a.end < b.start:
            raise ValueError("event windows must be ordered: m_i <= n_i < m_{i+1}")
    joint = joint_measure(chain, events)
    prod = Fraction(1)
    for ev in events:
        prod *= event_measure(chain, ev)
    lhs = abs(joint - prod)
    alphas = tuple(
        alpha_coefficient(chain, b.start - a.end, horizon)
        for a, b in zip(events, events[1:])
    )
    rhs = sum(alphas, Fraction(0))
    return InequalityCheck(lhs, rhs, lhs <= rhs, alphas)


# ---------------------------------------------------------------------------
# spectral level sets


@dataclass(frozen=True)
class SpectralConstruction:
    """Cantor-like level data: N_0 = 1, N_{k+1} = floor(5 N_k^2 / eps),
    eps_k = eps / N_k; level k is { u : dist(u N_k, Z) <= eps_k }."""

    eps: Fraction
    Ns: tuple[int, ...]
    eps_ks: tuple[Fraction, ...]

    def level_pieces(self, k: int, within: tuple[Fraction, Fraction]) -> list[tuple[Fraction, Fraction]]:
        """Closed intervals of level k meeting [within]; each has width
        2 eps_k / N_k around a multiple of 1/N_k."""
        Nk, ek = self.Ns[k], self.eps_ks[k]
        a, b = within
        out = []
        for m in range(math.ceil(a * Nk - ek), math.floor(b * Nk + ek) + 1):
            lo = max(a, Fraction(m, Nk) - ek / Nk, Fraction(0))
            hi = min(b, Fraction(m, Nk) + ek / Nk, Fraction(1))
            if lo <= hi:
                out.append((lo, hi))
        return out

    def intersection_pieces(self, depth: int) -> list[tuple[Fraction, Fraction]]:
        """Intervals of the intersection of levels 1..depth inside [0, 1]."""
        pieces = [(Fraction(0), Fraction(1))]
        for k in range(1, depth + 1):
            nxt = []
            for piece in pieces:
                nxt.extend(self.level_pieces(k, piece))
            pieces = nxt
        return pieces

    def sample_points(self, depth: int, count: int) -> list[Fraction]:
        """Deterministic rational points of the depth-k intersection.

        Points are spread across the pieces (midpoint first), and each is
        verified to lie in every level up to the requested depth.
        """
        pieces = self.intersection_pieces(depth)
        if not pieces:
            raise RuntimeError("intersection unexpectedly empty; refine the intervals")
        per = -(-count // len(pieces))
        out: list[Fraction] = []
        for lo, hi in pieces:
            for t in range(per):
                u = lo + (hi - lo) * Fraction(2 * t + 1, 2 * per)
                for k in range(1, depth + 1):
                    if dist_to_int(u * self.Ns[k]) > self.eps_ks[k]:
                        raise RuntimeError("sampled point escaped a level set")
                out.append(u)
                if len(out) >= count:
                    return out
        return out


def spectral_levels(eps: Fraction | str, k_max: int) -> SpectralConstruction:
    """Exact N_k and eps_k sequences for 0 < eps < 1/(2 pi), k_max <= 4."""
    eps = parse_fraction(eps) if isinstance(eps, str) else Fraction(eps)
    if not lt_one_over_two_pi(eps):
        raise ValueError(f"eps must lie in (0, 1/(2*pi)); got {eps}")
    if not 0 <= k_max <= 4:
        raise ValueError("k_max must be between 0 and 4 (N_k grows doubly fast)")
    Ns = [1]
    for _ in range(k_max):
        Ns.append(int(5 * Fraction(Ns[-1]) ** 2 / eps))
    eps_ks = tuple(eps / Nk for Nk in Ns)
    return SpectralConstruction(eps, tuple(Ns), eps_ks)


@dataclass(frozen=True)
class SpectralBoundReport:
    max_deviation: Fraction
    samples: int
    n_max: int


def verify_spectral_bound(
    construction: SpectralConstruction,
    k: int,
    samples: int,
    n_cap: int | None = None,
) -> SpectralBoundReport:
    """Max over sampled u and admissible n of dist(u n N_k, Z); always <= eps.

    For u in the depth-k intersection, dist(u N_k, Z) <= eps_k, and
    n * dist(u N_k, Z) <= eps < 1/2 for n <= N_k, so dist(u n N_k, Z) is
    n * dist(u N_k, Z) and the per-u maximum is n_max * dist(u N_k, Z),
    one product per sample whatever n_max is.
    """
    if not 1 <= k < len(construction.Ns):
        raise ValueError("k outside the constructed depth")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, not {samples}")
    Nk = construction.Ns[k]
    n_max = min(Nk, n_cap) if n_cap else Nk
    pts = construction.sample_points(k, samples)
    worst = n_max * max(dist_to_int(u * Nk) for u in pts)
    if worst > construction.eps:
        raise RuntimeError("level-set bound violated; construction is inconsistent")
    return SpectralBoundReport(worst, len(pts), n_max)
