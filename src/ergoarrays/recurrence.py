"""Multiple-recurrence series S(N) and syndetic-set certificates.

S(N) = (1/N) sum_{n=1}^N mu( intersection_{j=0}^l T^{-(p_j n + q_j N)} A )
with (p_0, q_0) = (0, 0), computed exactly on the exact tier: every term is
an integer over one denominator per series, and each N takes one Fraction.
With ``system.period`` q a term depends only on (n mod q, N mod q): O(q^2)
terms plus O(N_max) additions; aperiodic systems pay O(N_max^2) terms.  The
system type picks the term kernel.  On the periodic systems it moves A
once per shift (reduced mod q, or mod each modulus for vectors on a
product of cyclic rotations): rational rotations intersect integer cell
intervals (``CircleRotation.cells``), O(ell*k^2) integer steps for k arcs;
finite point systems AND int bitmasks and count bits.  On Bernoulli and Markov shifts and Bernoulli lattices a
term is the shift system's integral of 1_A moved by 0 and every s_j
(``_ShiftSystem.integral``), whose clusters of overlapping copies of A are
memoized by their relative shifts: O(ell log ell) a term once the clusters
are known.  Its unit is the series' denominator; on a Markov shift it is
fixed by the widest spread of a term, so a series whose powers would pass
the bit budget is refused before any term.
Syndeticity is certified only inside the computed window [1, N_max];
reports always say so.  The grid-extraction routine turns a two-parameter
family of nonnegative values whose every M-square contains a large entry
into a sequence N_j of column indices with bounded gaps and a lower bound
on the column averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate
from operator import and_, mod
from typing import Mapping, Sequence

from .systems import CircleRotation, ExactSystem, LatticeAction, _PointSystem
from .util import box_sums


def normalize_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Integer pairs (p_j, q_j) led by (0, 0), prepended when missing; every
    later p_j must be nonzero."""
    pairs = tuple((int(p), int(q)) for p, q in pairs)
    if not pairs or pairs[0] != (0, 0):
        pairs = ((0, 0),) + pairs
    if any(p == 0 for p, _ in pairs[1:]):
        raise ValueError("p_j must be nonzero for j >= 1")
    return pairs


def _check_exact(system, A) -> None:
    """A series needs an exact-tier system and a set of its algebra."""
    if not isinstance(system, ExactSystem):
        raise ValueError("recurrence series need an exact-tier system")
    full = system.full_set()
    if type(A) is not type(full) or full.intersect(A) != A:
        raise ValueError(f"A must be a {type(full).__name__} inside the space of {type(system).__name__}")


@dataclass(frozen=True)
class RecurrenceSpec:
    """System, target set A and exponent pairs (p_j, q_j), j = 0..l.

    The leading pair must be (0, 0); every later p_j must be nonzero.
    """

    system: object
    A: object
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", normalize_pairs(self.pairs))
        _check_exact(self.system, self.A)


@dataclass(frozen=True)
class CommutingRecurrenceSpec:
    """Same series driven by commuting pairs (T_j, That_j) of a lattice action."""

    action: LatticeAction
    A: object

    def __post_init__(self):
        _check_exact(self.action.system, self.A)


@dataclass(frozen=True)
class RecurrenceSeries:
    values: tuple[tuple[int, Fraction], ...]  # (N, S(N)), N = 1..N_max
    mu_A: Fraction
    label: str

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.values)

    @property
    def n_max(self) -> int:
        return self.values[-1][0]


def _kernel(system, A, preimage, shift_fns, n_max: int, vector: bool):
    """(den, term) for the system's type, as the module docstring lists them:
    term(shifts) = den * mu(A & preimage(A, s_1) & ...), an integer.  The
    shift functions and n_max bound the spans of a Markov series; vector
    marks d-vector shifts on a lattice."""
    if isinstance(system, CircleRotation):
        Q, step, (arcs,) = system.cells([A])

        # T^{-s}A is A moved t = -s*step mod Q cells on; A's arcs lie in [0, Q],
        # so they meet its copies at t and t - Q, and no piece need be split at Q
        back = cache(lambda s: [(lo + t, hi + t) for t in ((-s * step) % Q, (-s * step) % Q - Q) for lo, hi in arcs])

        def term(shifts):  # pieces of two sets of disjoint intervals are disjoint
            X = arcs
            for Y in map(back, shifts):
                X = [(lo, hi) for a, b in X for c, d in Y if (lo := a if a > c else c) < (hi := b if b < d else d)]
            return sum(hi - lo for lo, hi in X)

        return Q, term
    if isinstance(system, _PointSystem):
        points = list(system.full_set().members)[::-1]  # bit i for the i-th point, as in averages._Grid
        mask = lambda S: int("".join("01"[x in S.members] for x in points), 2)
        a, back = mask(A), cache(lambda s: mask(preimage(A, s)))
        return len(points), lambda shifts: reduce(and_, map(back, shifts), a).bit_count()
    # shift systems; a Markov integral is built for the widest spread of a term,
    # convex in (n, N) and so read at the corners of 1 <= n <= N <= n_max
    spread = 0
    if not system.independent_coords:
        corners = ((1, 1), (1, n_max), (n_max, n_max))
        spread = max(max([0, *s]) - min([0, *s]) for s in ([f(n, N) for f in shift_fns] for n, N in corners))
    integral = system.integral([(1, 0, ((1, A),))], vector, spread)
    zero = (0,) * system.d if vector else 0
    return integral.unit([0] * (len(shift_fns) + 1)), lambda shifts: integral([(0, zero), *((0, s) for s in shifts)])


def _series(system, A, preimage, shift_fns, n_max: int, label: str, vector: bool = False) -> RecurrenceSeries:
    """Exact S(N) = (1/N) sum_n mu(A & preimage(A, s(n, N)) & ...) over the
    shift functions s, for N = 1..n_max, summed over the kernel's denominator.
    With a period q a term depends only on (n mod q, N mod q), so for N > q
    the sum at N is the sum at N - q plus the row of terms n = 1..q at N mod q,
    cached per residue; without one q = n_max + 1 and every term is summed."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    period = system.period
    if period:  # shifts reduced mod the period, vectors mod each modulus
        key = (lambda v: tuple(map(mod, v, system.moduli))) if vector else period.__rmod__
        shift_fns = [lambda n, N, s=s: key(s(n, N)) for s in shift_fns]
    den, term = _kernel(system, A, preimage, shift_fns, n_max, vector)
    q = period or n_max + 1

    def row(N, ns):
        return sum(term([shift(n, N) for shift in shift_fns]) for n in ns)

    rows: dict = {}
    totals: list = []  # totals[N - 1] = sum of the terms n = 1..N, over den
    for N in range(1, n_max + 1):
        if N <= q:
            totals.append(row(N, range(1, N + 1)))
        else:
            t = N % q
            if t not in rows:
                rows[t] = row(t, range(1, q + 1))
            totals.append(totals[N - q - 1] + rows[t])
    values = tuple((N, Fraction(total, den * N)) for N, total in enumerate(totals, 1))
    return RecurrenceSeries(values, system.measure(A), label)


def recurrence_series(spec: RecurrenceSpec, n_max: int) -> RecurrenceSeries:
    """Exact S(N) for N = 1..n_max."""
    sys = spec.system
    shift_fns = [lambda n, N, p=p, q=q: p * n + q * N for p, q in spec.pairs[1:]]
    return _series(sys, spec.A, sys.preimage, shift_fns, n_max, "single-transformation")


def commuting_recurrence_series(spec: CommutingRecurrenceSpec, n_max: int) -> RecurrenceSeries:
    """Exact S(N) with the j-th term shifted by T_j^n That_j^N; a
    one-dimensional action shifts by integers."""
    action = spec.action
    if action.d == 1:
        shift_fns = [lambda n, N, a=a, b=b: a * n + b * N for (a,), (b,) in zip(action.z, action.zhat)]
    else:
        shift_fns = [lambda n, N, j=j: action.shift_vector(j, n, N) for j in range(1, action.ell + 1)]
    return _series(action.system, spec.A, action.preimage_set, shift_fns, n_max, "commuting-family", action.d > 1)


@dataclass(frozen=True)
class SyndeticReport:
    """Window-limited certificate: every member N satisfies value(N) >= threshold.

    ``max_gap`` is the largest difference between consecutive members of
    0, the members and window + 1, so the gaps before the first member and
    after the last one count too (None when there are no members); the
    certificate covers only [1, window].
    """

    threshold: Fraction | None
    members: tuple[int, ...]
    max_gap: int | None
    verdict: str  # "syndetic-in-window" | "not-found"
    liminf_estimate: Fraction | None
    window: int


def detect_syndetic(
    series: RecurrenceSeries | Mapping[int, Fraction],
    eps: Fraction | str = "auto",
) -> SyndeticReport:
    """Threshold the series; eps="auto" takes half the max over the final
    half of the window."""
    values = series.as_dict() if isinstance(series, RecurrenceSeries) else dict(series)
    if not values:
        raise ValueError("empty series")
    n_max = max(values)
    if eps == "auto":
        tail = [values[N] for N in values if N > n_max // 2]
        peak = max(tail)
        if peak == 0:
            return SyndeticReport(None, (), None, "not-found", None, n_max)
        eps = peak / 2
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be > 0, not {eps}: every N clears a threshold <= 0")
    members = tuple(sorted(N for N, v in values.items() if v >= eps))
    if not members:
        return SyndeticReport(eps, (), None, "not-found", None, n_max)
    padded = (0,) + members + (n_max + 1,)
    return SyndeticReport(
        eps,
        members,
        max(b - a for a, b in zip(padded, padded[1:])),
        "syndetic-in-window",
        min(values[N] for N in members),
        n_max,
    )


@dataclass(frozen=True)
class GridExtraction:
    """Column indices N_j with bounded gaps extracted from a grid.

    Gap convention here counts integers strictly between consecutive members
    (and before the first); the construction bounds that count by 2M, while
    the plain difference N_{j+1} - N_j can reach 2M + 1.
    """

    Ns: tuple[int, ...]
    row_averages: tuple[Fraction, ...]
    eps: Fraction
    M: int

    @property
    def max_gap_between(self) -> int:
        return max((b - a - 1 for a, b in zip((0,) + self.Ns, self.Ns)), default=0)


def extract_syndetic_from_grid(grid: Sequence[Sequence], eps, M: int) -> GridExtraction:
    """Run the strip construction on a nonnegative grid a[n-1][m-1], n, m in [1, L].

    Requires every M-square inside the grid to contain an entry >= eps
    (checked exhaustively: every M-box sum of the indicator of a >= eps is
    positive).  For each strip j(M+1) <= m < (j+1)(M+1) the column N_j
    maximizing the partial column sum over n <= j(M+1) is selected; the
    returned members satisfy the gap bound (<= 2M integers skipped) and
    column averages >= eps/(M+1)^2, both asserted.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be > 0, not {eps}: every square holds an entry >= {eps}")
    if M < 1:
        raise ValueError("M must be >= 1")
    L = len(grid)
    if L == 0 or any(len(row) != L for row in grid):
        raise ValueError("grid must be square and nonempty")
    cols = [[v if isinstance(v, int) else Fraction(v) for v in col] for col in zip(*grid)]
    D = math.lcm(eps.denominator, *(v.denominator for col in cols for v in col))  # entries and eps over D
    cols = [[v.numerator * (D // v.denominator) for v in col] for col in cols]
    e = eps.numerator * (D // eps.denominator)
    if any(v < 0 for col in cols for v in col):
        raise ValueError("grid entries must be nonnegative")
    if L < M:
        raise ValueError("grid smaller than one M-square")

    # column-major, so the first empty box is the first bad square in column order
    sums = box_sums([int(v >= e) for col in cols for v in col], (L, L), M)
    if 0 in sums:
        m, n = divmod(sums.index(0), L - M + 1)
        raise ValueError(
            f"hypothesis fails: the {M}x{M} square at (n,m)=({n+1},{m+1}) "
            f"has every entry < {eps}"
        )

    prefix = [list(accumulate(col, initial=0)) for col in cols]  # prefix[m-1][k] = sum_{n<=k} a[n-1][m-1]
    Ns: list[int] = []
    averages: list[Fraction] = []
    j = 1
    while (j + 1) * (M + 1) - 1 <= L:
        depth = j * (M + 1)  # rows n in [1, depth], columns m in [depth, depth + M]
        Nj = max(range(depth, depth + M + 1), key=lambda m: prefix[m - 1][depth])  # the first of ties
        if prefix[Nj - 1][depth] * (M + 1) < e * j:
            raise RuntimeError("internal error: strip sum below the guaranteed bound")
        avg = Fraction(prefix[Nj - 1][Nj], D * Nj)
        if avg < eps / (M + 1) ** 2:
            raise RuntimeError(
                f"column average {avg} at N_{j}={Nj} fell below eps/(M+1)^2"
            )
        Ns.append(Nj)
        averages.append(avg)
        j += 1
    if not Ns:
        raise ValueError(f"grid of side {L} holds no full strip for M={M}")
    out = GridExtraction(tuple(Ns), tuple(averages), eps, M)
    if out.max_gap_between > 2 * M:
        raise RuntimeError("internal error: gap bound 2M violated")
    return out

