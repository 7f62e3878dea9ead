"""Multiple-recurrence series S(N) and syndetic-set certificates.

S(N) = (1/N) sum_{n=1}^N mu( intersection_{j=0}^l T^{-(p_j n + q_j N)} A )
with (p_0, q_0) = (0, 0), computed exactly on the exact tier: O(q^2) terms
plus O(N_max) additions when ``system.period`` is q, O(N_max^2) terms on
aperiodic systems.  Syndeticity is certified only inside the computed window
[1, N_max]; reports always say so.  The grid-extraction routine turns a
two-parameter family of nonnegative values whose every M-square contains a
large entry into a sequence N_j of column indices with bounded gaps and a
lower bound on the column averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .systems import LatticeAction, SampledSystem
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
        if isinstance(self.system, SampledSystem):
            raise ValueError("recurrence series need an exact-tier system")


@dataclass(frozen=True)
class CommutingRecurrenceSpec:
    """Same series driven by commuting pairs (T_j, That_j) of a lattice action."""

    action: LatticeAction
    A: object


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


def _series(A, preimage, measure, shift_fns, n_max: int, label: str, period: int | None) -> RecurrenceSeries:
    """Exact S(N) = (1/N) sum_n measure(A & preimage(A, s(n, N)) & ...) over
    the shift functions s, for N = 1..n_max; preimages are memoized per shift.
    With a period q a term depends only on (n mod q, N mod q), so for N > q
    the sum at N is the sum at N - q plus the row of terms n = 1..q at N mod q,
    cached per residue; without one q = n_max + 1 and every term is summed."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    q = period or n_max + 1
    shifted: dict = {}

    def pre(shift):
        out = shifted.get(shift)
        if out is None:
            out = preimage(A, shift)
            shifted[shift] = out
        return out

    def row(N, ns):
        total = Fraction(0)
        for n in ns:
            inter = A
            for shift in shift_fns:
                inter = inter.intersect(pre(shift(n, N)))
                if inter.is_empty():
                    break
            else:
                total += measure(inter)
        return total

    rows: dict[int, Fraction] = {}
    totals: list[Fraction] = []  # totals[N - 1] = sum of the terms n = 1..N
    for N in range(1, n_max + 1):
        if N <= q:
            totals.append(row(N, range(1, N + 1)))
        else:
            t = N % q
            if t not in rows:
                rows[t] = row(t, range(1, q + 1))
            totals.append(totals[N - q - 1] + rows[t])
    values = tuple((N, total / N) for N, total in enumerate(totals, 1))
    return RecurrenceSeries(values, measure(A), label)


def recurrence_series(spec: RecurrenceSpec, n_max: int) -> RecurrenceSeries:
    """Exact S(N) for N = 1..n_max."""
    sys = spec.system
    shift_fns = [lambda n, N, p=p, q=q: p * n + q * N for p, q in spec.pairs[1:]]
    return _series(spec.A, sys.preimage, sys.measure, shift_fns, n_max, "single-transformation", sys.period)


def commuting_recurrence_series(spec: CommutingRecurrenceSpec, n_max: int) -> RecurrenceSeries:
    """Exact S(N) with the j-th term shifted by T_j^n That_j^N."""
    action = spec.action
    shift_fns = [
        lambda n, N, j=j: action.shift_vector(j, n, N) for j in range(1, action.ell + 1)
    ]
    return _series(spec.A, action.preimage_set, action.measure, shift_fns, n_max, "commuting-family",
                   action.system.period)


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
    a = [[Fraction(v) for v in row] for row in grid]
    if any(v < 0 for row in a for v in row):
        raise ValueError("grid entries must be nonnegative")
    if L < M:
        raise ValueError("grid smaller than one M-square")

    # column-major, so the first empty box is the first bad square in column order
    sums = box_sums([int(a[n][m] >= eps) for m in range(L) for n in range(L)], (L, L), M)
    if 0 in sums:
        m, n = divmod(sums.index(0), L - M + 1)
        raise ValueError(
            f"hypothesis fails: the {M}x{M} square at (n,m)=({n+1},{m+1}) "
            f"has every entry < {eps}"
        )

    Ns: list[int] = []
    averages: list[Fraction] = []
    j = 1
    while (j + 1) * (M + 1) - 1 <= L:
        lo, hi = j * (M + 1), (j + 1) * (M + 1)  # columns m in [lo, hi)
        depth = j * (M + 1)  # rows n in [1, depth]
        best_m, best_sum = None, None
        for m in range(lo, hi):
            s = sum((a[n - 1][m - 1] for n in range(1, depth + 1)), Fraction(0))
            if best_sum is None or s > best_sum:
                best_m, best_sum = m, s
        if best_sum * (M + 1) < eps * j:
            raise RuntimeError("internal error: strip sum below the guaranteed bound")
        Nj = best_m
        full = sum((a[n - 1][Nj - 1] for n in range(1, Nj + 1)), Fraction(0))
        avg = full / Nj
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

