"""Integer-set densities, pattern search a + p_j n + q_j N, and empirical
cylinder frequencies (the finite-window side of the correspondence between
dense integer sets and shift systems).

Sets live in a declared window [lo, hi) as a big-int bitmask, built and read
back in one linear pass over a "0"/"1" row; the pattern scan is word-parallel,
one chain of C-level shifts and ANDs per N.  A CLI pattern search over a
10^7-wide random set at Nmax 10 takes about 1.6 s, 1.0 s of it building the set.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, permutations, product, repeat
from operator import add, and_, countOf, indexOf, itemgetter, rshift, sub
from typing import Iterable, Mapping, Sequence

from .recurrence import SyndeticReport, detect_syndetic, normalize_pairs
from .util import box_sums

Vector = tuple[int, ...]
# indicator-row digits to the 0/1 byte values they stand for
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True, repr=False)
class IntegerSet:
    lo: int
    hi: int
    bits: int  # bit t set iff lo + t is a member

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValueError("window must be nonempty")
        if self.bits < 0 or self.bits >> (self.hi - self.lo):
            raise ValueError("members outside the declared window")

    def __repr__(self) -> str:
        # the raw bitmask would pass the int-to-str digit limit on wide windows
        return f"IntegerSet(lo={self.lo}, hi={self.hi}, members={len(self)})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_row(cls, lo: int, hi: int, row) -> "IntegerSet":
        """From an indicator row: character t is "1" iff lo + t is a member."""
        return cls(lo, hi, int(row[::-1] or "0", 2))  # empty windows fail in __post_init__

    @classmethod
    def from_members(cls, members: Iterable[int], window: tuple[int, int]) -> "IntegerSet":
        lo, hi = window
        row = bytearray(b"0" * (hi - lo))
        for m in members:
            if not lo <= m < hi:
                raise ValueError(f"member {m} outside window [{lo}, {hi})")
            row[m - lo] = 49  # "1"
        return cls._from_row(lo, hi, row)

    @classmethod
    def from_residue(cls, r: int, mod: int, window: tuple[int, int]) -> "IntegerSet":
        if mod <= 0:
            raise ValueError(f"modulus must be positive, got {mod}")
        lo, hi = window
        width = hi - lo
        start = min((r - lo) % mod, width)
        period = "1".ljust(min(mod, width), "0")  # no row longer than 2 * width
        row = "0" * start + period * ((width - start) // mod + 1)
        return cls._from_row(lo, hi, row[:width])

    @classmethod
    def from_random(cls, density: float, seed: int, window: tuple[int, int]) -> "IntegerSet":
        if not 0 <= density <= 1:
            raise ValueError(f"density must lie in [0, 1], got {density}")
        rng = random.Random(seed)
        lo, hi = window
        row = bytearray(b"0" * (hi - lo))
        for t in range(hi - lo):
            if rng.random() < density:
                row[t] = 49  # "1"
        return cls._from_row(lo, hi, row)

    @classmethod
    def from_text(cls, text: str, window: tuple[int, int] | None = None) -> "IntegerSet":
        """Newline-delimited integers; the window defaults to [min, max+1)."""
        members = [int(line) for line in text.split() if line.strip()]
        if window is None:
            if not members:
                raise ValueError("no members to infer a window from: give the window")
            window = (min(members), max(members) + 1)
        return cls.from_members(members, window)

    # -- queries ---------------------------------------------------------------

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def contains(self, x: int) -> bool:
        return self.lo <= x < self.hi and (self.bits >> (x - self.lo)) & 1 == 1

    def _row(self) -> str:  # the indicator row _from_row reads
        return format(self.bits, "b")[::-1].ljust(self.hi - self.lo, "0")

    def members(self) -> Iterable[int]:
        row, base = self._row(), self.lo
        t = row.find("1")
        while t >= 0:
            yield base + t
            t = row.find("1", t + 1)

    def translate(self, t: int) -> "IntegerSet":
        """Members shifted by t inside a window shifted by t."""
        return IntegerSet(self.lo + t, self.hi + t, self.bits)

    def dilate(self, k: int) -> "IntegerSet":
        return IntegerSet.from_members(
            (k * m for m in self.members()), (k * self.lo, k * (self.hi - 1) + 1)
        )

    def prefix_counts(self) -> list[int]:
        return list(accumulate(self._row().encode().translate(_DIGIT_VALUES), initial=0))


@dataclass(frozen=True)
class LatticeSet:
    """Finite subset of Z^d inside a box prod [lo_i, hi_i)."""

    lo: Vector
    hi: Vector
    members: frozenset[Vector]

    def __post_init__(self):
        for p in self.members:
            if len(p) != len(self.lo) or not all(
                a <= x < b for x, a, b in zip(p, self.lo, self.hi)
            ):
                raise ValueError(f"member {p} outside the box")

    @classmethod
    def from_members(cls, members: Iterable[Vector], lo: Vector, hi: Vector) -> "LatticeSet":
        return cls(tuple(lo), tuple(hi), frozenset(tuple(p) for p in members))

    @property
    def d(self) -> int:
        return len(self.lo)

    def contains(self, p: Vector) -> bool:
        return p in self.members


_PAIR = r"\((-?\d+),(-?\d+)\)"  # one "(p,q)" of a pattern spec


@dataclass(frozen=True)
class PatternSpec:
    """Translation pattern a + p_j n + q_j N (or a + n z_j + N zhat_j in Z^d)."""

    pairs: tuple[tuple[int, int], ...] = ()
    gamma: tuple[Vector, ...] = ()
    gamma_hat: tuple[Vector, ...] = ()

    def __post_init__(self):
        if self.pairs:
            object.__setattr__(self, "pairs", normalize_pairs(self.pairs))
        if self.gamma:
            g = tuple(tuple(v) for v in self.gamma)
            gh = tuple(tuple(v) for v in self.gamma_hat)
            object.__setattr__(self, "gamma", g)
            object.__setattr__(self, "gamma_hat", gh)
            if len(g) != len(gh):
                raise ValueError("gamma and gamma_hat must pair up")
            if any(all(x == 0 for x in v) for v in g):
                raise ValueError("gamma vectors must be nonzero")
            if len(set(g)) != len(g):
                raise ValueError("gamma vectors must be distinct")

    @classmethod
    def parse(cls, text: str) -> "PatternSpec":
        """Parse "(0,0),(1,0),(-1,1)" into integer pairs."""
        body = text.replace(" ", "")
        if not re.fullmatch(rf"{_PAIR}(,{_PAIR})*", body):
            raise ValueError(f"pattern spec must be pairs (p,q),(p,q),... of integers, got {text!r}")
        return cls(pairs=tuple((int(p), int(q)) for p, q in re.findall(_PAIR, body)))


@dataclass(frozen=True)
class DensityResult:
    density: Fraction
    window: tuple[int, ...] | tuple[Vector, Vector]
    size: int


def upper_density(s: IntegerSet | LatticeSet, window_sizes: Sequence[int]) -> DensityResult:
    """Best sliding-window density over the given window sizes: the first
    width reaching the maximum, at its first corner in row-major order."""
    if not window_sizes:
        raise ValueError("no window sizes given")
    if isinstance(s, IntegerSet):
        lo, shape = (s.lo,), (s.hi - s.lo,)
        table = s._row().encode().translate(_DIGIT_VALUES)
    else:
        lo, shape = s.lo, tuple(map(sub, s.hi, s.lo))
        table = bytes(p in s.members for p in product(*map(range, s.lo, s.hi)))  # row-major
    best = None
    for w in window_sizes:
        if w < 1 or any(w > n for n in shape):
            raise ValueError(f"window size {w} does not fit [{s.lo}, {s.hi})")
        top = max(box_sums(table, shape, w))
        d = Fraction(top, w ** len(shape))
        if best is None or d > best[0]:
            a, corner = indexOf(box_sums(table, shape, w), top), []
            for n in reversed(shape):
                a, r = divmod(a, n - w + 1)
                corner.insert(0, r)
            best = (d, tuple(map(add, lo, corner)), w)
    d, corner, w = best
    end = tuple(c + w for c in corner)
    window = (corner[0], end[0]) if isinstance(s, IntegerSet) else (corner, end)
    return DensityResult(d, window, w)


@dataclass(frozen=True)
class PatternCount:
    N: int
    count: int
    witnesses: tuple[tuple[int, int | Vector], ...]
    scanned_a: tuple  # (min feasible a, max feasible a) over counted n


def pattern_count(
    s: IntegerSet, spec: PatternSpec, N: int, max_witnesses: int = 10
) -> PatternCount:
    """Count n in [0, N] such that some a places a + p_j n + q_j N in the set
    for every j; a is scanned over the largest interval keeping all l+1
    translated points inside the window.

    The offsets {0, p_j n + q_j N} span less than the window for one
    interval [n0, n1] of n (the span is convex in n), and over it each
    pair's offsets form a range of step p_j.  With the bits shifted up by K,
    the size of the most negative offset, every translate is a right shift
    that drops the bits falling outside the window, so the scan over n is
    one chain of C-level maps: no Python step per n."""
    if not spec.pairs:
        raise ValueError("pattern spec carries no (p, q) pairs")
    lo, hi, bits = s.lo, s.hi, s.bits
    n0, n1 = 0, N
    for (pi, qi), (pk, qk) in permutations(spec.pairs, 2):
        # line i minus line k stays below the width: a*n <= b
        a, b = pi - pk, hi - lo - 1 - (qi - qk) * N
        if a > 0:
            n1 = min(n1, b // a)
        elif a < 0:
            n0 = max(n0, -(b // -a))
        elif b < 0:
            n1 = -1
    if n1 < n0:
        raise ValueError(
            f"no feasible a for any n <= {N}: window [{lo}, {hi}) cannot hold "
            f"offsets spanning up to {max(abs(p) + abs(q) for p, q in spec.pairs) * N}"
        )
    m = n1 - n0 + 1
    # pairs past the anchor (0, 0) have p != 0 (normalize_pairs)
    lines = [range(q * N + p * n0, q * N + p * (n1 + 1), p) for p, q in spec.pairs[1:]]
    lows = list(map(min, repeat(0, m), *lines)) if lines else [0]
    highs = map(max, repeat(0, m), *lines) if lines else [0]
    K = -min(lows)
    wide = bits << K
    hits = repeat(bits, m)
    for r in lines:
        hits = map(and_, hits, map(rshift, repeat(wide), range(r.start + K, r.stop + K, r.step)))
    # the first flagged n give the witnesses; the rest of the chain is only counted
    flagged = islice(filter(itemgetter(1), zip(range(n0, n1 + 1), hits)), max(0, max_witnesses))
    witnesses = tuple((n, lo + (h & -h).bit_length() - 1) for n, h in flagged)
    total = len(witnesses) + countOf(map(bool, hits), True)
    return PatternCount(N, total, witnesses, (lo - max(lows), hi - min(highs)))


def lattice_pattern_count(
    s: LatticeSet, spec: PatternSpec, N: int, max_witnesses: int = 10
) -> PatternCount:
    """d-dimensional analog: count n in [0, N] with a + n z_j + N zhat_j in
    the set for all j (and a itself a member)."""
    if not spec.gamma:
        raise ValueError("pattern spec carries no lattice vectors")
    count = 0
    witnesses = []
    for n in range(N + 1):
        offs = [
            tuple(n * z + N * zh for z, zh in zip(zv, hv))
            for zv, hv in zip(spec.gamma, spec.gamma_hat)
        ]
        found = None
        for a in s.members:
            if all(tuple(x + o for x, o in zip(a, off)) in s.members for off in offs):
                found = a
                break
        if found is not None:
            count += 1
            if len(witnesses) < max_witnesses:
                witnesses.append((n, found))
    return PatternCount(N, count, tuple(witnesses), (None, None))


def syndetic_pattern_report(
    s: IntegerSet | LatticeSet,
    spec: PatternSpec,
    n_max: int,
    eps: Fraction | str = "auto",
) -> SyndeticReport:
    """N with pattern_count(N) >= eps*N, reported as a window certificate."""
    counter = pattern_count if isinstance(s, IntegerSet) else lattice_pattern_count
    ratios = {N: Fraction(counter(s, spec, N).count, N) for N in range(1, n_max + 1)}
    return detect_syndetic(ratios, eps)


def empirical_cylinder_measure(
    s: IntegerSet,
    window: tuple[int, int] | None = None,
    cylinders: Sequence[Mapping[int, int]] = (),
) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """Frequency of 0/1 patterns along the indicator sequence of the set.

    Each cylinder maps offsets to required bits; its frequency is the share
    of placements t in the window with indicator(t + offset) == bit for all
    constraints.  The cylinder {0: 1} recovers the window density exactly.
    """
    lo, hi = window if window is not None else s.window
    if not (s.lo <= lo < hi <= s.hi):
        raise ValueError("window must sit inside the set's declared window")
    length = hi - lo
    base = (s.bits >> (lo - s.lo)) & ((1 << length) - 1)
    out = {}
    for cyl in cylinders:
        if not cyl:
            raise ValueError("empty cylinder")
        offsets = sorted(cyl)
        span = offsets[-1] - offsets[0] + 1
        if span > length // 2:
            raise ValueError(
                f"cylinder span {span} too large for window of length {length}"
            )
        placements = length - (offsets[-1] - offsets[0])
        mask = (1 << placements) - 1
        hits = mask
        for o in offsets:
            track = base >> (o - offsets[0])
            if cyl[o] not in (0, 1):
                raise ValueError("cylinder bits must be 0 or 1")
            if cyl[o] == 0:
                track = ~track
            hits &= track & mask
        key = tuple(sorted(cyl.items()))
        out[key] = Fraction(hits.bit_count(), placements)
    return out
