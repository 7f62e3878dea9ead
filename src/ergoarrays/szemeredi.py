"""Integer-set densities, pattern search a + p_j n + q_j N (and
a + n z_j + N zhat_j in Z^d), and empirical cylinder frequencies (the
finite-window side of the correspondence between dense integer sets and
shift systems).

Sets live in a declared window [lo, hi) as a big-int bitmask, built and read
back in one linear pass over a "0"/"1" row; the pattern scan is word-parallel,
one chain of C-level shifts and ANDs per N.  A CLI pattern search over a
10^7-wide random set at Nmax 10 takes about 1.6 s, 1.0 s of it building the set.

A lattice set keeps its box row-major in one big-int bitmask, every axis but
the first padded to twice its width, so a vector offset is an integer shift
that cannot carry a member onto another row, and lattice patterns run
through the same scan.  With z = e1, e2 and N = 0..side/4 on a 2 %-dense box
that takes 0.003 s at 128^2 and 0.09 s at 256^2, the layout included.  A few
members in a big box are tested one by one for each n instead.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, islice, permutations, product, repeat
from math import prod
from operator import add, and_, countOf, indexOf, itemgetter, mul, rshift, sub
from typing import Iterable, Mapping, Sequence

from .recurrence import SyndeticReport, detect_syndetic, normalize_pairs
from .util import box_sums

Vector = tuple[int, ...]
# indicator-row digits to the 0/1 byte values they stand for
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
# a lattice pattern count tests the members for each n, not the padded mask,
# once the mask has more than this many bits per member, counting the loop's
# own cost per n as 32 members (measured crossover, 1-3 dimensions); so the
# mask never takes more than 512 bytes per member past a 16 KiB floor
_MASK_BITS_PER_MEMBER = 4096


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
        # one C-level pass over the lengths and a min and max per coordinate
        # column; the member is looked for only once the box check fails
        members, lo, hi = self.members, self.lo, self.hi
        if members and (
            set(map(len, members)) != {len(lo)}
            or any(min(col) < a or max(col) >= b for col, a, b in zip(zip(*members), lo, hi))
        ):
            bad = next(p for p in members if len(p) != len(lo) or not all(a <= x < b for x, a, b in zip(p, lo, hi)))
            raise ValueError(f"member {bad} outside the box")

    @classmethod
    def from_members(cls, members: Iterable[Vector], lo: Vector, hi: Vector) -> "LatticeSet":
        return cls(tuple(lo), tuple(hi), frozenset(tuple(p) for p in members))

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> Vector:
        return tuple(map(sub, self.hi, self.lo))

    def contains(self, p: Vector) -> bool:
        return p in self.members

    # -- cached layouts --------------------------------------------------------

    @cached_property
    def _table(self) -> bytes:
        """Row-major membership bytes of the box, one per point."""
        return bytes(map(self.members.__contains__, product(*map(range, self.lo, self.hi))))

    @cached_property
    def _layout(self) -> tuple[Vector, int, list[int]]:
        """(strides, bits, places): the box row-major in one integer, every
        axis but the first padded to twice its width, so s_i = prod_{j>i} 2w_j
        and bit (p - lo)·s is set for each member p; places lists those bit
        indices in frozenset order.  A shift by v·s with |v_i| < w_i on
        every axis takes a member either to a + v or, where a + v leaves the
        box, into padding or out of the mask: never onto another row."""
        shape = self.shape
        padded = (shape[0], *(2 * w for w in shape[1:]))
        # Horner's rule over the coordinate columns, one C-level map per axis
        columns = zip(*self.members)
        place, base = next(columns, ()), self.lo[0]
        for w, column, lo in zip(padded[1:], columns, self.lo[1:]):
            place = map(add, map(mul, place, repeat(w)), column)
            base = base * w + lo
        places = list(map(sub, place, repeat(base)))
        # one bit per padded point: no byte per point, however big the box
        mask = bytearray((prod(padded) + 7) // 8)
        for t in places:
            mask[t >> 3] |= 1 << (t & 7)
        strides = tuple(accumulate(padded[:0:-1], mul, initial=1))[::-1]
        return strides, int.from_bytes(mask, "little"), places

    def _first_member(self, h: int) -> Vector:
        """The first member, in frozenset order, whose bit is set in h (a
        submask of the layout's bits), tested in order against h's bytes."""
        _, bits, places = self._layout
        row = h.to_bytes((bits.bit_length() + 7) // 8, "little")
        bytes_at = map(row.__getitem__, map(rshift, places, repeat(3)))
        set_bits = map(and_, map(rshift, bytes_at, map(and_, places, repeat(7))), repeat(1))
        return next(compress(self.members, set_bits))


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
    lo, shape = ((s.lo,), (s.hi - s.lo,)) if isinstance(s, IntegerSet) else (s.lo, s.shape)
    for w in window_sizes:
        if w < 1 or any(w > n for n in shape):
            raise ValueError(f"window size {w} does not fit [{s.lo}, {s.hi})")
    table = s._row().encode().translate(_DIGIT_VALUES) if isinstance(s, IntegerSet) else s._table
    best = None
    for w in window_sizes:
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


def _feasible_n(bounds: Iterable[tuple[int, int]], N: int) -> tuple[int, int]:
    """The interval [n0, n1] of n in [0, N] with a*n <= b for every (a, b)
    (empty when n1 < n0)."""
    n0, n1 = 0, N
    for a, b in bounds:
        if a > 0:
            n1 = min(n1, b // a)
        elif a < 0:
            n0 = max(n0, -(b // -a))
        elif b < 0:
            n1 = -1
    return n0, n1


def _scan(bits: int, lines: Sequence[range], ns: range, max_witnesses: int) -> tuple[list[tuple[int, int]], int]:
    """The n of ns at which some place t of bits has t + o in bits for the
    offset o each line holds at that n: the first max_witnesses of them with
    their masks of such t, and how many there are in all.

    With the bits shifted up by K, the size of the most negative offset,
    every translate is a right shift that drops the bits falling below 0,
    so the scan over n is one chain of C-level maps: no Python step per n."""
    K = -min([0] + [min(r[0], r[-1]) for r in lines])
    wide = bits << K
    hits = repeat(bits, len(ns))
    for r in lines:
        hits = map(and_, hits, map(rshift, repeat(wide), range(r.start + K, r.stop + K, r.step)))
    # the first flagged n give the witnesses; the rest of the chain is only counted
    flagged = list(islice(filter(itemgetter(1), zip(ns, hits)), max(0, max_witnesses)))
    return flagged, len(flagged) + countOf(map(bool, hits), True)


def pattern_count(
    s: IntegerSet, spec: PatternSpec, N: int, max_witnesses: int = 10
) -> PatternCount:
    """Count n in [0, N] such that some a places a + p_j n + q_j N in the set
    for every j; a is scanned over the largest interval keeping all l+1
    translated points inside the window.

    The offsets {0, p_j n + q_j N} span less than the window for one
    interval [n0, n1] of n (the span is convex in n), and over it each
    pair's offsets form a range of step p_j, which `_scan` ANDs in one
    pass."""
    if not spec.pairs:
        raise ValueError("pattern spec carries no (p, q) pairs")
    lo, hi = s.lo, s.hi
    # line i minus line k stays below the width
    n0, n1 = _feasible_n(
        ((pi - pk, hi - lo - 1 - (qi - qk) * N) for (pi, qi), (pk, qk) in permutations(spec.pairs, 2)), N
    )
    if n1 < n0:
        raise ValueError(
            f"no feasible a for any n <= {N}: window [{lo}, {hi}) cannot hold "
            f"offsets spanning up to {max(abs(p) + abs(q) for p, q in spec.pairs) * N}"
        )
    m = n1 - n0 + 1
    # pairs past the anchor (0, 0) have p != 0 (normalize_pairs)
    lines = [range(q * N + p * n0, q * N + p * (n1 + 1), p) for p, q in spec.pairs[1:]]
    lows = map(min, repeat(0, m), *lines) if lines else [0]
    highs = map(max, repeat(0, m), *lines) if lines else [0]
    flagged, total = _scan(s.bits, lines, range(n0, n1 + 1), max_witnesses)
    witnesses = tuple((n, lo + (h & -h).bit_length() - 1) for n, h in flagged)
    return PatternCount(N, total, witnesses, (lo - max(lows), hi - min(highs)))


def lattice_pattern_count(
    s: LatticeSet, spec: PatternSpec, N: int, max_witnesses: int = 10
) -> PatternCount:
    """d-dimensional analog: count n in [0, N] with a + n z_j + N zhat_j in
    the set for all j (and a itself a member); each witness is the first
    such a in the iteration order of ``s.members``.

    An offset v with |v_i| >= w_i on some axis leaves the box from every a,
    and |n z_i + N zhat_i| < w_i holds on one interval of n; over it each
    vector is a range of shifts of step z·s in the padded mask of
    ``LatticeSet._layout``, scanned as `pattern_count` scans a window.  A
    few members in a big box are tested one by one for each n instead."""
    if not spec.gamma:
        raise ValueError("pattern spec carries no lattice vectors")
    d, shape = s.d, s.shape
    if any(len(v) != d for v in spec.gamma + spec.gamma_hat):
        raise ValueError(f"lattice vectors must have {d} coordinates, as the box does")
    # |n z_i + N zhat_i| <= w_i - 1 for every vector and axis
    n0, n1 = _feasible_n(
        [
            bound
            for z, zh in zip(spec.gamma, spec.gamma_hat)
            for zi, zhi, w in zip(z, zh, shape)
            for bound in ((zi, w - 1 - zhi * N), (-zi, w - 1 + zhi * N))
        ],
        N,
    )
    if n1 < n0:
        return PatternCount(N, 0, (), (None, None))
    if prod(shape) << (d - 1) > _MASK_BITS_PER_MEMBER * (len(s.members) + 32):
        # few members in a big box: test them in order for each feasible n
        members, hits = s.members, []
        for n in range(n0, n1 + 1):
            offs = [tuple(n * zi + N * zhi for zi, zhi in zip(z, zh)) for z, zh in zip(spec.gamma, spec.gamma_hat)]
            hit = next((a for a in members if all(tuple(map(add, a, o)) in members for o in offs)), None)
            if hit is not None:
                hits.append((n, hit))
        return PatternCount(N, len(hits), tuple(hits[: max(0, max_witnesses)]), (None, None))
    strides, bits, _ = s._layout
    lines = []
    for z, zh in zip(spec.gamma, spec.gamma_hat):
        step = sum(map(mul, z, strides))
        start = n0 * step + N * sum(map(mul, zh, strides))
        # z·s is nonzero when two n are feasible, as |z_i| <= 2w_i - 2 then
        step = step or 1
        lines.append(range(start, start + (n1 - n0 + 1) * step, step))
    flagged, total = _scan(bits, lines, range(n0, n1 + 1), max_witnesses)
    witnesses = tuple((n, s._first_member(h)) for n, h in flagged)
    return PatternCount(N, total, witnesses, (None, None))


def syndetic_pattern_report(
    s: IntegerSet | LatticeSet,
    spec: PatternSpec,
    n_max: int,
    eps: Fraction | str = "auto",
) -> SyndeticReport:
    """N with pattern_count(N) >= eps*N, reported as a window certificate."""
    counter = pattern_count if isinstance(s, IntegerSet) else lattice_pattern_count
    ratios = {N: Fraction(counter(s, spec, N, 0).count, N) for N in range(1, n_max + 1)}
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
