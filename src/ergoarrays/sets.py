"""Exact set algebras: rational arcs, cylinder unions, finite subsets.

Every set type has a unique canonical form, so structural equality is set
equality.  Arcs are half-open [a, b) with rational endpoints in [0, 1),
sorted and disjoint, with wraparound split at 0.  Cylinder unions are stored
as a sorted support of coordinates plus the set of admissible symbol rows
over that support, minimized by deleting coordinates the set does not
actually depend on.  Finite subsets are plain frozensets of points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .util import ResourceCapError, frac_mod1

_MAX_ROWS = 1 << 20  # cap on expanded cylinder rows


# ---------------------------------------------------------------------------
# arcs on the circle [0, 1)


@dataclass(frozen=True)
class ArcUnion:
    """Finite union of half-open arcs [a, b) on the unit circle."""

    arcs: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_arcs(cls, raw: Iterable[tuple[Fraction | int | str, Fraction | int | str]]) -> "ArcUnion":
        """Build from arbitrary (start, end) pairs; start > end wraps around."""
        pieces: list[tuple[Fraction, Fraction]] = []
        for a, b in raw:
            a, b = Fraction(a), Fraction(b)
            if b - a >= 1:
                return cls.full()
            a, b = frac_mod1(a), frac_mod1(b)
            if a == b:
                continue  # empty piece
            if a < b:
                pieces.append((a, b))
            else:  # wraps through 1: split at 0
                pieces.append((a, Fraction(1)))
                if b > 0:
                    pieces.append((Fraction(0), b))
        return cls._canonical(pieces)

    @classmethod
    def _canonical(cls, pieces: list[tuple[Fraction, Fraction]]) -> "ArcUnion":
        pieces = sorted(p for p in pieces if p[0] < p[1])
        merged: list[tuple[Fraction, Fraction]] = []
        for a, b in pieces:
            if merged and a <= merged[-1][1]:
                la, lb = merged[-1]
                merged[-1] = (la, max(lb, b))
            else:
                merged.append((a, b))
        return cls(tuple(merged))

    @classmethod
    def empty(cls) -> "ArcUnion":
        return cls(())

    @classmethod
    def full(cls) -> "ArcUnion":
        return cls(((Fraction(0), Fraction(1)),))

    def is_empty(self) -> bool:
        return not self.arcs

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.arcs), Fraction(0))

    def rotate(self, delta: Fraction) -> "ArcUnion":
        """Translate every arc by delta (mod 1)."""
        return ArcUnion.from_arcs([(a + delta, b + delta) for a, b in self.arcs])

    def intersect(self, other: "ArcUnion") -> "ArcUnion":
        out = []
        for a1, b1 in self.arcs:
            for a2, b2 in other.arcs:
                lo, hi = max(a1, a2), min(b1, b2)
                if lo < hi:
                    out.append((lo, hi))
        # pieces of two sorted lists of arcs apart come out sorted and apart
        return ArcUnion(tuple(out))

    def union(self, other: "ArcUnion") -> "ArcUnion":
        return ArcUnion._canonical(list(self.arcs) + list(other.arcs))

    def complement(self) -> "ArcUnion":
        # the nonempty gaps between consecutive ends of arcs apart are sorted and apart
        ends = (Fraction(0), *itertools.chain.from_iterable(self.arcs), Fraction(1))
        return ArcUnion(tuple(gap for gap in zip(ends[::2], ends[1::2]) if gap[0] < gap[1]))

    def contains_point(self, x: Fraction) -> bool:
        x = frac_mod1(Fraction(x))
        return any(a <= x < b for a, b in self.arcs)


# ---------------------------------------------------------------------------
# cylinder unions over shift spaces (coords are ints, or int tuples in Z^d)


@dataclass(frozen=True)
class CylinderUnion:
    """Union of cylinders: admissible symbol rows over a coordinate support.

    Canonical form drops every coordinate the set does not depend on, so the
    whole space is (coords=(), rows={()}) and the empty set (coords=(),
    rows=frozenset()).
    """

    coords: tuple[Hashable, ...]
    rows: frozenset[tuple[int, ...]]
    alphabet: int

    @classmethod
    def cylinder(cls, constraints: Mapping[Hashable, int], alphabet: int) -> "CylinderUnion":
        """Single cylinder fixing symbol values at finitely many coordinates."""
        coords = tuple(sorted(constraints))
        for c in coords:
            s = constraints[c]
            if not 0 <= s < alphabet:
                raise ValueError(f"symbol {s} outside alphabet of size {alphabet}")
        row = tuple(constraints[c] for c in coords)
        return cls._canonical(coords, {row}, alphabet)

    @classmethod
    def empty(cls, alphabet: int) -> "CylinderUnion":
        return cls((), frozenset(), alphabet)

    @classmethod
    def full(cls, alphabet: int) -> "CylinderUnion":
        return cls((), frozenset({()}), alphabet)

    @classmethod
    def _canonical(cls, coords, rows, alphabet) -> "CylinderUnion":
        """Drop every coordinate membership does not depend on, in one pass.
        Position p is free exactly when each row with p deleted has all
        `alphabet` extensions, which a count of the deleted rows shows; a
        set free at several positions separately is free at all of them at
        once, so they are projected out together (the empty set is free at
        every position).  The deleted rows are zipped from columns taken
        once; with fewer than two columns they are the one row () of a
        one-coordinate support, or none for the empty set."""
        rows = frozenset(rows)
        cols = list(zip(*rows))
        count = lambda p: len(set(zip(*cols[:p], *cols[p + 1 :]))) if len(cols) > 1 else min(len(rows), 1)
        keep = [p for p in range(len(coords)) if count(p) * alphabet != len(rows)]
        if len(keep) < len(coords):
            rows = frozenset(tuple(map(r.__getitem__, keep)) for r in rows)
        return cls(tuple(map(coords.__getitem__, keep)), rows, alphabet)

    def is_empty(self) -> bool:
        return not self.rows

    @cached_property
    def layers(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The minimal layered automaton of the set: layers[i][q][a] is the
        state after symbol a at coords[i] from state q, a layer's states its
        distinct sets of row suffixes; -1 rejects and indexes the row of -1s
        that ends each layer, and the one state past the last layer accepts."""
        states, layers = {self.rows: 0}, []
        for _ in self.coords:
            nxt, table = {}, []
            for suffixes in states:
                follow = [set() for _ in range(self.alphabet)]
                for row in suffixes:
                    follow[row[0]].add(row[1:])
                table.append(tuple(nxt.setdefault(frozenset(f), len(nxt)) if f else -1 for f in follow))
            table.append((-1,) * self.alphabet)
            layers.append(tuple(table))
            states = nxt
        return tuple(layers)

    def shift(self, offset) -> "CylinderUnion":
        """Rename coordinates by +offset (int, or vector for tuple coords).

        Adding one offset keeps the sorted (for vectors, lexicographic) order
        of the support, so the rows carry over unchanged.
        """
        if not self.coords:
            return self
        if isinstance(self.coords[0], tuple):
            coords = tuple(tuple(x + o for x, o in zip(c, offset)) for c in self.coords)
        else:
            coords = tuple(c + offset for c in self.coords)
        return CylinderUnion(coords, self.rows, self.alphabet)

    def _expand_to(self, coords: tuple) -> frozenset[tuple[int, ...]]:
        """Rows of this set over a superset support (exponential in the gap)."""
        n_rows = len(self.rows) * self.alphabet ** (len(coords) - len(self.coords))
        if n_rows > _MAX_ROWS:
            raise ResourceCapError(f"cylinder expansion of {n_rows} rows exceeds cap {_MAX_ROWS}")
        pos = {c: i for i, c in enumerate(self.coords)}
        symbols = range(self.alphabet)
        return frozenset(
            row
            for base in self.rows
            for row in itertools.product(*[(base[pos[c]],) if c in pos else symbols for c in coords])
        )

    def intersect(self, other: "CylinderUnion") -> "CylinderUnion":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.is_empty() or other.is_empty():
            return CylinderUnion.empty(self.alphabet)
        # a hash join on the shared coordinates, merging every pair
        # of rows that agree there; on disjoint supports the product is
        # canonical, since a coordinate it does not depend on would be one
        # that a factor does not depend on
        pos = {c: i for i, c in enumerate(self.coords)}
        shared = [i for i, c in enumerate(other.coords) if c in pos]
        rest = [i for i, c in enumerate(other.coords) if c not in pos]
        mine = [pos[other.coords[i]] for i in shared]
        index: dict[tuple, list[tuple]] = {}
        for s in other.rows:
            index.setdefault(tuple(map(s.__getitem__, shared)), []).append(tuple(map(s.__getitem__, rest)))
        coords = self.coords + tuple(map(other.coords.__getitem__, rest))
        order = sorted(range(len(coords)), key=coords.__getitem__)
        rows = []
        for r in self.rows:
            rows += (tuple(map((r + s).__getitem__, order)) for s in index.get(tuple(map(r.__getitem__, mine)), ()))
            if len(rows) > _MAX_ROWS:
                raise ResourceCapError(f"cylinder intersection of over {_MAX_ROWS} rows exceeds the cap")
        coords = tuple(map(coords.__getitem__, order))
        if shared:
            return CylinderUnion._canonical(coords, rows, self.alphabet)
        return CylinderUnion(coords, frozenset(rows), self.alphabet)

    def union(self, other: "CylinderUnion") -> "CylinderUnion":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        coords = tuple(sorted(set(self.coords) | set(other.coords)))
        rows = self._expand_to(coords) | other._expand_to(coords)
        return CylinderUnion._canonical(coords, rows, self.alphabet)

    def complement(self) -> "CylinderUnion":
        """The missing rows over the same support: a union and its complement
        depend on the same coordinates, so the result is canonical."""
        if self.alphabet ** len(self.coords) > _MAX_ROWS:
            raise ResourceCapError("support too wide to complement")
        rows = frozenset(itertools.product(range(self.alphabet), repeat=len(self.coords))) - self.rows
        return CylinderUnion(self.coords, rows, self.alphabet)


# ---------------------------------------------------------------------------
# finite subsets (points of Z_m, or tuples for products)


@dataclass(frozen=True)
class FiniteSubset:
    members: frozenset

    @classmethod
    def of(cls, members: Iterable) -> "FiniteSubset":
        return cls(frozenset(members))

    def is_empty(self) -> bool:
        return not self.members

    def intersect(self, other: "FiniteSubset") -> "FiniteSubset":
        return FiniteSubset(self.members & other.members)

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        return FiniteSubset(self.members | other.members)


def intersect(a, b):
    """Intersection of two compatible algebra sets."""
    if type(a) is not type(b):
        raise TypeError(f"cannot intersect {type(a).__name__} with {type(b).__name__}")
    return a.intersect(b)
