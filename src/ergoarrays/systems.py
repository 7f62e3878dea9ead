"""Concrete measure-preserving systems in two capability tiers.

EXACT systems answer measure queries with exact rationals on a closed set
algebra and support T^{-k} for every integer k.  SAMPLED systems supply
orbit evaluation T^k x (k < 0 only when invertible) plus deterministic
measure-distributed sampling; they feed the Monte Carlo paths.

All exact systems implement: full_set, measure, preimage(S, k), complement,
random_set(rng) and period.  Shift-type and lattice systems additionally
implement translate_preimage(S, v) for commuting-family actions.  The shifts
share their cylinder-union methods and one exact integral of products of
moved observables (``_ShiftSystem.integral``) through ``_ShiftSystem``, and
the finite-point systems share counting measure through ``_PointSystem``.
"""

from __future__ import annotations

import math
import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Sequence

from .sets import ArcUnion, CylinderUnion, FiniteSubset
from .util import ResourceCapError, frac_mod1, mix64, parse_fraction

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# exact tier


class ExactSystem:
    """Marker base; concrete systems are frozen dataclasses."""

    independent_coords = False  # True when disjoint coordinate supports are independent
    period = None  # q with T^q = id and every translation by q*e_i = id; None if none


class _PointSystem(ExactSystem):
    """Finite point space of ``size`` points with normalized counting measure."""

    def measure(self, S: FiniteSubset) -> Fraction:
        return Fraction(len(S.members), self.size)

    def complement(self, S: FiniteSubset) -> FiniteSubset:
        return FiniteSubset(self.full_set().members - S.members)


@dataclass(frozen=True)
class CyclicRotation(_PointSystem):
    """Rotation x -> x + step on Z_m with normalized counting measure."""

    modulus: int
    step: int = 1

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")

    @property
    def period(self) -> int:
        return self.modulus

    size = period

    def point_set(self, members: Iterable[int]) -> FiniteSubset:
        return FiniteSubset.of(m % self.modulus for m in members)

    def full_set(self) -> FiniteSubset:
        return FiniteSubset.of(range(self.modulus))

    def preimage(self, S: FiniteSubset, k: int) -> FiniteSubset:
        delta = (k * self.step) % self.modulus
        return FiniteSubset.of((x - delta) % self.modulus for x in S.members)

    def translate_preimage(self, S: FiniteSubset, v: int | Vector) -> FiniteSubset:
        (v,) = v if isinstance(v, tuple) else (v,)
        return FiniteSubset.of((x - v) % self.modulus for x in S.members)

    def random_set(self, rng: random.Random) -> FiniteSubset:
        return FiniteSubset.of(x for x in range(self.modulus) if rng.random() < 0.5)

    def sample_point(self, seed: int, idx: int) -> int:
        return mix64(seed, idx) % self.modulus

    def point_in(self, x: int, S: FiniteSubset) -> bool:
        return x % self.modulus in S.members


@dataclass(frozen=True)
class CircleRotation(ExactSystem):
    """Rotation of [0, 1) by an exact rational angle; sets are arc unions."""

    angle: Fraction

    def __post_init__(self):
        object.__setattr__(self, "angle", frac_mod1(Fraction(self.angle)))

    @property
    def period(self) -> int:
        return self.angle.denominator

    def arc(self, a, b) -> ArcUnion:
        return ArcUnion.from_arcs([(Fraction(a), Fraction(b))])

    def cells(self, sets: Sequence[ArcUnion]) -> tuple[int, int, list[list[tuple[int, int]]]]:
        """The grid of Q cells that the angle and every arc end fall on (Q the
        lcm of their denominators), the angle as a count of cells, and each
        set's arcs [a, b) as integer cell intervals (a*Q, b*Q)."""
        Q = math.lcm(self.period, *(x.denominator for S in sets for arc in S.arcs for x in arc))
        cell = lambda x: x.numerator * (Q // x.denominator)
        return Q, cell(self.angle), [[(cell(a), cell(b)) for a, b in S.arcs] for S in sets]

    def full_set(self) -> ArcUnion:
        return ArcUnion.full()

    def measure(self, S: ArcUnion) -> Fraction:
        return S.measure()

    def preimage(self, S: ArcUnion, k: int) -> ArcUnion:
        return S.rotate(-k * self.angle)

    def complement(self, S: ArcUnion) -> ArcUnion:
        return S.complement()

    def random_set(self, rng: random.Random) -> ArcUnion:
        arcs = []
        for _ in range(rng.randint(1, 3)):
            a = Fraction(rng.randint(0, 48), 48)
            b = a + Fraction(rng.randint(1, 16), 48)
            arcs.append((a, b))
        return ArcUnion.from_arcs(arcs)

    def sample_point(self, seed: int, idx: int) -> Fraction:
        hi, lo = mix64(seed, idx, 0), mix64(seed, idx, 1)
        return Fraction((hi << 64) | lo, 1 << 128)

    def point_in(self, x: Fraction, S: ArcUnion) -> bool:
        return S.contains_point(x)


def _parse_matrix(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    if (
        not isinstance(rows, (list, tuple))
        or not rows
        or any(not isinstance(row, (list, tuple)) or len(row) != len(rows) for row in rows)
    ):
        raise ValueError("Markov matrix must be a nonempty square list of lists")
    try:
        return tuple(
            tuple(parse_fraction(x) if isinstance(x, str) else Fraction(x) for x in row)
            for row in rows
        )
    except TypeError:
        raise ValueError("Markov matrix entries must be numbers or fraction strings") from None


def _stationary_of(matrix: tuple[tuple[Fraction, ...], ...]) -> tuple[Fraction, ...]:
    """Unique stationary row vector of a stochastic matrix, exact."""
    s = len(matrix)
    # unknowns x_0..x_{s-1}: s-1 balance equations plus normalization
    rows: list[list[Fraction]] = []
    for i in range(s - 1):
        rows.append([matrix[j][i] - (1 if i == j else 0) for j in range(s)] + [Fraction(0)])
    rows.append([Fraction(1)] * s + [Fraction(1)])
    # Gaussian elimination with exact pivoting
    n = len(rows)
    col = 0
    for r in range(n):
        piv = next((rr for rr in range(r, n) if rows[rr][col] != 0), None)
        if piv is None:
            raise ValueError("chain has no unique stationary distribution")
        rows[r], rows[piv] = rows[piv], rows[r]
        pivval = rows[r][col]
        rows[r] = [v / pivval for v in rows[r]]
        for rr in range(n):
            if rr != r and rows[rr][col] != 0:
                f = rows[rr][col]
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[r])]
        col += 1
    pi = tuple(rows[i][s] for i in range(s))
    if any(p < 0 for p in pi):
        raise ValueError("chain has no unique stationary distribution")
    return pi


_MAX_STATES = 1 << 16  # live scan states a coordinate of ``_Integral`` may hold


class _ShiftSystem(ExactSystem):
    """Shift on alphabet^Z: sets are cylinder unions, T^{-k} renames
    coordinates by +k.  ``random_set`` fixes 1 to 3 symbols at coordinates
    within +-_RANDOM_SPAN.  Every exact integral of a product of moved
    observables is ``integral`` (``_Integral``), an integer over a unit
    fixed before the scan."""

    _RANDOM_SPAN = 6

    def integral(self, forms, vector: bool = False, spread: int = 0) -> "_Integral":
        """Integrals of products of the forms moved by shifts (vector ones for
        ``translate_preimage``) at most spread apart."""
        return _Integral(self, forms, vector, spread)

    def cylinder(self, constraints: Mapping[int, int]) -> CylinderUnion:
        return CylinderUnion.cylinder(constraints, self.alphabet)

    def full_set(self) -> CylinderUnion:
        return CylinderUnion.full(self.alphabet)

    def preimage(self, S: CylinderUnion, k: int) -> CylinderUnion:
        return S.shift(k)

    def translate_preimage(self, S: CylinderUnion, v: int | Vector) -> CylinderUnion:
        (v,) = v if isinstance(v, tuple) else (v,)
        return S.shift(v)

    def complement(self, S: CylinderUnion) -> CylinderUnion:
        return S.complement()

    def random_set(self, rng: random.Random) -> CylinderUnion:
        span = self._RANDOM_SPAN
        constraints = {
            rng.randint(-span, span): rng.randrange(self.alphabet)
            for _ in range(rng.randint(1, 3))
        }
        return self.cylinder(constraints)


class _Integral:
    """Exact integrals of products of moved observables on a shift system.

    ``forms`` have the shape of ``Observable.integer_form``.  Called on
    factors [(j, shift), ...] of the forms js it returns m: the product of
    the forms' numerators cnum + sum num * 1_S, each moved, integrates to
    m / ``unit(js)``, prod dens * _unit * _den^top.  On independent
    coordinates top sums the forms' support sizes (a coordinate factors
    share is padded by _den); on a Markov shift it is spread plus the
    forms' support span, the largest power a call within spread takes,
    refused before any past the bit budget (a call spanning further raises
    ValueError).  Factors split into clusters where their spans (along the
    first axis, on a lattice) stop overlapping; a cluster is one scan over
    its sorted coordinates, memoized by its factors' offsets relative to
    its first.  A state is the tuple of its sets' automaton states
    (``CylinderUnion.layers``) with the integer mass of its paths; a
    factor's value multiplies in where its support ends, and a plain
    indicator drops a path once its set rejects.  Clusters multiply on
    independent coordinates.  On a Markov shift a state also carries its
    first and last symbol, so a cluster is a sparse transfer matrix, chained
    from the stationary vector through entries of powers of A = D*P.  Over
    ``_MAX_STATES`` live states at a coordinate raise ResourceCapError."""

    def __init__(self, system, forms, vector: bool, spread: int):
        self.system, self.memo, self.markov = system, {}, not system.independent_coords
        self.lattice = hasattr(system, "d")  # coordinates are d-vectors
        # a shift's coordinate offset, or None where it is the shift
        if self.lattice:  # a scalar shift is the diagonal one
            self.offset = None if vector else lambda k: (k,) * system.d
        else:  # a vector shift on Z is a 1-vector
            self.offset = operator.itemgetter(0) if vector else None
        ops = (operator.add, operator.sub)
        self.add, self.sub = [lambda c, o, op=op: tuple(map(op, c, o)) for op in ops] if self.lattice else ops
        self.zero = (0,) * system.d if self.lattice else 0
        self.dens, self.forms, self.supports = [], [], []
        for den, cnum, terms in forms:
            sets = [(num, S.coords, S.layers) for num, S in terms if S.coords]
            cnum += sum(num for num, S in terms if not S.coords and S.rows)  # the whole space
            support = sorted({c for _, coords, _ in sets for c in coords})
            lead = [c[0] for c in support] if self.lattice else support
            self.dens.append(den)
            self.supports.append(support)
            self.forms.append((cnum, sets, min(lead, default=None), max(lead, default=None), not cnum and len(sets) == 1))
        if self.markov:  # refuse the largest power a product may take before any is taken
            ends = [c for _, _, lo, hi, _ in self.forms if lo is not None for c in (lo, hi)]
            self.top = spread + max(ends, default=0) - min(ends, default=0)
            system._powers.check(self.top)

    def coords(self, factors) -> set:
        """The coordinates the factors [(j, shift), ...] depend on."""
        offset, add, supports = self.offset, self.add, self.supports
        return {add(c, offset(s) if offset else s) for j, s in factors for c in supports[j]}

    def unit(self, js) -> int:
        """The denominator of a call on factors of the forms js."""
        js = list(js)
        e = self.top if self.markov else sum(len(self.supports[j]) for j in js)
        return math.prod(self.dens[j] for j in js) * self.system._unit * self.system._den**e

    def exact(self, factors) -> Fraction:
        """The integral of the product of the factors [(j, shift), ...]."""
        factors = list(factors)
        return Fraction(self(factors), self.unit(j for j, _ in factors))

    def __call__(self, factors) -> int:
        forms, offset, lattice, sub, memo = self.forms, self.offset, self.lattice, self.sub, self.memo
        const, placed = 1, []
        for j, s in factors:
            cnum, _, lo, hi, _ = forms[j]
            if lo is None:
                const *= cnum
                continue
            if offset:
                s = offset(s)
            t = s[0] if lattice else s
            placed.append((lo + t, hi + t, j, s))
        placed.sort()
        placed.append(None)  # closes the last cluster
        markov, key, first = self.markov, None, None
        for item in placed:
            if key is not None:
                if item is not None and item[0] <= end:  # the cluster goes on
                    _, hi, j, s = item
                    key += (j, sub(s, base))
                    end = max(end, hi)
                    continue
                key = tuple(key)
                value = memo.get(key)
                if value is None:
                    value = memo[key] = self._scan(key)
                if not markov:
                    const *= value
                elif first is None:  # the first cluster, from the stationary numerators
                    w, first = value[1], start
                else:  # from the last cluster across A^gap
                    P, nxt = self.system._powers[start - last], {}
                    for a, outs in value[0]:
                        v = sum([x * P[b][a] for b, x in w])
                        for b, x in outs if v else ():
                            nxt[b] = nxt.get(b, 0) + v * x
                    w = nxt.items()
                last = end
            if item is not None:
                start, end, j, base = item
                key = [j]
        if not markov:
            return const
        if first is None:  # the integral of 1 is _unit / _unit
            w, first, last = [(0, self.system._unit)], 0, 0
        if last - first > self.top:
            raise ValueError(f"factors spanning {last - first} coordinates pass the {self.top} this integral was built for")
        return const * sum(x for _, x in w) * self.system._den ** (self.top - last + first)

    def _scan(self, key):
        """The cluster of form key[0] unmoved and forms key[2i+1] moved by
        key[2i+2]: on independent coordinates its integer over _den^(its
        forms' support sizes); on a Markov shift its transfer matrix [(first
        symbol, [(last symbol, m), ...]), ...] over D^(last - first) and the
        weights it gives the stationary numerators, [(last symbol, m), ...]."""
        markov, add, system = self.markov, self.add, self.system
        moves, ends = defaultdict(list), defaultdict(list)  # coordinate -> its steps, the factors ending there
        slot = 2 if markov else 0  # a Markov state leads with its first and last symbol
        for j, s in [(key[0], self.zero), *zip(key[1::2], key[2::2])]:
            cnum, sets, _, _, plain = self.forms[j]
            slots = []
            for num, coords, layers in sets:
                for c, table in zip(coords, layers):
                    moves[add(c, s)].append((slot, table, plain))
                slots.append((slot, num))
                slot += 1
            ends[add(self.supports[j][-1], s)].append((cnum, slots))
        cur, prev, weights = {(0,) * slot: 1}, None, None if markov else system._nums
        for c in sorted(moves):
            move, end = moves[c], ends.get(c, ())
            if markov:  # weights from the last symbol, none at the first coordinate
                step = (1,) * system.alphabet if prev is None else system._powers[c - prev]
            nxt = {}
            for state, w in cur.items():
                for a, x in enumerate(weights or (step if prev is None else step[state[1]])):
                    if not x:
                        continue
                    st = list(state)
                    for i, table, plain in move:
                        if (q := table[st[i]][a]) < 0 and plain:
                            break
                        st[i] = q
                    else:
                        for value, slots in end:
                            for i, num in slots:
                                if st[i] >= 0:
                                    value += num
                                st[i] = 0
                            x *= value
                        if x:
                            if markov:
                                st[1] = a
                                st[0] = a if prev is None else st[0]
                            st = tuple(st)
                            nxt[st] = nxt.get(st, 0) + w * x
            if len(nxt) > _MAX_STATES:
                raise ResourceCapError(f"coordinate scan of over {_MAX_STATES} states exceeds the cap")
            cur, prev = nxt, c
        if not markov:  # coordinates the factors share are padded
            return sum(cur.values()) * system._den ** (sum(len(self.supports[j]) for j in (key[0], *key[1::2])) - len(moves))
        M, start = defaultdict(list), defaultdict(int)
        for (a, b, *_), x in cur.items():
            M[a].append((b, x))
            start[b] += system._pi[0][a] * x
        return list(M.items()), list(start.items())


@dataclass(frozen=True)
class BernoulliShift(_ShiftSystem):
    """Left shift on alphabet^Z with an i.i.d. product measure."""

    probs: tuple[Fraction, ...]

    independent_coords = True
    _unit = 1

    def __post_init__(self):
        probs = tuple(Fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if sum(probs) != 1 or any(p < 0 for p in probs):
            raise ValueError("probabilities must be nonnegative and sum to 1")
        # probs[s] = nums[s] / den over one common denominator
        den = math.lcm(*(p.denominator for p in probs))
        object.__setattr__(self, "_nums", tuple(p.numerator * (den // p.denominator) for p in probs))
        object.__setattr__(self, "_den", den)

    @classmethod
    def uniform(cls, symbols: int = 2) -> "BernoulliShift":
        return cls(tuple(Fraction(1, symbols) for _ in range(symbols)))

    @property
    def alphabet(self) -> int:
        return len(self.probs)

    def measure(self, S: CylinderUnion) -> Fraction:
        total = sum(math.prod(map(self._nums.__getitem__, row)) for row in S.rows)
        return Fraction(total, self._den ** len(S.coords))

    def sample_point(self, seed: int, idx: int) -> "LazySequence":
        return LazySequence(seed, idx, self.probs)

    def point_in(self, x: "LazySequence", S: CylinderUnion) -> bool:
        row = tuple(x.symbol(c) for c in S.coords)
        return row in S.rows


_MAX_POWER_BITS = 1 << 16  # bits an entry of a Markov power A^t may reach
_POWER_MEMO_BITS = 1 << 23  # bits of entries the power memo may hold


class _IntPowers(dict):
    """t -> A^t for an integer matrix A with nonnegative entries and row
    sums D, so that no entry of A^t passes D^t: A^t holds at most
    entries * (t*log2 D + 1) bits, fewer than (t + 1) units of
    entries * max(1, log2 D) bits.  A missing power is one product past a
    memoized A^(t-1), else (A^(t//2))^2 times A^(t mod 2) by repeated
    squaring.  The memo holds at most ``_POWER_MEMO_BITS`` bits by that
    count: past it, it is emptied down to A^0 and A^1.  A power whose
    entries could pass ``_MAX_POWER_BITS`` bits raises ResourceCapError
    before any product is taken."""

    def __init__(self, A: tuple[tuple[int, ...], ...], D: int):
        identity = tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))
        super().__init__({0: identity, 1: A})
        self.base = dict(self)
        self.cols, bits_per_step = tuple(zip(*A)), math.log2(D)
        self.max_t = int(_MAX_POWER_BITS / bits_per_step) if D > 1 else math.inf
        self.max_load = _POWER_MEMO_BITS // (len(A) ** 2 * max(1, bits_per_step))
        self.load = self.base_load = 3  # units of A^0 and A^1

    def check(self, t: int) -> None:
        """Raise unless A^t is within the bit budget."""
        if not 0 <= t <= self.max_t:
            if t < 0:
                raise ValueError("matrix power must be >= 0")
            raise ResourceCapError(
                f"matrix power {t} would pass {_MAX_POWER_BITS} bits an entry (at most {self.max_t} here)"
            )

    def __missing__(self, t: int) -> tuple[tuple[int, ...], ...]:
        self.check(t)
        prev = self.get(t - 1)
        if prev is not None:
            out = _matmul(prev, self.cols)
        else:
            half = self[t // 2]
            out = _matmul(half, tuple(zip(*half)))
            if t % 2:
                out = _matmul(out, self.cols)
        load = self.load + t + 1
        if load > self.max_load:
            self.clear()
            self.update(self.base)
            load = self.base_load + t + 1
        if load <= self.max_load:
            self[t] = out
            self.load = load
        return out


def _matmul(X, cols):
    """X times the matrix whose columns are cols."""
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in X)


@dataclass(frozen=True)
class MarkovShift(_ShiftSystem):
    """Left shift with the stationary Markov measure of a stochastic matrix.

    Measures are computed in integers by ``block_measure``: with D the lcm
    of the matrix denominators, powers of A = D*P come from a memo of
    bounded size (``_IntPowers``; a power past its bit budget raises
    ResourceCapError), and the stationary vector is kept as integers over
    the lcm of its denominators, so a row of symbols spanning coordinates
    c_0 < ... < c_k has measure
    pi[r_0] * prod_t A^(c_{t+1} - c_t)[r_t][r_{t+1}] / (pi_den * D^(c_k - c_0)).
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    stationary: tuple[Fraction, ...] = field(init=False)

    _RANDOM_SPAN = 5

    def __post_init__(self):
        matrix = _parse_matrix(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        for row in matrix:
            if sum(row) != 1 or any(p < 0 for p in row):
                raise ValueError("matrix rows must be stochastic")
        pi = _stationary_of(matrix)
        object.__setattr__(self, "stationary", pi)
        den = math.lcm(*(p.denominator for row in matrix for p in row))
        pi_den = math.lcm(*(p.denominator for p in pi))
        A = tuple(tuple(p.numerator * (den // p.denominator) for p in row) for row in matrix)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_pi", (tuple(p.numerator * (pi_den // p.denominator) for p in pi), pi_den))
        object.__setattr__(self, "_unit", pi_den)
        object.__setattr__(self, "_powers", _IntPowers(A, den))

    @classmethod
    def iid(cls, probs: Sequence) -> "MarkovShift":
        probs = tuple(Fraction(p) for p in probs)
        return cls(tuple(probs for _ in probs))

    @classmethod
    def two_state(cls, stay: Fraction) -> "MarkovShift":
        stay = Fraction(stay)
        move = 1 - stay
        return cls(((stay, move), (move, stay)))

    @property
    def alphabet(self) -> int:
        return len(self.matrix)

    states = alphabet

    def power(self, t: int) -> tuple[tuple[Fraction, ...], ...]:
        At, scale = self._powers[t], self._den**t
        return tuple(tuple(Fraction(x, scale) for x in row) for row in At)

    def block_measure(self, blocks: Iterable[tuple[Sequence[int], Collection[Sequence[int]]]]) -> Fraction:
        """mu of the intersection of events on ordered blocks of coordinates,
        each (coords, rows): the admissible rows of symbols at the increasing
        coords, all after the previous block's, or, with no coordinates, the
        full set (one empty row) or the empty set (no rows).  One integer
        forward pass carries per state the weight of the admitted paths in
        that state at the block's last coordinate, over pi_den * D^(last - first)."""
        pi, pi_den = self._pi
        w = first = last = None
        for coords, rows in blocks:
            if not coords:
                if not rows:
                    return Fraction(0)
                continue
            if w is None:
                first, incoming = coords[0], pi
            elif coords[0] <= last:
                raise ValueError("blocks must be ordered and disjoint")
            else:  # w carried across the gap: w * A^gap
                incoming = [sum(map(operator.mul, w, col)) for col in zip(*self._powers[coords[0] - last])]
            steps = [self._powers[b - a] for a, b in zip(coords, coords[1:])]
            w = [0] * len(pi)
            for row in rows:
                p = incoming[row[0]]
                for A, a, b in zip(steps, row, row[1:]):
                    p *= A[a][b]
                w[row[-1]] += p
            last = coords[-1]
        if w is None:
            return Fraction(1)
        return Fraction(sum(w), pi_den * self._den ** (last - first))

    def path_measure(self, constraints: Mapping[int, int]) -> Fraction:
        """mu of the cylinder fixing symbols at the given coordinates."""
        coords = sorted(constraints)
        return self.block_measure([(coords, [tuple(map(constraints.__getitem__, coords))])])

    def measure(self, S: CylinderUnion) -> Fraction:
        return self.block_measure([(S.coords, S.rows)])



@dataclass(frozen=True)
class CyclicLattice(_PointSystem):
    """Product of cyclic rotations on Z_{m_1} x ... x Z_{m_d}.

    Serves both as the "product" exact kind (T rotates every factor by its
    step) and as the point space for lattice actions on (Z_m)^d.
    """

    moduli: tuple[int, ...]
    steps: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.moduli or min(self.moduli) < 1:
            raise ValueError("moduli must be a nonempty list of integers >= 1")
        if self.steps is None:
            object.__setattr__(self, "steps", tuple(1 for _ in self.moduli))
        if len(self.steps) != len(self.moduli):
            raise ValueError("steps and moduli lengths differ")

    @property
    def period(self) -> int:
        return math.lcm(*self.moduli)

    @property
    def size(self) -> int:
        return math.prod(self.moduli)

    @property
    def d(self) -> int:
        return len(self.moduli)

    def _wrap(self, p: Vector) -> Vector:
        return tuple(x % m for x, m in zip(p, self.moduli))

    def point_set(self, members: Iterable[Vector]) -> FiniteSubset:
        return FiniteSubset.of(self._wrap(p) for p in members)

    def full_set(self) -> FiniteSubset:
        pts = [()]
        for m in self.moduli:
            pts = [p + (x,) for p in pts for x in range(m)]
        return FiniteSubset.of(pts)

    def preimage(self, S: FiniteSubset, k: int) -> FiniteSubset:
        v = tuple(k * s for s in self.steps)
        return self.translate_preimage(S, v)

    def translate_preimage(self, S: FiniteSubset, v: int | Vector) -> FiniteSubset:
        v = v if isinstance(v, tuple) else (v,)
        return FiniteSubset.of(self._wrap(tuple(x - dv for x, dv in zip(p, v))) for p in S.members)

    def random_set(self, rng: random.Random) -> FiniteSubset:
        return FiniteSubset.of(p for p in self.full_set().members if rng.random() < 0.5)


@dataclass(frozen=True)
class BernoulliLattice(BernoulliShift):
    """Z^d of shifts on {0,..,a-1}^{Z^d} with an i.i.d. product measure."""

    d: int

    @classmethod
    def uniform(cls, d: int, symbols: int = 2) -> "BernoulliLattice":
        return cls(tuple(Fraction(1, symbols) for _ in range(symbols)), d)

    def cylinder(self, constraints: Mapping[Vector, int]) -> CylinderUnion:
        for c in constraints:
            if not isinstance(c, tuple) or len(c) != self.d:
                raise ValueError(f"coordinate {c} is not {self.d}-dimensional")
        return CylinderUnion.cylinder(constraints, self.alphabet)

    def preimage(self, S: CylinderUnion, k: int) -> CylinderUnion:
        """T^{-k}S for the diagonal shift T = translation by (1, ..., 1)."""
        return S.shift(tuple(k for _ in range(self.d)))

    def translate_preimage(self, S: CylinderUnion, v: int | Vector) -> CylinderUnion:
        return S.shift(v if isinstance(v, tuple) else (v,))

    def random_set(self, rng: random.Random) -> CylinderUnion:
        constraints = {}
        for _ in range(rng.randint(1, 3)):
            coord = tuple(rng.randint(-4, 4) for _ in range(self.d))
            constraints[coord] = rng.randrange(self.alphabet)
        return self.cylinder(constraints)


@dataclass(frozen=True)
class RelabeledSystem(_PointSystem):
    """Isomorphic copy of a finite-point system under a point bijection."""

    base: ExactSystem
    relabel: tuple[tuple[object, object], ...]  # pairs (base point, new point)

    def __post_init__(self):
        fwd = dict(self.relabel)
        back = {v: k for k, v in fwd.items()}
        if len(back) != len(fwd):
            raise ValueError("relabeling must be a bijection")
        base_pts = self.base.full_set().members
        if set(fwd) != set(base_pts):
            raise ValueError("relabeling must cover the whole base space")
        object.__setattr__(self, "_fwd", fwd)
        object.__setattr__(self, "_back", back)

    @property
    def period(self) -> int | None:
        return self.base.period

    @property
    def size(self) -> int:
        return len(self._fwd)

    def _pull(self, S: FiniteSubset) -> FiniteSubset:
        return FiniteSubset.of(self._back[p] for p in S.members)

    def _push(self, S: FiniteSubset) -> FiniteSubset:
        return FiniteSubset.of(self._fwd[p] for p in S.members)

    def point_set(self, members: Iterable) -> FiniteSubset:
        return FiniteSubset.of(map(_point, members))

    def full_set(self) -> FiniteSubset:
        return self._push(self.base.full_set())

    def preimage(self, S: FiniteSubset, k: int) -> FiniteSubset:
        return self._push(self.base.preimage(self._pull(S), k))

    def random_set(self, rng: random.Random) -> FiniteSubset:
        return self._push(self.base.random_set(rng))


@dataclass(frozen=True)
class LazySequence:
    """Deterministic lazily-sampled point of a product shift space.

    The symbol at a coordinate is a pure function of (seed, index, coord),
    so query order never matters.
    """

    seed: int
    idx: int
    probs: tuple[Fraction, ...]

    def symbol(self, coord) -> int:
        parts = coord if isinstance(coord, tuple) else (coord,)
        u = Fraction(mix64(self.seed, self.idx, 7, *(c & 0xFFFFFFFFFFFFFFFF for c in parts)), 1 << 64)
        acc = Fraction(0)
        for s, p in enumerate(self.probs):
            acc += p
            if u < acc:
                return s
        return len(self.probs) - 1


# ---------------------------------------------------------------------------
# commuting families


@dataclass(frozen=True)
class LatticeAction:
    """Commuting translations T_j, That_j given by integer vectors.

    ``system`` must expose translate_preimage(S, v) and measure(S); every
    generator vector has the system's dimension (``d`` of a lattice, else
    1), and the vectors z_j must be pairwise distinct and nonzero (the
    hatted vectors are unconstrained).
    """

    system: ExactSystem
    z: tuple[Vector, ...]
    zhat: tuple[Vector, ...]

    def __post_init__(self):
        z = tuple(tuple(v) for v in self.z)
        zhat = tuple(tuple(v) for v in self.zhat)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "zhat", zhat)
        if len(z) != len(zhat):
            raise ValueError("need as many hatted vectors as unhatted ones")
        if not z:
            raise ValueError("need at least one generator pair")
        dim = getattr(self.system, "d", 1)
        if any(len(v) != dim for v in z + zhat):
            raise ValueError(f"generator vectors must have {dim} coordinates, the dimension of {type(self.system).__name__}")
        if any(all(x == 0 for x in v) for v in z):
            raise ValueError("z vectors must be nonzero")
        if len(set(z)) != len(z):
            raise ValueError("z vectors must be pairwise distinct")

    @property
    def ell(self) -> int:
        return len(self.z)

    @property
    def d(self) -> int:
        return len(self.z[0])

    def shift_vector(self, j: int, n: int, N: int) -> Vector:
        """Exponent vector of T_j^n That_j^N; j = 0 is the identity pair."""
        if j == 0:
            return tuple(0 for _ in range(self.d))
        zj, hj = self.z[j - 1], self.zhat[j - 1]
        return tuple(n * a + N * b for a, b in zip(zj, hj))

    def preimage_set(self, S, v: Vector):
        return self.system.translate_preimage(S, v)

    def measure(self, S) -> Fraction:
        return self.system.measure(S)

    def commutes(self, trial_sets: Sequence | None = None) -> bool:
        """Verify pairwise commutativity on a generating family of sets."""
        sets = list(trial_sets) if trial_sets is not None else []
        if not sets:
            rng = random.Random(7)
            sets = [self.system.random_set(rng) for _ in range(5)]
        vecs = list(self.z) + list(self.zhat)
        for a in vecs:
            for b in vecs:
                for S in sets:
                    ab = self.preimage_set(self.preimage_set(S, a), b)
                    ba = self.preimage_set(self.preimage_set(S, b), a)
                    if ab != ba:
                        return False
        return True


def build_lattice_action(
    system: ExactSystem,
    z: Sequence[Sequence[int] | int],
    zhat: Sequence[Sequence[int] | int],
) -> LatticeAction:
    """Normalize integer generators to vectors and validate the action."""
    norm = lambda v: (v,) if isinstance(v, int) else tuple(v)
    action = LatticeAction(system, tuple(norm(v) for v in z), tuple(norm(v) for v in zhat))
    if not action.commutes():
        raise ValueError("generators do not commute")
    return action


# ---------------------------------------------------------------------------
# sampled tier


class SampledSystem:
    invertible = False


@dataclass(frozen=True)
class IrrationalRotation(SampledSystem):
    """Circle rotation by a fixed-point dyadic approximation of an
    irrational angle (default 128 fractional bits)."""

    angle_fp: int
    bits: int = 128

    invertible = True

    @classmethod
    def from_float(cls, alpha: float, bits: int = 128) -> "IrrationalRotation":
        return cls(round(Fraction(alpha) * (1 << bits)) % (1 << bits), bits)

    @classmethod
    def sqrt2_minus_1(cls, bits: int = 128) -> "IrrationalRotation":
        fp = math.isqrt(2 << (2 * bits)) - (1 << bits)
        return cls(fp, bits)

    @property
    def angle(self) -> Fraction:
        return Fraction(self.angle_fp, 1 << self.bits)

    def orbit(self, x: Fraction, k: int) -> Fraction:
        return frac_mod1(x + k * self.angle)

    def sample_point(self, seed: int, idx: int) -> Fraction:
        need = self.bits
        words = []
        for w in range((need + 63) // 64):
            words.append(mix64(seed, idx, w))
        val = 0
        for w in words:
            val = (val << 64) | w
        return Fraction(val % (1 << need), 1 << need)

    def point_in(self, x: Fraction, S: ArcUnion) -> bool:
        return S.contains_point(x)


@dataclass(frozen=True)
class GaussMap(SampledSystem):
    """x -> 1/x mod 1 on (0, 1) with the density 1/((1+x) ln 2).

    Forward-only: negative orbit times are rejected.
    """

    bits: int = 64

    invertible = False

    def forward(self, x: Fraction) -> Fraction:
        if x == 0:
            return Fraction(0)
        return frac_mod1(1 / Fraction(x))

    def orbit(self, x: Fraction, k: int) -> Fraction:
        if k < 0:
            raise ValueError("the Gauss map is not invertible: k must be >= 0")
        for _ in range(k):
            x = self.forward(x)
        return x

    def density(self, x: float) -> float:
        return 1.0 / ((1.0 + x) * math.log(2.0))

    def sample_point(self, seed: int, idx: int) -> Fraction:
        # inverse CDF of the invariant measure: F(x) = log2(1+x)
        u = mix64(seed, idx) / 2**64
        x = 2.0**u - 1.0
        return Fraction(round(x * (1 << self.bits)), 1 << self.bits)

    def point_in(self, x: Fraction, S: ArcUnion) -> bool:
        return S.contains_point(x)


def orbit_eval(sys, x, k: int):
    """T^k x; k may be negative only on invertible systems."""
    if k < 0 and not getattr(sys, "invertible", False):
        raise ValueError("negative orbit time on a non-invertible system")
    return sys.orbit(x, k)


# ---------------------------------------------------------------------------
# JSON descriptors ({"kind": ..., "params": {...}})


def _list_param(params: Mapping, name: str) -> list:
    value = params[name]
    if not isinstance(value, list):
        raise ValueError(f"system parameter {name!r} must be a list, got {type(value).__name__}")
    return value


def _scalar(value, name: str, convert=int):
    """A scalar parameter, or a list parameter's entry, through ``convert``
    of its text; null, lists, objects and booleans raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"system parameter {name!r} must hold numbers or strings, got {type(value).__name__}")
    try:
        return convert(str(value))
    except ValueError as exc:
        raise ValueError(f"system parameter {name!r}: {exc}") from None


def _point(value):
    """A point from JSON: lists, the points of products, become tuples."""
    if isinstance(value, dict):
        raise ValueError(f"a point must be a number, a string or a list, got {value}")
    return tuple(map(_point, value)) if isinstance(value, list) else value


def build_system(descriptor: Mapping):
    if not isinstance(descriptor, Mapping):
        raise ValueError("system descriptor must be a JSON object")
    kind = descriptor.get("kind")
    params = descriptor.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError("system params must be a JSON object")
    unknown = set(descriptor) - {"kind", "params"}
    if unknown:
        raise ValueError(f"unknown descriptor fields: {sorted(unknown)}")
    if kind == "cyclic-rotation":
        return CyclicRotation(_scalar(params["modulus"], "modulus"), _scalar(params.get("step", 1), "step"))
    if kind == "circle-rotation-rational":
        return CircleRotation(_scalar(params["angle"], "angle", parse_fraction))
    if kind == "bernoulli-shift":
        return BernoulliShift(tuple(_scalar(p, "probs", parse_fraction) for p in _list_param(params, "probs")))
    if kind == "markov-shift":
        return MarkovShift(params["matrix"])
    if kind == "product":
        return CyclicLattice(
            tuple(_scalar(m, "moduli") for m in _list_param(params, "moduli")),
            tuple(_scalar(s, "steps") for s in _list_param(params, "steps")) if "steps" in params else None,
        )
    if kind == "bernoulli-lattice":
        return BernoulliLattice(
            tuple(_scalar(p, "probs", parse_fraction) for p in _list_param(params, "probs")), _scalar(params["d"], "d")
        )
    if kind == "relabeled":
        base, pairs = build_system(params["base"]), _list_param(params, "relabel")
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise ValueError("system parameter 'relabel' must be a list of [base point, new point] pairs")
        return RelabeledSystem(base, _point(pairs))
    if kind == "circle-rotation-irrational":
        bits = _scalar(params.get("bits", 128), "bits")
        if params.get("angle") == "sqrt2-1":
            return IrrationalRotation.sqrt2_minus_1(bits)
        angle = _scalar(params["angle"], "angle", float)
        if not math.isfinite(angle):
            raise ValueError(f"system parameter 'angle' must be finite, got {angle}")
        return IrrationalRotation.from_float(angle, bits)
    if kind == "gauss-map":
        return GaussMap()
    raise ValueError(f"unknown system kind {kind!r}")
