"""Small exact-arithmetic helpers shared across modules."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import Iterable, Sequence

# A rational upper bound on pi, enough digits for every comparison made here.
PI_HI = Fraction(31415926535897932385, 10**19)


def binom(x: int, k: int) -> int:
    """C(x, k) for any integer x and k >= 0.

    Uses the product formula x(x-1)...(x-k+1)/k!, which is an exact integer
    for every integer x (including negative x).
    """
    if k < 0:
        raise ValueError("binomial index k must be >= 0")
    if k == 0:
        return 1
    num = 1
    for t in range(k):
        num *= x - t
    return num // math.factorial(k)


def box_sums(table: Sequence[int], shape: Sequence[int], w: int) -> Iterable[int]:
    """Sum over every side-w box of a row-major table of the given shape,
    boxes in row-major order of their corners; w must fit every side.

    Each axis in turn, last first, takes the running window sum
    s_{a+1} = s_a + x_{a+w} - x_a along every line of the table; with one
    axis the sums are a stream and no list is built.
    """
    run = lambda xs: accumulate(map(sub, xs[w:], xs), initial=sum(xs[:w]))
    if len(shape) == 1:
        return run(table)
    sums, inner = table, 1  # inner: the stride of the axis being summed
    for n in reversed(shape):
        m = n - w + 1
        out = [0] * (len(sums) // n * m)
        for b in range(len(out) // (m * inner)):  # blocks of the axes before this one
            src, dst = b * n * inner, b * m * inner
            for c in range(inner):
                out[dst + c : dst + m * inner : inner] = run(sums[src + c : src + n * inner : inner])
        sums, inner = out, inner * m
    return sums


def frac_mod1(x: Fraction) -> Fraction:
    """x mod 1 as a Fraction in [0, 1)."""
    return x - Fraction(math.floor(x))


def dist_to_int(x: Fraction) -> Fraction:
    """Exact distance from x to the nearest integer."""
    r = frac_mod1(x)
    return min(r, 1 - r)


def parse_fraction(text: str) -> Fraction:
    """Parse "3/4", "-1/2", "5" or a decimal literal into a Fraction."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def fraction_to_json(x: Fraction) -> dict:
    """Serialize a rational as decimal strings to avoid precision loss."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def mix64(*parts: int) -> int:
    """Deterministic 64-bit mixer (splitmix64 chain) for seeded sampling.

    Stable across runs and platforms, unlike hash().
    """
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = (acc + (p & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = acc
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        acc = z ^ (z >> 31)
    return acc


class ResourceCapError(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


def lt_one_over_two_pi(eps: Fraction) -> bool:
    """Exact test eps < 1/(2*pi) using rational pi bounds."""
    if eps <= 0:
        return False
    # eps < 1/(2 pi)  <=>  1/(2 eps) > pi; compare against the upper bound.
    return Fraction(1, 2) / eps > PI_HI
