"""Exact decision procedures for the square-root inequalities.

Every bound in this package compares an integer count against an
expression of the shape ``base + coef * sqrt(radicand)``.  Floating point
never decides anything: the comparison is rearranged so that a single
square eliminates the root, and all arithmetic is Fraction/int.  Floats
appear only in ``display_ratio`` fields meant for human-readable output.

Constants are pinned as fractions with denominator 10**6.  A fitted
constant is the least numerator making the bound hold: every fitted bound
has the shape ``lhs <= C * (a + b * sqrt(R))``, so ``least_grid_constant``
estimates it in closed form and settles the last step with exact tests.
``min_constant`` is the generic binary search over any monotone predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable

from .errors import ParameterError

CONSTANT_DENOM = 10**6


def le_linear_plus_sqrt(
    lhs: Fraction | int,
    base: Fraction | int,
    coef: Fraction | int,
    radicand: Fraction | int,
) -> bool:
    """Decide lhs <= base + coef * sqrt(radicand) exactly.

    Requires coef >= 0 and radicand >= 0 (the only shape that occurs).
    """
    if coef < 0 or radicand < 0:
        raise ParameterError("sqrt comparison needs nonnegative coef and radicand")
    z = Fraction(lhs) - Fraction(base)
    if z <= 0:
        return True
    return z * z <= Fraction(coef) ** 2 * Fraction(radicand)


def bit_log(n: int) -> int:
    """Integer stand-in for log2(n): the bit length.

    Satisfies bit_log(n) >= log2(n) for n >= 1 and is exactly reproducible,
    which is what a pinned regression constant needs.
    """
    if n < 1:
        raise ParameterError(f"bit_log of {n}")
    return n.bit_length()


def min_constant(holds: Callable[[Fraction], bool], hi_cap: int = 10**18) -> Fraction:
    """Least C = k / 10**6 with holds(C), for holds monotone in C."""
    if holds(Fraction(0)):
        return Fraction(0)
    hi = 1
    while not holds(Fraction(hi, CONSTANT_DENOM)):
        hi *= 2
        if hi > hi_cap:
            raise ParameterError("no constant below cap satisfies the bound")
    lo = hi // 2  # holds(lo/D) is False (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(Fraction(mid, CONSTANT_DENOM)):
            hi = mid
        else:
            lo = mid
    return Fraction(hi, CONSTANT_DENOM)


# the least numerator ``min_constant`` reaches before its doubling passes 10**18
GRID_LIMIT = 2**59


def least_grid_constant(lhs: Fraction | int, a: int, b: int, R: int) -> Fraction:
    """Least C = N / 10**6 with lhs <= C * (a + b * sqrt(R)), for a, b, R >= 0.

    The same constant ``min_constant`` finds for that predicate, and it
    refuses the same inputs: N past ``GRID_LIMIT`` (which covers a = 0
    with b * R = 0).  N is estimated from an integer square root scaled
    by 2^64 and then stepped by exact integer tests; no float decides.
    """
    if a < 0 or b < 0 or R < 0:
        raise ParameterError("grid constant needs nonnegative a, b and R")
    u, v = lhs.numerator, lhs.denominator
    if u <= 0:
        return Fraction(0)
    target = u * CONSTANT_DENOM  # lhs * 10**6 = target / v

    def holds(N: int) -> bool:  # target <= N * v * (a + b * sqrt(R))
        z = target - N * v * a
        return z <= 0 or z * z <= (N * v * b) ** 2 * R

    if not holds(GRID_LIMIT):
        raise ParameterError("no constant below cap satisfies the bound")
    # r / s <= sqrt(R) < (r + 1) / s, so N <= 2^59 puts the estimate at
    # most one step above the least N (and never below it)
    s = 1 << 64
    r = math.isqrt(R * s * s)
    N = -(-target * s // (v * (a * s + b * r)))
    while N > 1 and holds(N - 1):
        N -= 1
    return Fraction(N, CONSTANT_DENOM)


def _fit(lhs: int, a: int, b: int, R: int, constant: Fraction | None) -> tuple[Fraction, bool]:
    """(constant, holds) of lhs <= C (a + b sqrt(R)): fitted when no constant is pinned."""
    if constant is None:
        return least_grid_constant(lhs, a, b, R), True
    return constant, le_linear_plus_sqrt(lhs, constant * a, constant * b, R)


@dataclass(frozen=True)
class BoundCheck:
    """A bound checked exactly: whether it holds, its constant, the count
    it bounds and the count's ratio to the bound, for display."""

    holds: bool
    constant: Fraction
    lhs: int
    display_ratio: float

    @classmethod
    def of(cls, holds: bool, constant: Fraction, lhs: int, rhs: float) -> "BoundCheck":
        """The check of lhs against the float rhs, displayed as their ratio."""
        return cls(holds, constant, lhs, lhs / rhs if rhs else math.inf)


# -- energy against the coset profile ----------------------------------------

def t2_energy_bound(
    energy: int, n: int, m1: int, m2: int, constant: Fraction | None = None
) -> BoundCheck:
    """E(A) <= C * bit_log|A| * (|A|^(5/2) sqrt(m2) + |A|^2 m1).

    With no pinned constant, returns the least one that works (holds=True
    by construction).  With a pinned constant, evaluates it.
    """
    if n < 1:
        raise ParameterError("energy bound of an empty set")
    big = bit_log(n) * n * n  # E <= C * big * (m1 + sqrt(n * m2))
    constant, holds = _fit(energy, big * m1, big, n * m2, constant)
    rhs = bit_log(n) * (n * n * math.sqrt(n * m2) + n * n * m1)
    return BoundCheck.of(holds, constant, energy, rhs)


def heis_energy_bound(
    energy: int, n: int, m: int, line_max: int, constant: Fraction | None = None
) -> BoundCheck:
    """E(A) <= C * (|A|^(5/2) m + |A|^2 line_max)."""
    if n < 1:
        raise ParameterError("energy bound of an empty set")
    constant, holds = _fit(energy, n * n * line_max, n * n * m, n, constant)
    rhs = n * n * m * math.sqrt(n) + n * n * line_max
    return BoundCheck.of(holds, constant, energy, rhs)


# -- product-set size predictions ---------------------------------------------

def t2_product_prediction(
    quotient_size: int, n: int, m1: int, m2: int, constant: Fraction
) -> BoundCheck:
    """|A^-1 A| >= |A|^2 / (C * bit_log|A| * (m1 + sqrt(|A| m2))).

    Follows from the energy bound through Cauchy-Schwarz (the energy is
    the second moment of the quotient-set representation function), so
    the same pinned constant must work; evaluated independently here.
    Decided as: n^2 <= |Q| * C * L * m1 + |Q| * C * L * sqrt(n * m2).
    """
    if n < 1 or quotient_size < 1:
        raise ParameterError("prediction needs nonempty sets")
    big = constant * bit_log(n) * quotient_size
    holds = le_linear_plus_sqrt(n * n, big * m1, big, n * m2)
    denom = float(constant) * bit_log(n) * (m1 + math.sqrt(n * m2))
    predicted = n * n / denom if denom else math.inf
    return BoundCheck.of(holds, constant, quotient_size, predicted)


def heis_product_prediction(
    quotient_size: int, n: int, m: int, line_max: int, constant: Fraction
) -> BoundCheck:
    """|A^-1 A| >= |A|^2 / (C * (line_max + m * sqrt(|A|)))."""
    if n < 1 or quotient_size < 1:
        raise ParameterError("prediction needs nonempty sets")
    big = constant * quotient_size
    holds = le_linear_plus_sqrt(n * n, big * line_max, big * m, n)
    denom = float(constant) * (line_max + m * math.sqrt(n))
    predicted = n * n / denom if denom else math.inf
    return BoundCheck.of(holds, constant, quotient_size, predicted)


# -- point-plane incidence bound ----------------------------------------------

@lru_cache(maxsize=256, typed=True)
def incidence_bound(
    incidences: int,
    points: int,
    planes: int,
    max_collinear: int,
    constant: Fraction | None = None,
) -> BoundCheck:
    """I(P, Pi) <= C * (|Pi| sqrt(|P|) + k |Pi|) with |P| <= |Pi|.

    If the point side is larger the roles are swapped first (the bound is
    symmetric once oriented).  k is the largest number of collinear points.
    Memoised on its exact arguments: the small classes of a bridge repeat
    a handful of them.
    """
    small, large = min(points, planes), max(points, planes)
    if small < 1:
        raise ParameterError("incidence bound needs nonempty sides")
    constant, holds = _fit(incidences, max_collinear * large, large, small, constant)
    rhs = large * math.sqrt(small) + max_collinear * large
    return BoundCheck.of(holds, constant, incidences, rhs)


def fraction_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}
