"""Coset occupancy profiles: the fiber maxima the energy bounds consume.

Every function of A here takes a ``GroupSet`` or the shared ``Products``
of one report, and reads A's coset fibers and keys per ``SubgroupTag``
(``Products.fibers``, ``Products.coset_keys``) and the pair cap
(``Products.caps``) from it, so one report builds A's keys once per tag
for its profile, dyadic split and subgroup section alike.  A set of the
other group is refused by the tag.  For A in T2 three maxima are
measured:

  m3  largest fiber of the unipotent cosets, keyed (a, c);
  m2  largest fiber of the scaled-unipotent cosets, keyed by the diagonal
      ratio a/c;
  m1  largest number of elements of A in a single left coset of a torus
      stabilizer: max over (x, y) of #{g in A : g.a x + g.b = g.c y}.

For A in H two are measured:

  base_max (m)  largest fiber of the center cosets, keyed by the base
      point (g1, g2);
  line_max (M)  largest total occupancy of the ``line_center`` cosets,
      max over affine lines alpha g1 + beta g2 = gamma of the number of
      elements of A whose base point lies on the line.

m1 and line_max are one kernel, ``heaviest_line``, by point-line duality:
line_max is the heaviest line through the weighted base points, and m1
the heaviest line alpha = 1 through the dual points (b/c, a/c) of A's
scalar cosets, whose witness (1, x, y) is read back as (x, y).

Each maximum ships with the lexicographically smallest witness achieving
it, so a report consumer can recount the witness fiber from scratch.  The
fiber maxima (``t2_fiber_maxima``, ``heis_base_max``) cost O(|A|).  The
line maxima (``t2_m1``, ``heis_line_max``) come from pairs of points, so
no profile costs more than O(|A|^2) at any q, and past
``Caps.max_pair_products`` pairs they raise ``CapExceeded``; a report
calls the two kinds apart, so a refused line maximum leaves the fiber
maxima standing.  The pairs run in ``kernel.heaviest_line``, in row
blocks of packed (first point, normal) keys, by the rule of every pair
enumeration (``growth._use_kernel``); otherwise, as in any run that has
not loaded numpy, in the pair loop ``_pair_lines``, which stays the
oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import growth
from .config import check_pairs
from .groups import GroupSet, SubgroupTag
from .growth import Products, as_products


class FiberMax(NamedTuple):
    """The largest fiber's size and the least key that attains it."""

    value: int
    witness: tuple


class T2Profile(NamedTuple):
    """The T2 coset-profile maxima of a set of ``size`` elements."""

    m3: FiberMax  # witness (a, c)
    m2: FiberMax  # witness (chi,)
    m1: FiberMax  # witness (x, y)
    size: int


def t2_profile(A: GroupSet | Products) -> T2Profile:
    """The T2 maxima: ``t2_fiber_maxima`` and ``t2_m1``."""
    P = as_products(A)
    m3, m2 = t2_fiber_maxima(P)
    return T2Profile(m3=m3, m2=m2, m1=t2_m1(P), size=len(P.A))


def t2_fiber_maxima(A: GroupSet | Products) -> tuple[FiberMax, FiberMax]:
    """m3 and m2."""
    P = as_products(A)
    return tuple(_counter_max(P.fibers(SubgroupTag(k))) for k in ("unipotent", "scaled_unipotent"))


def t2_m1(A: GroupSet | Products) -> FiberMax:
    """m1, from the pairs of A's scalar cosets."""
    P = as_products(A)
    spec = P.A.spec
    dilates = P.fibers(SubgroupTag("scalars"))
    cap = P.caps.max_pair_products
    check_pairs("torus-coset profile", len(dilates), len(dilates), cap, "distinct lines")
    # the (x, y) with a x + b = c y form one line per scalar coset (t, u) =
    # (b/a, c/a): y = x/u + t/u, through (x, y) when (t/u, 1/u) lies on the
    # dual line 1 * t/u + x * 1/u = y
    points = {(spec.div(t, u), spec.inv(u)): w for (t, u), w in dilates.items()}
    m1 = heaviest_line(spec, points, unit_alpha=True)
    return FiberMax(value=m1.value, witness=m1.witness[1:])


def heaviest_line(spec, points: dict, unit_alpha: bool = False) -> FiberMax:
    """Heaviest line alpha u + beta v = gamma through weighted points (u, v),
    its normal (alpha, beta) scaled so the first nonzero entry is one; with
    ``unit_alpha``, only the lines with alpha = 1.

    A line through two points outweighs a line through either alone, so the
    lines through pairs of points find a heaviest one whenever some line
    holds two.  When none does (a lone point, or with ``unit_alpha`` points
    that all share v) the smallest heaviest line is the smallest line
    through a heaviest point: (0, 1, v), or (1, 0, u) with ``unit_alpha``.

    The m (m - 1) / 2 pairs run in ``kernel.heaviest_line`` by the rule of
    every pair enumeration, ``growth._use_kernel``; else in ``_pair_lines``,
    the loop that stays its oracle.
    """
    pts = sorted(points.items())
    if growth._use_kernel(len(pts) * (len(pts) - 1) // 2):
        from .kernel import heaviest_line as lines

        best = FiberMax(*lines(spec, pts, unit_alpha))
    else:
        best = _counter_max(_pair_lines(spec, pts, unit_alpha))
    if best.value:
        return best
    return _counter_max({((1, 0, u) if unit_alpha else (0, 1, v)): w for (u, v), w in pts})


def _pair_lines(spec, pts: list, unit_alpha: bool) -> dict:
    """The weight of each line through two or more of the sorted points,
    from the pairs of points, one ``spec.div`` each."""
    lines: dict = {}
    for i, ((x1, y1), w1) in enumerate(pts):
        here: Counter = Counter()
        for (x2, y2), w2 in pts[i + 1:]:
            dy = spec.sub(y2, y1)
            # the normal (alpha, beta) of direction (x2 - x1, dy), first nonzero one
            if dy:
                here[(1, spec.div(spec.sub(x1, x2), dy))] += w2
            elif not unit_alpha:
                here[(0, 1)] += w2
        # a line's weight is complete from the first point on it
        for (alpha, beta), w in here.items():
            key = (alpha, beta, spec.add(x1, spec.mul(beta, y1)) if alpha else y1)
            lines[key] = max(lines.get(key, 0), w1 + w)
    return lines


def _counter_max(counts: dict) -> FiberMax:
    if not counts:
        return FiberMax(value=0, witness=())
    best = max(counts.values())
    witness = min(k for k, v in counts.items() if v == best)
    return FiberMax(value=best, witness=tuple(witness))


class HeisProfile(NamedTuple):
    """The H coset-profile maxima of a set of ``size`` elements."""

    base_max: FiberMax  # witness (g1, g2)
    line_max: FiberMax  # witness (alpha, beta, gamma), direction normalized
    size: int


def heis_profile(A: GroupSet | Products) -> HeisProfile:
    """The H maxima: ``heis_base_max`` and ``heis_line_max``."""
    P = as_products(A)
    return HeisProfile(base_max=heis_base_max(P), line_max=heis_line_max(P), size=len(P.A))


def heis_base_max(A: GroupSet | Products) -> FiberMax:
    """The largest center-coset fiber."""
    return _counter_max(as_products(A).fibers(SubgroupTag("center")))


def heis_line_max(A: GroupSet | Products) -> FiberMax:
    """The heaviest line through A's weighted base points, from their pairs."""
    P = as_products(A)
    base = P.fibers(SubgroupTag("center"))
    cap = P.caps.max_pair_products
    check_pairs("line profile", len(base), len(base), cap, "distinct base points")
    return heaviest_line(P.A.spec, base)


# -- dyadic decomposition by dilate count --------------------------------------

class DyadicPiece(NamedTuple):
    """Elements of A with n dilates in A (scalar-coset fiber size n),
    2^j <= n < 2^(j+1)."""

    j: int
    coset_count: int
    element_count: int
    fiber_max: int  # largest unipotent-coset fiber within the piece
    keys: tuple[tuple[int, int], ...]  # the piece's scalar cosets, left out of repr

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"DyadicPiece({shown})"

    def within_budget(self, p: int) -> bool:
        """|piece| * fiber_max <= 2^j * p^2."""
        return self.element_count * self.fiber_max <= (1 << self.j) * p * p


def dyadic_pieces(A: GroupSet | Products) -> list[DyadicPiece]:
    """Split A by the dyadic size class of its scalar-coset fiber, once per
    ``Products``: the T2 flags and a report's dyadic section read one split.

    Two elements share a fiber exactly when one is a dilate of the other
    (equal up to a scalar matrix), so the fiber key is the projective
    pair (b/a, c/a).  Each piece also records its own largest
    unipotent-coset fiber, which the p-constraint check needs.
    """
    P = as_products(A)

    def build():
        dilates = P.coset_keys(SubgroupTag("scalars"))
        fibers = P.fibers(SubgroupTag("scalars"))
        band_of = {key: n.bit_length() - 1 for key, n in fibers.items()}
        bands = [band_of[key] for key in dilates]
        diag_max: dict[int, int] = {}
        for (j, _), n in Counter(zip(bands, P.coset_keys(SubgroupTag("unipotent")))).items():
            diag_max[j] = max(diag_max.get(j, 0), n)
        sizes = Counter(bands)
        pieces = []
        for j in sorted(sizes):
            cosets = tuple(sorted(key for key, band in band_of.items() if band == j))
            pieces.append(DyadicPiece(j, len(cosets), sizes[j], diag_max[j], cosets))
        return pieces

    return P.memo("dyadic_pieces", build)


# -- p-constraint flags -------------------------------------------------------

class ConstraintFlags(NamedTuple):
    """The size hypotheses of the energy bounds, evaluated exactly.

    ``whole_set`` is the stated form |A| * fiber_max <= p^2 (fiber_max is
    m3 for T2, the base max for H).  ``per_piece`` is the finer condition
    the dyadic argument actually consumes: a piece whose scalar fibers
    hold 2^j..2^(j+1)-1 dilates must satisfy
    |piece| * piece_fiber_max <= 2^j * p^2.  For H the square-shape
    condition base_max^2 <= |A| is reported alongside.
    """

    whole_set: bool
    per_piece: bool | None
    square_shape: bool | None


def t2_flags(A: GroupSet | Products, m3: int) -> ConstraintFlags:
    """The flags of A with unipotent fiber max ``m3``."""
    P = as_products(A)
    p = P.A.spec.p
    whole = len(P.A) * m3 <= p * p
    per_piece = all(pc.within_budget(p) for pc in dyadic_pieces(P))
    return ConstraintFlags(whole_set=whole, per_piece=per_piece, square_shape=None)


def heis_flags(A: GroupSet | Products, base_max: int) -> ConstraintFlags:
    """The flags of A with center fiber max ``base_max``."""
    S = as_products(A).A
    p = S.spec.p
    whole = len(S) * base_max <= p * p
    square = base_max * base_max <= len(S)
    return ConstraintFlags(whole_set=whole, per_piece=None, square_shape=square)
