"""Coset occupancy profiles: the fiber maxima the energy bounds consume.

For A in T2 three maxima are measured:

  m3  largest fiber of the diagonal-forgetting map g -> (a, c);
  m2  largest fiber of the diagonal ratio g -> a/c, i.e. the most
      populated coset of the scaled-unipotent subgroup;
  m1  largest number of elements of A in a single left coset of a torus
      stabilizer: max over (x, y) of #{g in A : g.a x + g.b = g.c y}.

For A in H two are measured:

  base_max (m)  largest fiber of the base projection g -> (g1, g2);
  line_max (M)  largest total occupancy of the ``line_center`` cosets,
      max over affine lines alpha g1 + beta g2 = gamma of the number of
      elements of A whose base point lies on the line.

Each maximum ships with the lexicographically smallest witness achieving
it, so a report consumer can recount the witness fiber from scratch.  m1
and line_max come from pairs of lines and of base points, so no profile
costs more than O(|A|^2) at any q; past
``Caps.max_pair_products`` pairs the profile raises ``CapExceeded`` whose
``partial`` is the profile with that maximum left None.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .config import Caps
from .errors import ParameterError
from .groups import H, T2, GroupSet, Wire
from .growth import check_pairs


@dataclass(frozen=True)
class FiberMax:
    value: int
    witness: tuple


@dataclass(frozen=True)
class T2Profile:
    m3: FiberMax  # witness (a, c)
    m2: FiberMax  # witness (chi,)
    m1: FiberMax | None  # witness (x, y); None only in CapExceeded.partial
    size: int


def t2_profile(A: GroupSet, caps: Caps | None = None) -> T2Profile:
    if A.group != T2:
        raise ParameterError(f"T2 profile of a set in group {A.group}")
    spec = A.spec
    diag: Counter = Counter()
    ratio: Counter = Counter()
    lines: Counter = Counter()
    for a, b, c in A.wires:
        diag[(a, c)] += 1
        ci = spec.inv(c)
        s = spec.mul(a, ci)
        ratio[(s,)] += 1
        # the (x, y) with a x + b = c y form the line y = (a/c) x + b/c
        lines[(s, spec.mul(b, ci))] += 1
    prof = T2Profile(m3=_counter_max(diag), m2=_counter_max(ratio), m1=None, size=len(A))
    cap = (caps or Caps()).max_pair_products
    check_pairs("torus-coset profile", len(lines), len(lines), cap, "distinct lines", prof)
    return replace(prof, m1=_heaviest_crossing(spec, lines))


def _heaviest_crossing(spec, lines: Counter) -> FiberMax:
    """Heaviest point (x, y) of weighted lines y = s x + t, keyed (s, t).

    When two slopes differ, every line meets a line of another slope, so
    a heaviest point is a crossing and the pairs of lines find it.  When
    all lines are parallel no two meet, and the smallest heaviest point is
    where the heaviest line with the smallest intercept crosses x = 0.
    """
    if len({s for s, _ in lines}) < 2:
        return _counter_max({(0, t): w for (_, t), w in lines.items()})
    items = sorted(lines.items())
    points: dict = {}
    for i, ((s1, t1), w1) in enumerate(items):
        here: Counter = Counter()
        for (s2, t2), w2 in items[i + 1:]:
            if s2 != s1:
                x = spec.div(spec.sub(t2, t1), spec.sub(s1, s2))
                here[(x, spec.add(spec.mul(s1, x), t1))] += w2
        # a point's weight is complete from the first line through it
        for pt, w in here.items():
            points[pt] = max(points.get(pt, 0), w1 + w)
    return _counter_max(points)


def _counter_max(counts: dict) -> FiberMax:
    if not counts:
        return FiberMax(value=0, witness=())
    best = max(counts.values())
    witness = min(k for k, v in counts.items() if v == best)
    return FiberMax(value=best, witness=tuple(witness))


@dataclass(frozen=True)
class HeisProfile:
    base_max: FiberMax  # witness (g1, g2)
    line_max: FiberMax | None  # witness (alpha, beta, gamma), direction
    # normalized; None only in CapExceeded.partial
    size: int


def heis_profile(A: GroupSet, caps: Caps | None = None) -> HeisProfile:
    if A.group != H:
        raise ParameterError(f"Heisenberg profile of a set in group {A.group}")
    base: Counter = Counter()
    for w in A.wires:
        base[(w[0], w[1])] += 1
    base_max = _counter_max(base)
    prof = HeisProfile(base_max=base_max, line_max=None, size=len(A))
    cap = (caps or Caps()).max_pair_products
    check_pairs("line profile", len(base), len(base), cap, "distinct base points", prof)
    return replace(prof, line_max=_heaviest_line(A.spec, base))


def _heaviest_line(spec, base: Counter) -> FiberMax:
    """Heaviest line alpha g1 + beta g2 = gamma through weighted base points.

    With two or more points a heaviest line holds two of them (adding a
    second point to a line only adds weight), so the lines through pairs
    find it.  A lone point's smallest line is the direction (0, 1).
    """
    pts = sorted(base.items())
    if len(pts) == 1:
        ((_, g2), w), = pts
        return FiberMax(value=w, witness=(0, 1, g2))
    lines: dict = {}
    for i, ((x1, y1), w1) in enumerate(pts):
        here: Counter = Counter()
        for (x2, y2), w2 in pts[i + 1:]:
            dx, dy = spec.sub(x2, x1), spec.sub(y2, y1)
            # the normal (alpha, beta) of direction (dx, dy), first nonzero one
            here[(1, spec.div(spec.neg(dx), dy)) if dy else (0, 1)] += w2
        # a line's weight is complete from the first point on it
        for (alpha, beta), w in here.items():
            key = (alpha, beta, spec.add(spec.mul(alpha, x1), spec.mul(beta, y1)))
            lines[key] = max(lines.get(key, 0), w1 + w)
    return _counter_max(lines)


# -- dyadic decomposition by dilate count --------------------------------------

@dataclass(frozen=True)
class DyadicPiece:
    """Elements of A with n dilates in A (scalar-coset fiber size n),
    2^j <= n < 2^(j+1)."""

    j: int
    coset_count: int
    element_count: int
    fiber_max: int  # largest unipotent-coset fiber within the piece
    keys: tuple[tuple[int, int], ...] = field(repr=False)

    def within_budget(self, p: int) -> bool:
        """|piece| * fiber_max <= 2^j * p^2."""
        return self.element_count * self.fiber_max <= (1 << self.j) * p * p


def _dilate_key(spec, w: tuple) -> tuple[int, int]:
    # scalar coset of (a, b, c): all (la, lb, lc), so normalize by a
    return (spec.div(w[1], w[0]), spec.div(w[2], w[0]))


def dyadic_pieces(A: GroupSet) -> list[DyadicPiece]:
    """Split A by the dyadic size class of its scalar-coset fiber.

    Two elements share a fiber exactly when one is a dilate of the other
    (equal up to a scalar matrix), so the fiber key is the projective
    pair (b/a, c/a).  Each piece also records its own largest
    unipotent-coset fiber, which the p-constraint check needs.
    """
    if A.group != T2:
        raise ParameterError("dyadic dilate decomposition applies to T2 sets")
    spec = A.spec
    fibers: Counter = Counter()
    for w in A.wires:
        fibers[_dilate_key(spec, w)] += 1
    band_of = {key: n.bit_length() - 1 for key, n in fibers.items()}
    diag: Counter = Counter()
    for w in A.wires:
        diag[(band_of[_dilate_key(spec, w)], w[0], w[2])] += 1
    diag_max: dict[int, int] = {}
    for (j, _, _), n in diag.items():
        diag_max[j] = max(diag_max.get(j, 0), n)
    by_band: dict[int, list[tuple[int, int]]] = {}
    for key, j in band_of.items():
        by_band.setdefault(j, []).append(key)
    pieces = []
    for j in sorted(by_band):
        keys = tuple(sorted(by_band[j]))
        count = sum(fibers[k] for k in keys)
        pieces.append(
            DyadicPiece(
                j=j,
                coset_count=len(keys),
                element_count=count,
                fiber_max=diag_max[j],
                keys=keys,
            )
        )
    return pieces


# -- p-constraint flags -------------------------------------------------------

@dataclass(frozen=True)
class ConstraintFlags:
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


def t2_flags(A: GroupSet, profile: T2Profile, pieces=None) -> ConstraintFlags:
    """The flags of A; ``pieces`` are its ``dyadic_pieces`` if already built."""
    p = A.spec.p
    whole = len(A) * profile.m3.value <= p * p
    per_piece = all(pc.within_budget(p) for pc in pieces or dyadic_pieces(A))
    return ConstraintFlags(whole_set=whole, per_piece=per_piece, square_shape=None)


def heis_flags(A: GroupSet, profile: HeisProfile) -> ConstraintFlags:
    p = A.spec.p
    m = profile.base_max.value
    whole = len(A) * m <= p * p
    square = m * m <= len(A)
    return ConstraintFlags(whole_set=whole, per_piece=None, square_shape=square)
