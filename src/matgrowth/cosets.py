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
it, and with a ``count_in_*`` helper so a report consumer can recount the
witness fiber from scratch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ParameterError
from .groups import H, T2, GroupSet, Wire


@dataclass(frozen=True)
class FiberMax:
    value: int
    witness: tuple


@dataclass(frozen=True)
class T2Profile:
    m3: FiberMax  # witness (a, c)
    m2: FiberMax  # witness (chi,)
    m1: FiberMax  # witness (x, y)
    size: int


def count_in_diag_fiber(A: GroupSet, a: int, c: int) -> int:
    return sum(1 for w in A.wires if w[0] == a and w[2] == c)


def count_in_ratio_fiber(A: GroupSet, chi: int) -> int:
    spec = A.spec
    return sum(1 for w in A.wires if spec.div(w[0], w[2]) == chi)


def count_in_torus_coset(A: GroupSet, x: int, y: int) -> int:
    """#{g in A : g.a * x + g.b = g.c * y}.

    Varying (x, y) over F_q^2 ranges over every left coset of every torus
    stabilizer, so the max of this count over (x, y) is the m1 profile.
    """
    spec = A.spec
    return sum(
        1
        for w in A.wires
        if spec.add(spec.mul(w[0], x), w[1]) == spec.mul(w[2], y)
    )


def t2_profile(A: GroupSet) -> T2Profile:
    if A.group != T2:
        raise ParameterError(f"T2 profile of a set in group {A.group}")
    spec = A.spec
    diag: Counter = Counter()
    ratio: Counter = Counter()
    for w in A.wires:
        diag[(w[0], w[2])] += 1
        ratio[(spec.div(w[0], w[2]),)] += 1
    m3 = _counter_max(diag)
    m2 = _counter_max(ratio)

    # m1: for each element, (x, y) pairs with g.a x + g.b = g.c y form a
    # line in the (x, y) plane; count incidences line by line.
    torus: Counter = Counter()
    for x in range(spec.q):
        for w in A.wires:
            lhs = spec.add(spec.mul(w[0], x), w[1])
            y = spec.div(lhs, w[2])
            torus[(x, y)] += 1
    m1 = _counter_max(torus)
    return T2Profile(m3=m3, m2=m2, m1=m1, size=len(A))


def _counter_max(counts: Counter) -> FiberMax:
    if not counts:
        return FiberMax(value=0, witness=())
    best = max(counts.values())
    witness = min(k for k, v in counts.items() if v == best)
    return FiberMax(value=best, witness=tuple(witness))


@dataclass(frozen=True)
class HeisProfile:
    base_max: FiberMax  # witness (g1, g2)
    line_max: FiberMax  # witness (alpha, beta, gamma), direction normalized
    size: int


def count_in_base_fiber(A: GroupSet, g1: int, g2: int) -> int:
    return sum(1 for w in A.wires if w[0] == g1 and w[1] == g2)


def count_on_line(A: GroupSet, alpha: int, beta: int, gamma: int) -> int:
    spec = A.spec
    return sum(
        1
        for w in A.wires
        if spec.add(spec.mul(alpha, w[0]), spec.mul(beta, w[1])) == gamma
    )


def line_directions(spec) -> list[tuple[int, int]]:
    """The q + 1 projective directions, first nonzero coordinate one."""
    return [(1, beta) for beta in range(spec.q)] + [(0, 1)]


def heis_profile(A: GroupSet) -> HeisProfile:
    if A.group != H:
        raise ParameterError(f"Heisenberg profile of a set in group {A.group}")
    spec = A.spec
    base: Counter = Counter()
    for w in A.wires:
        base[(w[0], w[1])] += 1
    base_max = _counter_max(base)

    lines: Counter = Counter()
    for alpha, beta in line_directions(spec):
        for (g1, g2), n in base.items():
            gamma = spec.add(spec.mul(alpha, g1), spec.mul(beta, g2))
            lines[(alpha, beta, gamma)] += n
    line_max = _counter_max(lines)
    return HeisProfile(base_max=base_max, line_max=line_max, size=len(A))


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


def piece_elements(A: GroupSet, piece: DyadicPiece) -> GroupSet:
    spec = A.spec
    keys = set(piece.keys)
    return GroupSet(
        T2,
        spec,
        (w for w in A.wires if _dilate_key(spec, w) in keys),
        _checked=True,
    )


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


def t2_flags(A: GroupSet, profile: T2Profile) -> ConstraintFlags:
    p = A.spec.p
    whole = len(A) * profile.m3.value <= p * p
    per_piece = all(
        pc.element_count * pc.fiber_max <= (1 << pc.j) * p * p
        for pc in dyadic_pieces(A)
    )
    return ConstraintFlags(whole_set=whole, per_piece=per_piece, square_shape=None)


def heis_flags(A: GroupSet, profile: HeisProfile) -> ConstraintFlags:
    p = A.spec.p
    m = profile.base_max.value
    whole = len(A) * m <= p * p
    square = m * m <= len(A)
    return ConstraintFlags(whole_set=whole, per_piece=None, square_shape=square)
