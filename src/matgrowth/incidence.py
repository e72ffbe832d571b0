"""Weighted point-plane instances carrying the energy of a set.

Pairs (g, v) in A x A are binned by a two-coordinate class key chosen so
that two pairs can only contribute to the energy equation
g^-1 h = u^-1 v when they share a key: for the triangular group the key
is (a_g a_v, c_g c_v), for the Heisenberg group (g1 + v1, g2 + v2).
Inside one class the first two coordinates of the equation hold
identically and only the corner equation remains; that equation is a
perfect dot-product pairing between a point built from (g, v) and a
plane built from (h, u) in four coordinates.

So each class induces a weighted incidence instance whose incidence
count equals the class's quadruple count exactly, and the counts summed
over classes equal the energy of A.  ``bridge_report`` verifies this
chain end to end; ``random_instance``/``probe_instance`` exercise the
same incidence counting on synthetic unit-weight instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .config import Caps
from .errors import CapExceeded, ParameterError
from .exact import BoundCheck, incidence_bound
from .ffield import FieldSpec
from .groups import H, T2, GroupSet, Wire, ginv, gmul
from .growth import Products, as_products
from .rng import SplitMix64

Pair = tuple[Wire, Wire]


def class_key(spec: FieldSpec, group: str, g: Wire, v: Wire) -> tuple[int, int]:
    if group == T2:
        return (spec.mul(g[0], v[0]), spec.mul(g[2], v[2]))
    return (spec.add(g[0], v[0]), spec.add(g[1], v[1]))


def pair_classes(A: GroupSet) -> dict[tuple[int, int], list[Pair]]:
    """All of A x A binned by class key, keys in sorted order."""
    spec = A.spec
    group = A.group
    out: dict[tuple[int, int], list[Pair]] = {}
    for g in A.wires:
        for v in A.wires:
            out.setdefault(class_key(spec, group, g, v), []).append((g, v))
    return {k: out[k] for k in sorted(out)}


def quadruple_count(spec: FieldSpec, group: str, pairs: list[Pair]) -> int:
    """Solutions of g^-1 h = u^-1 v with (g, v), (h, u) from the class.

    Evaluated straight from the definition with cached inverses; shares
    no code with the incidence path, which is the point.
    """
    inv: dict[Wire, Wire] = {}
    for g, v in pairs:
        if g not in inv:
            inv[g] = ginv(spec, group, g)
        if v not in inv:
            inv[v] = ginv(spec, group, v)
    count = 0
    for g, v in pairs:
        gi = inv[g]
        for h, u in pairs:
            if gmul(spec, group, gi, h) == gmul(spec, group, inv[u], v):
                count += 1
    return count


# -- instance construction ----------------------------------------------------

def t2_point(spec: FieldSpec, g: Wire, v: Wire) -> tuple[int, int, int, int]:
    return (
        1,
        spec.div(g[1], g[2]),
        spec.mul(g[0], v[1]),
        spec.mul(g[0], v[2]),
    )


def t2_plane(spec: FieldSpec, h: Wire, u: Wire) -> tuple[int, int, int, int]:
    return (
        spec.neg(spec.mul(u[0], h[1])),
        spec.mul(u[0], h[2]),
        1,
        spec.neg(spec.div(u[1], u[2])),
    )


def heis_point(spec: FieldSpec, g: Wire, v: Wire, c2: int) -> tuple[int, int, int, int]:
    w = spec.sub(
        spec.sub(spec.mul(g[0], g[1]), spec.add(g[2], v[2])),
        spec.mul(c2, g[0]),
    )
    return (w, g[0], g[1], 1)


def heis_plane(spec: FieldSpec, h: Wire, u: Wire, c2: int) -> tuple[int, int, int, int]:
    w = spec.add(
        spec.sub(spec.add(h[2], u[2]), spec.mul(u[0], u[1])),
        spec.mul(c2, u[0]),
    )
    return (1, u[1], spec.neg(u[0]), w)


def dot4(spec: FieldSpec, x: tuple, y: tuple) -> int:
    s = 0
    for i in range(4):
        s = spec.add(s, spec.mul(x[i], y[i]))
    return s


@dataclass(eq=False)
class WeightedInstance:
    """Multisets of points and planes, each a 4-tuple with a weight."""

    spec: FieldSpec
    points: dict[tuple, int]
    planes: dict[tuple, int]
    group: str | None = None
    key: tuple | None = None

    @property
    def point_weight(self) -> int:
        return sum(self.points.values())

    @property
    def plane_weight(self) -> int:
        return sum(self.planes.values())


def build_instance(
    spec: FieldSpec, group: str, key: tuple[int, int], pairs: list[Pair]
) -> WeightedInstance:
    points: dict[tuple, int] = {}
    planes: dict[tuple, int] = {}
    for g, v in pairs:
        if group == T2:
            pt = t2_point(spec, g, v)
            pl = t2_plane(spec, g, v)
        else:
            pt = heis_point(spec, g, v, key[1])
            pl = heis_plane(spec, g, v, key[1])
        points[pt] = points.get(pt, 0) + 1
        planes[pl] = planes.get(pl, 0) + 1
    return WeightedInstance(spec=spec, points=points, planes=planes, group=group, key=key)


def incidence_count(inst: WeightedInstance) -> int:
    """Weighted incidences: sum of w(p) w(pi) over pairs with p . pi = 0."""
    spec = inst.spec
    total = 0
    planes = list(inst.planes.items())
    for p, wp in inst.points.items():
        for pl, wpl in planes:
            if dot4(spec, p, pl) == 0:
                total += wp * wpl
    return total


# -- collinearity -------------------------------------------------------------

def _rref2(spec: FieldSpec, row1: tuple, row2: tuple) -> tuple | None:
    """Canonical reduced form of the 2 x 4 matrix [row1; row2].

    Two point tuples span the same projective line exactly when they give
    the same reduced form.  Returns None when the rows are proportional
    (rank < 2), which cannot happen for distinct tuples sharing a unit
    coordinate.
    """
    rows = [list(row1), list(row2)]
    piv = 0
    for col in range(4):
        sel = None
        for i in range(piv, 2):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        s = spec.inv(rows[piv][col])
        rows[piv] = [spec.mul(s, t) for t in rows[piv]]
        for i in range(2):
            if i != piv and rows[i][col]:
                f = rows[i][col]
                rows[i] = [spec.sub(rows[i][j], spec.mul(f, rows[piv][j])) for j in range(4)]
        piv += 1
        if piv == 2:
            break
    if piv < 2:
        return None
    return (tuple(rows[0]), tuple(rows[1]))


def line_groups(spec: FieldSpec, tuples: Iterable[tuple]) -> dict[tuple, tuple]:
    """Lines spanned by pairs of distinct tuples, as line key -> members."""
    pts = sorted(tuples)
    lines: dict[tuple, set[int]] = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            key = _rref2(spec, pts[i], pts[j])
            if key is None:
                continue
            lines.setdefault(key, set()).update((i, j))
    return {k: tuple(pts[i] for i in sorted(idx)) for k, idx in sorted(lines.items())}


@dataclass(frozen=True)
class CollinearStats:
    count: int  # distinct tuples
    total_weight: int
    max_distinct: int  # most tuples on one line
    max_weight: int  # heaviest line by summed weights
    witness: tuple | None  # canonical key of a line with max_distinct


def collinear_stats(spec: FieldSpec, weighted: dict[tuple, int]) -> CollinearStats:
    total = sum(weighted.values())
    n = len(weighted)
    if n <= 1:
        return CollinearStats(
            count=n, total_weight=total, max_distinct=n, max_weight=total, witness=None
        )
    lines = line_groups(spec, weighted.keys())
    if not lines:
        heaviest = max(weighted.values())
        return CollinearStats(n, total, 1, heaviest, None)
    max_distinct = max(len(members) for members in lines.values())
    max_weight = max(sum(weighted[t] for t in members) for members in lines.values())
    witness = min(k for k, members in lines.items() if len(members) == max_distinct)
    return CollinearStats(
        count=n,
        total_weight=total,
        max_distinct=max_distinct,
        max_weight=max_weight,
        witness=witness,
    )


# -- per-class reports and the energy bridge ----------------------------------

@dataclass(frozen=True)
class ClassReport:
    key: tuple
    pair_count: int
    quadruples: int
    incidences: int
    match: bool
    point_stats: CollinearStats
    plane_stats: CollinearStats
    bound: BoundCheck
    points_within_field_square: bool
    planes_within_field_square: bool


@dataclass(frozen=True)
class BridgeReport:
    group: str
    class_count: int
    total_pairs: int
    total_quadruples: int
    total_incidences: int
    energy: int
    matches_energy: bool
    classes: tuple[ClassReport, ...]


def oriented_bound(
    incidences: int,
    point_stats: CollinearStats,
    plane_stats: CollinearStats,
    constant=None,
) -> BoundCheck:
    """Incidence bound with the smaller side playing the point role."""
    if point_stats.count <= plane_stats.count:
        k = point_stats.max_distinct
    else:
        k = plane_stats.max_distinct
    return incidence_bound(
        incidences, point_stats.count, plane_stats.count, max(k, 1), constant
    )


def class_report(
    spec: FieldSpec, group: str, key: tuple, pairs: list[Pair], constant=None
) -> ClassReport:
    quad = quadruple_count(spec, group, pairs)
    inst = build_instance(spec, group, key, pairs)
    inc = incidence_count(inst)
    pstats = collinear_stats(spec, inst.points)
    plstats = collinear_stats(spec, inst.planes)
    p2 = spec.p * spec.p
    return ClassReport(
        key=key,
        pair_count=len(pairs),
        quadruples=quad,
        incidences=inc,
        match=quad == inc,
        point_stats=pstats,
        plane_stats=plstats,
        bound=oriented_bound(inc, pstats, plstats, constant),
        points_within_field_square=pstats.count <= p2,
        planes_within_field_square=plstats.count <= p2,
    )


def bridge_report(A: GroupSet | Products, constant=None) -> BridgeReport:
    P = as_products(A)
    A = P.A
    if len(A) == 0:
        raise ParameterError("bridge report of an empty set")
    spec = A.spec
    group = A.group
    classes = pair_classes(A)
    reports = [
        class_report(spec, group, key, pairs, constant)
        for key, pairs in classes.items()
    ]
    total_quad = sum(r.quadruples for r in reports)
    total_inc = sum(r.incidences for r in reports)
    return BridgeReport(
        group=group,
        class_count=len(reports),
        total_pairs=len(A) ** 2,
        total_quadruples=total_quad,
        total_incidences=total_inc,
        energy=P.energy,
        matches_energy=total_quad == P.energy and all(r.match for r in reports),
        classes=tuple(reports),
    )


# -- synthetic instances ------------------------------------------------------

def random_instance(
    spec: FieldSpec, n_points: int, n_planes: int, seed: int
) -> WeightedInstance:
    """Unit-weight instance with distinct random points and planes.

    Points are (1, x, y, z), planes (a, b, 1, c); both coordinate triples
    are drawn uniformly without replacement from F_q^3.
    """
    q = spec.q
    domain = q * q * q
    if n_points < 1 or n_planes < 1:
        raise ParameterError("instance needs at least one point and one plane")
    if n_points > domain or n_planes > domain:
        raise ParameterError(f"at most {domain} distinct tuples exist over F_{q}")
    cap = Caps().max_set_elements
    if max(n_points, n_planes) > cap:
        raise CapExceeded(f"instance of {n_points} x {n_planes} exceeds the set cap {cap}")
    rng = SplitMix64(seed)

    def draw(n: int, shape) -> dict[tuple, int]:
        got = set()
        while len(got) < n:
            w = rng.below(domain)
            got.add(shape(w % q, (w // q) % q, w // (q * q)))
        return {t: 1 for t in sorted(got)}

    points = draw(n_points, lambda x, y, z: (1, x, y, z))
    planes = draw(n_planes, lambda a, b, c: (a, b, 1, c))
    return WeightedInstance(spec=spec, points=points, planes=planes)


@dataclass(frozen=True)
class ProbeReport:
    point_count: int
    plane_count: int
    incidences: int
    max_collinear: int
    bound: BoundCheck
    points_within_field_square: bool
    planes_within_field_square: bool


def probe_instance(inst: WeightedInstance, constant=None) -> ProbeReport:
    spec = inst.spec
    inc = incidence_count(inst)
    pstats = collinear_stats(spec, inst.points)
    plstats = collinear_stats(spec, inst.planes)
    k = pstats.max_distinct if pstats.count <= plstats.count else plstats.max_distinct
    p2 = spec.p * spec.p
    return ProbeReport(
        point_count=pstats.count,
        plane_count=plstats.count,
        incidences=inc,
        max_collinear=k,
        bound=oriented_bound(inc, pstats, plstats, constant),
        points_within_field_square=pstats.count <= p2,
        planes_within_field_square=plstats.count <= p2,
    )
