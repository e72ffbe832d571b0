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
from .growth import Products, as_products, check_pairs
from .rng import SplitMix64

Pair = tuple[Wire, Wire]


def class_key(spec: FieldSpec, group: str, g: Wire, v: Wire) -> tuple[int, int]:
    if group == T2:
        return (spec.mul(g[0], v[0]), spec.mul(g[2], v[2]))
    return (spec.add(g[0], v[0]), spec.add(g[1], v[1]))


def pair_classes(
    A: GroupSet, cap: int = Caps.max_pair_products
) -> dict[tuple[int, int], list[Pair]]:
    """All of A x A binned by class key, keys in sorted order."""
    check_pairs("pair classes", len(A), len(A), cap)
    spec = A.spec
    group = A.group
    out: dict[tuple[int, int], list[Pair]] = {}
    for g in A.wires:
        for v in A.wires:
            out.setdefault(class_key(spec, group, g, v), []).append((g, v))
    return {k: out[k] for k in sorted(out)}


def quadruple_count(
    spec: FieldSpec, group: str, pairs: list[Pair], cap: int = Caps.max_pair_products
) -> int:
    """Solutions of g^-1 h = u^-1 v with (g, v), (h, u) from the class.

    Evaluated straight from the definition with cached inverses; shares
    no code with the incidence path, which is the point.
    """
    check_pairs("quadruple count", len(pairs), len(pairs), cap, "pairs")
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
    return WeightedInstance(spec=spec, points=points, planes=planes)


def incidence_count(inst: WeightedInstance, cap: int = Caps.max_pair_products) -> int:
    """Weighted incidences: sum of w(p) w(pi) over pairs with p . pi = 0."""
    spec = inst.spec
    check_pairs("incidence count", len(inst.points), len(inst.planes), cap, "tuples")
    total = 0
    planes = list(inst.planes.items())
    if spec.r == 1:
        # plain integer dot products: every sum stays below 4 p^2 < 2^34
        p = spec.p
        for (x0, x1, x2, x3), wp in inst.points.items():
            for (y0, y1, y2, y3), wpl in planes:
                if not (x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3) % p:
                    total += wp * wpl
        return total
    for pt, wp in inst.points.items():
        for pl, wpl in planes:
            if dot4(spec, pt, pl) == 0:
                total += wp * wpl
    return total


# -- collinearity -------------------------------------------------------------
#
# Nonzero 4-tuples are points of projective 3-space; a line is the span of
# two non-proportional tuples, and its members are all the tuples in that
# span (so a tuple joins every line through any tuple it is proportional
# to, and the zero tuple joins none).  A line is keyed by the reduced row
# echelon form of its 2 x 4 basis, which is unique.


def _normalise(spec: FieldSpec, t: tuple) -> tuple | None:
    """t scaled so that its first nonzero coordinate is one; None for zero."""
    for x in t:
        if x:
            s = spec.inv(x)
            return tuple(spec.mul(y, s) for y in t)
    return None


def _direction(spec: FieldSpec):
    """direction(a, f, t) = normalise(t - t[f] a), for a normalised a with pivot f.

    Tuples t, t' not proportional to a lie on one line through a exactly
    when their directions agree; a tuple proportional to a has direction
    None.
    """
    if spec.r != 1:

        def direction(a, f, t):
            c = t[f]
            return _normalise(spec, tuple(spec.sub(x, spec.mul(c, y)) for x, y in zip(t, a)))

        return direction
    p = spec.p

    def direction(a, f, t):
        c = t[f]
        w0 = (t[0] - c * a[0]) % p
        w1 = (t[1] - c * a[1]) % p
        w2 = (t[2] - c * a[2]) % p
        w3 = (t[3] - c * a[3]) % p
        if w0:
            s = pow(w0, -1, p)
            return (1, w1 * s % p, w2 * s % p, w3 * s % p)
        if w1:
            s = pow(w1, -1, p)
            return (0, 1, w2 * s % p, w3 * s % p)
        if w2:
            return (0, 0, 1, w3 * pow(w2, -1, p) % p)
        return (0, 0, 0, 1) if w3 else None

    return direction


def _lines(spec: FieldSpec, pts: list[tuple], cap: int):
    """Every line through two of the sorted nonzero tuples ``pts``, once.

    Yields (a, w, members): the normalised smallest member a, the
    direction w of the line from it, and the sorted indices of all members.
    Each anchor groups the later tuples by direction; a line is yielded
    from its smallest member, and the later anchors that see it again are
    told apart by marking, for each member, the next member not
    proportional to it (the first tuple of that anchor's group).
    """
    n = len(pts)
    check_pairs("collinearity pass", n, n, cap, "tuples")
    direction = _direction(spec)
    norm = [_normalise(spec, t) for t in pts]
    seen: set[tuple[int, int]] = set()
    for i, a in enumerate(norm):
        f = a.index(1)
        same: list[int] = []
        groups: dict[tuple, list[int]] = {}
        for j in range(i + 1, n):
            w = direction(a, f, norm[j])
            if w is None:
                same.append(j)
            elif w in groups:
                groups[w].append(j)
            else:
                groups[w] = [j]
        for w, later in groups.items():
            if (i, later[0]) in seen:
                continue
            members = sorted([i, *same, *later])
            last = len(members) - 1
            for pos in range(1, last):  # a two-member line is seen once
                x, k = members[pos], pos + 1
                while k < last and norm[members[k]] == norm[x]:
                    k += 1
                if norm[members[k]] != norm[x]:
                    seen.add((x, members[k]))
            yield a, w, members


def _line_key(spec: FieldSpec, a: tuple, w: tuple) -> tuple:
    """Reduced row echelon form of the line spanned by a and w = direction(a, ., .)."""
    # a and w are normalised and w vanishes at a's pivot, so only a's
    # coordinate at w's pivot needs clearing, and only when that pivot is later
    g = next(k for k, x in enumerate(w) if x)
    if g < a.index(1):
        return (w, a)
    c = a[g]
    return (tuple(spec.sub(x, spec.mul(c, y)) for x, y in zip(a, w)), w)


def line_groups(spec: FieldSpec, tuples: Iterable[tuple]) -> dict[tuple, tuple]:
    """Lines spanned by pairs of distinct tuples, as line key -> members."""
    pts = sorted(t for t in tuples if any(t))
    lines = {
        _line_key(spec, a, w): tuple(pts[k] for k in members)
        for a, w, members in _lines(spec, pts, Caps.max_pair_products)
    }
    return dict(sorted(lines.items()))


@dataclass(frozen=True)
class CollinearStats:
    count: int  # distinct tuples
    total_weight: int
    max_distinct: int  # most tuples on one line
    max_weight: int  # heaviest line by summed weights
    witness: tuple | None  # canonical key of a line with max_distinct


def collinear_stats(
    spec: FieldSpec, weighted: dict[tuple, int], cap: int = Caps.max_pair_products
) -> CollinearStats:
    """Line statistics of positively weighted 4-tuples; the pair pass is capped."""
    total = sum(weighted.values())
    n = len(weighted)
    if n <= 1:
        return CollinearStats(
            count=n, total_weight=total, max_distinct=n, max_weight=total, witness=None
        )
    pts = sorted(t for t in weighted if any(t))
    weights = [weighted[t] for t in pts]
    max_distinct = max_weight = 0
    witness = None
    for a, w, members in _lines(spec, pts, cap):
        max_weight = max(max_weight, sum(map(weights.__getitem__, members)))
        size = len(members)
        if size >= max_distinct:
            key = _line_key(spec, a, w)
            if size > max_distinct or key < witness:
                max_distinct, witness = size, key
    if witness is None:
        return CollinearStats(n, total, 1, max(weighted.values()), None)
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
    spec: FieldSpec,
    group: str,
    key: tuple,
    pairs: list[Pair],
    constant=None,
    cap: int = Caps.max_pair_products,
) -> ClassReport:
    quad = quadruple_count(spec, group, pairs, cap)
    inst = build_instance(spec, group, key, pairs)
    inc = incidence_count(inst, cap)
    pstats = collinear_stats(spec, inst.points, cap)
    plstats = collinear_stats(spec, inst.planes, cap)
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
    cap = P.caps.max_pair_products
    classes = pair_classes(A, cap)
    reports = [
        class_report(spec, group, key, pairs, constant, cap)
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
