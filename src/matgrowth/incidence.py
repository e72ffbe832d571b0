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
chain end to end, against quadruple counts that one quotient join over
A x A makes for every class at once; ``random_instance``/``probe_instance``
exercise the same incidence counting on synthetic unit-weight instances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import compress
from typing import Iterable

from .config import Caps
from .errors import CapExceeded, ParameterError
from .exact import BoundCheck, incidence_bound
from .ffield import DENSE_FIELD, FieldSpec, _dense_tables
from .groups import H, T2, GroupSet, Wire, ginv, pair_keys
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
    A: GroupSet,
    classes: dict[tuple[int, int], list[Pair]],
    cap: int = Caps.max_pair_products,
) -> dict[tuple[int, int], int]:
    """Per class key, the solutions of g^-1 h = u^-1 v with (g, v), (h, u) in that class.

    One join serves every class of ``classes`` (``pair_classes(A)``): A x A
    is bucketed by the quotient g^-1 h, and two entries (g, h), (u, v) of
    one bucket solve the equation; the solution counts for the class of
    (g, v) when (h, u) has the same key, and cross-class solutions are
    dropped.  That is |A|^2 group products and E(A) bucket-pair steps,
    never more than the sum of |C|^2.  Only the group law and the class
    keys enter; the count shares no code with the incidence path, which
    is the point.  Each class is refused past the cap as its own |C|^2
    loop would be.
    """
    for pairs in classes.values():
        check_pairs("quadruple count", len(pairs), len(pairs), cap, "pairs")
    spec, group, wires = A.spec, A.group, A.wires
    n = len(wires)
    index = {g: i for i, g in enumerate(wires)}
    # class_of[i][l]: position in ``classes`` of the class of (wires[i], wires[l])
    class_of = [[0] * n for _ in wires]
    for c, pairs in enumerate(classes.values()):
        for g, v in pairs:
            class_of[index[g]][index[v]] = c
    # bucket of the quotient's packed key x: its entries (wires[k // n],
    # wires[k % n]), as the one int k while it has one entry and as a list
    # after that
    buckets: dict[int, int | list[int]] = {}
    get = buckets.get
    inverses = [ginv(spec, group, g) for g in wires]
    for k, x in enumerate(pair_keys(spec, group, inverses, wires)):
        b = get(x)
        if b is None:
            buckets[x] = k
        elif b.__class__ is int:
            buckets[x] = [b, k]
        else:
            b.append(k)
    tally: Counter[int] = Counter()
    for b in buckets.values():
        if b.__class__ is int:  # (g, h) solves only with itself
            i, j = divmod(b, n)
            if class_of[i][j] == class_of[j][i]:
                tally[class_of[i][j]] += 1
            continue
        us = [k // n for k in b]
        vs = [k % n for k in b]
        for i, j in zip(us, vs):
            # (g, h) = (wires[i], wires[j]); over the bucket's (u, v), the
            # class of (g, v) and that of (h, u)
            gv = map(class_of[i].__getitem__, vs)
            hu = map(class_of[j].__getitem__, us)
            tally.update(c for c, d in zip(gv, hu) if c == d)
    return {key: tally[c] for c, key in enumerate(classes)}


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


def build_instance(
    spec: FieldSpec, group: str, key: tuple[int, int], pairs: list[Pair]
) -> WeightedInstance:
    """The point and the plane of every pair (g, v) of one class, weighted by
    multiplicity: ``t2_point``/``t2_plane`` or ``heis_point``/``heis_plane``
    of (g, v), with their arithmetic written out over a prime field."""
    c2 = key[1]
    if spec.r == 1:
        p = spec.p
        if group == T2:
            tuples = (
                (
                    (1, g1 * pow(g2, -1, p) % p, g0 * v1 % p, g0 * v2 % p),
                    (-v0 * g1 % p, v0 * g2 % p, 1, -v1 * pow(v2, -1, p) % p),
                )
                for (g0, g1, g2), (v0, v1, v2) in pairs
            )
        else:
            tuples = (
                (
                    ((g0 * g1 - g2 - v2 - c2 * g0) % p, g0, g1, 1),
                    (1, v1, -v0 % p, (g2 + v2 - v0 * v1 + c2 * v0) % p),
                )
                for (g0, g1, g2), (v0, v1, v2) in pairs
            )
    elif group == T2:
        tuples = ((t2_point(spec, g, v), t2_plane(spec, g, v)) for g, v in pairs)
    else:
        tuples = ((heis_point(spec, g, v, c2), heis_plane(spec, g, v, c2)) for g, v in pairs)
    points: dict[tuple, int] = {}
    planes: dict[tuple, int] = {}
    for pt, pl in tuples:
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
    if spec.q <= DENSE_FIELD:
        q = spec.q
        add, mul, _, _ = _dense_tables(spec)
        for (x0, x1, x2, x3), wp in inst.points.items():
            x0, x1, x2, x3 = x0 * q, x1 * q, x2 * q, x3 * q
            for (y0, y1, y2, y3), wpl in planes:
                s01 = add[mul[x0 + y0] * q + mul[x1 + y1]]
                if not add[s01 * q + add[mul[x2 + y2] * q + mul[x3 + y3]]]:
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


def _normalise(spec: FieldSpec, t: tuple) -> tuple:
    """The nonzero tuple t scaled so that its first nonzero coordinate is one."""
    for x in t:
        if x:
            break
    if x == 1:
        return tuple(t)
    s = spec.inv(x)
    if spec.r == 1:
        p = spec.p
        return tuple([y * s % p for y in t])
    return tuple([spec.mul(y, s) for y in t])


class _Inverses(dict):
    """x -> 1/x mod p, each computed on first use."""

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, x: int) -> int:
        s = self[x] = pow(x, -1, self.p)
        return s


@cache
def _directions(spec: FieldSpec):
    """group(a, f, points, later): the points at ``later`` grouped by direction from a.

    a and the points are normalised, a with pivot f.  Points t, t' not
    proportional to a lie on one line through a exactly when their
    directions normalise(t - t[f] a) agree.  A direction w is packed as
    the base-q integer ((w0 q + w1) q + w2) q + w3, which orders as the
    tuple does; a point proportional to a gets the direction None.  One
    loop computes each direction and files it: group returns (lines,
    more), where lines maps each direction to the index of its first
    point, turned into a list of indices when a second one arrives, and
    more lists the directions that got a list.

    Since a[:f] is zero, w0 is t0 - a0: zero when f = 0, and otherwise
    t0, so a direction with w0 = 1 is already normalised.  Prime fields
    reduce integer sums mod p, with inverses memoised per field; an
    anchor with pivot 0 needs no products, since the points sort with
    leading zeros first and every later point has t0 = 1.  Small
    extension fields look everything up in dense tables, and larger
    ones call the field's own arithmetic.
    """
    q = spec.q
    if spec.r != 1 and q > DENSE_FIELD:
        add, mul, neg = spec.add, spec.mul, spec.neg

        def group(a, f, points, later):
            scaled = {}  # c -> -c a
            lines = {}
            get = lines.get
            more = []
            for j in later:
                t = points[j]
                c = t[f]
                b = scaled.get(c)
                if b is None:
                    b = scaled[c] = tuple(mul(neg(c), y) for y in a)
                w = tuple(map(add, t, b))
                if any(w):
                    w0, w1, w2, w3 = _normalise(spec, w)
                    w = ((w0 * q + w1) * q + w2) * q + w3
                else:
                    w = None
                js = get(w)
                if js is None:
                    lines[w] = j
                elif js.__class__ is int:
                    lines[w] = [js, j]
                    more.append(w)
                else:
                    js.append(j)
            return lines, more

        return group
    if spec.r != 1:
        add, mul, inv_row, neg_row = _dense_tables(spec)

        def group(a, f, points, later):
            a0, a1, a2, a3 = a
            lines = {}
            get = lines.get
            more = []
            for j in later:
                t = t0, t1, t2, t3 = points[j]
                c = neg_row[t[f]]
                w1 = add[t1 * q + mul[c + a1]]
                w2 = add[t2 * q + mul[c + a2]]
                w3 = add[t3 * q + mul[c + a3]]
                if t0 > a0:
                    w = ((q + w1) * q + w2) * q + w3
                elif w1:
                    s = inv_row[w1]
                    w = (q + mul[s + w2]) * q + mul[s + w3]
                elif w2:
                    w = q + mul[inv_row[w2] + w3]
                elif w3:
                    w = 1
                else:
                    w = None
                js = get(w)
                if js is None:
                    lines[w] = j
                elif js.__class__ is int:
                    lines[w] = [js, j]
                    more.append(w)
                else:
                    js.append(j)
            return lines, more

        return group
    p = q
    inv = _Inverses(p)

    def group(a, f, points, later):
        _, a1, a2, a3 = a
        lines = {}
        get = lines.get
        more = []
        if f:
            for j in later:
                t = t0, t1, t2, t3 = points[j]
                c = t[f]
                w1 = (t1 - c * a1) % p
                w2 = (t2 - c * a2) % p
                w3 = (t3 - c * a3) % p
                if t0:
                    w = ((q + w1) * q + w2) * q + w3
                elif w1:
                    s = inv[w1]
                    w = (q + w2 * s % p) * q + w3 * s % p
                elif w2:
                    w = q + w3 * inv[w2] % p
                elif w3:
                    w = 1
                else:
                    w = None
                js = get(w)
                if js is None:
                    lines[w] = j
                elif js.__class__ is int:
                    lines[w] = [js, j]
                    more.append(w)
                else:
                    js.append(j)
            return lines, more
        for j in later:
            _, t1, t2, t3 = points[j]
            w1 = (t1 - a1) % p
            w2 = (t2 - a2) % p
            w3 = (t3 - a3) % p
            if w1:
                s = inv[w1]
                w = (q + w2 * s % p) * q + w3 * s % p
            elif w2:
                w = q + w3 * inv[w2] % p
            elif w3:
                w = 1
            else:
                w = None
            js = get(w)
            if js is None:
                lines[w] = j
            elif js.__class__ is int:
                lines[w] = [js, j]
                more.append(w)
            else:
                js.append(j)
        return lines, more

    return group


def _projective(spec: FieldSpec, pts: list[tuple]) -> tuple[list[tuple], list[list[int]]]:
    """The distinct points of the sorted tuples ``pts``, normalised, in order
    of their first tuple, and for each point the indices of its tuples."""
    twins: dict[tuple, list[int]] = {}
    for k, t in enumerate(pts):
        twins.setdefault(_normalise(spec, t), []).append(k)
    return list(twins), list(twins.values())


_FREE = bytes.maketrans(b"01", b"\x01\x00")


def _lines(spec: FieldSpec, points: list[tuple]):
    """Every line through two of the distinct normalised ``points``, once, in one anchor pass.

    Yields (i, big, pairs) for each anchor i: ``big`` lists (w, members)
    for the lines of three or more points whose first point is i, with w
    the line's direction from points[i] and members the sorted indices of
    its points; ``pairs`` maps the direction of each two-point line {i, j}
    to j, and those are never handled one by one.  Once a line is taken,
    each of its later points records the line's points in a bit set, so
    a later anchor neither meets the line again nor computes a direction
    to them: the pass takes one direction per point of a line beyond its
    first.
    """
    m = len(points)
    group = _directions(spec)
    taken = [0] * m  # bit y of taken[x]: the line through points x and y is taken
    for i in range(m - 1):
        a = points[i]
        later = range(i + 1, m)
        if taken[i]:  # leave out the points on lines through a taken already
            bits = format(taken[i] >> (i + 1), f"0{m - i - 1}b")[::-1]
            row = bits.encode().translate(_FREE)  # byte k: point i + 1 + k is free
            later = list(compress(later, row))
        pairs, more = group(a, a.index(1), points, later)
        big = []
        for w in more:
            js = pairs.pop(w)
            line = sum(1 << j for j in js)
            for j in js:
                taken[j] |= line
            big.append((w, [i, *js]))
        yield i, big, pairs


def _line_key(spec: FieldSpec, a: tuple, w: int) -> tuple:
    """Reduced row echelon form of the line spanned by a and its packed direction w."""
    q = spec.q
    w, w3 = divmod(w, q)
    w, w2 = divmod(w, q)
    w0, w1 = divmod(w, q)
    w = (w0, w1, w2, w3)
    # a and w are normalised and w vanishes at a's pivot, so only a's
    # coordinate at w's pivot needs clearing, and only when that pivot is later
    g = 0 if w0 else 1 if w1 else 2 if w2 else 3
    if g < a.index(1):
        return (w, a)
    c = a[g]
    if spec.r == 1:
        a0, a1, a2, a3 = a
        return (((a0 - c * w0) % q, (a1 - c * w1) % q, (a2 - c * w2) % q, (a3 - c * w3) % q), w)
    if q <= DENSE_FIELD:
        add, mul, _, neg_row = _dense_tables(spec)
        c = neg_row[c]
        return (tuple(add[x * q + mul[c + y]] for x, y in zip(a, w)), w)
    return (tuple(spec.sub(x, spec.mul(c, y)) for x, y in zip(a, w)), w)


def _collinear_points(tuples: Iterable[tuple], cap: int) -> list[tuple]:
    """The nonzero tuples, sorted; the pass over them is refused past the cap."""
    pts = sorted(tuples)
    if pts and not any(pts[0]):  # a zero tuple sorts first
        del pts[: pts.count(pts[0])]
    check_pairs("collinearity pass", len(pts), len(pts), cap, "tuples")
    return pts


def line_groups(spec: FieldSpec, tuples: Iterable[tuple]) -> dict[tuple, tuple]:
    """Lines spanned by pairs of distinct tuples, as line key -> members."""
    pts = _collinear_points(tuples, Caps.max_pair_products)
    points, twins = _projective(spec, pts)
    lines = {}
    for i, big, pairs in _lines(spec, points):
        for w, members in big + [(w, (i, j)) for w, j in pairs.items()]:
            on_line = sorted(k for x in members for k in twins[x])
            lines[_line_key(spec, points[i], w)] = tuple(pts[k] for k in on_line)
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
    """Line statistics of positively weighted 4-tuples; the pair pass is capped.

    At most two nonzero tuples span one line or none, which is returned
    in closed form.  Otherwise two-point lines only feed running maxima of
    their weights and sizes, and their keys are built only while they can
    still hold the most tuples.
    """
    total = sum(weighted.values())
    n = len(weighted)
    if n <= 1:
        return CollinearStats(
            count=n, total_weight=total, max_distinct=n, max_weight=total, witness=None
        )
    pts = _collinear_points(weighted, cap)
    if len(pts) == 2:  # in closed form: one line, or none when the two are proportional
        a = _normalise(spec, pts[0])
        (w,) = _directions(spec)(a, a.index(1), [a, _normalise(spec, pts[1])], (1,))[0]
        if w is not None:
            max_weight = weighted[pts[0]] + weighted[pts[1]]
            return CollinearStats(n, total, 2, max_weight, _line_key(spec, a, w))
    if len(pts) <= 2:
        return CollinearStats(n, total, 1, max(weighted.values()), None)
    points, twins = _projective(spec, pts)
    count = [len(ks) for ks in twins]
    weight = [sum(weighted[pts[k]] for k in ks) for ks in twins]
    max_distinct = max_weight = 0
    witness = None
    for i, big, pairs in _lines(spec, points):
        a = points[i]
        for w, members in big:
            max_weight = max(max_weight, sum(map(weight.__getitem__, members)))
            size = sum(map(count.__getitem__, members))
            if size >= max_distinct:
                key = _line_key(spec, a, w)
                if size > max_distinct or key < witness:
                    max_distinct, witness = size, key
        if pairs:
            max_weight = max(max_weight, weight[i] + max(map(weight.__getitem__, pairs.values())))
            size = count[i] + max(map(count.__getitem__, pairs.values()))
            if size >= max_distinct:
                key = min(
                    _line_key(spec, a, w) for w, j in pairs.items() if count[i] + count[j] == size
                )
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
    quadruples: int,
    constant=None,
    cap: int = Caps.max_pair_products,
) -> ClassReport:
    inst = build_instance(spec, group, key, pairs)
    inc = incidence_count(inst, cap)
    pstats = collinear_stats(spec, inst.points, cap)
    plstats = collinear_stats(spec, inst.planes, cap)
    p2 = spec.p * spec.p
    return ClassReport(
        key=key,
        pair_count=len(pairs),
        quadruples=quadruples,
        incidences=inc,
        match=quadruples == inc,
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
    # A class has at most |C| points and planes, so its incidence and
    # collinearity loops are never longer than its |C|^2 quadruple loop:
    # the join, which checks every class before it starts, refuses first
    # and at the class where the per-class loops were refused.
    quadruples = quadruple_count(A, classes, cap)
    reports = [
        class_report(spec, group, key, pairs, quadruples[key], constant, cap)
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
    """Incidences and the bound of a probe, with one collinearity pass: on
    the smaller side, whose k the bound reads, as ``oriented_bound`` picks."""
    spec = inst.spec
    n_points, n_planes = len(inst.points), len(inst.planes)
    inc = incidence_count(inst)
    smaller = inst.points if n_points <= n_planes else inst.planes
    k = collinear_stats(spec, smaller).max_distinct
    p2 = spec.p * spec.p
    return ProbeReport(
        point_count=n_points,
        plane_count=n_planes,
        incidences=inc,
        max_collinear=k,
        bound=incidence_bound(inc, n_points, n_planes, max(k, 1), constant),
        points_within_field_square=n_points <= p2,
        planes_within_field_square=n_planes <= p2,
    )
