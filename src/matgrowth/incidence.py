"""Weighted point-plane instances carrying the energy of a set.

Pairs (g, v) in A x A are binned by a two-coordinate class key, the
abelian part of the product g v, so that two pairs can only contribute
to the energy equation g^-1 h = u^-1 v when they share a key: for the
triangular group the key is (a_g a_v, c_g c_v), for the Heisenberg group
(g1 + v1, g2 + v2).  Inside one class the first two coordinates of the
equation hold identically and only the corner equation remains; that
equation is a perfect dot-product pairing between a point built from
(g, v) and a plane built from (h, u) in four coordinates.

So each class induces a weighted incidence instance whose incidence
count equals the class's quadruple count exactly, and the counts summed
over classes equal the energy of A.  Both keys are symmetric in (g, v),
so a class's planes are a fixed linear image phi of its points, and a
class is measured on its points alone.  ``bridge_report`` verifies this
chain end to end, against quadruple counts that one quotient join over
A x A makes for every class at once; ``random_instance``/``probe_instance``
exercise the incidence counting on synthetic unit-weight instances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from itertools import compress, product, repeat
from operator import floordiv, itemgetter
from typing import Iterable, NamedTuple

from .config import Caps, check_pairs, check_set
from .errors import ParameterError
from .exact import BoundCheck, incidence_bound
from .ffield import FieldSpec, _dense_tables
from .groups import H, T2, GroupSet, Wire, ginv, pair_keys
from .growth import Products, as_products
from .rng import SplitMix64

Pair = tuple[Wire, Wire]


def pair_classes(
    A: GroupSet, cap: int = Caps.max_pair_products
) -> dict[tuple[int, int], list[Pair]]:
    """All of A x A binned by class key, keys in sorted order.

    The key of (g, v) is the abelian part of g v, read off its packed key
    from ``groups.pair_keys``: (a, c) of the product for T2, and its first
    two coordinates for H.  Pairs are binned by the key packed as one
    base-q int, and the keys unpacked at the end.
    """
    check_pairs("pair classes", len(A), len(A), cap)
    q = A.spec.q
    wires = A.wires
    keys = pair_keys(A.spec, A.group, wires, wires)
    if A.group == T2:
        classes = (ab // q * q + c for ab, c in map(divmod, keys, repeat(q)))
    else:
        classes = map(floordiv, keys, repeat(q))
    out: dict[int, list[Pair]] = {}
    get = out.get
    for k, pair in zip(classes, product(wires, repeat=2)):
        pairs = get(k)
        if pairs is None:
            out[k] = [pair]
        else:
            pairs.append(pair)
    return {divmod(k, q): out[k] for k in sorted(out)}


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
        us, vs = zip(*map(divmod, b, repeat(n)))
        for i, j in zip(us, vs):
            # (g, h) = (wires[i], wires[j]); over the bucket's (u, v), the
            # class of (g, v) and that of (h, u)
            gv = map(class_of[i].__getitem__, vs)
            hu = map(class_of[j].__getitem__, us)
            tally.update(c for c, d in zip(gv, hu) if c == d)
    return {key: tally[c] for c, key in enumerate(classes)}


# -- instance construction ----------------------------------------------------

# Both class keys are symmetric in (g, v), so every class is closed under
# the swap (g, v) -> (v, g), and plane(v, g) = phi(point(g, v)) for a fixed
# invertible linear map phi of each group.  A class's planes are therefore
# phi of its points, weights included.  x . phi(y) is an alternating form:
# x . phi(x) = 0, and x . phi(y) = 0 exactly when y . phi(x) = 0.

# phi per group, for each coordinate of phi(x): the coordinate of x it
# reads, and whether it is negated.  phi pairs each coordinate i with one
# j = pi(i) and negates one of the two, so x . phi(y) is the sum over
# i < j = pi(i) of -+(x_i y_j - x_j y_i).
_PHI = {
    T2: ((2, True), (3, False), (0, False), (1, True)),
    H: ((3, False), (2, False), (1, True), (0, True)),
}
# the two terms (i, j, negated) of x . phi(y)
_FORM_TERMS = {
    group: [(i, j, neg) for i, (j, neg) in enumerate(m) if i < j] for group, m in _PHI.items()
}


def _form_reads(terms) -> itemgetter:
    """With u, v the coordinates of x, y in the order u0 u1 u2 u3 of the
    terms, x . phi(y) = u0 v1 - u1 v0 + u2 v3 - u3 v2.  u1 is the
    coordinate every point of a class holds at one, x0 of T2's and x3 of
    H's; this reads the other three."""
    u0, _, u2, u3 = (k for i, j, neg in terms for k in ((j, i) if neg else (i, j)))
    return itemgetter(u0, u2, u3)


_FORM = {group: _form_reads(terms) for group, terms in _FORM_TERMS.items()}


def phi(spec: FieldSpec, group: str, x: tuple) -> tuple:
    """The plane of the swapped pair: plane(v, g) = phi(point(g, v))."""
    return tuple(_image(spec, group)(x))


class WeightedInstance(NamedTuple):
    """Multisets of points and planes, each a 4-tuple with a weight."""

    spec: FieldSpec
    points: dict[tuple, int]
    planes: dict[tuple, int]


def class_points(spec: FieldSpec, group: str, pairs: list[Pair]) -> dict[tuple, int]:
    """The point of every pair (g, v) of one class, weighted by multiplicity,
    looked up in the field's dense tables: (1, g1/g2, g0 v1, g0 v2) for T2,
    and (-c, g0, g1, 1) for H, with c = g2 + v2 + g0 v1 the corner of g v."""
    q = spec.q
    add, mul, inv_row, neg_row, _ = _dense_tables(spec)
    if group == T2:
        tuples = (
            (1, mul[inv_row[g2] + g1], mul[g0 * q + v1], mul[g0 * q + v2])
            for (g0, g1, g2), (_, v1, v2) in pairs
        )
    else:
        tuples = (
            (add[neg_row[add[g2 * q + v2]] + mul[neg_row[g0] + v1]], g0, g1, 1)
            for (g0, g1, g2), (_, v1, v2) in pairs
        )
    points: dict[tuple, int] = {}
    for t in tuples:
        points[t] = points.get(t, 0) + 1
    return points


def build_instance(spec: FieldSpec, group: str, pairs: list[Pair]) -> WeightedInstance:
    """The points of one class (``class_points``) and its planes, phi of the points."""
    points = class_points(spec, group, pairs)
    planes = {phi(spec, group, x): w for x, w in points.items()}
    return WeightedInstance(spec=spec, points=points, planes=planes)


def incidence_count(inst: WeightedInstance, cap: int = Caps.max_pair_products) -> int:
    """Weighted incidences: sum of w(p) w(pi) over pairs with p . pi = 0.

    Over a prime field the dot products are plain integer sums mod p, the
    one test of the field kind left in this module: a 200 x 200 probe over
    F_101 takes 5.9-8.1 ms that way and 9.7-11.3 ms through the dense
    tables (2 vCPUs, Python 3.11), which serve every extension field.
    """
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
    q = spec.q
    add, mul = _dense_tables(spec)[:2]
    for (x0, x1, x2, x3), wp in inst.points.items():
        x0, x1, x2, x3 = x0 * q, x1 * q, x2 * q, x3 * q
        for (y0, y1, y2, y3), wpl in planes:
            s = add[mul[x0 + y0] * q + mul[x1 + y1]] * q
            if not add[s + add[mul[x2 + y2] * q + mul[x3 + y3]]]:
                total += wp * wpl
    return total


def _class_incidences(
    spec: FieldSpec, group: str, points: dict[tuple, int], cap: int = Caps.max_pair_products
) -> int:
    """The incidences of a class from its points (``class_points``) alone.

    The planes are phi of the points and x . phi(y) is alternating, so the
    count is sum w^2 + 2 sum_{i<j} w_i w_j [x_i . phi(x_j) = 0]: half the
    dot products of ``incidence_count`` on the instance.  With u, v the
    points' coordinates in ``_form_reads`` order, where u1 = v1 = 1, the
    form is u0 - v0 + u2 v3 - u3 v2: two products.
    """
    n = len(points)
    check_pairs("incidence count", n, n, cap, "tuples")
    rows = list(zip(map(_FORM[group], points), points.values()))
    cross = 0
    q = spec.q
    add, mul, _, neg_row, _ = _dense_tables(spec)
    for k, ((u0, u2, u3), w) in enumerate(rows, 1):
        u0, u2, u3 = u0 * q, u2 * q, neg_row[u3]
        for (v0, v2, v3), wv in rows[k:]:
            if add[u0 + add[mul[u2 + v3] * q + mul[u3 + v2]]] == v0:
                cross += w * wv
    return sum(w * w for w in points.values()) + 2 * cross


# -- collinearity -------------------------------------------------------------
#
# Nonzero 4-tuples are points of projective 3-space; a line is the span of
# two non-proportional tuples, and its members are all the tuples in that
# span (so a tuple joins every line through any tuple it is proportional
# to, and the zero tuple joins none).  A line is keyed by the reduced row
# echelon form of its 2 x 4 basis, which is unique; ``_least_line`` reads
# it off one of its points and the direction of another from it.


@cache
def _normalise(spec: FieldSpec):
    """normalise(t): the nonzero 4-tuple t scaled so that its first nonzero
    coordinate is one (t itself when it is one already), looked up in the
    field's dense tables."""
    mul, inv_row = _dense_tables(spec)[1:3]

    def normalise(t):
        for x in t:
            if x:
                break
        if x == 1:
            return t
        s = inv_row[x]
        t0, t1, t2, t3 = t
        return mul[s + t0], mul[s + t1], mul[s + t2], mul[s + t3]

    return normalise


@cache
def _image(spec: FieldSpec, group: str):
    """image(x): phi(x) as a list, for the key of an image's line, read
    off the dense negation table: phi reads x in a permuted order and
    negates two of its coordinates (``_PHI``)."""
    take = itemgetter(*(k for k, _ in _PHI[group]))
    i, j = (k for k, (_, negated) in enumerate(_PHI[group]) if negated)
    neg = _dense_tables(spec)[4]

    def image(x):
        y = list(take(x))
        y[i], y[j] = neg[y[i]], neg[y[j]]
        return y

    return image


@cache
def _directions(spec: FieldSpec):
    """group(a, f, points, later): the points at ``later`` grouped by line through a.

    a and the points are normalised, a with pivot f.  group returns
    (lines, more): lines maps a key of each line through a to the index of
    its first point, turned into a list of indices when a second one
    arrives, and more lists the keys that got a list.  The points are
    distinct and normalised, so none is proportional to a.

    A line is keyed by the direction of its points from a, looked up in
    the field's dense tables: points t, t' not proportional to a lie on
    one line through a exactly when their directions normalise(t - t[f] a)
    agree.  A direction w is packed as the base-q integer
    ((w0 q + w1) q + w2) q + w3.  Since a[:f] is zero, w0 is t0 - a0: zero
    when f = 0, and otherwise t0, so a direction with w0 = 1 is already
    normalised.
    """
    q = spec.q
    add, mul, inv_row, neg_row, _ = _dense_tables(spec)

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
            else:
                w = 1
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


@cache
def _least_line(spec: FieldSpec):
    """least(a, f, points, later): the least key of the lines from a through
    the points at ``later``.

    a is normalised, with pivot f; the points are nonzero, in any scale,
    and none is proportional to a.  A line's key is the reduced row echelon
    form of its basis, packed as the base-q integer of its eight digits,
    which orders as the pair of rows does (``_unpack`` decodes it).  The
    rows come from a and the direction w of a point t from a, computed as
    ``_directions`` does it but scaled here when its pivot is t0: w has
    w_f = 0 and a pivot g, and the form is (w; a) when g < f and
    (a - a_g w; w) when g > f, looked up in the field's dense tables.
    """
    q = spec.q
    q3, q4 = q**3, q**4
    none = q4 * q4  # past every key
    add, mul, inv_row, neg_row, _ = _dense_tables(spec)

    def least(a, f, points, later):
        a0, a1, a2, a3 = a
        low = ((a0 * q + a1) * q + a2) * q + a3  # the key of (w; a) is w q^4 + low
        n1, a2q, a3q = neg_row[a1], a2 * q, a3 * q
        best = none
        for j in later:
            t = t0, t1, t2, t3 = points[j]
            c = neg_row[t[f]]
            w1 = add[t1 * q + mul[c + a1]]
            w2 = add[t2 * q + mul[c + a2]]
            w3 = add[t3 * q + mul[c + a3]]
            if t0 and not a0:  # g = 0 < f, and w0 = t0
                s = inv_row[t0]
                k = (((q + mul[s + w1]) * q + mul[s + w2]) * q + mul[s + w3]) * q4 + low
            elif w1:  # g = 1: f is 0, 2 or 3
                s = inv_row[w1]
                w2, w3 = mul[s + w2], mul[s + w3]
                if f:
                    k = ((q + w2) * q + w3) * q4 + low
                else:
                    top = q3 + add[a2q + mul[n1 + w2]] * q + add[a3q + mul[n1 + w3]]
                    k = top * q4 + (q + w2) * q + w3
            elif w2:  # g = 2: f is 0, 1 or 3
                w3 = mul[inv_row[w2] + w3]
                if f == 3:
                    k = (q + w3) * q4 + low
                else:
                    k = (low - a2q - a3 + add[a3q + mul[neg_row[a2] + w3]]) * q4 + q + w3
            else:  # g = 3 > f
                k = (low - a3) * q4 + 1
            if k < best:
                best = k
        return best

    return least


def _projective(
    spec: FieldSpec, tuples: Iterable[tuple], cap: int
) -> tuple[list[tuple], list[tuple], list[list[int]]]:
    """The nonzero ``tuples``, sorted; their distinct points, normalised, in
    order of their first tuple; and for each point the indices of its
    tuples.  The pass over them is refused past the cap."""
    pts = sorted(tuples)
    if pts and not any(pts[0]):  # a zero tuple sorts first
        del pts[: pts.count(pts[0])]
    check_pairs("collinearity pass", len(pts), len(pts), cap, "tuples")
    twins: dict[tuple, list[int]] = {}
    for k, t in enumerate(map(_normalise(spec), pts)):
        twins.setdefault(t, []).append(k)
    return pts, list(twins), list(twins.values())


_FREE = bytes.maketrans(b"01", b"\x01\x00")


def _lines(spec: FieldSpec, points: list[tuple]):
    """Every line through two of the distinct normalised ``points``, once, in one anchor pass.

    Yields (i, big, pairs) for each anchor i: ``big`` lists the sorted
    indices of the points of each line of three or more points whose first
    point is i; ``pairs`` maps the ``_directions`` key of each two-point
    line {i, j} to j, and those are never handled one by one.  Once a line
    is taken, each of its later points records the line's points in a bit
    set, so a later anchor neither meets the line again nor keys a line to
    them: the pass takes one key per point of a line beyond its first.
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
            big.append([i, *js])
        yield i, big, pairs


def _unpack(q: int, k: int) -> tuple:
    """The two rows of a packed line key."""
    k, d7 = divmod(k, q)
    k, d6 = divmod(k, q)
    k, d5 = divmod(k, q)
    k, d4 = divmod(k, q)
    k, d3 = divmod(k, q)
    k, d2 = divmod(k, q)
    d0, d1 = divmod(k, q)
    return (d0, d1, d2, d3), (d4, d5, d6, d7)


def line_groups(spec: FieldSpec, tuples: Iterable[tuple]) -> dict[tuple, tuple]:
    """Lines spanned by pairs of distinct tuples, as line key -> members."""
    pts, points, twins = _projective(spec, tuples, Caps.max_pair_products)
    least = _least_line(spec)
    lines = {}
    for i, big, pairs in _lines(spec, points):
        a = points[i]
        for members in big + [(i, j) for j in pairs.values()]:
            on_line = sorted(k for x in members for k in twins[x])
            line = least(a, a.index(1), points, members[1:2])
            lines[_unpack(spec.q, line)] = tuple(pts[k] for k in on_line)
    return dict(sorted(lines.items()))


@dataclass(frozen=True)
class CollinearStats:
    """How the tuples of one side of an instance fall on lines."""

    count: int  # distinct tuples
    total_weight: int
    max_distinct: int  # most tuples on one line
    max_weight: int  # heaviest line by summed weights
    witness: tuple | None  # canonical key of a line with max_distinct


def collinear_stats(
    spec: FieldSpec,
    weighted: dict[tuple, int],
    cap: int = Caps.max_pair_products,
    image: str | None = None,
    witness: bool = True,
) -> tuple[CollinearStats, tuple | None]:
    """Line statistics of positively weighted 4-tuples, and with ``image``, a
    group, the witness of their images under the group's phi (None
    without); the pair pass is capped.  Without ``witness`` no line key is
    built, and both witnesses are None.

    One anchor pass finds the lines, and keeps only those of the most
    tuples so far, each as two of its points; their keys are built after
    the pass (``_least_line``).  When every line holds two tuples, every
    pair of points spans one of the most, and one key-only pass from each
    point over the later ones finds the least key.

    The images' witness comes from the same pairs of points: phi is linear
    and invertible, so it maps the tuples' lines onto the images' lines,
    member for member, and the images' witness is the least key over the
    lines through the normalised images of those pairs.
    """
    total = sum(weighted.values())
    n = len(weighted)
    if n <= 1:
        return CollinearStats(n, total, n, total, None), None
    pts, points, twins = _projective(spec, weighted, cap)
    count = [len(ks) for ks in twins]
    weight = [sum(weighted[pts[k]] for k in ks) for ks in twins]
    max_distinct = max_weight = 0
    most = []  # (i, j): the lines of the most tuples so far, each through points i and j
    for i, big, pairs in _lines(spec, points):
        for members in big:
            max_weight = max(max_weight, sum(map(weight.__getitem__, members)))
            size = sum(map(count.__getitem__, members))
            if size >= max_distinct:
                if size > max_distinct:
                    max_distinct, most = size, []
                most.append((i, members[1]))
        if pairs:
            max_weight = max(max_weight, weight[i] + max(map(weight.__getitem__, pairs.values())))
            size = count[i] + max(map(count.__getitem__, pairs.values()))
            if size >= max_distinct:
                if size > max_distinct:
                    max_distinct, most = size, []
                if size > 2:
                    most += [(i, j) for j in pairs.values() if count[i] + count[j] == size]
    if not max_distinct:
        return CollinearStats(n, total, 1, max(weighted.values()), None), None
    if not witness:
        return CollinearStats(n, total, max_distinct, max_weight, None), None
    if max_distinct == 2:  # every pair of points spans a line of the most tuples
        spans = [(i, range(i + 1, len(points))) for i in range(len(points) - 1)]
    else:
        spans = [(i, (j,)) for i, j in most]
    least, normalise, q = _least_line(spec), _normalise(spec), spec.q

    def witness_of(side):
        return _unpack(q, min(least(side[i], side[i].index(1), side, js) for i, js in spans))

    image_witness = image and witness_of(list(map(normalise, map(_image(spec, image), points))))
    return CollinearStats(n, total, max_distinct, max_weight, witness_of(points)), image_witness


# -- per-class reports and the energy bridge ----------------------------------

@dataclass(frozen=True)
class ClassReport:
    """One class of the bridge: its counts, both sides' line statistics and
    the incidence bound."""

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
    """The bridge's totals over every class, against the energy."""

    group: str
    class_count: int
    total_pairs: int
    total_quadruples: int
    total_incidences: int
    energy: int
    matches_energy: bool
    classes: tuple[ClassReport, ...]


@cache
def _small_class(spec: FieldSpec, group: str):
    """small(points): incidences and both sides' statistics of a class of
    at most two points, read off the points: x . phi(y) as
    ``_class_incidences`` reads it, and the key of their line and of its
    image each from one direction.  Two points of a class are never
    proportional, since each has a coordinate fixed at one."""
    q = spec.q
    add, mul, _, neg_row, _ = _dense_tables(spec)
    form, least = _FORM[group], _least_line(spec)
    normalise, image = _normalise(spec), _image(spec, group)

    def small(points):
        if len(points) == 1:
            ((_, total),) = points.items()
            stats = CollinearStats(1, total, 1, total, None)
            return total * total, stats, stats
        (x, wx), (y, wy) = points.items()
        total = wx + wy
        (u0, u2, u3), (v0, v2, v3) = map(form, points)
        incident = add[u0 * q + add[mul[u2 * q + v3] * q + mul[neg_row[u3] + v2]]] == v0
        a = normalise(x)
        line = _unpack(q, least(a, a.index(1), (y,), (0,)))
        a = normalise(image(x))
        image_line = _unpack(q, least(a, a.index(1), (image(y),), (0,)))
        return (
            wx * wx + wy * wy + (2 * wx * wy if incident else 0),
            CollinearStats(2, total, 2, total, line),
            CollinearStats(2, total, 2, total, image_line),
        )

    return small


def class_report(
    spec: FieldSpec,
    group: str,
    key: tuple,
    pairs: list[Pair],
    quadruples: int,
    constant=None,
    cap: int = Caps.max_pair_products,
) -> ClassReport:
    """One class measured on its points alone: its planes are phi of its
    points, so one incidence pass over unordered pairs of points and one
    collinearity pass give both sides.  Both sides have one size, so the
    bound reads the points' collinearity."""
    points = class_points(spec, group, pairs)
    if len(points) <= 2:
        inc, pstats, plstats = _small_class(spec, group)(points)
    else:
        inc = _class_incidences(spec, group, points, cap)
        pstats, image_witness = collinear_stats(spec, points, cap, image=group)
        plstats = replace(pstats, witness=image_witness)
    n, p2 = pstats.count, spec.p * spec.p
    return ClassReport(
        key=key,
        pair_count=len(pairs),
        quadruples=quadruples,
        incidences=inc,
        match=quadruples == inc,
        point_stats=pstats,
        plane_stats=plstats,
        bound=incidence_bound(inc, n, n, max(pstats.max_distinct, 1), constant),
        points_within_field_square=n <= p2,
        planes_within_field_square=n <= p2,
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
    check_set("probe instance side", max(n_points, n_planes), Caps.max_set_elements)
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
    """A probe instance's counts, its largest collinear side and the bound."""

    point_count: int
    plane_count: int
    incidences: int
    max_collinear: int
    bound: BoundCheck
    points_within_field_square: bool
    planes_within_field_square: bool


def probe_instance(inst: WeightedInstance, constant=None) -> ProbeReport:
    """Incidences and the bound of a probe, with one collinearity pass: on
    the smaller side, whose k the bound reads.  A probe reports no witness,
    so the pass builds no line key."""
    spec = inst.spec
    n_points, n_planes = len(inst.points), len(inst.planes)
    inc = incidence_count(inst)
    smaller = inst.points if n_points <= n_planes else inst.planes
    k = collinear_stats(spec, smaller, witness=False)[0].max_distinct
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
