"""Brute-force recounts used to pin the fast paths.

Everything here is deliberately naive: quadruple loops, explicit coset
tables, determinant minors.  Slow and obviously correct is the point;
none of it shares code with the library kernels it checks.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

from matgrowth.exact import incidence_bound
from matgrowth.groups import T2, GroupSet, gid, ginv, gmul
from matgrowth.incidence import ClassReport, CollinearStats, ProbeReport


def quad_energy(A):
    """#{(g,h,u,v) in A^4 : g^-1 h = u^-1 v} by literal enumeration."""
    spec, group = A.spec, A.group
    ws = A.wires
    total = 0
    for g in ws:
        for h in ws:
            lhs = gmul(spec, group, ginv(spec, group, g), h)
            for u in ws:
                for v in ws:
                    if gmul(spec, group, ginv(spec, group, u), v) == lhs:
                        total += 1
    return total


def quad_product_energy(A):
    """#{(g,h,u,v) in A^4 : g h = u v} by literal enumeration."""
    spec, group = A.spec, A.group
    ws = A.wires
    total = 0
    for g in ws:
        for h in ws:
            lhs = gmul(spec, group, g, h)
            for u in ws:
                for v in ws:
                    if gmul(spec, group, u, v) == lhs:
                        total += 1
    return total


def commutator_outside_span(work, span_wires):
    """The first (a, b) of W x W in row-major order whose commutator
    a^-1 b^-1 a b, from three ``gmul`` calls, is not u(w) for a corner w
    of ``span_wires``; None when every commutator is."""
    spec = work.spec
    wires = work.wires
    for a in wires:
        for b in wires:
            inverse = gmul(spec, T2, ginv(spec, T2, a), ginv(spec, T2, b))
            c = gmul(spec, T2, inverse, gmul(spec, T2, a, b))
            if c[0] != 1 or c[2] != 1 or c[1] not in span_wires:
                return a, b
    return None


def quadruple_count_by_definition(spec, group, pairs):
    """Solutions of g^-1 h = u^-1 v with (g, v), (h, u) from one class's pairs,
    by the per-class double loop over the class."""
    count = 0
    for g, v in pairs:
        gi = ginv(spec, group, g)
        for h, u in pairs:
            if gmul(spec, group, gi, h) == gmul(spec, group, ginv(spec, group, u), v):
                count += 1
    return count


def pair_products(A, B):
    return {gmul(A.spec, A.group, a, b) for a in A.wires for b in B.wires}


def coset_partition(A, tag):
    """Partition of A's wires into left cosets of the tagged subgroup,
    computed from the explicit element list of the subgroup."""
    spec, group = A.spec, A.group
    hs = tag.elements(spec).wires
    blocks = {}
    for w in A.wires:
        key = frozenset(gmul(spec, group, w, h) for h in hs)
        blocks.setdefault(key, set()).add(w)
    return sorted(sorted(block) for block in blocks.values())


def covering_by_coset_table(A, tag):
    """(holds, #reps) for A <= reps * ((A^-1 A n N) u {1}): one representative
    per explicit coset block, and every reps x core product multiplied out."""
    spec, group = A.spec, A.group
    members = set(tag.elements(spec).wires)
    quotients = {gmul(spec, group, ginv(spec, group, a), b) for a in A.wires for b in A.wires}
    core = (quotients & members) | {gid(group)}
    reps = [block[0] for block in coset_partition(A, tag)]
    covered = {gmul(spec, group, r, h) for r in reps for h in core}
    return all(w in covered for w in A.wires), len(reps)


def t2_m1_recount(A):
    """Max torus-coset fiber by looping over every (x, y) pair."""
    spec = A.spec
    best = 0
    for x in range(spec.q):
        for y in range(spec.q):
            hits = 0
            for (a, b, c) in A.wires:
                if spec.add(spec.mul(a, x), b) == spec.mul(c, y):
                    hits += 1
            best = max(best, hits)
    return best


def t2_m2_recount(A):
    spec = A.spec
    best = 0
    for d in range(1, spec.q):
        hits = sum(1 for (a, b, c) in A.wires if spec.div(a, c) == d)
        best = max(best, hits)
    return best


def t2_m3_recount(A):
    spec = A.spec
    best = 0
    for a in range(1, spec.q):
        for c in range(1, spec.q):
            hits = sum(1 for w in A.wires if w[0] == a and w[2] == c)
            best = max(best, hits)
    return best


def t2_m1_sweep(A):
    """(m1, witness) by sweeping x over F_q: each element's line meets every
    column once.  The witness is the smallest heaviest (x, y)."""
    spec = A.spec
    torus = {}
    for x in range(spec.q):
        for a, b, c in A.wires:
            y = spec.div(spec.add(spec.mul(a, x), b), c)
            torus[(x, y)] = torus.get((x, y), 0) + 1
    return _heaviest(torus)


def line_directions(spec):
    """The q + 1 projective directions, first nonzero coordinate one."""
    return [(1, beta) for beta in range(spec.q)] + [(0, 1)]


def heis_line_sweep(A):
    """(line_max, witness) by sweeping all q + 1 directions over the base
    points; the witness is the smallest heaviest (alpha, beta, gamma)."""
    spec = A.spec
    lines = {}
    for alpha, beta in line_directions(spec):
        for g1, g2, _ in A.wires:
            key = (alpha, beta, spec.add(spec.mul(alpha, g1), spec.mul(beta, g2)))
            lines[key] = lines.get(key, 0) + 1
    return _heaviest(lines)


def _heaviest(counts):
    if not counts:
        return 0, ()
    best = max(counts.values())
    return best, min(k for k, v in counts.items() if v == best)


def heis_base_recount(A):
    best = 0
    for g1 in range(A.spec.q):
        for g2 in range(A.spec.q):
            hits = sum(1 for w in A.wires if w[0] == g1 and w[1] == g2)
            best = max(best, hits)
    return best


def heis_line_recount(A):
    """Max line occupancy of the base projection, from point pairs.

    Any line carrying the maximum passes through two occupied base points
    unless only one base point is occupied, in which case every line
    degenerates to that single fiber.
    """
    spec = A.spec
    bases = {}
    for w in A.wires:
        bases[(w[0], w[1])] = bases.get((w[0], w[1]), 0) + 1
    pts = list(bases)
    single = max(bases.values())
    best = single
    for (x1, y1), (x2, y2) in combinations(pts, 2):
        dx, dy = spec.sub(x2, x1), spec.sub(y2, y1)
        weight = 0
        for (x, y), cnt in bases.items():
            # (x - x1, y - y1) parallel to (dx, dy)
            if spec.mul(spec.sub(x, x1), dy) == spec.mul(spec.sub(y, y1), dx):
                weight += cnt
        best = max(best, weight)
    return best


def coeffs(spec, x):
    """The r coefficients of the polynomial with wire x, constant term first:
    the base-p digits of x."""
    return tuple(x // spec.p**i % spec.p for i in range(spec.r))


def from_coeffs(spec, cs):
    """The wire of the polynomial with coefficients cs, each taken mod p."""
    assert len(cs) <= spec.r, f"coefficient vector longer than degree {spec.r}"
    return sum(c % spec.p * spec.p**i for i, c in enumerate(cs))


def schoolbook_mul(spec, x, y):
    """Field product: polynomial product reduced by long division."""
    p = spec.p
    xs, ys = coeffs(spec, x), coeffs(spec, y)
    prod = [0] * (2 * spec.r - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            prod[i + j] = (prod[i + j] + a * b) % p
    for d in range(len(prod) - 1, spec.r - 1, -1):
        lead = prod[d]
        if lead:
            for k in range(spec.r + 1):
                prod[d - spec.r + k] = (prod[d - spec.r + k] - lead * spec.modulus[k]) % p
            assert prod[d] == 0
    return from_coeffs(spec, prod[: spec.r])


def field_tables_by_order_walk(spec):
    """exp/log tables over the smallest element of order q - 1, found by
    walking the powers of each candidate until they return to one."""
    n = spec.q - 1
    gen = next(
        cand
        for cand in range(2, spec.q)
        if _order_by_walk(spec, cand) == n
    )
    exp, log = [0] * n, [0] * spec.q
    x = 1
    for i in range(n):
        exp[i], log[x] = x, i
        x = schoolbook_mul(spec, x, gen)
    return exp, log


def irreducible_by_trial_division(p, r, ws):
    """Whether each monic polynomial t^r + (the polynomial with wire w) over
    F_p, for w in ws, has no monic divisor of degree 1 to r/2: exhaustive
    trial division, by long division of all of them at once."""
    ws = np.asarray(ws, dtype=np.int64)
    polys = np.stack([ws // p**i % p for i in range(r)] + [np.ones_like(ws)], axis=1)
    irreducible = np.ones(len(ws), dtype=bool)
    for d in range(1, r // 2 + 1):
        for v in range(p**d):
            divisor = np.array([v // p**i % p for i in range(d)] + [1], dtype=np.int64)
            rem = polys.copy()
            for i in range(r, d - 1, -1):
                lead = rem[:, i : i + 1].copy()
                rem[:, i - d : i + 1] = (rem[:, i - d : i + 1] - lead * divisor) % p
            irreducible &= rem[:, :d].any(axis=1)
    return irreducible.tolist()


def frobenius_fixed(spec, s):
    """The wires x with x ** (p ** s) == x, in order: by definition, the
    subfield of size p ** s when s divides r."""
    e = spec.p**s
    return tuple(x for x in range(spec.q) if spec.power(x, e) == x)


def _order_by_walk(spec, g):
    x, k = g, 1
    while x != 1:
        x, k = schoolbook_mul(spec, x, g), k + 1
    return k


def max_collinear(p, tuples):
    """Largest number of the given projective 4-tuples on one line (F_p).

    Rank condition via 3x3 minors: w lies on the line through u, v iff
    every 3x3 minor of the stacked matrix vanishes.  The minors are
    linear in w with coefficients from the 2x2 minors of (u, v), so each
    pair reduces to one 4x4 matmul over all candidates.
    """
    pts = np.array(sorted(tuples), dtype=np.int64) % p
    n = len(pts)
    if n <= 2:
        return n
    best = 2
    for i, j in combinations(range(n), 2):
        u, v = pts[i], pts[j]
        m2 = np.outer(u, v) - np.outer(v, u)  # antisymmetric 2x2 minors
        if not (m2 % p).any():
            raise ValueError("proportional tuples are not distinct points")
        # rows: column triples (1,2,3), (0,2,3), (0,1,3), (0,1,2)
        coef = np.zeros((4, 4), dtype=np.int64)
        for row, (c0, c1, c2) in enumerate(
            [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
        ):
            coef[row, c0] = m2[c1, c2]
            coef[row, c1] = -m2[c0, c2]
            coef[row, c2] = m2[c0, c1]
        dets = (pts @ coef.T) % p
        best = max(best, int(np.count_nonzero(~dets.any(axis=1))))
    return best


def rref2(spec, row1, row2):
    """Canonical reduced form of the 2 x 4 matrix [row1; row2], or None
    when the rows are proportional (rank < 2)."""
    rows = [list(row1), list(row2)]
    piv = 0
    for col in range(4):
        sel = next((i for i in range(piv, 2) if rows[i][col]), None)
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


def line_groups_by_pairs(spec, tuples):
    """Line key -> member tuples, from one reduced form per pair of tuples."""
    pts = sorted(tuples)
    lines = {}
    for i, j in combinations(range(len(pts)), 2):
        key = rref2(spec, pts[i], pts[j])
        if key is not None:
            lines.setdefault(key, set()).update((i, j))
    return {k: tuple(pts[i] for i in sorted(idx)) for k, idx in sorted(lines.items())}


def collinear_stats_by_pairs(spec, weighted):
    """(max_distinct, max_weight, witness) from ``line_groups_by_pairs``."""
    lines = line_groups_by_pairs(spec, weighted)
    if not lines:
        return min(len(weighted), 1), max(weighted.values(), default=0), None
    max_distinct = max(len(members) for members in lines.values())
    max_weight = max(sum(weighted[t] for t in members) for members in lines.values())
    witness = min(k for k, members in lines.items() if len(members) == max_distinct)
    return max_distinct, max_weight, witness


def probe_two_sided(inst, constant=None):
    """The probe report from both sides' tuple-keyed line statistics
    (``collinear_stats_by_pairs``), the smaller side's k as the bound reads
    it, and incidences from the literal dot products."""
    spec = inst.spec
    incidences = 0
    for pt, wp in inst.points.items():
        for pl, wpl in inst.planes.items():
            dot = 0
            for x, y in zip(pt, pl):
                dot = spec.add(dot, spec.mul(x, y))
            if dot == 0:
                incidences += wp * wpl
    n_points, n_planes = len(inst.points), len(inst.planes)
    k_points = collinear_stats_by_pairs(spec, inst.points)[0]
    k_planes = collinear_stats_by_pairs(spec, inst.planes)[0]
    k = k_points if n_points <= n_planes else k_planes
    return ProbeReport(
        point_count=n_points,
        plane_count=n_planes,
        incidences=incidences,
        max_collinear=k,
        bound=incidence_bound(incidences, n_points, n_planes, max(k, 1), constant),
        points_within_field_square=n_points <= spec.p**2,
        planes_within_field_square=n_planes <= spec.p**2,
    )


def t2_point(spec, g, v):
    """The point of the pair (g, v) of a T2 class: (1, g1/g2, g0 v1, g0 v2)."""
    return (
        1,
        spec.div(g[1], g[2]),
        spec.mul(g[0], v[1]),
        spec.mul(g[0], v[2]),
    )


def heis_point(spec, g, v):
    """The point of the pair (g, v) of an H class: (-c, g0, g1, 1), with c
    the corner of g v."""
    corner = spec.add(spec.add(g[2], v[2]), spec.mul(g[0], v[1]))
    return (spec.neg(corner), g[0], g[1], 1)


def dot4(spec, x, y):
    """x . y in the field's own arithmetic."""
    s = 0
    for i in range(4):
        s = spec.add(s, spec.mul(x[i], y[i]))
    return s


def t2_plane(spec, h, u):
    """The plane of the pair (h, u) of a T2 class, the dual of ``t2_point``."""
    return (
        spec.neg(spec.mul(u[0], h[1])),
        spec.mul(u[0], h[2]),
        1,
        spec.neg(spec.div(u[1], u[2])),
    )


def class_key(spec, group, g, v):
    """The class of the pair (g, v): (a_g a_v, c_g c_v) for T2, and
    (g1 + v1, g2 + v2) for H."""
    if group == T2:
        return (spec.mul(g[0], v[0]), spec.mul(g[2], v[2]))
    return (spec.add(g[0], v[0]), spec.add(g[1], v[1]))


def heis_point_by_key(spec, g, v, c2):
    """The point of the pair (g, v) of an H class with key (., c2), written
    with the key: g0 g1 - g2 - v2 - c2 g0 is minus the corner of g v."""
    w = spec.sub(
        spec.sub(spec.mul(g[0], g[1]), spec.add(g[2], v[2])),
        spec.mul(c2, g[0]),
    )
    return (w, g[0], g[1], 1)


def heis_plane(spec, h, u, c2):
    """The plane of the pair (h, u) of an H class with key (., c2)."""
    w = spec.add(
        spec.sub(spec.add(h[2], u[2]), spec.mul(u[0], u[1])),
        spec.mul(c2, u[0]),
    )
    return (1, u[1], spec.neg(u[0]), w)


def class_report_two_sided(spec, group, key, pairs, quadruples, constant=None):
    """A class's report with its two sides built and measured apart: each
    pair's point and plane (``t2_point``/``t2_plane`` or ``heis_point``/
    ``heis_plane``), ``dot4`` of every point with every plane, and each
    side's tuple-keyed line statistics (``collinear_stats_by_pairs``), with
    the smaller side's k as the bound reads it."""
    if group == T2:
        points = Counter(t2_point(spec, g, v) for g, v in pairs)
        planes = Counter(t2_plane(spec, g, v) for g, v in pairs)
    else:
        points = Counter(heis_point(spec, g, v) for g, v in pairs)
        planes = Counter(heis_plane(spec, g, v, key[1]) for g, v in pairs)
    incidences = sum(
        wp * wpl
        for pt, wp in points.items()
        for pl, wpl in planes.items()
        if dot4(spec, pt, pl) == 0
    )
    point_stats, plane_stats = (
        CollinearStats(len(side), sum(side.values()), *collinear_stats_by_pairs(spec, dict(side)))
        for side in (points, planes)
    )
    k = point_stats.max_distinct if len(points) <= len(planes) else plane_stats.max_distinct
    return ClassReport(
        key=key,
        pair_count=len(pairs),
        quadruples=quadruples,
        incidences=incidences,
        match=quadruples == incidences,
        point_stats=point_stats,
        plane_stats=plane_stats,
        bound=incidence_bound(incidences, len(points), len(planes), max(k, 1), constant),
        points_within_field_square=len(points) <= spec.p**2,
        planes_within_field_square=len(planes) <= spec.p**2,
    )


# -- witness recounts: one fiber of a profile, from its witness ----------------


def count_in_diag_fiber(A, a, c):
    return sum(1 for w in A.wires if w[0] == a and w[2] == c)


def count_in_ratio_fiber(A, chi):
    spec = A.spec
    return sum(1 for w in A.wires if spec.div(w[0], w[2]) == chi)


def count_in_torus_coset(A, x, y):
    """#{g in A : g.a * x + g.b = g.c * y}.

    Varying (x, y) over F_q^2 ranges over every left coset of every torus
    stabilizer, so the max of this count over (x, y) is the m1 profile.
    """
    spec = A.spec
    return sum(
        1 for w in A.wires if spec.add(spec.mul(w[0], x), w[1]) == spec.mul(w[2], y)
    )


def count_in_base_fiber(A, g1, g2):
    return sum(1 for w in A.wires if w[0] == g1 and w[1] == g2)


def count_on_line(A, alpha, beta, gamma):
    spec = A.spec
    return sum(
        1 for w in A.wires if spec.add(spec.mul(alpha, w[0]), spec.mul(beta, w[1])) == gamma
    )


def piece_elements(A, piece):
    """The elements of A whose scalar coset (b/a, c/a) is one of the piece's keys."""
    spec = A.spec
    keys = set(piece.keys)
    return GroupSet(
        T2,
        spec,
        [w for w in A.wires if (spec.div(w[1], w[0]), spec.div(w[2], w[0])) in keys],
    )


def affine_part(spec, g):
    """Scale the T2 triple g to a unit (2,2) slot: (a/c, b/c, 1).

    This is the projection to the affine group {(a, b, 1)}; its kernel is
    the scalar subgroup.
    """
    ci = spec.inv(g[2])
    return (spec.mul(g[0], ci), spec.mul(g[1], ci), 1)


def fraction_from_json(obj):
    return Fraction(obj["num"], obj["den"])


# -- the written JSON form ------------------------------------------------------


def canonical_text(obj):
    """The stdlib's canonical indented rendering, which ``write_json`` streams."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
