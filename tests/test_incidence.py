"""The energy-to-incidence bridge and the synthetic probe instances."""

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import F5, F7, F9, F16, F25, F101, group_sets, group_wires, small_sets
from matgrowth import incidence, standard_field
from matgrowth.config import Caps, RunOptions
from matgrowth.cosets import heis_profile, t2_profile
from matgrowth.errors import CapExceeded, ParameterError
from matgrowth.groups import GroupSet, SubgroupTag, ginv, gmul
from matgrowth.growth import Products, energy
from matgrowth.jsonio import digest
from matgrowth.reports import bridge_json, run_report
from matgrowth.setfiles import box_set, build_setfile, load_setfile
from matgrowth.incidence import (
    WeightedInstance,
    bridge_report,
    build_instance,
    class_points,
    class_report,
    collinear_stats,
    incidence_count,
    line_groups,
    oriented_bound,
    pair_classes,
    phi,
    probe_instance,
    quadruple_count,
    random_instance,
)
from oracles import (
    class_key,
    class_report_two_sided,
    collinear_stats_by_pairs,
    dot4,
    heis_plane,
    heis_point,
    heis_point_by_key,
    line_groups_by_pairs,
    max_collinear,
    probe_two_sided,
    quadruple_count_by_definition,
    t2_plane,
    t2_point,
)


# -- classes and the corner identity -------------------------------------------


@given(small_sets(max_size=8))
def test_pair_classes_cover_all_pairs(a):
    classes = pair_classes(a)
    assert sum(len(pairs) for pairs in classes.values()) == len(a) ** 2
    assert list(classes) == sorted(classes)
    for key, pairs in classes.items():
        for g, v in pairs:
            assert class_key(a.spec, a.group, g, v) == key


@settings(max_examples=30)
@given(small_sets(max_size=5))
def test_corner_identity_inside_classes(a):
    # with the class key fixed, the remaining corner equation is exactly
    # the vanishing of a four-coordinate dot product
    spec, group = a.spec, a.group
    for key, pairs in pair_classes(a).items():
        for g, v in pairs:
            if group == "T2":
                pt = t2_point(spec, g, v)
            else:
                pt = heis_point(spec, g, v)
            gi = ginv(spec, group, g)
            for h, u in pairs:
                if group == "T2":
                    pl = t2_plane(spec, h, u)
                else:
                    pl = heis_plane(spec, h, u, key[1])
                same = gmul(spec, group, gi, h) == gmul(
                    spec, group, ginv(spec, group, u), v
                )
                assert same == (dot4(spec, pt, pl) == 0)


def test_tuple_normalizations():
    g, v = (2, 1, 3), (4, 2, 2)
    assert t2_point(F5, g, v)[0] == 1
    assert t2_plane(F5, g, v)[2] == 1
    gh, vh = (1, 2, 3), (2, 0, 4)
    assert heis_point(F5, gh, vh)[3] == 1
    assert heis_plane(F5, gh, vh, 2)[0] == 1


@settings(max_examples=20)
@given(small_sets(max_size=6))
def test_bridge_reproduces_the_energy(a):
    report = bridge_report(a)
    assert report.matches_energy
    assert report.total_quadruples == report.total_incidences == energy(a)
    assert report.total_pairs == len(a) ** 2
    assert report.class_count == len(report.classes)
    for cls in report.classes:
        assert cls.match
        assert cls.quadruples == cls.incidences


@given(small_sets(max_size=6))
def test_class_weights_count_pairs(a):
    report = bridge_report(a)
    assert sum(cls.pair_count for cls in report.classes) == len(a) ** 2
    for cls, (key, pairs) in zip(report.classes, pair_classes(a).items()):
        assert cls.key == key
        inst = build_instance(a.spec, a.group, pairs)
        assert sum(inst.points.values()) == sum(inst.planes.values()) == len(pairs)


@settings(max_examples=20)
@given(group_sets(F5, "T2", 2, 8))
def test_t2_line_weight_within_profile_sum(a):
    # the heaviest line on the point side never outweighs m1 + m2
    prof = t2_profile(a)
    cap = prof.m1.value + prof.m2.value
    for cls in bridge_report(a).classes:
        assert cls.point_stats.max_weight <= cap
        assert cls.plane_stats.max_weight <= cap


@settings(max_examples=20)
@given(group_sets(F5, "H", 2, 8))
def test_heis_line_weight_within_profile(a):
    # vertical lines can stack a full base fiber against itself
    prof = heis_profile(a)
    cap = max(prof.line_max.value, prof.base_max.value ** 2)
    for cls in bridge_report(a).classes:
        assert cls.point_stats.max_weight <= cap
        assert cls.plane_stats.max_weight <= cap


def test_bridge_rejects_empty():
    with pytest.raises(ParameterError):
        bridge_report(GroupSet("T2", F5, []))


def test_bridge_on_a_subgroup():
    a = GroupSet("T2", F5, [(1, b, 1) for b in range(5)])
    report = bridge_report(a)
    assert report.energy == 125
    assert report.matches_energy
    # all pairs share the single class key (1, 1)
    assert report.class_count == 1
    assert report.classes[0].key == (1, 1)


@st.composite
def bridge_sets(draw, specs=(F5, F7, F9, F25, F101)):
    """Random sets, coordinate boxes, Heisenberg bricks, subgroups and cosets
    of T2 and H over prime and extension fields."""
    spec = draw(st.sampled_from(specs))
    group = draw(st.sampled_from(["T2", "H"]))
    kind = draw(st.sampled_from(["random", "box", "subgroup", "coset"]))
    if kind == "random":
        return draw(group_sets(spec, group, 1, 12))
    if kind == "box":
        if group == "H" and spec is F101 and draw(st.booleans()):
            return box_set(spec, 2)
        low = 1 if group == "T2" else 0
        xs, ys, zs = [
            draw(st.lists(st.integers(lo, spec.q - 1), min_size=1, max_size=3, unique=True))
            for lo in (low, 0, low)
        ]
        return GroupSet(group, spec, [(x, y, z) for x in xs for y in ys for z in zs])
    if group == "T2":
        kinds = ["unipotent", "scalars", "diagonal", "torus", "scaled_torus", "scaled_unipotent"]
    else:
        kinds = ["center", "line", "line_center"]
    tag_kind = draw(st.sampled_from(kinds))
    coord = st.integers(0, spec.q - 1)
    if tag_kind in ("torus", "scaled_torus"):
        tag = SubgroupTag(tag_kind, x=draw(coord))
    elif tag_kind in ("line", "line_center"):
        tag = SubgroupTag(tag_kind, direction=draw(st.tuples(coord, coord).filter(any)))
    else:
        tag = SubgroupTag(tag_kind)
    assume(tag.order(spec) <= 30)
    if kind == "subgroup":
        return tag.elements(spec)
    return tag.coset(spec, draw(group_wires(spec, group)))


@settings(max_examples=120)
@given(bridge_sets())
def test_quadruple_join_matches_the_per_class_loop(a):
    classes = pair_classes(a)
    assume(sum(len(pairs) ** 2 for pairs in classes.values()) <= 20_000)
    counts = quadruple_count(a, classes)
    assert list(counts) == list(classes)
    for key, pairs in classes.items():
        assert counts[key] == quadruple_count_by_definition(a.spec, a.group, pairs)
    # every solution lies inside one class, so the classes add up to the energy
    assert sum(counts.values()) == energy(a)


F4, F8 = standard_field(4), standard_field(8)
# the largest prime that takes the dense tables, and the least above it
F127, F131 = standard_field(127), standard_field(131)


@settings(max_examples=150)
@given(bridge_sets(specs=(F4, F5, F7, F8, F9, F25, F101, F127, F131)))
def test_class_reports_match_the_two_sided_oracle(a):
    # classes of one or two points (closed form), of pairwise lines only
    # (the key-only pass) and with longer lines (the anchor pass) alike,
    # on both sides of DENSE_FIELD
    classes = pair_classes(a)
    assume(sum(len(pairs) ** 2 for pairs in classes.values()) <= 20_000)
    counts = quadruple_count(a, classes)
    for key, pairs in classes.items():
        got = class_report(a.spec, a.group, key, pairs, counts[key])
        assert got == class_report_two_sided(a.spec, a.group, key, pairs, counts[key])


@pytest.mark.parametrize("name", ["t2_f9_random25", "h_f25_random12", "h_f5_random20", "box2_f101"])
def test_every_class_shape_of_the_corpus_matches_the_two_sided_oracle(name):
    a = load_setfile(CORPUS / f"{name}.json").elements
    classes = pair_classes(a)
    counts = quadruple_count(a, classes)
    shapes = Counter()
    for key, pairs in classes.items():
        got = class_report(a.spec, a.group, key, pairs, counts[key])
        assert got == class_report_two_sided(a.spec, a.group, key, pairs, counts[key])
        stats = got.point_stats
        if stats.count <= 2:
            shapes["small"] += 1
        else:
            shapes["pairwise" if stats.max_distinct == 2 else "lines"] += 1
    if name == "t2_f9_random25":
        assert set(shapes) == {"small", "pairwise", "lines"}


SWAP_FIELDS = [standard_field(q) for q in (4, 5, 8, 9, 25, 101, 127, 131, 243, 256, 65521)]


@st.composite
def swap_cases(draw):
    """A field up to the top of the range, a group, two group elements and
    two 4-tuples."""
    spec = draw(st.sampled_from(SWAP_FIELDS))
    group = draw(st.sampled_from(["T2", "H"]))
    coord = st.integers(0, spec.q - 1)
    vec = st.tuples(coord, coord, coord, coord)
    wires = group_wires(spec, group)
    return spec, group, draw(wires), draw(wires), draw(vec), draw(vec)


@settings(max_examples=200)
@given(swap_cases())
def test_phi_maps_each_point_to_the_plane_of_the_swapped_pair(case):
    spec, group, g, v, _, _ = case
    if group == "T2":
        assert phi(spec, group, t2_point(spec, g, v)) == t2_plane(spec, v, g)
    else:
        c2 = class_key(spec, group, g, v)[1]
        assert phi(spec, group, heis_point(spec, g, v)) == heis_plane(spec, v, g, c2)


@settings(max_examples=200)
@given(swap_cases())
def test_x_dot_phi_y_is_alternating(case):
    spec, group, _, _, x, y = case
    assert dot4(spec, x, phi(spec, group, x)) == 0
    assert dot4(spec, x, phi(spec, group, y)) == spec.neg(dot4(spec, y, phi(spec, group, x)))


@given(bridge_sets(specs=(F4, F5, F9, F101)))
def test_pair_classes_are_closed_under_the_swap(a):
    for pairs in pair_classes(a).values():
        assert {(v, g) for g, v in pairs} == set(pairs)


def test_a_bridge_runs_one_anchor_pass_per_class_of_three_points_and_builds_no_plane(monkeypatch):
    passes = []
    anchor_pass = incidence._lines
    monkeypatch.setattr(
        incidence, "_lines", lambda spec, pts: passes.append(len(pts)) or anchor_pass(spec, pts)
    )
    calls = Counter()
    for name in ("build_instance", "incidence_count", "phi"):
        def counted(*args, _name=name, _orig=getattr(incidence, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(incidence, name, counted)
    for name in ("t2_f9_random25", "h_f5_random20", "box2_f101"):
        a = load_setfile(CORPUS / f"{name}.json").elements
        classes = pair_classes(a)
        counts = quadruple_count(a, classes)
        for key, pairs in classes.items():
            passes.clear()
            report = class_report(a.spec, a.group, key, pairs, counts[key])
            assert len(passes) == (report.point_stats.count >= 3)
        passes.clear()
        report = bridge_report(a)
        assert len(passes) == sum(cls.point_stats.count >= 3 for cls in report.classes)
    assert not calls


def merged_key(key, g, v):
    return (0, 0)


def split_key(key, g, v):
    return (*key, g[1] % 2)


@pytest.mark.parametrize("group", ["T2", "H"])
@pytest.mark.parametrize("sabotage", [merged_key, split_key])
def test_a_sabotaged_class_key_breaks_the_energy_match(monkeypatch, group, sabotage):
    a = GroupSet(group, F7, [(1 + i % 6, (3 * i) % 7, 1 + (5 * i) % 6) for i in range(12)])
    assert bridge_report(a).matches_energy
    # pair_classes is the one owner of the class keys: rebin its classes
    real = incidence.pair_classes

    def sabotaged(A, cap=Caps.max_pair_products):
        out = {}
        for key, pairs in real(A, cap).items():
            for g, v in pairs:
                out.setdefault(sabotage(key, g, v), []).append((g, v))
        return dict(sorted(out.items()))

    monkeypatch.setattr(incidence, "pair_classes", sabotaged)
    classes = incidence.pair_classes(a)
    counts = quadruple_count(a, classes)
    for key, pairs in classes.items():
        assert counts[key] == quadruple_count_by_definition(a.spec, a.group, pairs)
    report = bridge_report(a)
    assert not report.matches_energy
    if sabotage is split_key:
        # solutions across the split are dropped by the join itself
        assert report.total_quadruples < report.energy


# -- collinearity -------------------------------------------------------------


def test_three_collinear_points_form_one_line():
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]
    lines = line_groups(F5, pts)
    assert len(lines) == 1
    (members,) = lines.values()
    assert len(members) == 3


def test_collinear_stats_edges():
    empty, no_image = collinear_stats(F5, {})
    assert no_image is None
    assert (empty.count, empty.max_distinct, empty.max_weight) == (0, 0, 0)
    single = collinear_stats(F5, {(1, 2, 3, 4): 7})[0]
    assert (single.count, single.max_distinct, single.max_weight) == (1, 1, 7)
    pair, no_image = collinear_stats(F5, {(1, 0, 0, 0): 2, (0, 1, 0, 0) : 3})
    assert no_image is None
    assert pair.max_distinct == 2
    assert pair.max_weight == 5
    assert pair.witness is not None


@given(st.integers(0, 2**32), st.integers(4, 25), st.integers(4, 25))
def test_collinear_stats_match_minor_oracle(seed, n_points, n_planes):
    inst = random_instance(F7, n_points, n_planes, seed)
    stats = collinear_stats(F7, inst.points)[0]
    assert stats.max_distinct == max_collinear(7, list(inst.points))
    plstats = collinear_stats(F7, inst.planes)[0]
    assert plstats.max_distinct == max_collinear(7, list(inst.planes))


@st.composite
def weighted_tuples(draw):
    """Weighted 4-tuples over prime and extension fields, on both sides of
    ``DENSE_FIELD``: F_4 to F_127 take tabulated dense tables, prime or
    not, and F_131, F_256, F_257 and F_343 tables computed on read.  All
    on one line, free, on the twisted cubic (only two-point lines), just
    two, two led by nonzero coordinates with the second scaled off its
    normal form, the zero tuple beside one or two others, or two shaped
    like a bridge's points (1, x, y, z) or planes (a, b, 1, c), with
    proportional copies mixed in."""
    spec = draw(st.sampled_from([
        standard_field(4), F5, F7, F9, F16, F25, F101, F127,
        F131, standard_field(256), standard_field(257), standard_field(343),
    ]))
    coord = st.integers(0, spec.q - 1)
    vec = st.tuples(coord, coord, coord, coord)
    shape = draw(st.sampled_from(["line", "free", "cubic", "two", "scaled", "zero", "unit"]))
    if shape == "line":
        u, v = draw(vec), draw(vec)
        pts = [
            tuple(spec.add(spec.mul(s, x), spec.mul(t, y)) for x, y in zip(u, v))
            for s, t in draw(st.lists(st.tuples(coord, coord), max_size=12))
        ]
    elif shape == "cubic":
        # no three points of (1, t, t^2, t^3) are collinear
        ts = draw(st.lists(coord, max_size=12, unique=True))
        pts = [(1, t, spec.mul(t, t), spec.power(t, 3)) for t in ts]
    elif shape == "two":
        pts = draw(st.lists(vec, min_size=2, max_size=2))
    elif shape == "scaled":
        x = draw(st.integers(1, spec.q - 2))
        y = draw(st.integers(x + 1, spec.q - 1))  # not the field's one: y >= 2
        pts = [(x, *draw(st.tuples(coord, coord, coord))), (y, *draw(st.tuples(coord, coord, coord)))]
    elif shape == "zero":
        pts = [(0, 0, 0, 0), *draw(st.lists(vec, min_size=1, max_size=2))]
    elif shape == "unit":
        point = st.tuples(st.just(1), coord, coord, coord)
        plane = st.tuples(coord, coord, st.just(1), coord)
        pts = draw(st.lists(draw(st.sampled_from([point, plane])), min_size=2, max_size=2))
    else:
        pts = draw(st.lists(vec, max_size=12))
    copies = st.tuples(st.integers(0, 11), st.integers(1, spec.q - 1))
    for at, c in draw(st.lists(copies, max_size=4)):
        if at < len(pts):
            pts.append(tuple(spec.mul(c, x) for x in pts[at]))
    return spec, {t: draw(st.integers(1, 9)) for t in pts}


@settings(max_examples=500)
@given(weighted_tuples())
def test_collinearity_matches_the_pair_oracle(case):
    # one reduced form per pair of tuples, against the anchor-key pass
    spec, weighted = case
    assert line_groups(spec, weighted) == line_groups_by_pairs(spec, weighted)
    stats = collinear_stats(spec, weighted)[0]
    assert (stats.count, stats.total_weight) == (len(weighted), sum(weighted.values()))
    assert (stats.max_distinct, stats.max_weight, stats.witness) == collinear_stats_by_pairs(
        spec, weighted
    )


def test_proportional_tuples_join_every_line_through_their_twin():
    # (2,0,0,0) ~ (1,0,0,0) sits on both lines through (1,0,0,0)
    pts = [(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    lines = line_groups(F5, pts)
    assert lines == line_groups_by_pairs(F5, pts)
    assert sorted(len(m) for m in lines.values()) == [2, 3, 3]
    stats = collinear_stats(F5, {(1, 0, 0, 0): 1, (2, 0, 0, 0): 1})[0]
    assert (stats.max_distinct, stats.witness) == (1, None)


@settings(max_examples=40)
@given(small_sets(max_size=6))
def test_incidence_count_matches_dot4(a):
    # prime fields test integer dot products directly; F9 keeps dot4
    for key, pairs in pair_classes(a).items():
        inst = build_instance(a.spec, a.group, pairs)
        want = sum(
            wp * wpl
            for pt, wp in inst.points.items()
            for pl, wpl in inst.planes.items()
            if dot4(a.spec, pt, pl) == 0
        )
        assert incidence_count(inst) == want


F128 = standard_field(128)
F243 = standard_field(243)


def sets_over(*specs, max_size=10):
    return st.sampled_from(specs).flatmap(
        lambda spec: st.sampled_from(["T2", "H"]).flatmap(
            lambda group: group_sets(spec, group, 1, max_size)
        )
    )


F256, F65536 = standard_field(256), standard_field(65536)


@settings(max_examples=80)
@given(sets_over(F5, F9, F101, F131, F256, F65536, max_size=8))
def test_class_keys_and_points_match_the_forms_written_with_the_key(a):
    # a class key is read off the packed product, and H's point off the
    # product's corner: the forms that take both from the pair's
    # coordinates agree, on both sides of DENSE_FIELD
    spec, group = a.spec, a.group
    for key, pairs in pair_classes(a).items():
        assert all(class_key(spec, group, g, v) == key for g, v in pairs)
        points = class_points(spec, group, pairs)
        if group == "T2":
            assert points == Counter(t2_point(spec, g, v) for g, v in pairs)
        else:
            old = Counter(heis_point_by_key(spec, g, v, key[1]) for g, v in pairs)
            assert Counter(heis_point(spec, g, v) for g, v in pairs) == old == points


def incidences_by_dot4(inst):
    return sum(
        wp * wpl
        for pt, wp in inst.points.items()
        for pl, wpl in inst.planes.items()
        if dot4(inst.spec, pt, pl) == 0
    )


@settings(max_examples=60)
@given(sets_over(F5, F7, F101))
def test_build_instance_matches_the_point_and_plane_maps(a):
    # the points are looked up in the dense tables; the maps stay their oracle
    spec, group = a.spec, a.group
    for key, pairs in pair_classes(a).items():
        inst = build_instance(spec, group, pairs)
        if group == "T2":
            points = Counter(t2_point(spec, g, v) for g, v in pairs)
            planes = Counter(t2_plane(spec, g, v) for g, v in pairs)
        else:
            points = Counter(heis_point(spec, g, v) for g, v in pairs)
            planes = Counter(heis_plane(spec, g, v, key[1]) for g, v in pairs)
        assert inst.points == points and inst.planes == planes


@settings(max_examples=60)
@given(sets_over(F9, F25, F128))
def test_join_and_incidences_match_their_oracles_over_extension_fields(a):
    # the join keys its buckets and the incidence count adds through dense tables
    classes = pair_classes(a)
    counts = quadruple_count(a, classes)
    for key, pairs in classes.items():
        assert counts[key] == quadruple_count_by_definition(a.spec, a.group, pairs)
        inst = build_instance(a.spec, a.group, pairs)
        assert incidence_count(inst) == incidences_by_dot4(inst) == counts[key]


@settings(max_examples=30)
@given(st.sampled_from([F9, F25, F128, F243]), st.integers(0, 2**32 - 1))
def test_probe_incidences_match_dot4_over_extension_fields(spec, seed):
    inst = random_instance(spec, 25, 30, seed)
    assert incidence_count(inst) == incidences_by_dot4(inst)


def test_bridge_loops_refuse_past_the_pair_cap():
    a = GroupSet("T2", F5, [(1, b, 1) for b in range(5)])
    classes = pair_classes(a)
    (key, pairs), = classes.items()
    inst = build_instance(F5, "T2", pairs)
    n_pts, n_pls = len(inst.points), len(inst.planes)
    with pytest.raises(CapExceeded, match="pair classes of 5 x 5 elements"):
        pair_classes(a, cap=24)
    with pytest.raises(CapExceeded, match="quadruple count of 25 x 25 pairs"):
        quadruple_count(a, classes, cap=624)
    with pytest.raises(CapExceeded, match="incidence count of"):
        incidence_count(inst, cap=n_pts * n_pls - 1)
    with pytest.raises(CapExceeded, match="collinearity pass of"):
        collinear_stats(F5, inst.points, cap=n_pts * n_pts - 1)
    # at the cap each loop runs
    assert quadruple_count(a, classes, cap=625) == {key: incidence_count(inst, cap=n_pts * n_pls)}
    # bridge_report takes its cap from the shared Products
    with pytest.raises(CapExceeded, match="quadruple count"):
        bridge_report(Products(a, Caps(max_pair_products=600)))
    assert bridge_report(Products(a, Caps(max_pair_products=625))).matches_energy


def per_class_refusal(a, cap):
    """The first refusal of the per-class loops, walked class by class:
    quadruples, incidences, then collinearity of points and of planes."""
    for key, pairs in pair_classes(a).items():
        inst = build_instance(a.spec, a.group, pairs)
        pts, pls = (sum(1 for t in side if any(t)) for side in (inst.points, inst.planes))
        for what, n, m, items in (
            ("quadruple count", len(pairs), len(pairs), "pairs"),
            ("incidence count", len(inst.points), len(inst.planes), "tuples"),
            ("collinearity pass", pts, pts, "tuples"),
            ("collinearity pass", pls, pls, "tuples"),
        ):
            if n * m > cap:
                return f"{what} of {n} x {m} {items} exceeds pair cap {cap}"
    return None


def test_bridge_refuses_where_the_per_class_loops_did(monkeypatch):
    # classes of 25, 30 and 9 pairs, each longer than |A|^2 = 64 but the last:
    # at every cap the bridge gives the per-class walk's first refusal, and
    # the only group products that run are those of A x A that key the
    # classes, none of the join's quotients
    a = GroupSet("T2", F7, [(1, b, 1) for b in range(5)] + [(2, b, 2) for b in range(3)])
    sizes = {len(pairs) for pairs in pair_classes(a).values()}
    products = []
    pair_keys = incidence.pair_keys
    monkeypatch.setattr(
        incidence, "pair_keys", lambda *args: products.append(args[2]) or pair_keys(*args)
    )
    for cap in sorted({len(a) ** 2} | {c * c - 1 for c in sizes} | {c * c for c in sizes}):
        if cap < len(a) ** 2:
            continue
        want = per_class_refusal(a, cap)
        products.clear()
        if want is None:
            assert bridge_report(Products(a, Caps(max_pair_products=cap))).matches_energy
        else:
            with pytest.raises(CapExceeded) as refused:
                bridge_report(Products(a, Caps(max_pair_products=cap)))
            assert str(refused.value) == want
            assert products == [a.wires]


def test_probe_refuses_past_the_default_pair_cap():
    # 3163^2 > 10^7: refused before the first dot product
    side = range(3163)
    inst = WeightedInstance(
        spec=F101,
        points={(1, i % 101, i // 101, 0): 1 for i in side},
        planes={(i % 101, i // 101, 1, 0): 1 for i in side},
    )
    with pytest.raises(CapExceeded, match="incidence count of 3163 x 3163 tuples"):
        probe_instance(inst)


def test_weighted_incidence_count():
    inst = WeightedInstance(
        spec=F5,
        points={(1, 0, 0, 0): 2, (1, 1, 0, 0): 1},
        planes={(0, 1, 0, 0): 3, (1, 0, 0, 0): 1},
    )
    # only (1,0,0,0).(0,1,0,0) vanishes, with weights 2 and 3
    assert incidence_count(inst) == 6


def test_oriented_bound_uses_the_smaller_side():
    small = collinear_stats(F5, {(1, 0, 0, 0): 1, (1, 1, 0, 0): 1})[0]
    large = collinear_stats(
        F5, {(0, 1, 0, 0): 1, (0, 1, 1, 0): 1, (0, 1, 2, 0): 1}
    )[0]
    got = oriented_bound(4, small, large)
    assert got.lhs == 4
    # swapping roles leaves the oriented bound unchanged
    assert oriented_bound(4, large, small) == got


# -- synthetic probes -----------------------------------------------------------


@settings(max_examples=60)
@given(
    st.sampled_from([F5, F7, F9, F25, F101]),
    st.integers(1, 20),
    st.integers(1, 20),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_probe_matches_the_two_sided_oracle(spec, n_points, n_planes, square, seed):
    # one collinearity pass, on the side the bound reads; |P| = |Pi| reads the points
    if square:
        n_planes = n_points
    inst = random_instance(spec, n_points, n_planes, seed)
    assert probe_instance(inst) == probe_two_sided(inst)


def test_probe_reads_the_collinearity_of_its_smaller_side_only():
    # the planes' pass, 3,200^2 > 10^7 pairs, is refused; the bound reads only the points'
    inst = random_instance(F101, 4, 3200, seed=1)
    with pytest.raises(CapExceeded, match="collinearity pass of 3200 x 3200 tuples"):
        collinear_stats(F101, inst.planes)
    probe = probe_instance(inst)
    assert (probe.point_count, probe.plane_count) == (4, 3200)
    assert probe.max_collinear == max_collinear(101, list(inst.points))
    assert probe.incidences == incidences_by_dot4(inst)


def test_a_probe_builds_no_line_key(monkeypatch):
    # every line of these 40 points holds two, so a witness would cost a
    # key-only pass over all 780 pairs; the anchor pass keys lines by
    # direction over every field, below DENSE_FIELD and above it
    calls = []
    line_keys = incidence._line_keys

    def counted(spec):
        calls.append(spec)
        return line_keys(spec)

    monkeypatch.setattr(incidence, "_line_keys", counted)
    for spec in (F101, standard_field(65521), F65536):
        inst = random_instance(spec, 40, 40, seed=1)
        probe = probe_instance(inst)
        assert (probe.max_collinear, calls) == (2, [])
        assert collinear_stats(spec, inst.points)[0].max_distinct == 2 and calls
        calls.clear()
        assert probe == probe_two_sided(inst)


def test_random_instance_is_deterministic():
    a = random_instance(F7, 12, 15, seed=5)
    b = random_instance(F7, 12, 15, seed=5)
    assert a.points == b.points and a.planes == b.planes
    c = random_instance(F7, 12, 15, seed=6)
    assert c.points != a.points


def test_random_instance_shapes():
    inst = random_instance(F5, 10, 11, seed=1)
    assert len(inst.points) == 10 and len(inst.planes) == 11
    assert all(t[0] == 1 for t in inst.points)
    assert all(t[2] == 1 for t in inst.planes)
    assert all(w == 1 for w in inst.points.values())


def test_random_instance_rejections():
    with pytest.raises(ParameterError):
        random_instance(F5, 0, 5, seed=1)
    with pytest.raises(ParameterError):
        random_instance(F5, 126, 5, seed=1)


def test_probe_anchor():
    inst = random_instance(F7, 40, 55, seed=42)
    probe = probe_instance(inst)
    assert probe.point_count == 40
    assert probe.plane_count == 55
    assert probe.incidences == 275
    assert probe.max_collinear == 4
    assert probe.bound.holds
    assert probe.points_within_field_square
    assert not probe.planes_within_field_square


# -- the whole bridge on the pinned corpus ------------------------------------

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
# report digest and exit code of every corpus set with ``bridge`` forced
# "on", pinned from the per-pair collinearity and binary-search constants
BRIDGE_ON_DIGESTS = {
    "t2_f5_random20": ("759e4bd2d872f3c1c66788f76661e15c95af29f4a8d9455340a8bb849da98aa9", 2),
    "t2_f5_random24": ("7cf4fe6314fd300331648268362d90cf6f62cee4be714efdd88bc5c7446f1c68", 2),
    "t2_f9_random25": ("118b744395f544f2118a383faa7d261c199537205a6d81bffc19ff78940c3a6b", 2),
    "t2_f7_random24": ("8e3710d907a93f2350275f6faaeecf5b1a123aab9d5533cab70240dc1123e00a", 0),
    "t2_f7_random40": ("6f67330acd4af9a32b82ccbe5ead17fef76919d0096202f746064f9cdec90607", 2),
    "t2_f25_random20": ("9fb30af7da398ef8cb14961141d4b6d1b81f2de5fd2eefdfdbef29ff2a40c8fd", 0),
    "t2_f101_random30": ("ea05310726d4f30f88cdc5b0498633a7bd23fe54f34f6e14ee472589d60001d3", 0),
    "h_f5_random20": ("fa081189f39c2075520a563d19f29d5d5ebfbea1df0d35a1c70b70d986373ff8", 2),
    "h_f25_random12": ("bb693b327346f0d946cf169d84e343bb03c31e8f79e91b6a1fad5f5e8ae788af", 0),
    "h_f101_random30": ("a86a751348f0ef0b18b72f48d2feb80c7134ba898af1bb550e8250fd8df294b8", 0),
    "box2_f101": ("8d23f710887f0de8b7296ee4c5c1d4a999f0ddef5ffd729d96e66590858962ad", 0),
    "box3_f101": ("25ba6eaf55ccc2d92003d38e26a1d02e346f90ede2a0e34663a81683e1a98eb0", 0),
    "u2_f7": ("964827a5afae1ea262ff34aa5211f7a3086922ef55cd7d9e8fe455c48198c0a2", 0),
    "torus0_f5": ("6c6ef1dc59b197f2b45428809c11b9eede822df66e760bdaf9f3410f522e7db5", 0),
    "lambdau2_coset_f7_sample30": ("59b853781b248b9ad37a72bcd3d506cb7a8bb39196795d9b9879e4171a3bc684", 2),
    "t2f4_in_f16": ("024257a03f28108d501ba32e89c9c601848bd529501656e91e2723007217490e", 2),
}


@pytest.mark.parametrize("name", sorted(BRIDGE_ON_DIGESTS))
def test_corpus_bridge_on_digests_are_pinned(name):
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    (entry,) = [e for e in manifest["sets"] if e["name"] == name]
    sf = load_setfile(CORPUS / entry["file"])
    report, code = run_report(sf, RunOptions.from_json({**entry["options"], "bridge": "on"}))
    assert "error" not in report["bridge"]
    assert (digest(report), code) == BRIDGE_ON_DIGESTS[name]


# the incidence benchmark workload's seed-1 bridge sets: mostly classes of
# two pairs, whose collinearity is closed-form; digests of ``bridge_json``
# pinned from the anchor pass that handled every class alike
SEEDED_BRIDGE_DIGESTS = {
    ("T2", 2163162059): (750, "bcfa639aed365cade5e251b235c6ef8c91d5a0f780a0b75a9ea2efe31d833eac"),
    ("H", 3820259167): (794, "0fe2397491feb80b1eb33ff2c7d0bf61c49cee6c06f6585f5a017d70421183f2"),
}


@pytest.mark.parametrize("group, seed", sorted(SEEDED_BRIDGE_DIGESTS))
def test_seeded_f101_bridge_digests_are_pinned(group, seed):
    sf = build_setfile(group, F101, {"kind": "random", "size": 40, "seed": seed})
    br = bridge_report(sf.elements)
    assert br.matches_energy
    assert (br.class_count, digest(bridge_json(br))) == SEEDED_BRIDGE_DIGESTS[group, seed]
