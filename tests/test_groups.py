"""Group laws, structure maps, named subgroups, and coset bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import F5, F7, F9, F16, F101, SMALL_FIELDS, group_wires
from matgrowth.errors import CapExceeded, MismatchError, ParameterError
from matgrowth.groups import (
    GroupSet,
    SubgroupTag,
    check_group_wire,
    generated_closure,
    gid,
    ginv,
    gmul,
    group_order,
    key_wires,
    pair_keys,
    wire_key,
)
from matgrowth.ffield import standard_field
from matgrowth.growth import coset_count_check
from oracles import affine_part, coset_partition

AMBIENTS = [(spec, group) for spec in SMALL_FIELDS for group in ("T2", "H")]
AMBIENT_IDS = [f"{group}-q{spec.q}" for spec, group in AMBIENTS]


def all_wires(spec, group):
    q = spec.q
    if group == "T2":
        return [
            (a, b, c)
            for a in range(1, q)
            for b in range(q)
            for c in range(1, q)
        ]
    return [(x, y, z) for x in range(q) for y in range(q) for z in range(q)]


# -- wire kernels -------------------------------------------------------------


def test_t2_product_by_hand():
    # (2,1,3)(4,2,2) over F5: a=2*4, b=2*2+1*2, c=3*2
    assert gmul(F5, "T2", (2, 1, 3), (4, 2, 2)) == (3, 1, 1)


def test_heis_product_by_hand():
    # corner picks up the cross term g1*h2
    assert gmul(F5, "H", (1, 2, 3), (2, 0, 4)) == (3, 2, 2)
    assert gmul(F5, "H", (2, 0, 4), (1, 2, 3)) == (3, 2, 1)


def test_t2_inverse_by_hand():
    assert ginv(F5, "T2", (2, 1, 3)) == (3, 4, 2)


def test_heis_inverse_by_hand():
    assert ginv(F5, "H", (1, 2, 3)) == (4, 3, 4)


@pytest.mark.parametrize("spec,group", AMBIENTS, ids=AMBIENT_IDS)
@given(data=st.data())
def test_associativity(spec, group, data):
    g = data.draw(group_wires(spec, group))
    h = data.draw(group_wires(spec, group))
    k = data.draw(group_wires(spec, group))
    left = gmul(spec, group, gmul(spec, group, g, h), k)
    right = gmul(spec, group, g, gmul(spec, group, h, k))
    assert left == right


@pytest.mark.parametrize("spec,group", AMBIENTS, ids=AMBIENT_IDS)
@given(data=st.data())
def test_identity_and_inverse(spec, group, data):
    g = data.draw(group_wires(spec, group))
    e = gid(group)
    assert gmul(spec, group, g, e) == g
    assert gmul(spec, group, e, g) == g
    gi = ginv(spec, group, g)
    assert gmul(spec, group, g, gi) == e
    assert gmul(spec, group, gi, g) == e


def test_identity_wires():
    assert gid("T2") == (1, 0, 1)
    assert gid("H") == (0, 0, 0)


def test_check_group_wire_rejects_bad_triples():
    with pytest.raises(ParameterError):
        check_group_wire(F5, "T2", (0, 1, 1))
    with pytest.raises(ParameterError):
        check_group_wire(F5, "T2", (1, 1, 0))
    with pytest.raises(ParameterError):
        check_group_wire(F5, "T2", (1, 2))
    with pytest.raises(ParameterError):
        check_group_wire(F5, "H", (1, 2, 5))
    with pytest.raises(ParameterError):
        check_group_wire(F5, "H", (1, -1, 0))
    # degenerate diagonal entries are fine in H, just not in T2
    assert check_group_wire(F5, "H", (0, 0, 0)) == (0, 0, 0)


# -- structure maps -----------------------------------------------------------


def commutator(spec, group, g, h):
    """g^-1 h^-1 g h on wire triples."""
    gi, hi = ginv(spec, group, g), ginv(spec, group, h)
    return gmul(spec, group, gmul(spec, group, gi, hi), gmul(spec, group, g, h))


def test_commutator_is_central_in_heisenberg():
    # base coordinates cancel, the corner keeps g1*h2 - g2*h1
    c = commutator(F5, "H", (1, 2, 3), (2, 0, 4))
    assert c == (0, 0, 1)
    for x in all_wires(F5, "H"):
        assert gmul(F5, "H", c, x) == gmul(F5, "H", x, c)


@given(data=st.data())
def test_commutator_lands_in_unipotent(data):
    g = data.draw(group_wires(F7, "T2"))
    h = data.draw(group_wires(F7, "T2"))
    c = commutator(F7, "T2", g, h)
    assert c[0] == 1 and c[2] == 1


@given(data=st.data())
def test_diag_ratio_is_multiplicative(data):
    # a / c maps T2 onto F_q*; its fibers are the scaled-unipotent cosets
    g = data.draw(group_wires(F9, "T2"))
    h = data.draw(group_wires(F9, "T2"))
    gh = gmul(F9, "T2", g, h)
    assert F9.div(gh[0], gh[2]) == F9.mul(F9.div(g[0], g[2]), F9.div(h[0], h[2]))


@given(data=st.data())
def test_diag_part_is_a_homomorphism(data):
    def diag_part(w):
        return (w[0], 0, w[2])

    g = data.draw(group_wires(F5, "T2"))
    h = data.draw(group_wires(F5, "T2"))
    assert diag_part(gmul(F5, "T2", g, h)) == gmul(F5, "T2", diag_part(g), diag_part(h))


@given(data=st.data())
def test_affine_part_is_a_homomorphism(data):
    g = data.draw(group_wires(F7, "T2"))
    h = data.draw(group_wires(F7, "T2"))
    assert affine_part(F7, gmul(F7, "T2", g, h)) == gmul(
        F7, "T2", affine_part(F7, g), affine_part(F7, h)
    )
    assert affine_part(F7, g)[2] == 1


def test_affine_part_kernel_is_the_scalars():
    for w in all_wires(F5, "T2"):
        in_kernel = affine_part(F5, w) == gid("T2")
        assert in_kernel == (w[0] == w[2] and w[1] == 0)


# -- canonical sets -----------------------------------------------------------


PAIR_KEY_FIELDS = [standard_field(q) for q in (5, 9, 16, 25, 101, 128, 243, 256, 59049, 65521, 65536)]


@pytest.mark.parametrize("group", ["T2", "H"])
@pytest.mark.parametrize("spec", PAIR_KEY_FIELDS, ids=lambda spec: f"q{spec.q}")
@given(data=st.data())
def test_pair_keys_are_the_keys_of_the_products(spec, group, data):
    # prime fields, and the exp/log tables with XOR (F_16, F_128, F_256,
    # F_65536) or one Zech lookup (F_9, F_25, F_243, F_59049) alike
    wires = st.lists(group_wires(spec, group), max_size=6)
    xs, ys = data.draw(wires), data.draw(wires)
    want = [wire_key(spec, gmul(spec, group, x, y)) for x in xs for y in ys]
    assert list(pair_keys(spec, group, xs, ys)) == want
    assert list(key_wires(spec, want)) == [gmul(spec, group, x, y) for x in xs for y in ys]


@pytest.mark.parametrize("group", ["T2", "H"])
@pytest.mark.parametrize("q", [4, 9, 16, 25, 27, 64, 128, 243, 256, 59049, 65536])
def test_pair_keys_over_the_log_tables_meet_every_zero(q, group):
    # coordinates 0, 1, t and -t: products and sums that vanish, through
    # the zero tail of the exp table and every region of the padded Zech
    # table (a zero operand on either side, both, and x + y = 0)
    spec = standard_field(q)
    t = min(7, q - 1)
    coords = sorted({0, 1, t, spec.neg(t)})
    units = [c for c in coords if c]
    wires = [
        (a, b, c)
        for a in (units if group == "T2" else coords)
        for b in coords
        for c in (units if group == "T2" else coords)
    ]
    want = [wire_key(spec, gmul(spec, group, x, y)) for x in wires for y in wires]
    assert list(pair_keys(spec, group, wires, wires)) == want


@pytest.mark.parametrize("spec,group", AMBIENTS, ids=AMBIENT_IDS)
def test_group_order_counts_the_wires(spec, group):
    assert group_order(spec, group) == len(all_wires(spec, group))


def test_wire_key_is_injective():
    keys = {wire_key(F5, w) for w in all_wires(F5, "H")}
    assert len(keys) == 125


def test_group_set_canonical_order():
    wires = [(4, 4, 4), (1, 0, 1), (2, 3, 1)]
    a = GroupSet("T2", F5, wires)
    b = GroupSet("T2", F5, reversed(wires))
    assert a.wires == b.wires == ((1, 0, 1), (2, 3, 1), (4, 4, 4))
    assert a == b
    assert hash(a) == hash(b)


def test_group_set_deduplicates():
    a = GroupSet("H", F5, [(1, 2, 3), (1, 2, 3), (0, 0, 0)])
    assert len(a) == 2


def test_group_set_validates_wires():
    with pytest.raises(ParameterError):
        GroupSet("T2", F5, [(0, 1, 1)])
    with pytest.raises(ParameterError):
        GroupSet("X", F5, [(1, 0, 1)])


def test_group_set_contains_both_forms():
    a = GroupSet("T2", F5, [(2, 1, 3)])
    assert (2, 1, 3) in a
    assert [2, 1, 3] in a
    assert (1, 0, 1) not in a
    # over F_101, (0, 101, 0) packs to the key of (1, 0, 0): no triple with a
    # coordinate outside 0..q-1 may alias an element through the packing
    outside = [(0, 101, 0), (0, 101, 1), (1, -1, 102), (0, 0, 101 * 101 + 1), (2, -101, 1),
               (-1, 0, 1), (1, 0, 1, 0), (1, 0), (), [1, 0, 1, 0]]
    for group, wires in [("T2", [(1, 0, 1)]), ("H", [(1, 0, 1), (1, 0, 0)])]:
        b = GroupSet(group, F101, wires)
        assert all(w in b and list(w) in b for w in wires)
        assert not any(w in b for w in outside)


@given(data=st.data())
def test_symmetrized_properties(data):
    spec = data.draw(st.sampled_from(SMALL_FIELDS))
    group = data.draw(st.sampled_from(["T2", "H"]))
    wires = data.draw(
        st.lists(group_wires(spec, group), min_size=1, max_size=8, unique=True)
    )
    a = GroupSet(group, spec, wires)
    s = a.symmetrized()
    assert a.subset_of(s)
    assert s.is_symmetric
    assert s.has_identity
    assert a.inverses().subset_of(s)
    # symmetrizing twice changes nothing
    assert s.symmetrized() == s


def test_union_and_subset():
    a = GroupSet("H", F5, [(1, 0, 0)])
    b = GroupSet("H", F5, [(0, 1, 0)])
    u = a.union(b)
    assert len(u) == 2
    assert a.subset_of(u) and b.subset_of(u)
    assert not u.subset_of(a)


def test_mixed_ambient_rejected():
    a = GroupSet("T2", F5, [(1, 0, 1)])
    b = GroupSet("T2", F7, [(1, 0, 1)])
    with pytest.raises(MismatchError):
        a.union(b)
    with pytest.raises(MismatchError):
        a.subset_of(GroupSet("H", F5, [(0, 0, 0)]))


def test_inverses_involution():
    a = GroupSet("T2", F5, [(2, 1, 3), (4, 0, 2)])
    assert a.inverses().inverses() == a


# -- generated closures -------------------------------------------------------


def test_closure_of_unipotent_generator():
    seeds = GroupSet("T2", F7, [(1, 1, 1)])
    closed = generated_closure(seeds)
    assert len(closed) == 7
    assert all(w[0] == 1 and w[2] == 1 for w in closed.wires)


def test_closure_of_scalar_generator():
    # 3 generates F7* so the closure is the full scalar subgroup
    closed = generated_closure(GroupSet("T2", F7, [(3, 0, 3)]))
    assert len(closed) == 6


def test_closure_cap_reports_partial_size():
    seeds = GroupSet("T2", F101, [(2, 1, 1), (1, 0, 3)])
    with pytest.raises(CapExceeded) as exc:
        generated_closure(seeds, cap=50)
    assert exc.value.partial_size == 51


@given(data=st.data())
def test_closure_is_a_subgroup(data):
    spec = data.draw(st.sampled_from([F5, F7]))
    group = data.draw(st.sampled_from(["T2", "H"]))
    wires = data.draw(
        st.lists(group_wires(spec, group), min_size=1, max_size=2, unique=True)
    )
    closed = generated_closure(GroupSet(group, spec, wires))
    assert closed.has_identity
    assert closed.is_symmetric
    for g in closed.wires[:6]:
        for h in closed.wires[:6]:
            assert gmul(spec, group, g, h) in closed


# -- named subgroups ----------------------------------------------------------

T2_TAGS = [
    SubgroupTag("unipotent"),
    SubgroupTag("scalars"),
    SubgroupTag("diagonal"),
    SubgroupTag("torus", x=0),
    SubgroupTag("torus", x=2),
    SubgroupTag("scaled_torus", x=3),
    SubgroupTag("scaled_unipotent"),
]
H_TAGS = [
    SubgroupTag("center"),
    SubgroupTag("line", direction=(0, 1)),
    SubgroupTag("line", direction=(3, 0)),
    SubgroupTag("line_center", direction=(1, 2)),
    SubgroupTag("line_center", direction=(0, 4)),
]
ALL_TAGS = T2_TAGS + H_TAGS


def tag_id(tag):
    parts = [tag.kind]
    if tag.x is not None:
        parts.append(str(tag.x))
    if tag.direction is not None:
        parts.append(f"{tag.direction[0]}_{tag.direction[1]}")
    return "-".join(parts)


def test_tag_constructor_rejections():
    with pytest.raises(ParameterError):
        SubgroupTag("borel")
    with pytest.raises(ParameterError):
        SubgroupTag("torus")
    with pytest.raises(ParameterError):
        SubgroupTag("unipotent", x=1)
    with pytest.raises(ParameterError):
        SubgroupTag("line")
    with pytest.raises(ParameterError):
        SubgroupTag("line", direction=(0, 0))
    with pytest.raises(ParameterError):
        SubgroupTag("scalars", direction=(1, 0))


def test_tag_group_assignment():
    assert SubgroupTag("diagonal").group == "T2"
    assert SubgroupTag("center").group == "H"


TAG_FIELDS = [F5, F9, F16]


def sample_of(ambient):
    """Every third element of the ambient group: a set whose coset fibers
    differ in size."""
    return GroupSet(ambient.group, ambient.spec, ambient.wires[::3])


@pytest.mark.parametrize("tag", ALL_TAGS, ids=tag_id)
def test_member_matches_elements(tag):
    for spec in TAG_FIELDS:
        hs = tag.elements(spec)
        listed = set(hs.wires)
        ambient = GroupSet(tag.group, spec, all_wires(spec, tag.group))
        for w in ambient.wires:
            assert tag.member(spec, w) == (w in listed)
        assert tag.members(ambient) == hs
        sample = sample_of(ambient)
        assert tag.members(sample) == GroupSet(tag.group, spec, listed.intersection(sample.wires))


def test_subgroup_sizes():
    q = 5
    expected = {
        "unipotent": q,
        "scalars": q - 1,
        "diagonal": (q - 1) ** 2,
        "torus": (q - 1) ** 2,
        "scaled_torus": (q - 1) ** 2,
        "scaled_unipotent": q * (q - 1),
        "center": q,
        "line": q,
        "line_center": q * q,
    }
    for tag in ALL_TAGS:
        assert len(tag.elements(F5)) == expected[tag.kind]


def tags_over(spec):
    top = spec.q - 1
    plain = ("unipotent", "scalars", "diagonal", "scaled_unipotent", "center")
    return [SubgroupTag(kind) for kind in plain] + [
        SubgroupTag("torus", x=0),
        SubgroupTag("torus", x=top),
        SubgroupTag("scaled_torus", x=1),
        SubgroupTag("line", direction=(0, 1)),
        SubgroupTag("line", direction=(1, 0)),
        SubgroupTag("line", direction=(1, top)),
        SubgroupTag("line_center", direction=(0, 1)),
        SubgroupTag("line_center", direction=(1, top)),
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_order_is_the_size_of_the_built_subgroup(q):
    spec = standard_field(q)
    for tag in tags_over(spec):
        hs = tag.elements(spec)
        assert tag.order(spec) == len(hs), tag
        if tag.is_subgroup(spec):
            # what the report's subgroup entry states without building H
            assert coset_count_check(hs, tag) == (True, len(hs), len(hs)), tag


def test_scaled_torus_is_the_torus():
    # the scalars already live inside every torus, so scaling adds nothing
    assert SubgroupTag("scaled_torus", x=3).elements(F7) == SubgroupTag(
        "torus", x=3
    ).elements(F7)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=tag_id)
def test_subgroup_closure(tag):
    spec = F5
    if not tag.is_subgroup(spec):
        pytest.skip("member set is not closed")
    hs = tag.elements(spec)
    assert hs.has_identity
    assert hs.is_symmetric
    for g in hs.wires:
        for h in hs.wires:
            assert gmul(spec, tag.group, g, h) in hs


def test_skew_line_is_not_a_subgroup():
    tag = SubgroupTag("line", direction=(1, 1))
    assert not tag.is_subgroup(F5)
    hs = tag.elements(F5)
    # the corner of a product of two base points picks up a cross term
    escaped = [
        gmul(F5, "H", g, h)
        for g in hs.wires
        for h in hs.wires
        if gmul(F5, "H", g, h) not in hs
    ]
    assert escaped


@pytest.mark.parametrize("tag", ALL_TAGS, ids=tag_id)
def test_is_normal_matches_conjugation(tag):
    spec = F5
    if not tag.is_subgroup(spec):
        pytest.skip("member set is not closed")
    hs = tag.elements(spec)
    stable = all(
        gmul(spec, tag.group, gmul(spec, tag.group, g, h), ginv(spec, tag.group, g))
        in hs
        for g in all_wires(spec, tag.group)
        for h in hs.wires
    )
    assert stable == tag.is_normal


@pytest.mark.parametrize("tag", ALL_TAGS, ids=tag_id)
def test_coset_key_partitions_like_explicit_cosets(tag):
    if not tag.is_subgroup(F5):
        pytest.skip("member set is not closed")
    for spec in TAG_FIELDS:
        ambient = GroupSet(tag.group, spec, all_wires(spec, tag.group))
        samples = [sample_of(ambient)]
        if spec == F5:  # the oracle multiplies out every coset of every element
            samples.append(ambient)
        for S in samples:
            keys = tag.keys(S)
            assert keys == [tag.coset_key(spec, w) for w in S.wires]
            blocks = {}
            for key, w in zip(keys, S.wires):
                blocks.setdefault(key, []).append(w)
            assert sorted(blocks.values()) == coset_partition(S, tag)
            assert tag.fibers(S) == {key: len(block) for key, block in blocks.items()}


def test_coset_key_rejects_skew_line():
    tag = SubgroupTag("line", direction=(1, 1))
    with pytest.raises(ParameterError):
        tag.coset_key(F5, (1, 0, 0))


def test_explicit_coset():
    tag = SubgroupTag("unipotent")
    rep = (3, 0, 1)
    cs = tag.coset(F7, rep)
    assert len(cs) == 7
    keys = {tag.coset_key(F7, w) for w in cs.wires}
    assert keys == {tag.coset_key(F7, rep)}
    assert set(cs.wires) == {gmul(F7, "T2", rep, h) for h in tag.elements(F7).wires}
    assert tag.coset(F7, [3, 0, 1]) == cs


def test_coset_validates_the_representative():
    with pytest.raises(ParameterError):
        SubgroupTag("unipotent").coset(F7, (0, 0, 1))  # not invertible
    with pytest.raises(ParameterError):
        SubgroupTag("center").coset(F5, (1, 2, 5))  # coordinate out of range
    with pytest.raises(ParameterError):
        SubgroupTag("center").coset(F5, (1, 2))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=tag_id)
def test_tag_json_round_trip(tag):
    assert SubgroupTag.from_json(tag.to_json()) == tag


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "line_center", "direction": ["1", 2.5]},
        {"kind": "line_center", "direction": [1, 2.5]},
        {"kind": "line", "direction": [True, 1]},
        {"kind": "line", "direction": [1, 2, 3]},
        {"kind": "line", "direction": "12"},
        {"kind": "torus", "x": 2.0},
        {"kind": "torus", "x": "2"},
        {"kind": ["torus"], "x": 2},
        ["unipotent"],
    ],
)
def test_tag_from_json_needs_exact_json_types(obj):
    with pytest.raises(ParameterError):
        SubgroupTag.from_json(obj)


def test_direction_is_stored_projectively():
    a = SubgroupTag("line", direction=(2, 4))
    b = SubgroupTag("line", direction=(1, 2))
    assert a._normal_wires(F5) == b._normal_wires(F5)
