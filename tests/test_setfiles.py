"""Set-file serialization, generator recipes, and regeneration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import F5, F7, F9, F101
from matgrowth.errors import ParameterError
from matgrowth.ffield import standard_field
from matgrowth.groups import GroupSet, SubgroupTag
from matgrowth.setfiles import (
    SET_SCHEMA,
    box_set,
    build_setfile,
    explicit_setfile,
    generate,
    load_setfile,
    perturbed_coset,
    random_set,
    regenerate,
    save_setfile,
    setfile_from_json,
)


# -- generators ----------------------------------------------------------------


@given(st.integers(0, 2**63 - 1), st.integers(1, 30))
def test_random_set_is_deterministic(seed, size):
    a = random_set("T2", F7, size, seed)
    b = random_set("T2", F7, size, seed)
    assert a == b
    assert len(a) == size


def test_random_set_respects_the_group():
    a = random_set("T2", F5, 60, seed=3)
    assert all(w[0] != 0 and w[2] != 0 for w in a.wires)
    h = random_set("H", F5, 100, seed=3)
    assert len(h) == 100


def test_random_set_size_guards():
    with pytest.raises(ParameterError):
        random_set("T2", F5, 0, seed=1)
    with pytest.raises(ParameterError):
        random_set("T2", F5, 81, seed=1)  # group order is 80
    # the full group is reachable
    assert len(random_set("T2", F5, 80, seed=1)) == 80


def test_box_set_shape():
    box = box_set(F101, 2)
    assert len(box) == 16
    assert all(w[0] < 2 and w[1] < 2 and w[2] < 4 for w in box.wires)
    assert box.group == "H"


def test_box_set_guards():
    with pytest.raises(ParameterError):
        box_set(F5, 2)  # 5 <= 3 * 4, products would wrap
    with pytest.raises(ParameterError):
        box_set(F9, 1)  # not a prime field
    with pytest.raises(ParameterError):
        box_set(F101, 0)


def test_perturbed_coset_anchor():
    tag = SubgroupTag("scaled_unipotent")
    rep = (3, 0, 1)
    a = perturbed_coset(tag, F7, rep, swaps=4, seed=77)
    b = perturbed_coset(tag, F7, rep, swaps=4, seed=77)
    assert a == b
    assert len(a) == 42
    base = tag.coset(F7, rep)
    swapped_out = [w for w in base.wires if w not in a]
    swapped_in = [w for w in a.wires if w not in base]
    assert len(swapped_out) == len(swapped_in) == 4


def test_perturbed_coset_zero_swaps_is_the_coset():
    tag = SubgroupTag("unipotent")
    rep = (2, 0, 1)
    assert perturbed_coset(tag, F5, rep, swaps=0, seed=9) == tag.coset(F5, rep)


@pytest.mark.parametrize("kind", ["unipotent", "scaled_unipotent"])
def test_perturbed_coset_of_the_whole_group_is_refused(kind):
    # over F_2 both cosets are all of T2(F_2), which has no outsider to
    # draw: refused before the draw, which would never end
    F2 = standard_field(2)
    gen = {"kind": "perturbed_coset", "tag": {"kind": kind}, "rep": [1, 0, 1], "swaps": 1, "seed": 1}
    with pytest.raises(ParameterError, match="no outsider"):
        generate("T2", F2, gen)
    assert generate("T2", F2, dict(gen, swaps=0)) == SubgroupTag(kind).elements(F2)


def test_generate_dispatch():
    sub = generate("T2", F5, {"kind": "subgroup", "tag": {"kind": "unipotent"}})
    assert len(sub) == 5
    cs = generate(
        "T2",
        F5,
        {"kind": "coset", "tag": {"kind": "unipotent"}, "rep": [2, 0, 1]},
    )
    assert len(cs) == 5 and (2, 0, 1) in cs
    rnd = generate("H", F7, {"kind": "random", "size": 10, "seed": 4})
    assert len(rnd) == 10
    box = generate("H", F101, {"kind": "box", "n": 3})
    assert len(box) == 81


def test_generate_union():
    gen = {
        "kind": "union",
        "parts": [
            {"kind": "subgroup", "tag": {"kind": "scalars"}},
            {"kind": "subgroup", "tag": {"kind": "unipotent"}},
        ],
    }
    got = generate("T2", F5, gen)
    assert len(got) == 8  # 4 scalars + 5 unipotents, identity shared


def test_generate_rejections():
    with pytest.raises(ParameterError):
        generate("T2", F5, {"kind": "warp"})
    with pytest.raises(ParameterError):
        generate("H", F5, {"kind": "subgroup", "tag": {"kind": "unipotent"}})
    with pytest.raises(ParameterError):
        generate("T2", F5, {"kind": "box", "n": 1})
    with pytest.raises(ParameterError):
        generate("T2", F5, {"kind": "union", "parts": []})
    with pytest.raises(ParameterError):
        generate("T2", F5, {"kind": "union", "parts": {"0": {"kind": "subgroup"}}})


UNIPOTENT = {"kind": "unipotent"}
FULL_RECIPES = [
    ("T2", {"kind": "random", "size": 12, "seed": 1}),
    ("T2", {"kind": "subgroup", "tag": UNIPOTENT}),
    ("T2", {"kind": "coset", "tag": UNIPOTENT, "rep": [2, 0, 1]}),
    ("H", {"kind": "box", "n": 3}),
    ("T2", {"kind": "perturbed_coset", "tag": UNIPOTENT, "rep": [2, 0, 1], "swaps": 1, "seed": 3}),
]


@pytest.mark.parametrize(
    "group, gen, missing",
    [
        pytest.param(group, gen, key, id=f"{gen['kind']}-{key}")
        for group, gen in FULL_RECIPES
        for key in gen
        if key != "kind"
    ],
)
def test_generate_names_a_missing_recipe_field(group, gen, missing):
    assert len(build_setfile(group, F101, gen).elements) > 0
    partial = {k: v for k, v in gen.items() if k != missing}
    with pytest.raises(ParameterError, match=f"{gen['kind']} generator recipe has no '{missing}'"):
        build_setfile(group, F101, partial)


@pytest.mark.parametrize(
    "group, gen",
    [
        ("T2", {"kind": "random", "size": "12", "seed": 1}),
        ("T2", {"kind": "random", "size": 12.9, "seed": 1}),
        ("T2", {"kind": "random", "size": 12, "seed": True}),
        ("H", {"kind": "box", "n": 3.0}),
        ("T2", {"kind": "coset", "tag": {"kind": "unipotent"}, "rep": ["2", 0, 1]}),
        ("T2", {"kind": "coset", "tag": {"kind": "unipotent"}, "rep": "201"}),
        ("T2", {"kind": "perturbed_coset", "tag": {"kind": "unipotent"},
                "rep": [2, 0, 1], "swaps": "1", "seed": 3}),
        ("T2", {"kind": "subgroup", "tag": {"kind": "torus", "x": 1.0}}),
        ("H", {"kind": "subgroup", "tag": {"kind": "line", "direction": ["1", 2.5]}}),
    ],
)
def test_generate_needs_json_integers(group, gen):
    with pytest.raises(ParameterError, match="must be a JSON"):
        generate(group, F101, gen)


# -- file round trips ------------------------------------------------------------


def test_setfile_round_trip(tmp_path):
    sf = build_setfile("T2", F9, {"kind": "random", "size": 12, "seed": 5})
    path = tmp_path / "sample.json"
    save_setfile(path, sf)
    back = load_setfile(path)
    assert back.group == sf.group
    assert back.spec == sf.spec
    assert back.generator == sf.generator
    assert back.elements == sf.elements


def test_setfile_json_shape():
    sf = explicit_setfile(GroupSet("H", F5, [(1, 2, 3), (0, 0, 0)]))
    obj = sf.to_json()
    assert obj["schema"] == SET_SCHEMA
    assert obj["generator"] is None
    assert obj["elements"] == [[0, 0, 0], [1, 2, 3]]


def test_setfile_rejects_unsorted_elements():
    sf = build_setfile("T2", F5, {"kind": "subgroup", "tag": {"kind": "scalars"}})
    obj = sf.to_json()
    obj["elements"].reverse()
    with pytest.raises(ParameterError):
        setfile_from_json(obj)


@pytest.mark.parametrize("bad", [[2.5, 0, 1], ["2", 0, 1], [True, 0, 1], "201", 2])
def test_setfile_elements_need_json_integers(bad):
    obj = explicit_setfile(GroupSet("T2", F5, [(1, 0, 1)])).to_json()
    obj["elements"] = [bad]
    with pytest.raises(ParameterError, match="lists of integers"):
        setfile_from_json(obj)


def test_setfile_rejects_corrupt_shapes():
    sf = explicit_setfile(GroupSet("T2", F5, [(1, 0, 1)]))
    good = sf.to_json()

    bad = dict(good, schema="matgrowth.set.v0")
    with pytest.raises(ParameterError):
        setfile_from_json(bad)

    bad = dict(good, group="SL2")
    with pytest.raises(ParameterError):
        setfile_from_json(bad)

    bad = dict(good, elements=[])
    with pytest.raises(ParameterError):
        setfile_from_json(bad)

    bad = dict(good, elements=[[0, 0, 1]])
    with pytest.raises(ParameterError):
        setfile_from_json(bad)


def test_elements_digest_tracks_content():
    a = explicit_setfile(GroupSet("T2", F5, [(1, 0, 1)]))
    b = explicit_setfile(GroupSet("T2", F5, [(2, 0, 1)]))
    assert len(a.elements_digest) == 64
    assert a.elements_digest != b.elements_digest
    assert a.elements_digest == explicit_setfile(a.elements).elements_digest


def test_regenerate_matches_stored_elements():
    sf = build_setfile("H", F7, {"kind": "random", "size": 9, "seed": 11})
    assert regenerate(sf) == sf.elements
    fixed = explicit_setfile(sf.elements)
    assert regenerate(fixed) is None
