"""Report assembly: sections, exit codes, determinism, flat CSV projection."""

import csv
import json
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import F5, F7, F9, F101
from matgrowth.cli import parse_tag
from matgrowth.config import Caps, RunOptions, StructureOptions
from matgrowth.errors import ParameterError
from matgrowth.ffield import standard_field
from matgrowth.groups import GroupSet, SubgroupTag
from matgrowth import growth
from matgrowth.growth import Products, energy
from matgrowth.jsonio import digest
from matgrowth.reports import (
    EXIT_CAPS,
    EXIT_FLAGS,
    EXIT_OK,
    REPORT_SCHEMA,
    default_subgroup,
    flatten_report,
    run_report,
    write_csv,
)
from matgrowth.setfiles import build_setfile, explicit_setfile, load_setfile

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def passing_setfile():
    # 12 random elements in T2(F7): all size hypotheses hold
    return build_setfile("T2", F7, {"kind": "random", "size": 12, "seed": 5})


def failing_setfile():
    # a single Heisenberg center column: base fiber 5 > sqrt(5)
    return explicit_setfile(GroupSet("H", F5, [(0, 0, t) for t in range(5)]))


def test_report_structure_and_exit_ok():
    sf = passing_setfile()
    rep, code = run_report(sf)
    assert code == EXIT_OK
    assert rep["schema"] == REPORT_SCHEMA
    assert rep["status"] == {"exit_code": 0, "issues": []}
    assert set(rep) == {
        "schema",
        "set",
        "options",
        "growth",
        "subgroup",
        "profile",
        "dyadic",
        "bounds",
        "bridge",
        "structure",
        "status",
    }
    assert rep["set"]["size"] == 12
    assert rep["set"]["elements_sha256"] == sf.elements_digest
    assert rep["structure"] == {"skipped": "disabled"}


def test_growth_section_numbers():
    sf = passing_setfile()
    rep, _ = run_report(sf)
    g = rep["growth"]
    a = sf.elements
    assert g["size"] == len(a)
    assert g["energy"] == energy(a)
    assert g["product_energy_dominated"] == (g["product_energy"] <= g["energy"])
    assert g["cauchy_schwarz_quotient"] and g["cauchy_schwarz_product"]
    assert g["tripling"] == {"num": g["cube_size"], "den": g["size"]}
    assert len(a) + 1 <= g["iterated_sizes"]["sym1"] <= 2 * len(a) + 1
    assert [p["name"] for p in g["lemma_checks"]] == ["three_step", "k_step[3]"]
    assert all(p["holds"] for p in g["lemma_checks"])


def test_profile_and_bounds_applicable():
    rep, _ = run_report(passing_setfile())
    prof = rep["profile"]
    assert prof["flags"] == {"whole_set": True, "per_piece": True}
    assert set(prof["m1"]) == {"value", "witness"}
    b = rep["bounds"]
    assert b["verdict"] == "applicable"
    assert b["constant_source"] == "fitted"
    assert b["energy_bound"]["holds"]
    assert b["product_prediction"]["holds"]


def test_failing_flags_exit_two():
    rep, code = run_report(failing_setfile())
    assert code == EXIT_FLAGS
    assert rep["status"]["issues"] == ["flag_square_shape"]
    assert rep["profile"]["flags"] == {"whole_set": True, "square_shape": False}
    assert rep["bounds"]["verdict"] == "informational"
    # the bounds themselves still hold, only the hypothesis is off
    assert rep["bounds"]["energy_bound"]["holds"]
    assert "dyadic" not in rep


def test_caps_exit_three():
    opts = RunOptions(caps=Caps(max_pair_products=10))
    rep, code = run_report(passing_setfile(), opts)
    assert code == EXIT_CAPS
    assert "error" in rep["growth"]


@pytest.mark.parametrize(
    "group, wires, pair_key",
    [
        ("T2", [(1, b, 1) for b in range(9)], "m1"),  # nine distinct lines
        ("H", [(x, 0, 0) for x in range(9)], "line_max"),  # nine base points
    ],
)
def test_profile_cap_keeps_the_linear_fibers(group, wires, pair_key):
    sf = explicit_setfile(GroupSet(group, F9, wires))
    full, _ = run_report(sf, RunOptions(bridge="off"))
    rep, code = run_report(sf, RunOptions(bridge="off", caps=Caps(max_pair_products=80)))
    assert code == EXIT_CAPS
    assert "exceeds pair cap 80" in rep["profile"][pair_key]["error"]
    for key in set(full["profile"]) - {pair_key}:
        assert rep["profile"][key] == full["profile"][key]
    assert rep["bounds"] == {"error": "prerequisite section failed"}


def test_structure_cap_errors_stay_in_their_scan():
    sf = passing_setfile()
    p = Products(sf.elements)
    one, two, three = (len(p.sym(k)) for k in (1, 2, 3))
    assert two * one < three * one
    # A(2) A(1) fits under the cap, A(3) A(1) (the fourth power) does not
    opts = RunOptions(structure=True, caps=Caps(max_pair_products=two * one))
    rep, code = run_report(sf, opts)
    assert code == EXIT_CAPS
    for name in ("growth", "subgroup", "profile", "bounds"):
        assert "error" not in rep[name]
    assert rep["structure"]["verdict"] == "POTENT"
    assert "error" in rep["structure"]["sum_product"]


def log_enumerations(monkeypatch) -> list:
    """Log the operands of every pair enumeration: product sets and
    counting passes, on the wire loops or the kernel."""
    seen = []
    enumerate_pairs = growth._enumerate

    def logged(X, Y, *args, **kwargs):
        seen.append((X.wires, Y.wires))
        return enumerate_pairs(X, Y, *args, **kwargs)

    monkeypatch.setattr(growth, "_enumerate", logged)
    return seen


# A(2) A(1) takes 6349 x 81 pairs, past growth.VECTOR_PAIRS
CROSSING_SET = build_setfile("T2", F101, {"kind": "random", "size": 40, "seed": 1})


@pytest.mark.parametrize(
    "sf",
    [
        load_setfile(CORPUS / "t2f4_in_f16.json"),
        load_setfile(CORPUS / "t2_f7_random24.json"),
        CROSSING_SET,
    ],
    ids=["t2f4_in_f16.json", "t2_f7_random24.json", "t2_f101_random40"],
)
def test_report_enumerates_each_product_once(monkeypatch, sf):
    """No pair enumeration runs twice over equal operands in one report."""
    seen = log_enumerations(monkeypatch)
    run_report(sf, RunOptions(structure=True))
    assert seen
    assert len(seen) == len(set(seen))
    if sf is CROSSING_SET:
        assert max(len(x) * len(y) for x, y in seen) >= growth.VECTOR_PAIRS


REACH_SET = explicit_setfile(GroupSet("T2", F101, [(1, 1, 1), (2, 0, 1), (3, 5, 1)]))


@pytest.mark.parametrize(
    "sf",
    [
        load_setfile(CORPUS / "t2f4_in_f16.json"),
        load_setfile(CORPUS / "t2_f7_random24.json"),
        REACH_SET,  # the lifted span is reached at A(7), after A(6) was built
    ],
    ids=["t2f4_in_f16", "t2_f7_random24", "reach7_f101"],
)
def test_deep_powers_are_enumerated_once(monkeypatch, sf):
    """With intersection_k = 3 the subgroup section builds A(6); the
    structure scan's reach search reads that ladder instead of rebuilding."""
    seen = log_enumerations(monkeypatch)
    opts = RunOptions(
        structure=True, intersection_k=3, structure_opts=StructureOptions(potent_exponent=0)
    )
    rep, _ = run_report(sf, opts)
    assert "error" not in rep["structure"]
    assert seen
    assert len(seen) == len(set(seen))


def test_pinned_constant_is_reported():
    opts = RunOptions(energy_constant=Fraction(1, 10**6))
    rep, code = run_report(passing_setfile(), opts)
    assert rep["bounds"]["constant_source"] == "pinned"
    assert not rep["bounds"]["energy_bound"]["holds"]
    assert code == EXIT_FLAGS
    assert "energy_bound" in rep["status"]["issues"]


def test_dyadic_section_shape():
    sf = passing_setfile()
    rep, _ = run_report(sf)
    pieces = rep["dyadic"]
    assert sum(pc["element_count"] for pc in pieces) == len(sf.elements)
    for pc in pieces:
        assert pc["coset_count"] == len(pc["coset_keys"])
        assert isinstance(pc["within_band_budget"], bool)


def test_subgroup_section_default_tag():
    rep, _ = run_report(passing_setfile())
    sub = rep["subgroup"]
    assert sub["tag"] == default_subgroup("T2").to_json()
    assert sub["normal"] is True
    assert all(entry["holds"] for entry in sub["coset_counts"].values())
    assert sub["covering"]["holds"]
    assert sub["intersection_power"]["k"] == 1
    assert sub["intersection_power"]["holds"]
    for sample in sub["orbit_stabilizer"].values():
        assert sample.get("holds", True)


def test_subgroup_override_non_normal():
    opts = RunOptions(subgroup=SubgroupTag("torus", x=0))
    rep, _ = run_report(passing_setfile(), opts)
    sub = rep["subgroup"]
    assert sub["normal"] is False
    assert sub["covering"] == {"skipped": "subgroup is not normal"}


def test_bridge_modes():
    sf = passing_setfile()
    rep, _ = run_report(sf, RunOptions(bridge="off"))
    assert rep["bridge"] == {"skipped": "disabled"}

    rep, _ = run_report(sf, RunOptions(bridge="auto", bridge_threshold=5))
    assert "skipped" in rep["bridge"]

    rep, _ = run_report(sf, RunOptions(bridge="on", bridge_threshold=5))
    assert rep["bridge"]["matches_energy"]
    assert rep["bridge"]["total_quadruples"] == rep["growth"]["energy"]


def test_structure_section_when_enabled():
    rep, _ = run_report(passing_setfile(), RunOptions(structure=True))
    assert rep["structure"]["verdict"] in ("POTENT", "UNIPOTENT", "INCONCLUSIVE")
    assert "sum_product" in rep["structure"]

    rep, _ = run_report(failing_setfile(), RunOptions(structure=True))
    assert rep["structure"] == {"skipped": "structure scan applies to T2 sets"}


def test_reports_are_deterministic_across_runs():
    sf = passing_setfile()
    rep1, _ = run_report(sf, RunOptions())
    rep2, _ = run_report(sf, RunOptions())
    assert digest(rep1) == digest(rep2)
    rep3, _ = run_report(sf, RunOptions())
    assert rep1 == rep3


def test_timings_are_opt_in():
    sf = failing_setfile()
    rep, _ = run_report(sf)
    assert "timings" not in rep
    rep, _ = run_report(sf, RunOptions(timings=True))
    assert set(rep["timings"]) >= {"growth", "profile", "bounds"}
    # nested steps (profile.m1, structure.sum_product) count toward their
    # section, so every key is a top-level section, as perfbench reads them
    sections = {"growth", "subgroup", "profile", "dyadic", "bounds", "bridge", "structure"}
    for caps in (Caps(), Caps(max_pair_products=80)):
        rep, _ = run_report(passing_setfile(), RunOptions(timings=True, structure=True, caps=caps))
        assert set(rep["timings"]) <= sections & set(rep)
    assert set(rep["timings"]) == sections - {"bounds"}  # bounds lacked its inputs


def test_run_options_validation():
    with pytest.raises(ParameterError):
        RunOptions(bridge="sometimes")
    with pytest.raises(ParameterError):
        RunOptions(lemma_k=0)
    for budget in (0, -1, 65):
        with pytest.raises(ParameterError, match=r"^reach budget must be in 1\.\.64$"):
            StructureOptions(reach_budget=budget)


def test_run_options_json_ignores_unknown_keys():
    assert RunOptions.from_json({"threads": 8, "lemma_k": 4}) == RunOptions(lemma_k=4)


@pytest.mark.parametrize(
    "obj",
    [{"structure": "false"}, {"structure": 1}, {"lemma_k": 2.5}, {"lemma_k": "4"},
     {"lemma_k": True}, {"structure_opts": {"reach_budget": "3"}}, {"structure_opts": 3},
     {"energy_constant": {"num": 1, "den": 0}}, []],
)
def test_run_options_json_needs_json_types(obj):
    with pytest.raises(ParameterError):
        RunOptions.from_json(obj)


@pytest.mark.parametrize("name", ["energy_constant", "incidence_constant"])
def test_run_options_refuse_a_negative_constant_by_name(name):
    # it used to reach the bound check and fail there with "sqrt comparison
    # needs nonnegative coef and radicand", which names no option
    with pytest.raises(ParameterError, match=f"^{name} must be nonnegative, got -1/2$"):
        RunOptions.from_json({name: {"num": -1, "den": 2}})
    assert getattr(RunOptions.from_json({name: {"num": 0, "den": 1}}), name) == 0


def test_every_run_option_is_in_the_manifest_or_out_of_band():
    """A field that is neither written by to_json() nor out of band (wall
    times, resource caps) cannot change a report: a dead knob."""
    opts = RunOptions(
        lemma_k=4,
        intersection_k=2,
        bridge="on",
        bridge_threshold=9,
        structure=True,
        structure_opts=StructureOptions(potent_exponent=3, potent_floor=2, reach_budget=5),
        subgroup=SubgroupTag("torus", x=3),
        energy_constant=Fraction(7, 2),
        incidence_constant=Fraction(1, 3),
        timings=True,
        caps=Caps(max_set_elements=99, max_pair_products=999),
    )
    written = set(opts.to_json())
    assert {f.name for f in fields(RunOptions)} == written | {"timings", "caps"}
    assert set(opts.structure_opts.to_json()) == {f.name for f in fields(StructureOptions)}
    assert RunOptions.from_json(opts.to_json()) == replace(opts, timings=False, caps=Caps())


def test_run_options_json_round_trip():
    opts = RunOptions(
        lemma_k=4,
        intersection_k=2,
        bridge="on",
        subgroup=SubgroupTag("torus", x=3),
        energy_constant=Fraction(7, 2),
    )
    back = RunOptions.from_json(opts.to_json())
    assert back.lemma_k == 4
    assert back.intersection_k == 2
    assert back.bridge == "on"
    assert back.subgroup == opts.subgroup
    assert back.energy_constant == Fraction(7, 2)


# -- flat projection -------------------------------------------------------------


def test_flatten_scalars_fractions_and_lists():
    rows = flatten_report(
        {
            "ratio": {"num": 3, "den": 2},
            "items": [{"x": 1}, {"x": None}],
            "flag": True,
        }
    )
    assert rows == [
        ("flag", "True"),
        ("items[0].x", "1"),
        ("items[1].x", ""),
        ("ratio", "3/2"),
    ]


def test_csv_projection_of_a_real_report(tmp_path):
    rep, _ = run_report(failing_setfile())
    out = tmp_path / "report.csv"
    write_csv(out, rep)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    assert len(rows) == len(flatten_report(rep)) + 1
    keys = [r[0] for r in rows[1:]]
    assert "growth.energy" in keys
    assert "status.exit_code" in keys


def test_subgroup_section_builds_no_subgroup(monkeypatch):
    # at F_1021 the default tag has 1020 * 1021 elements; the entry is closed-form
    sf = build_setfile("T2", standard_field(1021), {"kind": "random", "size": 12, "seed": 3})
    opts = RunOptions(bridge="off")
    before = run_report(sf, opts)

    def no_build(self, spec):
        raise AssertionError("the subgroup was built")

    monkeypatch.setattr(SubgroupTag, "elements", no_build)
    after = run_report(sf, opts)
    assert after == before
    order = 1020 * 1021
    assert after[0]["subgroup"]["coset_counts"]["subgroup"] == {
        "holds": True, "bound": order, "size": order,
    }


# Reports under the non-default subgroup tags, digests taken before the
# coset keys moved into ``SubgroupTag``: the corpus runs only the default
# tags, so these pin the keys, fibers and slices of every other kind (and
# the not-closed line marker), with the structure scan on for T2.
TAG_DIGESTS = [
    ("t2_f7_random24.json", "unipotent", "a8c93787152556fc12d97fc9021e86959c77399f20a2c7afb0a49892bd4785b4", 0),
    ("t2_f7_random24.json", "scalars", "b61e72f3862d3944a75f611553a181da937c48c2453912c2164fde40ea909c57", 0),
    ("t2_f7_random24.json", "diagonal", "1b56916e8fe1fc5350016aa1423afe038f74df761cade0f335d832042e6b7a52", 0),
    ("t2_f7_random24.json", "torus:2", "a6eaca4a641bcb5edcaf0a76a8bf869ad684cb37de2cbc5335e7befc9607cdca", 0),
    ("t2_f7_random24.json", "scaled_torus:3", "4f3bba17c35dde5c42753e43742990f68410f198be8aca488207d5b818777f7f", 0),
    ("t2_f9_random25.json", "unipotent", "b3929df8607f21d2f8a3ee3f31e225a5958dcb84ba28dee458c9eaa59d3fcc3f", 2),
    ("t2_f9_random25.json", "scalars", "26f8cb06ab4772aa8e4947f30d5d460bbb4f6fdce9dd6e1be6204f25e3ae0cb3", 2),
    ("t2_f9_random25.json", "diagonal", "a6840c852054d6d693df010eecc52af13d2ea64cbe7686bb28d1811eba675586", 2),
    ("t2_f9_random25.json", "torus:5", "9ab594bec89a91f9b404085b7d2486ec92188384a1397858ff903e1240bb67cc", 2),
    ("t2_f9_random25.json", "scaled_torus:8", "dfc9204e6104403734268059acaeeae02793b5a181796c40a4c6d86706bac28d", 2),
    ("h_f5_random20.json", "line:1,0", "a125dfe49dbe5ff789dcda9358cfe1cc29a975a9d2261117d8cf2288bbd94cd5", 2),
    ("h_f5_random20.json", "line:0,1", "e8f9ca6d8cee1badba28954a4b0abd08ad0265898fb298e420cd7687ac57256a", 2),
    ("h_f5_random20.json", "line_center:1,2", "e84131fa8689e2b2577ffb41d2d7f5971eb6f8e3d24bfad2c14fa65de6676d34", 2),
    ("h_f5_random20.json", "line:1,1", "4715ccd2d7f749535c15c005a2f350c921371bbe36427896bde1aebddac37e79", 2),
    ("h_f25_random12.json", "line:1,0", "1973d6d450f16a32c38343b7d225555503cfb2857de69a2e76de30067a1e6a7f", 0),
    ("h_f25_random12.json", "line:0,1", "3a2baa3ddb0982748681139dac87fac4430de045ae1ace4d460b8fa4b3c71cfa", 0),
    ("h_f25_random12.json", "line_center:1,2", "055bb0cdf3d133f02c6651167af32a12c2fd533cd9c345576473134611edeff5", 0),
    ("h_f25_random12.json", "line:1,1", "b7b8527b0a9f60e0c40dc12cc62b839d8ace376dc56773f8f6f7bc909ba86b96", 0),
]


@pytest.mark.parametrize(
    "name, tag, want, code", TAG_DIGESTS, ids=[f"{n[:-5]}-{t}" for n, t, _, _ in TAG_DIGESTS]
)
def test_non_default_tag_reports_are_pinned(name, tag, want, code):
    sf = load_setfile(CORPUS / name)
    opts = RunOptions(subgroup=parse_tag(tag), structure=sf.group == "T2")
    rep, got = run_report(sf, opts)
    assert (digest(rep), got) == (want, code)


# Capped reports, digests taken before the report's sections became
# module-level steps: each pins where its refusal lands and what the
# sections around it keep.
CAPPED_SETS = {
    "t2_12": passing_setfile,
    "h_20": lambda: build_setfile("H", F7, {"kind": "random", "size": 20, "seed": 1}),
    "t2_f9_lines": lambda: explicit_setfile(GroupSet("T2", F9, [(1, b, 1) for b in range(9)])),
    "h_f9_points": lambda: explicit_setfile(GroupSet("H", F9, [(x, 0, 0) for x in range(9)])),
    "t2_f101_unipotent": lambda: build_setfile(
        "T2", F101, {"kind": "subgroup", "tag": {"kind": "unipotent"}}
    ),
}
CAPPED_DIGESTS = [
    ("t2_12", {"caps": Caps(max_pair_products=1271)}, "cube",
     "468e9dd20711fc9cd960fc17c9429918d55365e242bd6600f1bcfdee33899090"),
    ("t2_12", {"caps": Caps(max_pair_products=4641)}, "lemma",
     "cba6ab3831215a60112ed2d414e14c2e75f11f0f930bd85ab0fb9a106e73e410"),
    ("h_20", {"caps": Caps(max_pair_products=4779)}, "cube",
     "73aec5a1f5082306fa7acc657230e2fba7e76502399fbe943a087d4170473d71"),
    ("h_20", {"caps": Caps(max_pair_products=13898)}, "lemma",
     "0dea5a1a4b42d77949f6de870d047d4e5ff3b32598db665f1cdb95c4d35c2587"),
    ("t2_f9_lines", {"bridge": "off", "caps": Caps(max_pair_products=80)}, "m1",
     "3b2841a0a42dc78e55c4020a78faebdf7df7054be8e65623d73d87dbc5f36c47"),
    ("h_f9_points", {"bridge": "off", "caps": Caps(max_pair_products=80)}, "line_max",
     "940ba7efb943bb789165d7c7ef4855ccb1d59f4d237eccc770038c754e83ac4d"),
    ("t2_12", {"structure": True, "caps": Caps(max_pair_products=900)}, "structure",
     "bd884f77a1cecb8b10ae7a8cfc47d54a32f26a3b96a9535db1b28ebd8b153b0f"),
    ("t2_12", {"structure": True, "caps": Caps(max_pair_products=4642)}, "sum_product",
     "bdfefa2df0fb5a8dd0367340b1965ffd04131a1c6b1d5f757fb50ae365ccda69"),
    ("t2_f101_unipotent", {"bridge": "on"}, "bridge",
     "3c82b23796a9499fe941f5132e25257e925cdf7797c75de4b403786e55e4fc21"),
]


@pytest.mark.parametrize(
    "name, options, refused, want",
    CAPPED_DIGESTS,
    ids=[f"{name}-{refused}" for name, _, refused, _ in CAPPED_DIGESTS],
)
def test_capped_reports_are_pinned(name, options, refused, want):
    rep, code = run_report(CAPPED_SETS[name](), RunOptions(**options))
    assert (digest(rep), code) == (want, EXIT_CAPS)


KEYED_SETS = {
    "t2_f7_random12": passing_setfile(),
    "t2_f101_random40": CROSSING_SET,
    "h_f7_random20": build_setfile("H", F7, {"kind": "random", "size": 20, "seed": 1}),
}


@pytest.mark.parametrize(
    "sf, arrays",
    [(sf, arrays) for sf in KEYED_SETS.values() for arrays in (True, False)],
    ids=[name + ("" if arrays else "-loops") for name in KEYED_SETS for arrays in (True, False)],
)
def test_report_reads_each_tags_keys_and_slice_once(monkeypatch, sf, arrays):
    """The subgroup checks, the profile and the dyadic split share A's coset
    keys per tag, and A^-1 A n H is cut out of the quotient once: on the
    array path, where the kernel builds the keys, and on the loop path."""
    from matgrowth import groups, kernel

    A = sf.elements
    quotient = Products(A).quotient
    keyed, built, sliced = [], [], []
    keys, fibers, members = SubgroupTag.keys, SubgroupTag.fibers, SubgroupTag.members

    def logged(log, fn):
        def wrapper(tag, S):
            log.append((tag, S))
            return fn(tag, S)
        return wrapper

    monkeypatch.setattr(SubgroupTag, "keys", logged(keyed, keys))
    monkeypatch.setattr(SubgroupTag, "fibers", logged(keyed, fibers))
    monkeypatch.setattr(SubgroupTag, "members", logged(sliced, members))
    monkeypatch.setattr(kernel, "coset_keys", logged(built, kernel.coset_keys))
    if not arrays:
        monkeypatch.setattr(groups, "_arrays", lambda S: False)
    _, code = run_report(sf, RunOptions(bridge="off"))
    assert code in (EXIT_OK, EXIT_FLAGS)
    of_a = [tag for tag, S in keyed if S is A]
    assert default_subgroup(A.group) in of_a
    assert len(of_a) == len(set(of_a))
    built_of_a = [tag for tag, S in built if S is A]
    assert len(built_of_a) == len(set(built_of_a))
    assert (default_subgroup(A.group) in built_of_a) == arrays
    assert [tag for tag, S in sliced if S == quotient] == [default_subgroup(A.group)]


def test_structure_report_reads_each_tags_keys_of_a_once(monkeypatch):
    """t2f4_in_f16 is its own A(1): the ratio image of both scans is read
    off A's scaled_unipotent fibers, which the profile already counted."""
    sf = load_setfile(CORPUS / "t2f4_in_f16.json")
    A = sf.elements
    keyed = []
    keys = SubgroupTag.keys
    monkeypatch.setattr(SubgroupTag, "keys", lambda tag, S: keyed.append((tag, S)) or keys(tag, S))
    rep, _ = run_report(sf, RunOptions(structure=True))
    assert rep["structure"]["verdict"] == "UNIPOTENT"
    of_a = [tag for tag, S in keyed if S is A]
    assert SubgroupTag("scaled_unipotent") in of_a
    assert len(of_a) == len(set(of_a))


def test_structure_scans_share_the_ratio_image_and_corner_span(monkeypatch):
    """t2f4_in_f16 takes the UNIPOTENT branch: the structure scan and the
    sum-product scan read one ratio image of A(1) and one corner span."""
    from matgrowth import structure

    calls = []
    for name in ("ratio_image", "unipotent_corners", "span_over_subfield"):
        fn = getattr(structure, name)
        monkeypatch.setattr(
            structure, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
        )
    sf = load_setfile(CORPUS / "t2f4_in_f16.json")
    rep, code = run_report(sf, RunOptions(structure=True))
    assert rep["structure"]["verdict"] == "UNIPOTENT"
    assert "error" not in rep["structure"]["sum_product"]
    assert sorted(calls) == ["ratio_image", "span_over_subfield", "unipotent_corners"]
    expected = json.loads((CORPUS / "expected.json").read_text())["t2f4_in_f16"]
    assert (digest(rep), code) == (expected["report_sha256"], expected["exit_code"])


@pytest.mark.parametrize(
    "group, tag, message",
    [
        ("T2", "center", "is not a T2 subgroup"),
        ("H", "unipotent", "is not a H subgroup"),
        # parameters out of range for F_7
        ("T2", "torus:7", "wire value 7 out of range for q = 7"),
        ("H", "line:7,1", "wire value 7 out of range for q = 7"),
    ],
    ids=["T2-center", "H-unipotent", "T2-torus:7", "H-line:7,1"],
)
def test_a_tag_of_the_other_group_is_refused_before_any_section(monkeypatch, group, tag, message):
    sf = build_setfile(group, F7, {"kind": "random", "size": 10, "seed": 1})
    seen = log_enumerations(monkeypatch)
    with pytest.raises(ParameterError, match=message):
        run_report(sf, RunOptions(subgroup=parse_tag(tag)))
    assert seen == []  # not even the growth section's energy pass ran
