"""Report assembly: sections, exit codes, determinism, flat CSV projection."""

import csv
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import F5, F7, F9, F101
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


def test_run_options_validation():
    with pytest.raises(ParameterError):
        RunOptions(bridge="sometimes")
    with pytest.raises(ParameterError):
        RunOptions(lemma_k=0)


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
