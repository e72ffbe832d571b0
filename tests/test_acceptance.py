"""End-to-end acceptance gate, run against the pinned corpus in corpus/.

Each criterion is one test, executed in order; a [PASS]/[FAIL] line with
the elapsed time prints per criterion (visible under ``pytest -s`` and in
failure reports).  Frozen numbers here were produced by the independent
oracles in oracles.py and by scripts/pin_corpus.py at pin time.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import F7
from matgrowth import standard_field
from matgrowth.config import RunOptions
from matgrowth.cosets import heis_profile, t2_profile
from matgrowth.exact import (
    heis_energy_bound,
    heis_product_prediction,
    t2_energy_bound,
    t2_product_prediction,
)
from matgrowth.groups import SubgroupTag
from matgrowth.growth import (
    energy,
    energy_oracle,
    power_set,
    product_energy,
    product_set,
    quotient_set,
    symmetrized_power,
)
from matgrowth.incidence import bridge_report, probe_instance, random_instance
from matgrowth.jsonio import digest, read_json
from matgrowth.reports import run_report
from matgrowth.setfiles import load_setfile, random_set, regenerate
from matgrowth.structure import structure_scan
from oracles import fraction_from_json, max_collinear

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@contextmanager
def criterion(n: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {n}: {label}")
        raise
    print(f"\n[PASS] criterion {n}: {label} ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def corpus():
    manifest = read_json(CORPUS / "manifest.json")
    expected = read_json(CORPUS / "expected.json")
    sets = {
        row["name"]: (load_setfile(CORPUS / row["file"]), row["options"])
        for row in manifest["sets"]
    }
    assert len(sets) == 16
    return sets, expected


def test_criterion_01_energy_matches_quadruple_oracle():
    families = (("T2", 5, 9100), ("T2", 9, 9200), ("H", 5, 9300))
    with criterion(1, "hash-join energy equals the quadruple oracle, 150 random sets"):
        for group, q, base in families:
            spec = standard_field(q)
            for i in range(50):
                a = random_set(group, spec, 5 + i % 26, base + i)
                assert energy(a) == energy_oracle(a)


def test_criterion_02_unipotent_subgroup_energy():
    with criterion(2, "unipotent subgroup over F7: energy 343, square size 7"):
        u2 = SubgroupTag("unipotent").elements(F7)
        assert len(u2) == 7
        assert energy(u2) == 343 == len(u2) ** 3
        assert len(product_set(u2, u2)) == 7


def test_criterion_03_cauchy_schwarz_corpus_wide(corpus):
    sets, _ = corpus
    with criterion(3, "Cauchy-Schwarz in both forms, product energy dominated"):
        for name, (sf, _) in sets.items():
            a = sf.elements
            n = len(a)
            e = energy(a)
            estar = product_energy(a)
            assert e * len(quotient_set(a)) >= n**4, name
            assert estar * len(product_set(a, a)) >= n**4, name
            assert estar <= e, name


def test_criterion_04_three_step_growth_corpus_wide(corpus):
    sets, _ = corpus
    with criterion(4, "three-step growth inequality on every corpus set"):
        for name, (sf, _) in sets.items():
            a = sf.elements
            n = len(a)
            sym3 = len(symmetrized_power(a, 3))
            cube = len(power_set(a, 3))
            assert sym3 * n * n <= 27 * cube**3, name


def test_criterion_05_bridge_reproduces_energy(corpus):
    sets, _ = corpus
    with criterion(5, "incidence bridge matches the energy per class and in total"):
        ran = {"T2": 0, "H": 0}
        for name, (sf, _) in sets.items():
            a = sf.elements
            if len(a) > 25:
                continue
            br = bridge_report(a)
            assert br.total_quadruples == energy(a), name
            assert br.matches_energy, name
            assert all(c.match for c in br.classes), name
            ran[a.group] += 1
        assert ran["T2"] >= 1 and ran["H"] >= 1


def test_criterion_06_box3_growth_and_product_energy(corpus):
    sets, _ = corpus
    with criterion(6, "side-3 box over F101: 12x doubling, cube-over-12 energy"):
        a = sets["box3_f101"][0].elements
        n = len(a)
        assert n == 81
        square = len(product_set(a, a))
        estar = product_energy(a)
        assert square == 465
        assert square <= 12 * n
        assert estar == 169785
        assert 12 * estar >= n**3


def test_criterion_07_pinned_constants_and_predictions(corpus):
    sets, expected = corpus
    c_t2 = fraction_from_json(expected["_pinned"]["t2_energy_constant"])
    c_h = fraction_from_json(expected["_pinned"]["heis_energy_constant"])
    with criterion(7, "energy bounds and product predictions at the pinned constants"):
        cohort = {"T2": 0, "H": 0}
        for name, (sf, _) in sets.items():
            if expected[name]["values"]["bounds.verdict"] != "applicable":
                continue
            a = sf.elements
            n = len(a)
            e = energy(a)
            qsize = len(quotient_set(a))
            if a.group == "T2":
                prof = t2_profile(a)
                m1, m2 = prof.m1.value, prof.m2.value
                assert t2_energy_bound(e, n, m1, m2).constant <= c_t2, name
                assert t2_energy_bound(e, n, m1, m2, c_t2).holds, name
                assert t2_product_prediction(qsize, n, m1, m2, c_t2).holds, name
            else:
                prof = heis_profile(a)
                m, lm = prof.base_max.value, prof.line_max.value
                assert heis_energy_bound(e, n, m, lm).constant <= c_h, name
                assert heis_energy_bound(e, n, m, lm, c_h).holds, name
                assert heis_product_prediction(qsize, n, m, lm, c_h).holds, name
            cohort[a.group] += 1
        assert cohort == {"T2": 5, "H": 4}


def test_criterion_08_structure_verdicts(corpus):
    sets, _ = corpus
    with criterion(8, "subfield copy goes UNIPOTENT, coset sample goes POTENT"):
        rep = structure_scan(sets["t2f4_in_f16"][0].elements)
        assert rep.verdict == "UNIPOTENT"
        assert rep.failed == ()
        assert {c.name for c in rep.certificates} == {
            "dilated_sums_in_span",
            "span_reachable",
            "conjugation_stable",
            "commutators_in_span",
        }
        rep2 = structure_scan(sets["lambdau2_coset_f7_sample30"][0].elements)
        assert rep2.verdict == "POTENT"
        assert rep2.overlap_ratio >= Fraction(1, 2)


def test_criterion_09_incidence_probes_stay_under_pinned_constant(corpus):
    _, expected = corpus
    pin = expected["_pinned"]
    cmax = fraction_from_json(pin["incidence_constant"])
    with criterion(9, "100 incidence probes under the pinned constant, exact collinearity"):
        assert len(pin["probes"]) == 100
        for points, planes, seed in pin["probes"]:
            inst = random_instance(F7, points, planes, seed)
            pr = probe_instance(inst)
            assert pr.point_count <= 49 <= pr.plane_count
            assert pr.bound.constant <= cmax
            assert pr.max_collinear == max_collinear(7, inst.points)


def test_criterion_10_reports_byte_identical_and_reproducible(corpus):
    sets, expected = corpus
    with criterion(10, "reports byte-identical across re-runs"):
        for name, (sf, options) in sets.items():
            want = expected[name]
            assert sf.elements_digest == want["elements_sha256"], name
            digests = []
            for _ in range(2):
                rep, code = run_report(sf, RunOptions.from_json(options))
                assert code == want["exit_code"], name
                digests.append(digest(rep))
            assert digests[0] == digests[1] == want["report_sha256"], name
            regen = regenerate(sf)
            if regen is not None:
                assert regen.wires == sf.elements.wires, name
