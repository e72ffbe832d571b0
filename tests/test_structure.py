"""Structure dichotomy scan and the additive corner expansion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F5, F9, F16, F101, group_sets
from matgrowth import standard_field
from matgrowth.config import Caps, StructureOptions
from matgrowth.errors import CapExceeded, ParameterError
from matgrowth.ffield import subfield_of_degree
from matgrowth.groups import GroupSet, SubgroupTag, ginv, gmul
from oracles import commutator_outside_span
from matgrowth.structure import (
    INCONCLUSIVE,
    POTENT,
    UNIPOTENT,
    _cert_commutators_in_span,
    _cert_conjugation_stable,
    ratio_image,
    structure_scan,
    sum_product_scan,
    unipotent_corners,
    unipotent_lift,
    working_set,
)


def embedded_t2_over_f4():
    """All 36 elements of the triangular group with entries in the
    quartic subfield of F16."""
    sub = list(subfield_of_degree(F16, 2).wires)
    nz = [w for w in sub if w]
    return GroupSet("T2", F16, [(a, b, c) for a in nz for b in sub for c in nz])


# -- helpers -------------------------------------------------------------------


def test_working_set_passthrough():
    sym = GroupSet("T2", F5, [(1, 0, 1), (2, 0, 1), (3, 0, 1)])
    work, changed = working_set(sym)
    assert work == sym and not changed

    bare = GroupSet("T2", F5, [(2, 0, 1)])
    work, changed = working_set(bare)
    assert changed
    assert work.wires == ((1, 0, 1), (2, 0, 1), (3, 0, 1))


def test_corner_and_ratio_projections():
    a = GroupSet("T2", F5, [(1, 3, 1), (1, 0, 1), (2, 4, 3)])
    assert unipotent_corners(a) == (0, 3)
    assert ratio_image(a) == (1, 4)
    lift = unipotent_lift(F5, [0, 3])
    assert lift.wires == ((1, 0, 1), (1, 3, 1))


# -- potent branch -------------------------------------------------------------


def test_scaled_unipotent_subgroup_is_potent():
    a = SubgroupTag("scaled_unipotent").elements(F5)
    report = structure_scan(a)
    assert report.verdict == POTENT
    assert report.tripling == 1
    assert report.ratio_class_count == 1
    assert report.overlap == 20
    assert report.overlap_ratio == 1
    assert report.subfield_degree is None


def test_single_generator_is_potent():
    report = structure_scan(GroupSet("T2", F5, [(1, 1, 1)]))
    assert report.verdict == POTENT
    assert report.symmetrized
    assert report.working_size == 3
    # cube of {1, u(1), u(-1)} is u({-3..3})
    assert report.tripling.numerator == 5 and report.tripling.denominator == 3
    assert report.overlap == 5


# -- unipotent branch -----------------------------------------------------------


def test_subfield_copy_is_unipotent():
    report = structure_scan(embedded_t2_over_f4())
    assert report.verdict == UNIPOTENT
    assert not report.symmetrized
    assert report.working_size == 36
    assert report.tripling == 1
    assert report.ratio_class_count == 3
    assert report.subfield_degree == 2
    assert report.subfield_size == 4
    assert report.corner_count == 4
    assert report.span_size == 4
    assert report.reach_power == 1
    assert report.failed == ()
    assert {c.name for c in report.certificates} == {
        "dilated_sums_in_span",
        "span_reachable",
        "conjugation_stable",
        "commutators_in_span",
    }


def test_conjugation_certificate_is_refused_past_the_pair_cap():
    # D of three ratios against a span of four corners: 12 steps
    sub = list(subfield_of_degree(F16, 2).wires)
    D = [w for w in sub if w]
    span = frozenset(sub)
    with pytest.raises(CapExceeded, match="conjugation certificate of 3 x 4 elements"):
        _cert_conjugation_stable(F16, D, span, Caps(max_pair_products=11).max_pair_products)
    cert = _cert_conjugation_stable(F16, D, span, Caps(max_pair_products=12).max_pair_products)
    assert cert.holds


F243 = standard_field(243)


@settings(max_examples=80)
@given(st.data())
def test_commutator_certificate_matches_its_gmul_form(data):
    # the closed form (1, (y_ab - y_ba) / (a0 b0), 1) off one pair_keys
    # pass against a^-1 b^-1 a b from three gmul calls: the verdict and the
    # first (a, b) outside the span, over spans that hold, miss one
    # commutator corner or are random
    spec = data.draw(st.sampled_from([F5, F9, F16, F101, F243]), label="field")
    work = data.draw(group_sets(spec, "T2", 1, 8))
    corners = set()
    for a in work:
        for b in work:
            inverse = gmul(spec, "T2", ginv(spec, "T2", a), ginv(spec, "T2", b))
            corners.add(gmul(spec, "T2", inverse, gmul(spec, "T2", a, b))[1])
    span = data.draw(st.one_of(
        st.just(corners),
        st.sampled_from(sorted(corners)).map(lambda w: corners - {w}),
        st.sets(st.integers(0, spec.q - 1)),
    ))
    cert = _cert_commutators_in_span(work, frozenset(span), Caps.max_pair_products)
    first = commutator_outside_span(work, span)
    assert cert.holds == (first is None)
    assert cert.detail == ("" if first is None else f"a={first[0]} b={first[1]}")


def test_potent_floor_flips_the_verdict():
    # with a high floor the three ratio classes count as "few"
    report = structure_scan(embedded_t2_over_f4(), StructureOptions(potent_floor=16))
    assert report.verdict == POTENT
    assert report.overlap == 12
    assert report.threshold == 16


def test_reach_budget_failure_is_inconclusive():
    a = GroupSet("T2", F5, [(2, 0, 1), (1, 1, 1)])
    opts = StructureOptions(potent_exponent=0, reach_budget=1)
    report = structure_scan(a, opts)
    assert report.verdict == INCONCLUSIVE
    assert report.failed == ("span_reachable",)
    assert report.span_size == 5
    assert report.reach_power is None

    roomy = structure_scan(a, StructureOptions(potent_exponent=0))
    assert roomy.verdict == UNIPOTENT
    assert roomy.reach_power == 2


def test_scan_rejections():
    with pytest.raises(ParameterError):
        structure_scan(GroupSet("H", F5, [(0, 0, 0)]))
    with pytest.raises(ParameterError):
        structure_scan(GroupSet("T2", F5, []))
    with pytest.raises(ParameterError):
        sum_product_scan(GroupSet("H", F5, [(0, 0, 0)]))


# -- sum-product expansion -------------------------------------------------------


def test_sum_product_on_the_subfield_copy():
    report = sum_product_scan(embedded_t2_over_f4())
    assert report.corner_count == 4
    assert report.ratio_class_count == 3
    assert report.dilate_count == 4
    assert report.sum_count == 4
    assert report.expansion == 1
    assert report.subfield_size == 4
    assert report.span_size == 4
    # no expansion at all, but the corners fill their span
    assert not report.dichotomy_low_expansion
    assert report.dichotomy_spanning
    assert report.dichotomy_holds
    assert report.containment_steps == 1


def test_sum_product_single_generator():
    report = sum_product_scan(GroupSet("T2", F5, [(1, 1, 1)]))
    assert report.corner_count == 5
    assert report.expansion == 1
    assert report.dichotomy_low_expansion
    assert report.containment_steps == 1


@settings(max_examples=15)
@given(group_sets(F5, "T2", 1, 5))
def test_sum_product_dichotomy_holds(a):
    report = sum_product_scan(a)
    assert report.dichotomy_holds
    assert report.sum_count >= report.corner_count
    assert report.span_size >= report.corner_count
    if report.containment_steps is not None:
        assert 1 <= report.containment_steps <= 6


@settings(max_examples=10)
@given(group_sets(F5, "T2", 1, 5))
def test_scan_always_reaches_a_verdict(a):
    report = structure_scan(a)
    assert report.verdict in (POTENT, UNIPOTENT, INCONCLUSIVE)
    if report.verdict == POTENT:
        # the identity always sits in the square of the working set
        assert report.overlap >= 1
    else:
        assert report.span_size is not None
