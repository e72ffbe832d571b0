"""Root-free inequality decisions and pinned-constant search."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_sets
from matgrowth.cosets import heis_profile, t2_profile
from matgrowth.errors import ParameterError
from matgrowth.exact import (
    CONSTANT_DENOM,
    bit_log,
    fraction_json,
    heis_energy_bound,
    heis_product_prediction,
    incidence_bound,
    GRID_LIMIT,
    le_linear_plus_sqrt,
    least_grid_constant,
    min_constant,
    t2_energy_bound,
    t2_product_prediction,
)
from matgrowth.growth import energy, quotient_set
from oracles import fraction_from_json

STEP = Fraction(1, CONSTANT_DENOM)

fracs = st.fractions(
    min_value=0, max_value=50, max_denominator=64
)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=64),
    st.fractions(min_value=-50, max_value=50, max_denominator=64),
    fracs,
    fracs,
)
def test_sqrt_comparison_matches_symbolic(lhs, base, coef, radicand):
    got = le_linear_plus_sqrt(lhs, base, coef, radicand)
    want = bool(
        sympy.Rational(lhs) <= sympy.Rational(base) + sympy.Rational(coef) * sympy.sqrt(sympy.Rational(radicand))
    )
    assert got == want


def test_sqrt_comparison_exact_at_the_boundary():
    # 7 <= 3 + 2 * sqrt(4) exactly
    assert le_linear_plus_sqrt(7, 3, 2, 4)
    assert not le_linear_plus_sqrt(Fraction(7000001, 10**6), 3, 2, 4)


def test_sqrt_comparison_rejects_negative_parts():
    with pytest.raises(ParameterError):
        le_linear_plus_sqrt(1, 0, -1, 4)
    with pytest.raises(ParameterError):
        le_linear_plus_sqrt(1, 0, 1, -4)


@given(st.integers(1, 10**9))
def test_bit_log_dominates_log2(n):
    assert 2 ** bit_log(n) >= n > 2 ** (bit_log(n) - 1) - 1


def test_bit_log_edges():
    assert bit_log(1) == 1
    assert bit_log(2) == 2
    with pytest.raises(ParameterError):
        bit_log(0)


@given(st.integers(1, 10**7))
def test_min_constant_recovers_a_grid_threshold(k):
    t = Fraction(k, CONSTANT_DENOM)
    assert min_constant(lambda c: c >= t) == t


def test_min_constant_rounds_up_off_grid():
    t = Fraction(1, 3)
    got = min_constant(lambda c: c >= t)
    assert got == Fraction(333334, CONSTANT_DENOM)


def test_min_constant_trivial_and_hopeless():
    assert min_constant(lambda c: True) == 0
    with pytest.raises(ParameterError):
        min_constant(lambda c: False, hi_cap=10**9)


def _by_search(lhs, a, b, R):
    try:
        return min_constant(lambda c: le_linear_plus_sqrt(lhs, c * a, c * b, R))
    except ParameterError:
        return "refused"


def _closed_form(lhs, a, b, R):
    try:
        return least_grid_constant(lhs, a, b, R)
    except ParameterError:
        return "refused"


def _parts(bits):
    return st.one_of(st.just(0), st.integers(0, 2**bits))


@settings(max_examples=400)
@given(
    st.one_of(
        st.integers(-5, 2**80),
        st.fractions(min_value=-5, max_value=2**40, max_denominator=2**30),
    ),
    st.sampled_from([4, 20, 40, 70]).flatmap(_parts),
    st.sampled_from([4, 20, 40, 70]).flatmap(_parts),
    st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2**70)),
)
def test_least_grid_constant_matches_the_search(lhs, a, b, R):
    assert _closed_form(lhs, a, b, R) == _by_search(lhs, a, b, R)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("a, b, R", [(1, 0, 0), (0, 1, 1), (3, 2, 4)])
def test_least_grid_constant_refuses_past_the_search_limit(offset, a, b, R):
    # sqrt(R) is an integer, so the least constant is exactly N / 10**6
    N = GRID_LIMIT + offset
    lhs = Fraction(N, CONSTANT_DENOM) * (a + b * math.isqrt(R))
    want = _by_search(lhs, a, b, R)
    assert want == ("refused" if offset > 0 else Fraction(N, CONSTANT_DENOM))
    assert _closed_form(lhs, a, b, R) == want


def test_least_grid_constant_zero_parts():
    assert least_grid_constant(0, 0, 0, 0) == 0
    assert least_grid_constant(Fraction(-1, 3), 5, 1, 1) == 0
    with pytest.raises(ParameterError):
        least_grid_constant(1, 0, 5, 0)
    with pytest.raises(ParameterError):
        least_grid_constant(1, 0, 0, 5)
    with pytest.raises(ParameterError):
        least_grid_constant(1, -1, 0, 5)


# -- energy bounds -------------------------------------------------------------


@settings(max_examples=30)
@given(small_sets(max_size=10))
def test_energy_constant_is_minimal(a):
    n = len(a)
    e = energy(a)
    if a.group == "T2":
        prof = t2_profile(a)
        check = t2_energy_bound(e, n, prof.m1.value, prof.m2.value)
        rerun = lambda c: t2_energy_bound(e, n, prof.m1.value, prof.m2.value, c)
    else:
        prof = heis_profile(a)
        check = heis_energy_bound(e, n, prof.base_max.value, prof.line_max.value)
        rerun = lambda c: heis_energy_bound(
            e, n, prof.base_max.value, prof.line_max.value, c
        )
    assert check.holds
    assert check.lhs == e
    assert rerun(check.constant).holds
    if check.constant > 0:
        assert not rerun(check.constant - STEP).holds


@settings(max_examples=30)
@given(small_sets(max_size=10))
def test_prediction_follows_from_energy_constant(a):
    # Cauchy-Schwarz: any constant that tames the energy also forces the
    # quotient set to be large, with no extra slack
    n = len(a)
    e = energy(a)
    q = len(quotient_set(a))
    if a.group == "T2":
        prof = t2_profile(a)
        c = t2_energy_bound(e, n, prof.m1.value, prof.m2.value).constant
        pred = t2_product_prediction(q, n, prof.m1.value, prof.m2.value, c)
    else:
        prof = heis_profile(a)
        c = heis_energy_bound(e, n, prof.base_max.value, prof.line_max.value).constant
        pred = heis_product_prediction(
            q, n, prof.base_max.value, prof.line_max.value, c
        )
    assert pred.holds
    assert pred.lhs == q


def test_energy_bound_rejects_empty():
    with pytest.raises(ParameterError):
        t2_energy_bound(0, 0, 1, 1)
    with pytest.raises(ParameterError):
        heis_energy_bound(0, 0, 1, 1)
    with pytest.raises(ParameterError):
        t2_product_prediction(0, 1, 1, 1, Fraction(1))


def test_pinned_constant_can_fail():
    # unipotent subgroup of T2(F7): E = 343 with m1 = 1, m2 = 7
    tiny = t2_energy_bound(343, 7, 1, 7, constant=STEP)
    assert not tiny.holds
    ample = t2_energy_bound(343, 7, 1, 7, constant=Fraction(10))
    assert ample.holds
    assert ample.constant == Fraction(10)


# -- incidence bound -----------------------------------------------------------


def test_incidence_bound_is_orientation_free():
    a = incidence_bound(275, 40, 55, 4)
    b = incidence_bound(275, 55, 40, 4)
    assert a == b
    assert a.holds


def test_incidence_bound_minimality():
    check = incidence_bound(275, 40, 55, 4)
    again = incidence_bound(275, 40, 55, 4, constant=check.constant)
    assert again.holds
    assert not incidence_bound(275, 40, 55, 4, constant=check.constant - STEP).holds


def test_incidence_bound_rejects_empty():
    # a refusal is never memoised: every call raises
    for _ in range(3):
        with pytest.raises(ParameterError):
            incidence_bound(0, 0, 5, 1)
        with pytest.raises(ParameterError):
            incidence_bound(3, 4, 0, 1, constant=Fraction(1))


@given(
    st.integers(0, 10**6),
    st.integers(1, 10**4),
    st.integers(1, 10**4),
    st.integers(1, 50),
    st.none() | st.fractions(min_value=0, max_value=100, max_denominator=CONSTANT_DENOM),
)
def test_memoised_incidence_bound_equals_a_fresh_fit(incidences, points, planes, k, constant):
    small, large = min(points, planes), max(points, planes)
    if constant is None:
        want_constant = least_grid_constant(incidences, k * large, large, small)
        want_holds = True
    else:
        want_constant = constant
        want_holds = le_linear_plus_sqrt(incidences, constant * k * large, constant * large, small)
    fresh = incidence_bound.__wrapped__(incidences, points, planes, k, constant)
    assert (fresh.constant, fresh.holds, fresh.lhs) == (want_constant, want_holds, incidences)
    hits = incidence_bound.cache_info().hits
    first = incidence_bound(incidences, points, planes, k, constant)
    again = incidence_bound(incidences, points, planes, k, constant)
    assert first == again == fresh
    assert incidence_bound.cache_info().hits >= hits + 1


@given(st.fractions(min_value=0, max_value=100, max_denominator=10**6))
def test_fraction_json_round_trip(f):
    obj = fraction_json(f)
    assert set(obj) == {"num", "den"}
    assert fraction_from_json(obj) == f
