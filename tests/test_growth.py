"""Product sets, energies, and the exact growth-lemma verdicts."""

from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import F5, F7, F9, F101, group_sets, small_sets
from matgrowth import growth, kernel, standard_field
from matgrowth.config import Caps, RunOptions
from matgrowth.errors import CapExceeded, ParameterError
from matgrowth.groups import GroupSet, SubgroupTag, gid, ginv, gmul, group_order
from matgrowth.growth import (
    Products,
    coset_count_check,
    covering_check,
    energy,
    energy_oracle,
    intersection_power_check,
    orbit_stabilizer_check,
    power_set,
    product_energy,
    product_set,
    quotient_set,
    rep_function,
    symmetrized_power,
    tripling_constant,
    tripling_lemma_check,
)
from matgrowth.jsonio import digest
from matgrowth.reports import EXIT_CAPS, run_report
from matgrowth.setfiles import build_setfile
from oracles import covering_by_coset_table, pair_products, quad_energy, quad_product_energy

UNIPOTENT_F7 = SubgroupTag("unipotent").elements(F7)


def tags_for(group):
    if group == "T2":
        return [
            SubgroupTag("unipotent"),
            SubgroupTag("scalars"),
            SubgroupTag("diagonal"),
            SubgroupTag("torus", x=2),
        ]
    return [SubgroupTag("center"), SubgroupTag("line_center", direction=(1, 0))]


# -- product sets -------------------------------------------------------------


def test_product_of_unipotent_pair():
    a = GroupSet("T2", F5, [(1, 1, 1), (1, 2, 1)])
    aa = product_set(a, a)
    assert set(aa.wires) == {(1, 2, 1), (1, 3, 1), (1, 4, 1)}


@given(small_sets(max_size=7))
def test_product_set_matches_pairwise_oracle(a):
    assert set(product_set(a, a).wires) == pair_products(a, a)


@given(small_sets(max_size=6))
def test_quotient_set_matches_oracle(a):
    assert set(quotient_set(a).wires) == pair_products(a.inverses(), a)


def test_power_set_edges():
    a = GroupSet("T2", F5, [(2, 1, 3)])
    assert power_set(a, 1) == a
    with pytest.raises(ParameterError):
        power_set(a, 0)


@given(small_sets(max_size=5))
def test_square_is_product_with_itself(a):
    assert power_set(a, 2) == product_set(a, a)


def test_product_cap_counts_pairs():
    a = GroupSet("T2", F101, [(i, 0, 1) for i in range(1, 11)])
    with pytest.raises(CapExceeded):
        product_set(a, a, cap=99)
    # exactly at the cap is allowed
    product_set(a, a, cap=100)


@given(small_sets(max_size=5), st.integers(1, 3))
def test_symmetrized_power_grows_monotonically(a, k):
    lo = symmetrized_power(a, k)
    hi = symmetrized_power(a, k + 1)
    assert lo.subset_of(hi)
    assert lo.is_symmetric
    assert lo.has_identity


@given(small_sets(max_size=6))
def test_quotient_set_is_symmetric(a):
    q = quotient_set(a)
    assert q.is_symmetric
    assert q.has_identity
    assert len(q) <= len(a) ** 2


# -- products that must fill the group -----------------------------------------


def whole_group(spec, group):
    q = spec.q
    units = range(1, q) if group == "T2" else range(q)
    return GroupSet(group, spec, [(a, b, c) for a in units for b in range(q) for c in units])


def no_enumeration(*args, **kwargs):
    raise AssertionError("enumerated the pairs of a product that needs none")


def refuse_every_pair(monkeypatch):
    """Make both enumerators, the wire loops' keys and the kernel, raise."""
    monkeypatch.setattr(growth, "pair_keys", no_enumeration)
    monkeypatch.setattr(kernel, "pair_kernel", no_enumeration)


@contextmanager
def saturated_path(on_kernel):
    """The loop or the kernel path picked, with both enumerations refused."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(growth, "_use_kernel", lambda pairs: on_kernel))
        stack.enter_context(mock.patch.object(growth, "pair_keys", no_enumeration))
        stack.enter_context(mock.patch.object(kernel, "pair_kernel", no_enumeration))
        yield


SATURATING = [(standard_field(q), group) for q, group in [(3, "T2"), (4, "T2"), (2, "H"), (3, "H")]]


@pytest.mark.parametrize("spec,group", SATURATING, ids=lambda x: getattr(x, "q", x))
@given(data=st.data())
def test_products_past_the_group_order_fill_the_group(spec, group, data):
    # |X| + |Y| = |G| + 1: the pigeonhole fact, on either path, with no pairs spent
    G = whole_group(spec, group)
    order = group_order(spec, group)
    assert len(G) == order
    k = data.draw(st.integers(1, order))
    X = GroupSet(group, spec, data.draw(st.permutations(G.wires))[:k])
    Y = GroupSet(group, spec, data.draw(st.permutations(G.wires))[: order + 1 - k])
    assert pair_products(X, Y) == set(G.wires)
    for on_kernel in (False, True):
        spent = growth._loop_pairs
        with saturated_path(on_kernel):
            assert product_set(X, Y) == G
        assert growth._loop_pairs == spent


@pytest.mark.parametrize(
    "spec,group,wires",
    [
        (standard_field(3), "T2", [(1, b, c) for b in range(3) for c in (1, 2)]),  # a = 1
        (standard_field(2), "H", [(0, b, c) for b in range(2) for c in range(2)]),  # g1 = 0
    ],
)
def test_half_the_group_times_itself_need_not_fill_it(spec, group, wires):
    # |X| + |Y| = |G| for a subgroup X: the inequality must be strict
    X = GroupSet(group, spec, wires)
    assert 2 * len(X) == group_order(spec, group)
    assert pair_products(X, X) == set(X.wires)
    for on_kernel in (False, True):
        with mock.patch.object(growth, "_use_kernel", lambda pairs: on_kernel):
            assert product_set(X, X) == X


def test_saturated_products_are_still_refused_past_the_cap():
    G = whole_group(standard_field(3), "T2")
    with pytest.raises(CapExceeded, match="product of 12 x 12 elements"):
        product_set(G, G, cap=143)
    assert product_set(G, G, cap=144) == G


def test_the_whole_group_is_every_element_in_key_order():
    for spec, group in SATURATING + [(F7, "T2"), (F5, "H")]:
        got = growth._whole_group(spec, group)
        want = whole_group(spec, group)
        assert got == want and got.wires == want.wires


def test_the_ladder_stops_at_the_whole_group(monkeypatch):
    G = whole_group(standard_field(3), "T2")
    a = GroupSet("T2", G.spec, G.wires[:7])
    p = Products(a)
    assert p.sym(2) == G and p.cube == G
    monkeypatch.setattr(growth, "_enumerate", no_enumeration)
    assert p.sym(6) is p.sym(2)
    assert p._climb(p._powers, 5) is p.cube
    assert Products(G).sym(4) is G and Products(G).cube is G
    # the stop is refused where G A would have been
    with pytest.raises(CapExceeded, match="product of 12 x 12 elements"):
        Products(G, Caps(max_pair_products=143)).cube
    assert Products(G, Caps(max_pair_products=144)).cube is G


# -- the shared product ladder -------------------------------------------------


@settings(max_examples=40)
@given(small_sets(max_size=6), st.booleans())
@example(UNIPOTENT_F7, False)
def test_products_match_the_direct_products(a, symmetrize):
    # a symmetrized set takes the A(1) = A path; a subgroup stops growing
    if symmetrize:
        a = a.symmetrized()
    p = Products(a)
    assert p.square == product_set(a, a)
    assert p.quotient == quotient_set(a)
    assert p.cube == power_set(a, 3)
    for k in range(1, 5):
        assert p.sym(k) == symmetrized_power(a, k)
    assert p.energy == energy_oracle(a)
    assert p.product_energy == quad_product_energy(a)


def test_products_refuse_on_the_pair_count():
    a = GroupSet("T2", F101, [(i, 0, 1) for i in range(1, 11)])
    p = Products(a, Caps(max_pair_products=99))
    builds = (lambda: p.energy, lambda: p.square, lambda: p.quotient, lambda: p.sym(2))
    for build in builds:
        with pytest.raises(CapExceeded, match=" exceeds pair cap 99$"):
            build()
    assert Products(a, Caps(max_pair_products=100)).energy == energy(a)


@pytest.mark.parametrize(
    "wires",
    [
        [(i, 0, 1) for i in range(1, 11)],  # sym(2) multiplies the closure A(1)
        [(1, b % 101, 1) for b in range(-5, 6)],  # A = A(1), so sym(2) is the square
    ],
)
def test_products_refuse_before_counting(monkeypatch, wires):
    refuse_every_pair(monkeypatch)
    p = Products(GroupSet("T2", F101, wires), Caps(max_pair_products=99))
    builds = (
        lambda: p.square, lambda: p.quotient, lambda: p.sym(2),
        lambda: p.energy, lambda: p.product_energy,
    )
    for build in builds:
        with pytest.raises(CapExceeded):
            build()


# Digests of these capped reports at the commit before the counting passes
# were capped: every section refuses at the same product, so no byte moved.
CAPPED_REPORTS = {
    False: "e051de38976fa9dffa58f8629db0334e2d9434ef491498a08bcca18155512d3e",
    True: "d619d4bd6e78c39114b61481ce08623d7342630f56c02d748d0d4da28f3551cc",
}


@pytest.mark.parametrize("structure", sorted(CAPPED_REPORTS))
def test_a_capped_report_keeps_its_bytes_and_counts_no_pair(monkeypatch, structure):
    sf = build_setfile("T2", F101, {"kind": "random", "size": 10, "seed": 1})
    refuse_every_pair(monkeypatch)
    opts = RunOptions(caps=Caps(max_pair_products=99), structure=structure)
    rep, code = run_report(sf, opts)
    assert code == EXIT_CAPS
    assert rep["growth"] == {"error": "product of 10 x 10 elements exceeds pair cap 99"}
    assert digest(rep) == CAPPED_REPORTS[structure]


def test_bare_sets_refuse_past_the_default_pair_cap(monkeypatch):
    # 3,200 x 3,200 pairs pass the default cap of 10^7
    refuse_every_pair(monkeypatch)
    a = GroupSet("T2", F101, [(x, y, 1) for x in range(1, 101) for y in range(32)])
    refusal = "^product of 3200 x 3200 elements exceeds pair cap 10000000$"
    builds = (
        lambda: energy(a), lambda: product_energy(a), lambda: rep_function(a, a),
        lambda: rep_function(a, a, mode="plain"), lambda: product_set(a, a),
    )
    for build in builds:
        with pytest.raises(CapExceeded, match=refusal):
            build()


# -- representation counts and energy -----------------------------------------


@given(small_sets(max_size=8))
def test_rep_function_totals(a):
    reps = rep_function(a, a)
    n = len(a)
    assert sum(reps.values()) == n * n
    assert sum(v * v for v in reps.values()) == energy(a)
    assert set(reps) == set(quotient_set(a).wires)


def test_rep_function_plain_mode():
    a = GroupSet("H", F5, [(1, 0, 0), (0, 1, 0)])
    reps = rep_function(a, a, mode="plain")
    assert sum(reps.values()) == 4
    assert reps[(1, 1, 1)] == 1
    with pytest.raises(ParameterError):
        rep_function(a, a, mode="sideways")


@settings(max_examples=25)
@given(small_sets(max_size=7))
def test_energy_matches_quadruple_loop(a):
    assert energy(a) == quad_energy(a)


@settings(max_examples=25)
@given(small_sets(max_size=7))
def test_product_energy_matches_quadruple_loop(a):
    assert product_energy(a) == quad_product_energy(a)


@given(small_sets(max_size=10))
def test_energy_matches_matrix_oracle(a):
    assert energy(a) == energy_oracle(a)


def test_energy_oracle_cap():
    a = GroupSet("T2", F101, [(i, 0, 1) for i in range(1, 12)])
    with pytest.raises(CapExceeded):
        energy_oracle(a, cap=10)


@given(small_sets(max_size=10))
def test_energy_range(a):
    n = len(a)
    e = energy(a)
    assert n * n <= e <= n**3


@given(small_sets(max_size=8))
def test_cauchy_schwarz_lower_bounds(a):
    n = len(a)
    assert energy(a) * len(quotient_set(a)) >= n**4
    assert product_energy(a) * len(product_set(a, a)) >= n**4


def test_subgroup_energy_is_cubed():
    # a subgroup is its own quotient set with flat multiplicities
    assert energy(UNIPOTENT_F7) == 343
    assert len(product_set(UNIPOTENT_F7, UNIPOTENT_F7)) == 7


# -- tripling and the growth lemmas --------------------------------------------


def test_tripling_of_a_subgroup_is_one():
    assert tripling_constant(UNIPOTENT_F7) == Fraction(1)


def test_tripling_is_exact():
    a = GroupSet("T2", F5, [(1, 1, 1), (2, 0, 1)])
    k = tripling_constant(a)
    assert k == Fraction(len(power_set(a, 3)), 2)
    assert isinstance(k, Fraction)
    with pytest.raises(ParameterError):
        tripling_constant(GroupSet("T2", F5, []))


@given(small_sets(max_size=6), st.integers(3, 4))
def test_growth_lemma_always_holds(a, k):
    report = tripling_lemma_check(a, k=k)
    assert report.all_hold
    names = [p.name for p in report.parts]
    assert names == ["three_step", f"k_step[{k}]"]
    assert {"sym1", "sym3", "cube", f"sym{k}"} <= set(report.sizes)


def test_growth_lemma_below_three_is_vacuous():
    a = GroupSet("T2", F5, [(1, 1, 1)])
    report = tripling_lemma_check(a, k=2)
    part = report.parts[1]
    assert part.holds
    assert part.note == "vacuous below k=3"
    assert "sym2" not in report.sizes


def test_growth_lemma_sizes_are_set_sizes():
    a = GroupSet("T2", F5, [(1, 1, 1), (2, 0, 1)])
    report = tripling_lemma_check(a, k=5)
    assert report.sizes["sym1"] == len(a.symmetrized())
    assert report.sizes["sym3"] == len(symmetrized_power(a, 3))
    assert report.sizes["sym5"] == len(symmetrized_power(a, 5))
    assert report.sizes["cube"] == len(power_set(a, 3))


def test_growth_lemma_rejects_empty():
    with pytest.raises(ParameterError):
        tripling_lemma_check(GroupSet("H", F5, []))


# -- subgroup-interaction verdicts ---------------------------------------------


@given(st.data())
def test_coset_count_check_is_a_pigeonhole(data):
    group = data.draw(st.sampled_from(["T2", "H"]))
    b = data.draw(group_sets(F5, group, max_size=12))
    tag = data.draw(st.sampled_from(tags_for(group)))
    holds, bound, size = coset_count_check(b, tag)
    assert holds
    assert size == len(b) <= bound


def test_coset_count_check_empty_set():
    empty = GroupSet("T2", F5, [])
    assert coset_count_check(empty, SubgroupTag("scalars")) == (True, 0, 0)


@given(st.data())
def test_orbit_stabilizer_always_holds(data):
    group = data.draw(st.sampled_from(["T2", "H"]))
    a = data.draw(group_sets(F5, group, max_size=8))
    b = data.draw(group_sets(F5, group, max_size=8))
    tag = data.draw(st.sampled_from(tags_for(group)))
    holds, prod, bound = orbit_stabilizer_check(a, b, tag)
    assert holds
    assert prod >= bound


def test_orbit_stabilizer_tight_on_a_subgroup():
    holds, prod, bound = orbit_stabilizer_check(
        UNIPOTENT_F7, UNIPOTENT_F7, SubgroupTag("unipotent")
    )
    assert holds
    assert prod == bound == 7


@given(st.data())
def test_intersection_power_always_holds(data):
    group = data.draw(st.sampled_from(["T2", "H"]))
    a = data.draw(group_sets(F5, group, max_size=5))
    tag = data.draw(st.sampled_from(tags_for(group)))
    k = data.draw(st.integers(1, 2))
    holds, got, bound = intersection_power_check(a, tag, k)
    assert holds
    assert got <= bound


def test_intersection_power_rejects_bad_power():
    a = GroupSet("T2", F5, [(1, 1, 1)])
    with pytest.raises(ParameterError):
        intersection_power_check(a, SubgroupTag("unipotent"), 0)


@given(st.data())
def test_covering_check_always_holds_for_normal_tags(data):
    group = data.draw(st.sampled_from(["T2", "H"]))
    a = data.draw(group_sets(F5, group, max_size=8))
    normal = [t for t in tags_for(group) if t.is_normal]
    tag = data.draw(st.sampled_from(normal))
    holds, reps = covering_check(a, tag)
    assert holds
    assert 1 <= reps <= len(a)


NORMAL_TAGS = {
    "T2": [SubgroupTag("unipotent"), SubgroupTag("scalars"), SubgroupTag("scaled_unipotent")],
    "H": [
        SubgroupTag("center"),
        SubgroupTag("line_center", direction=(1, 0)),
        SubgroupTag("line_center", direction=(1, 2)),
    ],
}


@given(st.data())
def test_covering_check_matches_coset_table_oracle(data):
    group = data.draw(st.sampled_from(["T2", "H"]))
    spec = data.draw(st.sampled_from([F5, F9]))
    a = data.draw(group_sets(spec, group, max_size=8))
    tag = data.draw(st.sampled_from(NORMAL_TAGS[group]))
    assert covering_check(a, tag) == covering_by_coset_table(a, tag)


def test_covering_check_runs_past_reps_times_core():
    """|reps| * |core| may pass the pair cap when |A|^2 does not: the check
    takes |A| products, so it completes where a reps x core loop refuses."""
    block = [(1, pow(2, i, 101), 1) for i in range(10)]  # one unipotent coset
    singles = [(x, 0, z) for x in range(2, 12) for z in range(1, 6)]  # 50 more
    a = GroupSet("T2", F101, block + singles)
    tag = SubgroupTag("unipotent")
    caps = Caps(max_pair_products=len(a) ** 2)
    core = len(Products(a).quotient_slice(tag))  # 77 differences, 0 among them
    assert 51 * core > caps.max_pair_products
    assert covering_check(Products(a, caps), tag) == covering_by_coset_table(a, tag) == (True, 51)


def test_covering_check_requires_normality():
    a = GroupSet("T2", F5, [(1, 1, 1)])
    with pytest.raises(ParameterError):
        covering_check(a, SubgroupTag("diagonal"))
    with pytest.raises(ParameterError):
        covering_check(a, SubgroupTag("torus", x=1))


def test_covering_check_cap():
    wires = [(a, b, 1) for a in range(1, 8) for b in range(11)]
    a = GroupSet("T2", F101, wires)
    with pytest.raises(CapExceeded):
        covering_check(Products(a, Caps(max_pair_products=200)), SubgroupTag("scalars"))
