"""Occupancy profiles, dyadic dilate decomposition, and size-hypothesis flags."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F5, F7, F9, SMALL_FIELDS, group_sets
from matgrowth.errors import ParameterError
from matgrowth.groups import GroupSet, SubgroupTag
from matgrowth.cosets import (
    ConstraintFlags,
    dyadic_pieces,
    heis_flags,
    heis_line_max,
    heis_profile,
    t2_flags,
    t2_m1,
    t2_profile,
)
from matgrowth.config import Caps
from matgrowth.errors import CapExceeded
from matgrowth.growth import Products
from oracles import (
    count_in_base_fiber,
    count_in_diag_fiber,
    count_in_ratio_fiber,
    count_in_torus_coset,
    count_on_line,
    heis_base_recount,
    heis_line_recount,
    heis_line_sweep,
    line_directions,
    piece_elements,
    t2_m1_sweep,
    t2_m1_recount,
    t2_m2_recount,
    t2_m3_recount,
)


def t2_sets(max_size=12):
    return st.one_of(*[group_sets(spec, "T2", 1, max_size) for spec in SMALL_FIELDS])


def heis_sets(max_size=12):
    return st.one_of(*[group_sets(spec, "H", 1, max_size) for spec in SMALL_FIELDS])


# -- profiles against brute-force recounts -------------------------------------


@settings(max_examples=40)
@given(t2_sets())
def test_t2_profile_matches_recounts(a):
    prof = t2_profile(a)
    assert prof.size == len(a)
    assert prof.m3.value == t2_m3_recount(a)
    assert prof.m2.value == t2_m2_recount(a)
    assert prof.m1.value == t2_m1_recount(a)


@settings(max_examples=40)
@given(heis_sets())
def test_heis_profile_matches_recounts(a):
    prof = heis_profile(a)
    assert prof.size == len(a)
    assert prof.base_max.value == heis_base_recount(a)
    assert prof.line_max.value == heis_line_recount(a)


@given(t2_sets())
def test_t2_witnesses_recount_to_their_values(a):
    prof = t2_profile(a)
    assert count_in_diag_fiber(a, *prof.m3.witness) == prof.m3.value
    assert count_in_ratio_fiber(a, *prof.m2.witness) == prof.m2.value
    assert count_in_torus_coset(a, *prof.m1.witness) == prof.m1.value


@given(heis_sets())
def test_heis_witnesses_recount_to_their_values(a):
    prof = heis_profile(a)
    assert count_in_base_fiber(a, *prof.base_max.witness) == prof.base_max.value
    assert count_on_line(a, *prof.line_max.witness) == prof.line_max.value


def fiber(fm):
    return fm.value, fm.witness


@settings(max_examples=60)
@given(t2_sets())
def test_t2_m1_matches_the_sweep(a):
    assert fiber(t2_profile(a).m1) == t2_m1_sweep(a)


@settings(max_examples=60)
@given(heis_sets())
def test_heis_line_max_matches_the_sweep(a):
    assert fiber(heis_profile(a).line_max) == heis_line_sweep(a)


@pytest.mark.parametrize(
    "wires",
    [
        [(1, 2, 3)],  # a single base point
        [(2, 4, 0), (2, 4, 1), (2, 4, 5)],  # one base point, weight three
        [(t, 2 * t % 7, t) for t in range(7)],  # all base points collinear
        [(t, 3, 0) for t in range(7)] + [(1, 1, 1)],  # a line plus one point
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],  # three lines tie at weight two
    ],
)
def test_heis_line_max_edge_cases(wires):
    a = GroupSet("H", F7, wires)
    assert fiber(heis_profile(a).line_max) == heis_line_sweep(a)


@pytest.mark.parametrize(
    "wires",
    [
        [(3, 1, 2)],  # a single line
        [(1, 2, 1), (2, 4, 2), (3, 6, 3)],  # one line three times (equal affine parts)
        [(1, 2, 1), (2, 4, 2), (1, 0, 1), (2, 1, 1)],  # coincident lines that cross another
        [(2, b, 1) for b in range(5)],  # parallel lines only
        [(2, 0, 1), (4, 0, 2), (2, 3, 1), (2, 5, 1)],  # parallel lines of unequal weight
        [(1, 0, 1), (2, 0, 1), (3, 0, 1), (1, 1, 1)],  # three lines through one point
    ],
)
def test_t2_m1_edge_cases(wires):
    a = GroupSet("T2", F7, wires)
    assert fiber(t2_profile(a).m1) == t2_m1_sweep(a)


def test_profiles_refuse_past_the_pair_cap():
    t2 = GroupSet("T2", F9, [(1, b, 1) for b in range(9)])
    heis = GroupSet("H", F9, [(x, 0, 0) for x in range(9)])
    caps = Caps(max_pair_products=80)
    with pytest.raises(CapExceeded):
        t2_m1(Products(t2, caps))
    with pytest.raises(CapExceeded):
        heis_line_max(Products(heis, caps))
    with pytest.raises(CapExceeded):
        t2_profile(Products(t2, caps))
    with pytest.raises(CapExceeded):
        heis_profile(Products(heis, caps))
    # at the cap itself both still count
    assert t2_m1(Products(t2, Caps(max_pair_products=81))).value == 1
    assert heis_line_max(Products(heis, Caps(max_pair_products=81))).value == 9


def test_witness_is_lexicographically_smallest():
    a = GroupSet("T2", F5, [(1, 0, 1), (2, 0, 2)])
    prof = t2_profile(a)
    # both diagonal fibers have one element; ties break toward (1, 1)
    assert (prof.m3.value, prof.m3.witness) == (1, (1, 1))
    assert prof.m2.value == 2
    assert prof.m2.witness == (1,)


# -- pinned profile shapes ------------------------------------------------------


def test_profile_of_the_unipotent_group():
    a = SubgroupTag("unipotent").elements(F5)
    prof = t2_profile(a)
    assert prof.m3.value == 5 and prof.m3.witness == (1, 1)
    assert prof.m2.value == 5 and prof.m2.witness == (1,)
    # a torus coset meets the unipotent group once: x + b = y pins b
    assert prof.m1.value == 1


def test_profile_of_a_diagonal_slice():
    a = GroupSet("T2", F5, [(x, 0, 1) for x in range(1, 5)])
    prof = t2_profile(a)
    assert prof.m1.value == 4
    assert prof.m1.witness == (0, 0)
    assert prof.m3.value == 1
    assert prof.m2.value == 1


def test_profile_of_a_ratio_coset():
    a = SubgroupTag("scaled_unipotent").coset(F7, (3, 0, 1))
    prof = t2_profile(a)
    assert prof.m2.value == len(a) == 42
    assert prof.m2.witness == (3,)


def test_heis_profile_single_column():
    a = GroupSet("H", F5, [(1, 2, t) for t in range(5)])
    prof = heis_profile(a)
    assert prof.base_max.value == 5
    assert prof.base_max.witness == (1, 2)
    assert prof.line_max.value == 5


def test_heis_profile_collinear_bases():
    a = GroupSet("H", F5, [(t, t, 0) for t in range(5)])
    prof = heis_profile(a)
    assert prof.base_max.value == 1
    # all five bases lie on the line g1 - g2 = 0
    assert prof.line_max.value == 5
    assert count_on_line(a, *prof.line_max.witness) == 5


def test_line_directions_are_projective():
    dirs = line_directions(F7)
    assert len(dirs) == 8
    assert len(set(dirs)) == 8
    assert all(d[0] == 1 or d == (0, 1) for d in dirs)


def test_profiles_reject_wrong_group():
    with pytest.raises(ParameterError):
        t2_profile(GroupSet("H", F5, [(0, 0, 0)]))
    with pytest.raises(ParameterError):
        heis_profile(GroupSet("T2", F5, [(1, 0, 1)]))


# -- dyadic dilate decomposition ------------------------------------------------


@given(t2_sets())
def test_dyadic_pieces_partition_the_set(a):
    pieces = dyadic_pieces(a)
    assert sum(pc.element_count for pc in pieces) == len(a)
    seen = set()
    rebuilt = []
    for pc in pieces:
        assert len(pc.keys) == pc.coset_count
        assert not (seen & set(pc.keys))
        seen.update(pc.keys)
        part = piece_elements(a, pc)
        assert len(part) == pc.element_count
        rebuilt.extend(part.wires)
    assert sorted(rebuilt) == sorted(a.wires)


@given(t2_sets())
def test_dyadic_band_bounds(a):
    for pc in dyadic_pieces(a):
        assert 0 <= pc.j <= len(a).bit_length()
        part = piece_elements(a, pc)
        spec = a.spec
        fibers = {}
        for w in part.wires:
            key = (spec.div(w[1], w[0]), spec.div(w[2], w[0]))
            fibers[key] = fibers.get(key, 0) + 1
        # every dilate fiber in the piece sits in the dyadic window
        assert all(1 << pc.j <= n < 1 << (pc.j + 1) for n in fibers.values())


@given(t2_sets())
def test_dyadic_piece_count_is_logarithmic(a):
    assert len(dyadic_pieces(a)) <= len(a).bit_length()


def test_full_dilate_coset_is_one_piece():
    a = GroupSet("T2", F5, [(t, t, t) for t in range(1, 5)])
    (piece,) = dyadic_pieces(a)
    assert (piece.j, piece.coset_count, piece.element_count) == (2, 1, 4)
    assert piece.fiber_max == 1
    assert piece_elements(a, piece) == a


def test_mixed_bands_split_correctly():
    # one singleton dilate fiber, one of size 2, one of size 3
    wires = [(1, 1, 1), (1, 0, 1), (2, 0, 2), (1, 0, 2), (2, 0, 4), (3, 0, 6)]
    a = GroupSet("T2", F7, wires)
    pieces = dyadic_pieces(a)
    assert [(pc.j, pc.coset_count, pc.element_count) for pc in pieces] == [
        (0, 1, 1),
        (1, 2, 5),
    ]
    assert pieces[0].fiber_max == 1
    assert pieces[1].fiber_max == 1
    assert set(piece_elements(a, pieces[1]).wires) == set(wires[1:])


def test_piece_fiber_max_sees_repeated_diagonals():
    a = GroupSet("T2", F5, [(1, 0, 1), (1, 3, 1)])
    (piece,) = dyadic_pieces(a)
    assert piece.j == 0
    assert piece.fiber_max == 2


def test_a_piece_repr_leaves_out_its_keys():
    a = GroupSet("T2", F5, [(t, t, t) for t in range(1, 5)])
    (piece,) = dyadic_pieces(a)
    assert piece.keys == ((1, 1),)
    assert repr(piece) == "DyadicPiece(j=2, coset_count=1, element_count=4, fiber_max=1)"


def test_dyadic_rejects_heisenberg():
    with pytest.raises(ParameterError):
        dyadic_pieces(GroupSet("H", F5, [(0, 0, 0)]))


# -- size-hypothesis flags --------------------------------------------------------


def test_t2_flags_at_the_boundary():
    a = SubgroupTag("unipotent").elements(F5)
    flags = t2_flags(a, t2_profile(a).m3.value)
    # 5 * 5 == 25 == p^2 sits exactly on the edge
    assert flags == ConstraintFlags(whole_set=True, per_piece=True, square_shape=None)

    bigger = a.union(GroupSet("T2", F5, [(2, 0, 1)]))
    flags = t2_flags(bigger, t2_profile(bigger).m3.value)
    assert not flags.whole_set
    assert not flags.per_piece


def test_t2_per_piece_uses_band_budget():
    # a full dilate coset has fiber_max 1, so the j = 2 budget is slack
    a = GroupSet("T2", F5, [(t, t, t) for t in range(1, 5)])
    flags = t2_flags(a, t2_profile(a).m3.value)
    assert flags.per_piece
    assert flags.square_shape is None


def test_heis_flags_shapes():
    flat = GroupSet("H", F5, [(x, y, 0) for x in range(5) for y in range(5)])
    flags = heis_flags(flat, heis_profile(flat).base_max.value)
    assert flags.whole_set and flags.square_shape
    assert flags.per_piece is None

    column = GroupSet("H", F5, [(0, 0, t) for t in range(5)])
    flags = heis_flags(column, heis_profile(column).base_max.value)
    # 5 * 5 <= 25 but the base fiber is much larger than sqrt(5)
    assert flags.whole_set
    assert not flags.square_shape
