"""The numpy pair kernel against the pure-Python wire loops it replaces.

``growth._use_kernel`` picks the path of every enumeration.  Collecting
this module loads numpy, so unpatched every enumeration here runs the
kernel; ``paths`` swaps in a plain pair-count cutoff: 0 runs the kernel
everywhere, ``LOOPS`` nowhere.  Small ``kernel.BLOCK_PAIRS`` values split
one product over many row blocks, so the sparse path merges many times;
``dense`` forces the bool-mask dedup on or off.

The passes over a set's elements (coset keys, fibers, members, inverses)
run their array forms whenever numpy is loaded; ``per_element`` patches
``groups.numpy_loaded`` to run the per-element forms they replace.
``cosets.heaviest_line`` follows ``growth._use_kernel``.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import ExitStack, contextmanager
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matgrowth import build_setfile, cosets, groups, growth, kernel, standard_field
from matgrowth.errors import ParameterError
from matgrowth.groups import GroupSet, SubgroupTag, gid, ginv, group_order, wire_key
from matgrowth.growth import Products, energy, product_energy, product_set, rep_function
from matgrowth.setfiles import explicit_setfile, setfile_from_json
from oracles import heis_line_sweep, pair_products, t2_m1_sweep

FIELDS = [standard_field(q) for q in (101, 65521, 256, 65536, 25, 59049)]
# over F_5 a product of two drawn sets can be all of T2(F_5)
ORACLE_FIELDS = [standard_field(5)] + FIELDS
LOOPS = 1 << 62
RANDOM40 = {"kind": "random", "size": 40, "seed": 1}


@contextmanager
def paths(cutoff, block, dense=None):
    """Run the kernel from ``cutoff`` pairs on, in blocks of ``block`` pairs,
    deduplicating sets in a bool mask when ``dense`` (None: as the kernel picks)."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(growth, "_use_kernel", lambda pairs: pairs >= cutoff))
        stack.enter_context(mock.patch.object(kernel, "BLOCK_PAIRS", block))
        if dense is not None:
            stack.enter_context(mock.patch.object(kernel, "_dense", lambda q, pairs: dense))
        yield


def mask_fits(spec) -> bool:
    """Whether a forced dense path may allocate the q^3 mask (16 MB at most)."""
    return spec.q**3 <= 1 << 24


def run_fresh(script: str, **overrides) -> str:
    """The stdout of ``script`` run in a new interpreter on this checkout,
    with the environment ``overrides`` (None removes a variable)."""
    src = str(Path(growth.__file__).resolve().parents[1])
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=src, **overrides).items() if v is not None}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip()


@st.composite
def operand_pairs(draw, min_x=1, fields=FIELDS):
    """Two sets of one ambient group; small coordinates make products collide."""
    spec = draw(st.sampled_from(fields))
    group = draw(st.sampled_from(["T2", "H"]))
    low = 1 if group == "T2" else 0
    coord = st.one_of(st.integers(0, 3), st.integers(0, spec.q - 1))
    unit = st.one_of(st.integers(1, 3), st.integers(1, spec.q - 1))
    wire = st.tuples(unit, coord, unit) if low else st.tuples(coord, coord, coord)
    x = draw(st.lists(wire, min_size=min_x, max_size=12, unique=True))
    y = draw(st.lists(wire, min_size=1, max_size=12, unique=True))
    return GroupSet(group, spec, x), GroupSet(group, spec, y)


@settings(max_examples=160)
@given(
    operand_pairs(min_x=0, fields=ORACLE_FIELDS),
    st.integers(0, 150),
    st.sampled_from([1, 7, 1 << 16]),
    st.booleans(),
)
def test_kernel_matches_the_loops(operands, cutoff, block, dense):
    # the cutoff straddles |A||B| <= 144, so both paths run across examples;
    # an empty A enumerates one empty block
    a, b = operands
    dense = dense and mask_fits(a.spec)
    with paths(LOOPS, block):
        want = (
            product_set(a, b),
            rep_function(a, b, "inverse_left"),
            rep_function(a, b, "plain"),
            energy(a),
            product_energy(a),
        )
    with paths(cutoff, block, dense):
        got = (
            product_set(a, b),
            rep_function(a, b, "inverse_left"),
            rep_function(a, b, "plain"),
            energy(Products(a)),
            product_energy(Products(a)),
        )
    assert got[0] == want[0] and hash(got[0]) == hash(want[0])
    assert got[0].wires == want[0].wires
    assert got[1:] == want[1:]


ROUTE_FIELDS = [standard_field(q) for q in (5, 9, 256, 59049, 65521)]


def built_sets(a, b):
    """(route, set, its elements as triples) for every way a GroupSet is built."""
    spec, group = a.spec, a.group
    ab = pair_products(a, b)
    with paths(LOOPS, 1 << 18):
        loops = product_set(a, b)
    with paths(0, 5):
        kernel_built = product_set(a, b)
    tag = SubgroupTag("unipotent" if group == "T2" else "center")
    inverses = {ginv(spec, group, w) for w in a.wires}
    routes = [
        ("wires", GroupSet(group, spec, list(ab)), ab),
        ("loops", loops, ab),
        ("kernel", kernel_built, ab),
        ("members", tag.members(kernel_built), {w for w in ab if tag.member(spec, w)}),
        ("inverses", a.inverses(), inverses),
        ("symmetrized", a.symmetrized(), set(a.wires) | inverses | {gid(group)}),
        ("union", loops.union(b), ab | set(b.wires)),
        ("set file", setfile_from_json(explicit_setfile(loops).to_json()).elements, ab),
    ]
    if group_order(spec, group) <= 1000:
        whole = set(all_wires(spec, group))
        routes.append(("whole group", growth._whole_group(spec, group), whole))
    return routes


def all_wires(spec, group):
    units = range(1, spec.q) if group == "T2" else range(spec.q)
    return product(units, range(spec.q), units)


@settings(max_examples=60)
@given(operand_pairs(fields=ROUTE_FIELDS))
def test_key_built_sets_behave_like_tuple_built_ones(operands):
    """Every construction route gives the same len, ==, hash, wires,
    iteration, membership and subset relation as the set of its triples."""
    a, b = operands
    spec, group, q = a.spec, a.group, a.spec.q
    routes = built_sets(a, b)
    for route, got, elements in routes:
        want = GroupSet(group, spec, elements)
        canonical = tuple(sorted(elements, key=lambda w: wire_key(spec, w)))
        assert len(got) == len(elements), route
        assert got == want and want == got and hash(got) == hash(want), route
        assert got.wires == canonical and tuple(got) == canonical, route
        assert all(w in got and list(w) in got for w in elements), route
        # (a - 1, b + q, c) packs to the key of (a, b, c)
        assert not any((w[0] - 1, w[1] + q, w[2]) in got for w in elements), route
        outsider = next((w for w in all_wires(spec, group) if w not in elements), None)
        assert outsider is None or outsider not in got, route
        if outsider is not None and elements:
            traded = GroupSet(group, spec, canonical[1:] + (outsider,))
            assert got != traded and traded != got, route
            assert not got.subset_of(traded) and not traded.subset_of(got), route
    for route, x, xs in routes:
        for other, y, ys in routes:
            assert x.subset_of(y) == (xs <= ys), (route, other)


def test_kernel_runs_from_the_cutoff_on():
    """Without numpy the kernel runs from the cutoff on, and loads numpy;
    with numpy loaded it runs below the cutoff too."""
    spec = standard_field(101)
    a = GroupSet("T2", spec, [(1 + i % 100, i % 101, 1 + i // 100) for i in range(256)])
    b = GroupSet("T2", spec, a.wires[:255])
    assert len(a) * len(b) < growth.VECTOR_PAIRS == len(a) * len(a)
    script = f"""
import sys
from matgrowth import growth, standard_field
from matgrowth.groups import GroupSet

a = GroupSet("T2", standard_field(101), {list(a.wires)!r})
b = GroupSet("T2", a.spec, a.wires[:255])
def on_kernel(x, y):
    spent = growth._loop_pairs  # the loops count every pair they enumerate
    growth.product_set(x, y)
    return growth._loop_pairs == spent

kernel_built = [on_kernel(x, y) for x, y in [(a, b), (a, a), (a, b)]]
print(kernel_built, "numpy" in sys.modules)
"""
    assert run_fresh(script) == "[False, True, True] True"

    calls = []
    pair_kernel = kernel.pair_kernel

    def counted(*args, **kwargs):
        calls.append(len(args[0]) * len(args[1]))
        return pair_kernel(*args, **kwargs)

    with mock.patch.object(kernel, "pair_kernel", counted):
        below = product_set(a, b)
        at = product_set(a, a)
    assert calls == [len(a) * len(b), growth.VECTOR_PAIRS]
    with paths(LOOPS, 1 << 18):
        assert below == product_set(a, b) and at == product_set(a, a)


def test_loops_hand_over_once_their_spent_pairs_reach_the_cutoff():
    """In fresh interpreters: of two enumerations below the cutoff whose sum
    crosses it, the second runs the kernel; in a report, the cube A^2 A
    (1587 x 40 pairs, below the cutoff) runs the kernel, because the
    counting passes the loops ran before it bring the sum past the cutoff."""
    assert 200 * 200 < growth.VECTOR_PAIRS <= 200 * 200 + 180 * 180
    script = """
import sys
from matgrowth import growth, standard_field
from matgrowth.groups import GroupSet

a = GroupSet("T2", standard_field(101), [(1 + i % 100, i % 101, 1 + i // 100) for i in range(200)])
b = GroupSet("T2", a.spec, a.wires[:180])
def on_kernel(x, y):
    spent = growth._loop_pairs  # the loops count every pair they enumerate
    growth.product_set(x, y)
    return growth._loop_pairs == spent

first = on_kernel(a, a), "numpy" in sys.modules
print(first, on_kernel(b, b), growth._loop_pairs)
"""
    assert run_fresh(script) == "(False, False) True 40000"

    script = f"""
import json
import matgrowth as mg
from matgrowth import growth
from matgrowth.config import RunOptions
from matgrowth.reports import run_report

log = []
enumerate_pairs = growth._enumerate

def logged(X, Y, *args, **kwargs):
    spent = growth._loop_pairs
    out = enumerate_pairs(X, Y, *args, **kwargs)
    log.append((len(X), len(Y), growth._loop_pairs == spent))
    return out

growth._enumerate = logged
sf = mg.build_setfile("T2", mg.standard_field(101), {RANDOM40!r})
run_report(sf, RunOptions(bridge="off"))
print(json.dumps([len(growth.Products(sf.elements).square), log]))
"""
    square, log = json.loads(run_fresh(script))
    spent = 0
    for x, y, on_kernel in log:
        spent += x * y
        assert on_kernel == (spent >= growth.VECTOR_PAIRS)
    cube = log.index([square, 40, True])
    assert square * 40 < growth.VECTOR_PAIRS
    assert not any(on_kernel for _, _, on_kernel in log[:cube])


def sym3_operands(q):
    """A(2) x A(1) of a random 40-element set: 6349 x 81 pairs over F_101,
    nearly all products distinct."""
    P = Products(build_setfile("T2", standard_field(q), RANDOM40).elements)
    return P.sym(2), P.sym(1)


def unipotent_operands(q):
    """3000 x 3000 pairs of unipotent elements with only 5999 products."""
    X = GroupSet("T2", standard_field(q), [(1, b, 1) for b in range(3000)])
    return X, X


@pytest.mark.parametrize(
    "operands,q,counts,copies,blocks",
    [
        (sym3_operands, 101, False, 1, 3),
        (sym3_operands, 65521, False, 3, 8),
        (unipotent_operands, 65521, False, 3, 8),
        (unipotent_operands, 65521, True, 3, 8),
    ],
    ids=["sym3-F101-dense", "sym3-F65521", "unipotent-F65521", "unipotent-F65521-counts"],
)
def test_kernel_memory_follows_the_output(operands, q, counts, copies, blocks):
    """Under tracemalloc, which sees numpy's buffers, an enumeration peaks
    at its output plus ``blocks`` block-sized int64 temporaries, not at its
    pair count: plus the q^3 mask on the dense path, which writes its keys
    straight into the output, and with ``copies`` output-sized arrays while
    a merge holds the result, the pending blocks and their union on the
    sparse path."""
    X, Y = operands(q)
    tracemalloc.start()
    try:
        keys, mults = kernel.pair_kernel(X, Y, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = kernel._dense(q, len(X) * len(Y)) and not counts
    output = len(keys) * keys.itemsize + (mults.nbytes if counts else 0)
    assert peak <= copies * output + (q**3 if dense else 0) + blocks * 8 * kernel.BLOCK_PAIRS
    assert dense == (q == 101)


def top_of_range_operands(q, group):
    """Every triple over coordinates at the top of F_q, where the kernel's
    fused integer sums are largest: 1, p - 2 and p - 1 over a prime field,
    0, 1 and q - 1 (every digit p - 1) over F_59049."""
    spec = standard_field(q)
    top = [1, q - 2, q - 1] if spec.r == 1 else [0, 1, q - 1]
    units = [c for c in top if c]
    wires = product(units, top, units) if group == "T2" else product(top, repeat=3)
    return GroupSet(group, spec, list(wires))


@pytest.mark.parametrize("q,group", [(65521, "T2"), (65521, "H"), (59049, "H"), (59049, "T2")])
def test_fused_reductions_are_exact_at_the_top_of_the_range(q, group):
    a = top_of_range_operands(q, group)
    b = GroupSet(group, a.spec, a.wires[::-1][:20])
    with paths(LOOPS, 1 << 18):
        want = product_set(a, b), rep_function(a, b, "plain"), rep_function(a, a, "inverse_left")
    with paths(0, 7):
        got = product_set(a, b), rep_function(a, b, "plain"), rep_function(a, a, "inverse_left")
    assert got == want
    assert got[0].wires == want[0].wires


def test_members_memory_follows_the_keys():
    """S n U of a kernel-built product set runs its array form (numpy is
    loaded here) block by block: under tracemalloc it peaks below one
    int64 per element of S, where a tuple per element would take well
    over 64 bytes each."""
    random30 = {"kind": "random", "size": 30, "seed": 1}
    S = Products(build_setfile("T2", standard_field(65521), random30).elements).sym(3)
    tracemalloc.start()
    try:
        members = SubgroupTag("unipotent").members(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(S) > 200_000 and members == GroupSet("T2", S.spec, [w for w in S if w[0] == w[2] == 1])
    assert peak <= 8 * len(S)


def test_second_moment_is_exact_past_int64():
    counts = np.array([2**32, 3], dtype=np.int64)
    pairs = 2**32 + 3
    assert kernel.second_moment(counts, pairs) == 2**64 + 9


@pytest.mark.parametrize("q", [101, 256, 25, 5, 65521])
def test_products_ladder_on_the_kernel(q):
    """The ladder over H and T2, on the dense path (where the q^3 mask may
    be allocated) and on the sparse path, against the loops."""
    spec = standard_field(q)
    h = [(1, 0, 0), (0, 1, 0), (1, 1, 3), (2, 0, 1)]
    sets = {"H": h, "T2": [(x + 1, y, z + 1) for x, y, z in h]}
    for group, dense in [("H", False), ("H", True), ("T2", False), ("T2", True)]:
        if dense and not mask_fits(spec):
            continue
        a = GroupSet(group, spec, [tuple(c % q for c in w) for w in sets[group]])
        with paths(LOOPS, 1 << 18):
            loops = Products(a)
            want = [loops.sym(k) for k in range(1, 6)] + [loops.cube, loops.quotient]
            moments = loops.energy, loops.product_energy
        with paths(0, 3, dense):
            vec = Products(a)
            got = [vec.sym(k) for k in range(1, 6)] + [vec.cube, vec.quotient]
            assert (vec.energy, vec.product_energy) == moments
        assert got == want
        assert [s.wires for s in got] == [s.wires for s in want]


def test_small_runs_never_import_numpy():
    """Below the cutoff no path loads numpy; the last run crosses it."""
    script = """
import sys
import matgrowth as mg
from matgrowth.config import RunOptions
from matgrowth.incidence import bridge_report
from matgrowth.reports import run_report

def random_set(q, n):
    return mg.build_setfile("T2", mg.standard_field(q), {"kind": "random", "size": n, "seed": 1})

def loaded():
    return "numpy" in sys.modules or "matgrowth.kernel" in sys.modules

seen = [loaded()]
run_report(random_set(1021, 12), RunOptions(bridge="off"))
seen.append(loaded())
bridge_report(random_set(101, 40).elements)
seen.append(loaded())
run_report(random_set(101, 40), RunOptions(bridge="off"))
seen.append(loaded())
print(seen)
"""
    assert run_fresh(script) == "[False, False, False, True]"


# The process's thread count, its OPENBLAS_NUM_THREADS and whether numpy is loaded.
PROCESS_STATE = """
import json, os, sys
with open("/proc/self/status") as status:
    threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
print(json.dumps([threads, os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules]))
"""
# crosses the cutoff at its cube
REPORT_RANDOM40 = f"""
import matgrowth as mg
from matgrowth.config import RunOptions
from matgrowth.reports import run_report

run_report(mg.build_setfile("T2", mg.standard_field(101), {RANDOM40!r}), RunOptions(bridge="off"))
"""
# the process's only numpy use
ENERGY_ORACLE = """
from matgrowth import growth, standard_field
from matgrowth.groups import GroupSet

growth.energy_oracle(GroupSet("T2", standard_field(5), [(1, 0, 1), (2, 1, 3), (4, 4, 4)]))
"""
on_linux = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")


@on_linux
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one core OpenBLAS starts no worker")
@pytest.mark.parametrize("script", [REPORT_RANDOM40, ENERGY_ORACLE], ids=["report", "energy_oracle"])
def test_numpy_loads_with_one_blas_thread(script):
    """OpenBLAS starts no worker thread, and ``os.environ`` is left as found."""
    state = run_fresh(script + PROCESS_STATE, OPENBLAS_NUM_THREADS=None)
    assert json.loads(state) == [1, None, True]


@on_linux
def test_a_callers_blas_thread_count_is_kept():
    state = run_fresh(REPORT_RANDOM40 + PROCESS_STATE, OPENBLAS_NUM_THREADS="2")
    assert json.loads(state)[1:] == ["2", True]


# -- the per-element passes and the line profile as arrays -----------------------

PASS_FIELDS = [standard_field(q) for q in (5, 9, 256, 59049, 65521)]


def per_element():
    """The per-element forms of the passes over a set, as a run without numpy
    takes them."""
    return mock.patch.object(groups, "numpy_loaded", lambda: False)


@st.composite
def tagged_sets(draw, fields=PASS_FIELDS, max_size=12):
    """A tag of every kind, with its parameter, and a set of its group that
    may be empty; small coordinates make cosets and members collide."""
    spec = draw(st.sampled_from(fields))
    kind = draw(st.sampled_from(sorted(groups.SUBGROUP_KINDS)))
    group, param = groups.SUBGROUP_KINDS[kind].group, groups.SUBGROUP_KINDS[kind].param
    coord = st.one_of(st.integers(0, 2), st.integers(0, spec.q - 1))
    if param == "x":
        tag = SubgroupTag(kind, x=draw(coord))
    elif param == "direction":
        # alpha = 0, beta = 0 and both nonzero
        nonzero = st.integers(1, spec.q - 1)
        zero = st.just(0)
        direction = st.one_of(st.tuples(zero, nonzero), st.tuples(nonzero, zero), st.tuples(nonzero, nonzero))
        tag = SubgroupTag(kind, direction=draw(direction))
    else:
        tag = SubgroupTag(kind)
    unit = st.one_of(st.integers(1, 2), st.integers(1, spec.q - 1))
    wire = st.tuples(unit, coord, unit) if group == "T2" else st.tuples(coord, coord, coord)
    wires = draw(st.lists(wire, max_size=max_size, unique=True))
    if draw(st.booleans()):  # the identity lies in every subgroup
        wires.append((1, 0, 1) if group == "T2" else (0, 0, 0))
    return tag, GroupSet(group, spec, wires)


def coset_passes(tag, S):
    """keys, fibers, occupancy and members of S, each the message of the
    ParameterError it raises, if it does."""
    out = []
    for run in (tag.keys, tag.fibers, tag.occupancy, tag.members):
        try:
            out.append(run(S))
        except ParameterError as exc:
            out.append(str(exc))
    return out


@settings(max_examples=300)
@given(tagged_sets(), st.sampled_from([1, 3, 1 << 14]))
def test_coset_passes_match_their_per_element_forms(tagged, block):
    tag, S = tagged
    with per_element():
        want = coset_passes(tag, S)
    with mock.patch.object(kernel, "BLOCK_ELEMENTS", block):
        got = coset_passes(tag, S)
    assert got == want
    keys, fibers, occupancy, members = got
    skew = tag.kind == "line" and not tag.is_subgroup(S.spec)
    raised = [isinstance(out, str) for out in got]
    assert raised == [skew and len(S) > 0] * 3 + [False]
    if not skew:  # the JSON writers need Python ints
        assert all(type(c) is int for key in list(keys) + list(fibers) for c in key)
        assert all(type(n) is int for n in list(fibers.values()) + list(occupancy))
    assert members.wires == tuple(w for w in S if tag.member(S.spec, w))


def inverse_passes(S):
    return S.inverses(), S.symmetrized(), S.is_symmetric, S.symmetrized().is_symmetric


@settings(max_examples=150)
@given(tagged_sets(), st.sampled_from([1, 3, 1 << 14]))
def test_inverse_passes_match_their_per_element_forms(tagged, block):
    S = tagged[1]
    with per_element():
        want = inverse_passes(S)
    with mock.patch.object(kernel, "BLOCK_ELEMENTS", block):
        got = inverse_passes(S)
    assert got == want
    assert got[0] == GroupSet(S.group, S.spec, [ginv(S.spec, S.group, w) for w in S])
    assert got[3] and got[2] == (got[0] == S)


ALL_PASS_TAGS = [
    SubgroupTag("unipotent"), SubgroupTag("scalars"), SubgroupTag("diagonal"),
    SubgroupTag("torus", x=0), SubgroupTag("torus", x=1), SubgroupTag("torus", x=3),
    SubgroupTag("scaled_unipotent"), SubgroupTag("scaled_torus", x=2), SubgroupTag("center"),
    SubgroupTag("line", direction=(0, 1)), SubgroupTag("line", direction=(2, 0)),
    SubgroupTag("line", direction=(1, 1)), SubgroupTag("line_center", direction=(1, 3)),
]


@pytest.mark.parametrize("group", ["T2", "H"])
@pytest.mark.parametrize("spec", PASS_FIELDS, ids=lambda spec: f"q{spec.q}")
def test_passes_over_empty_and_one_element_sets(spec, group):
    ident = GroupSet(group, spec, [gid(group)])
    one = GroupSet(group, spec, [(2, 1, 3) if group == "T2" else (2, 1, 0)])
    tags = [tag for tag in ALL_PASS_TAGS if tag.group == group]
    for S in (GroupSet(group, spec), ident, one):
        with per_element():
            want = [coset_passes(tag, S) for tag in tags], inverse_passes(S)
        got = [coset_passes(tag, S) for tag in tags], inverse_passes(S)
        assert got == want
        assert got[1][1] == S.union(ident).union(got[1][0])
    skew = [passes for tag, passes in zip(tags, got[0]) if not tag.is_subgroup(spec)]
    assert all(isinstance(out, str) for passes in skew for out in passes[:3])


def line_paths(spec, points, unit_alpha):
    """``cosets.heaviest_line`` through the pair loop and through the kernel."""
    out = []
    for on_kernel in (False, True):
        with mock.patch.object(growth, "_use_kernel", lambda pairs: on_kernel):
            out.append(cosets.heaviest_line(spec, points, unit_alpha))
    return out


@st.composite
def weighted_points(draw):
    spec = draw(st.sampled_from(PASS_FIELDS + [standard_field(7), standard_field(16)]))
    coord = st.one_of(st.integers(0, 2), st.integers(0, spec.q - 1))
    points = draw(st.dictionaries(st.tuples(coord, coord), st.integers(1, 4), max_size=14))
    return spec, points


@settings(max_examples=300)
@given(weighted_points(), st.booleans(), st.sampled_from([1, 7, 1 << 16]))
def test_heaviest_line_matches_the_loop(drawn, unit_alpha, block):
    spec, points = drawn
    with mock.patch.object(kernel, "BLOCK_PAIRS", block):
        loop, arrays = line_paths(spec, points, unit_alpha)
    assert arrays == loop
    assert all(type(c) is int for c in (arrays.value, *arrays.witness))


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
@pytest.mark.parametrize(
    "points",
    [
        {},
        {(3, 4): 2},  # a lone point
        {(0, 2): 1, (1, 2): 3, (4, 2): 1},  # all parallel: one flat line
        {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 2},  # all on one sloped line
        {(2, 1): 5, (0, 0): 1, (1, 3): 1},  # a heavy point on light lines
    ],
    ids=["empty", "lone", "parallel", "sloped", "heavy-point"],
)
@pytest.mark.parametrize("unit_alpha", [False, True])
def test_heaviest_line_edge_cases(points, unit_alpha, block):
    spec = standard_field(5)
    with mock.patch.object(kernel, "BLOCK_PAIRS", block):
        loop, arrays = line_paths(spec, points, unit_alpha)
    assert arrays == loop
    if points == {(0, 2): 1, (1, 2): 3, (4, 2): 1}:
        # no line alpha = 1 holds two: the least line through the heaviest point
        assert (arrays.value, arrays.witness) == ((3, (1, 0, 1)) if unit_alpha else (5, (0, 1, 2)))


@settings(max_examples=60)
@given(st.data(), st.sampled_from([1, 7, 1 << 16]))
def test_line_profiles_on_the_kernel_match_the_sweeps(data, block):
    spec = data.draw(st.sampled_from([standard_field(q) for q in (5, 7, 9, 16)]))
    group = data.draw(st.sampled_from(["T2", "H"]))
    low = 1 if group == "T2" else 0
    wire = st.tuples(st.integers(low, spec.q - 1), st.integers(0, spec.q - 1), st.integers(low, spec.q - 1))
    A = GroupSet(group, spec, data.draw(st.lists(wire, min_size=1, max_size=14, unique=True)))
    with mock.patch.object(growth, "_use_kernel", lambda pairs: True):
        with mock.patch.object(kernel, "BLOCK_PAIRS", block):
            if group == "T2":
                m1 = cosets.t2_profile(A).m1
                assert (m1.value, m1.witness) == t2_m1_sweep(A)
            else:
                line = cosets.heis_profile(A).line_max
                assert (line.value, line.witness) == heis_line_sweep(A)


def test_heaviest_line_memory_follows_the_blocks():
    """Under tracemalloc a profile of 2000 points, about 2,000,000 pairs,
    peaks at a few block-sized temporaries, where one int64 per pair
    would take 16 MB."""
    spec = standard_field(65521)
    rng = np.random.default_rng(1)
    u, v, w = rng.integers(0, spec.q, 2000), rng.integers(0, spec.q, 2000), rng.integers(1, 4, 2000)
    points = dict(zip(zip(u.tolist(), v.tolist()), w.tolist()))
    pts = sorted(points.items())
    block = 16 * 8 * (kernel.BLOCK_PAIRS + len(pts))
    assert 8 * len(pts) * (len(pts) - 1) // 2 > block
    tracemalloc.start()
    try:
        kernel.heaviest_line(spec, pts, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= block
