"""The numpy pair kernel against the pure-Python wire loops it replaces.

``growth._use_kernel`` picks the path of every enumeration.  Collecting
this module loads numpy, so unpatched every enumeration here runs the
kernel; ``paths`` swaps in a plain pair-count cutoff: 0 runs the kernel
everywhere, ``LOOPS`` nowhere.  Small ``kernel.BLOCK_PAIRS`` values split
one product over many row blocks.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matgrowth import growth, kernel, standard_field
from matgrowth.groups import GroupSet
from matgrowth.growth import Products, energy, product_energy, product_set, rep_function

FIELDS = [standard_field(q) for q in (101, 65521, 256, 65536, 25, 59049)]
LOOPS = 1 << 62


@contextmanager
def paths(cutoff, block):
    """Run the kernel from ``cutoff`` pairs on, in blocks of ``block`` pairs."""
    with mock.patch.object(
        growth, "_use_kernel", lambda pairs: pairs >= cutoff
    ), mock.patch.object(kernel, "BLOCK_PAIRS", block):
        yield


def run_fresh(script: str) -> str:
    """The stdout of ``script`` run in a new interpreter on this checkout."""
    src = str(Path(growth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip()


@st.composite
def operand_pairs(draw):
    """Two sets of one ambient group; small coordinates make products collide."""
    spec = draw(st.sampled_from(FIELDS))
    group = draw(st.sampled_from(["T2", "H"]))
    low = 1 if group == "T2" else 0
    coord = st.one_of(st.integers(0, 3), st.integers(0, spec.q - 1))
    unit = st.one_of(st.integers(1, 3), st.integers(1, spec.q - 1))
    wire = st.tuples(unit, coord, unit) if low else st.tuples(coord, coord, coord)
    sets = st.lists(wire, min_size=1, max_size=12, unique=True)
    return GroupSet(group, spec, draw(sets)), GroupSet(group, spec, draw(sets))


@settings(max_examples=120)
@given(operand_pairs(), st.integers(0, 150), st.sampled_from([1, 7, 1 << 18]))
def test_kernel_matches_the_loops(operands, cutoff, block):
    # the cutoff straddles |A||B| <= 144, so both paths run across examples
    a, b = operands
    with paths(LOOPS, block):
        want = (
            product_set(a, b),
            rep_function(a, b, "inverse_left"),
            rep_function(a, b, "plain"),
            energy(a),
            product_energy(a),
        )
    with paths(cutoff, block):
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


@settings(max_examples=60)
@given(operand_pairs())
def test_key_built_sets_behave_like_tuple_built_ones(operands):
    a, b = operands
    with paths(LOOPS, 1 << 18):
        loop_ab, loop_a2 = product_set(a, b), product_set(a, a)
    with paths(0, 5):
        key_ab, key_a2 = product_set(a, b), product_set(a, a)
    assert key_ab._keys is not None and loop_ab._keys is None
    assert len(key_ab) == len(loop_ab)
    assert key_ab == loop_ab and loop_ab == key_ab
    assert hash(key_ab) == hash(loop_ab)
    assert (key_ab == key_a2) == (loop_ab == loop_a2)
    for x, y in [(key_ab, key_a2), (loop_ab, key_a2), (key_ab, loop_a2), (a, key_ab)]:
        want = set(x.wires) <= set(y.wires)
        assert x.subset_of(y) == want
    assert key_ab.wires == loop_ab.wires
    assert all(w in key_ab for w in loop_ab.wires)
    # one element traded for an outsider: same size, different set
    index = loop_ab._index
    unit = 1 if a.group == "T2" else 0
    outsider = next(w for w in ((unit, j, unit) for j in range(a.spec.q)) if w not in index)
    traded = GroupSet(a.group, a.spec, loop_ab.wires[1:] + (outsider,))
    assert key_ab != traded and traded != key_ab
    assert not key_ab.subset_of(traded) and not traded.subset_of(key_ab)


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
kernel_built = [growth.product_set(x, y)._keys is not None for x, y in [(a, b), (a, a), (a, b)]]
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


def test_second_moment_is_exact_past_int64():
    counts = np.array([2**32, 3], dtype=np.int64)
    pairs = 2**32 + 3
    assert kernel.second_moment(counts, pairs) == 2**64 + 9


@pytest.mark.parametrize("q", [101, 256, 25])
def test_products_ladder_on_the_kernel(q):
    spec = standard_field(q)
    a = GroupSet("H", spec, [(1, 0, 0), (0, 1, 0), (1, 1, 3), (2, 0, 1)])
    with paths(LOOPS, 1 << 18):
        loops = Products(a)
        want = [loops.sym(k) for k in range(1, 6)] + [loops.cube, loops.quotient]
        moments = loops.energy, loops.product_energy
    with paths(0, 3):
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
