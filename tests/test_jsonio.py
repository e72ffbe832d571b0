"""The streamed canonical writer, against the stdlib's indented form."""

import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matgrowth
from matgrowth import incidence, standard_field
from matgrowth.jsonio import write_json
from matgrowth.reports import bridge_json
from matgrowth.setfiles import build_setfile
from oracles import canonical_text

# quotes, escapes, control characters, non-ASCII and JSON's own punctuation
TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7f é ß ∑ 漢 😀 []{},: '
# lone surrogates have no UTF-8 form, in either writer
texts = st.text(
    alphabet=st.sampled_from(TRICKY) | st.characters(exclude_categories=["Cs"]), max_size=12
)
floats = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e16, 1e-7, 1.5, -2.25e300]
)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, -1, True, False, 2**70])
    | floats
    | texts
)
values = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(texts, inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=200)
@given(values)
def test_written_bytes_are_the_stdlib_canonical_form(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "canonical.json"
    write_json(path, obj)
    assert path.read_bytes() == canonical_text(obj).encode("utf-8")


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}, ()]},
        "",
        0,
        None,
        [True, 1, False, 0, 1.0],
        {"x": [math.inf, -math.inf, math.nan, -0.0, 1e16, 1e-7]},
        {3: "int", 1: "keys", 2: "sort as ints"},
        {1.5: "float", 0.25: "keys"},
        {True: "bool", False: "keys"},
        {None: "null key"},
        {"é": 1, "e": 2, "∑": 3, '"': 4},
    ],
)
def test_edge_values_match_the_stdlib(tmp_path, obj):
    path = tmp_path / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == canonical_text(obj).encode("utf-8")


@pytest.mark.parametrize(
    "bad, error",
    [
        ({"ok": [1, 2, {Fraction(1, 2)}]}, TypeError),
        ({"ok": 1, "bad": Fraction(1, 3)}, TypeError),
        ([object()], TypeError),
        ({(1, 2): "tuple key"}, TypeError),
        ({"lone surrogate": "\ud800"}, UnicodeEncodeError),
    ],
)
def test_unencodable_value_leaves_the_target_untouched(tmp_path, bad, error):
    path = tmp_path / "out.json"
    write_json(path, {"before": True})
    before = path.read_bytes()
    with pytest.raises(error):
        write_json(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]  # no temporary left
    with pytest.raises(error):
        write_json(tmp_path / "never.json", bad)
    assert not (tmp_path / "never.json").exists()


def test_writing_a_bridge_holds_less_than_the_file(tmp_path):
    # the incidence benchmark workload's seed-1 T2/F_101 set: 750 classes,
    # whose bridge is about 0.8 MB of JSON; the stdlib join held about
    # ten times that on top of the payload
    sf = build_setfile("T2", standard_field(101), {"kind": "random", "size": 40, "seed": 2163162059})
    payload = {"bridge": bridge_json(incidence.bridge_report(sf.elements))}
    path = tmp_path / "bridge.json"
    tracemalloc.start()
    try:
        write_json(path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert payload["bridge"]["class_count"] == 750
    assert path.read_bytes() == canonical_text(payload).encode("utf-8")
    assert peak < size


def test_a_flat_list_is_written_in_bounded_memory(tmp_path):
    # a list of scalars closes only at its end, so the writer must write
    # out its pieces as it goes, not when the list closes
    payload = {"flat": list(range(200_000)), "text": ["x" * 8] * 50_000}
    path = tmp_path / "flat.json"
    tracemalloc.start()
    try:
        write_json(path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_bytes() == canonical_text(payload).encode("utf-8")
    assert size > 3_000_000
    assert peak < size // 10


def test_a_regular_file_keeps_its_inode_mode_and_links(tmp_path):
    target = tmp_path / "target.json"
    write_json(target, [1])
    target.chmod(0o600)
    link = tmp_path / "hard.json"
    os.link(target, link)
    inode = target.stat().st_ino
    write_json(target, {"a": [2]})
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert link.read_bytes() == canonical_text({"a": [2]}).encode("utf-8")


def test_stdout_is_written_in_place():
    # /dev/stdout of a process whose stdout is an anonymous pipe resolves
    # to no path at all; it must still be written like a file
    src = str(Path(matgrowth.__file__).resolve().parents[1])
    script = "from matgrowth.jsonio import write_json; write_json('/dev/stdout', {'a': [1, 'é']})"
    run = subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert run.stdout == canonical_text({"a": [1, "é"]}).encode("utf-8")


def test_a_symlink_is_written_through(tmp_path):
    target = tmp_path / "target.json"
    write_json(target, [1])
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_json(link, {"a": [2]})
    assert link.is_symlink()
    assert target.read_bytes() == canonical_text({"a": [2]}).encode("utf-8")


def test_a_pipe_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_json(fifo, {"a": 1})
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [canonical_text({"a": 1}).encode("utf-8")]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
