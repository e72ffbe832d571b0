"""Input-boundary fuzz: mutated corpus set files, raw text and bytes, recipes and CLI arguments.

Every run goes through ``cli.main`` in process.  Whatever the input, the
command must end with an exit code in {0, 1, 2, 3} (argparse's usage
error is 2; ``verify`` may also end with 4) and must not print a
traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from matgrowth.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
SET_FILES = sorted(
    p.name for p in CORPUS.glob("*.json") if p.name not in ("manifest.json", "expected.json")
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.sampled_from([0, 1, 2, 3, 4, 7, 101, 65521, 65536, 65537, 2**31, 10**30]),
    st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# integer-like argument text, including out-of-range and malformed values
numbers = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["0", "64", "65", "65536", "65537", "1000000001", "10**9", "1e3", "x", ""]),
    st.integers(-(10**12), 10**12).map(str),
)
fractions = st.one_of(
    numbers,
    st.sampled_from(["1/0", "7/2", "-1/3", "1e-6", "1e99", "inf", "nan", "0.5"]),
)
# recipe fields: well-typed values next to the near misses a typed JSON
# boundary must refuse ("12", 12.9, true, a list with a string in it)
recipe_values = st.one_of(
    st.sampled_from([
        "12", 12.9, 12.0, True, False, None, -1, 0, 1, 3, 12,
        [], {}, [2, 0, 1], ["2", 0, 1], [1, 2.5],
    ]),
    st.text(max_size=3),
)
recipe_kinds = st.sampled_from(
    ["random", "subgroup", "coset", "box", "perturbed_coset", "union", "warp"]
)
tag_objects = st.fixed_dictionaries(
    {"kind": st.sampled_from(["unipotent", "torus", "line", "line_center", "center", "bogus"])},
    optional={
        "x": recipe_values,
        "direction": st.one_of(recipe_values, st.lists(recipe_values, max_size=3)),
    },
)
tags = st.sampled_from(
    ["scaled_unipotent", "unipotent", "center", "torus:3", "torus:x", "line:1,2",
     "line:1", "line_center:0,4", "bogus", ""]
)


@st.composite
def mutated_set_file(draw):
    doc = json.loads((CORPUS / draw(st.sampled_from(SET_FILES))).read_text())
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(
            ["key", "drop", "field", "element", "coordinate", "order", "truncate", "whole",
             "recipe"]
        ))
        elements = doc.get("elements") if isinstance(doc, dict) else None
        if how == "key" and isinstance(doc, dict):
            doc[draw(st.sampled_from(["schema", "group", "field", "generator", "elements"]))] = draw(json_values)
        elif how == "drop" and isinstance(doc, dict) and doc:
            doc.pop(draw(st.sampled_from(sorted(doc))))
        elif how == "field" and isinstance(doc, dict) and isinstance(doc.get("field"), dict):
            key = draw(st.sampled_from(["p", "r", "modulus"]))
            doc["field"][key] = draw(st.one_of(json_values, st.lists(st.integers(-2, 8), max_size=5)))
        elif how == "element" and isinstance(elements, list) and elements:
            elements[draw(st.integers(0, len(elements) - 1))] = draw(json_values)
        elif how == "coordinate" and isinstance(elements, list) and elements:
            w = elements[draw(st.integers(0, len(elements) - 1))]
            if isinstance(w, list) and w:
                w[draw(st.integers(0, len(w) - 1))] = draw(json_scalars)
        elif how == "order" and isinstance(elements, list):
            elements.reverse()
        elif how == "truncate" and isinstance(elements, list):
            del elements[draw(st.integers(0, len(elements))):]
        elif how == "whole":
            doc = draw(json_values)
        elif how == "recipe" and isinstance(doc, dict):
            if not isinstance(doc.get("generator"), dict):
                doc["generator"] = {"kind": draw(recipe_kinds)}
            key = draw(st.sampled_from(["kind", "size", "seed", "n", "swaps", "rep", "tag"]))
            values = {"kind": recipe_kinds, "tag": tag_objects}.get(key, recipe_values)
            doc["generator"][key] = draw(values)
    return doc


def flag(name, values):
    return st.tuples(st.just(name), values).map(list)


report_flags = st.one_of(
    flag("--lemma-k", numbers),
    flag("--intersection-k", numbers),
    flag("--bridge", st.sampled_from(["on", "off", "auto", "sideways"])),
    st.just(["--structure"]),
    st.just(["--timings"]),
    flag("--subgroup", tags),
    flag("--energy-constant", fractions),
    flag("--threads", numbers),
)
structure_flags = st.one_of(
    flag("--exponent", numbers), flag("--floor", numbers), flag("--budget", numbers)
)
gen_flags = st.one_of(
    flag("--group", st.sampled_from(["T2", "H", "GL"])),
    flag("--field", st.one_of(numbers, st.sampled_from(["5", "9", "64", "101", "65521"]))),
    flag("--modulus", st.sampled_from(["1,0,1", "2,1", "1,x", "1,1,1", ""])),
    flag("--kind", st.sampled_from(["random", "subgroup", "coset", "box", "perturbed_coset", "cube"])),
    flag("--size", numbers),
    flag("--seed", numbers),
    flag("--tag", tags),
    flag("--rep", st.sampled_from(["1,0,1", "2,0,1", "0,0,0", "1,2", "a,b,c"])),
    flag("--n", numbers),
    flag("--swaps", numbers),
)
probe_flags = st.one_of(
    flag("--field", st.one_of(numbers, st.sampled_from(["5", "7", "101"]))),
    flag("--points", numbers),
    flag("--planes", numbers),
    flag("--seed", numbers),
    flag("--constant", fractions),
)


@st.composite
def command_lines(draw, setfile: Path, out: str):
    command = draw(st.sampled_from(["report", "structure", "incidence", "probe", "gen", "verify"]))
    if command == "verify":
        # a one-set corpus: regenerates the (mutated) recipe and reads the
        # manifest options, with a subgroup tag that may be mistyped
        options = draw(st.one_of(st.just({}), st.fixed_dictionaries({"subgroup": tag_objects})))
        corpus = setfile.parent
        entry = {"name": "set", "file": setfile.name, "options": options}
        (corpus / "manifest.json").write_text(json.dumps({"sets": [entry]}))
        (corpus / "expected.json").write_text(
            json.dumps({"set": {"elements_sha256": "", "report_sha256": ""}})
        )
        return ["verify", str(corpus)]
    if command == "report":
        head, flags = ["report", str(setfile)], report_flags
    elif command == "structure":
        head, flags = ["structure", str(setfile)], structure_flags
    elif command == "incidence":
        head, flags = ["incidence", "--set", str(setfile)], flag("--constant", fractions)
    elif command == "probe":
        head, flags = ["incidence"], probe_flags
    else:
        head, flags = ["gen"], gen_flags
    extra = draw(st.lists(flags, max_size=5))
    return head + [part for pair in extra for part in pair] + ["--out", out]


@settings(max_examples=60)
@given(st.data())
def test_cli_survives_mutated_inputs(data):
    with tempfile.TemporaryDirectory() as tmp:
        setfile = Path(tmp) / "set.json"
        how = data.draw(st.integers(0, 9))
        if how > 1:
            setfile.write_text(json.dumps(data.draw(mutated_set_file())))
        elif how:
            setfile.write_text(data.draw(st.text(max_size=40)))
        else:
            setfile.write_bytes(data.draw(st.binary(max_size=40)))
        argv = data.draw(command_lines(setfile, str(Path(tmp) / "out.json")))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                assert exc.code == 1, (argv, err.getvalue())
                code = exc.code
        assert code in (0, 1, 2, 3) or (argv[0] == "verify" and code == 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
