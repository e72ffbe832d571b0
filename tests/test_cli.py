"""End-to-end runs of the five subcommands against temp directories."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matgrowth
from matgrowth.cli import main, parse_field, parse_tag, parse_triple
from matgrowth.errors import MatGrowthError, ParameterError
from matgrowth.ffield import standard_field
from matgrowth.groups import SUBGROUP_KINDS, GroupSet, SubgroupTag
from matgrowth.jsonio import digest, read_json, write_json
from matgrowth.reports import run_report
from matgrowth.rng import SplitMix64
from matgrowth.setfiles import RECIPE_FIELDS, explicit_setfile, load_setfile, save_setfile


def gen_random(tmp_path, name="a.json", group="T2", field="7", size=12, seed=5):
    path = tmp_path / name
    code = main(
        [
            "gen",
            "--group",
            group,
            "--field",
            field,
            "--kind",
            "random",
            "--size",
            str(size),
            "--seed",
            str(seed),
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


# -- argument helpers -----------------------------------------------------------


def test_parse_tag_forms():
    assert parse_tag("scaled_unipotent") == SubgroupTag("scaled_unipotent")
    assert parse_tag("torus:3") == SubgroupTag("torus", x=3)
    assert parse_tag("line:1,2") == SubgroupTag("line", direction=(1, 2))
    assert parse_tag("line_center:0,4") == SubgroupTag("line_center", direction=(0, 4))


# A valid parameter of each kind of parameter, and malformed or superfluous ones.
TAG_PARAMETERS = {
    None: ("", {}, [":5", ":1,2", ":"]),
    "x": (":3", {"x": 3}, ["", ":", ":abc", ":1,2"]),
    "direction": (":0,4", {"direction": (0, 4)}, ["", ":", ":1", ":1,x", ":1,2,3"]),
}


@pytest.mark.parametrize("kind", sorted(SUBGROUP_KINDS))
def test_parse_tag_reads_the_parameter_its_kind_takes(kind):
    suffix, fields, refused = TAG_PARAMETERS[SUBGROUP_KINDS[kind].param]
    assert parse_tag(kind + suffix) == SubgroupTag(kind, **fields)
    for bad in refused:
        with pytest.raises(ParameterError, match="^bad parameter in subgroup tag "):
            parse_tag(kind + bad)


def test_parse_tag_names_an_unknown_kind_before_its_parameter():
    with pytest.raises(ParameterError, match="^unknown subgroup kind 'borel'$"):
        parse_tag("borel:3")


def test_parse_field_with_explicit_modulus():
    spec = parse_field("9", "1,0,1")
    assert spec.q == 9
    assert tuple(spec.modulus) == (1, 0, 1)
    assert parse_field("25", None).q == 25


def test_parse_triple_rejects_short_input():
    assert parse_triple("1,2,3") == (1, 2, 3)
    with pytest.raises(MatGrowthError):
        parse_triple("1,2")


# -- gen ----------------------------------------------------------------------


def test_gen_random_writes_a_loadable_set(tmp_path, capsys):
    path = gen_random(tmp_path)
    out = capsys.readouterr().out
    assert "12 elements" in out
    sf = load_setfile(path)
    assert len(sf.elements) == 12
    assert sf.generator == {"kind": "random", "size": 12, "seed": 5}


def test_gen_other_kinds(tmp_path):
    sub = tmp_path / "sub.json"
    assert (
        main(
            ["gen", "--group", "T2", "--field", "5", "--kind", "subgroup",
             "--tag", "unipotent", "--out", str(sub)]
        )
        == 0
    )
    assert len(load_setfile(sub).elements) == 5

    cs = tmp_path / "coset.json"
    assert (
        main(
            ["gen", "--group", "T2", "--field", "7", "--kind", "coset",
             "--tag", "scaled_unipotent", "--rep", "3,0,1", "--out", str(cs)]
        )
        == 0
    )
    assert len(load_setfile(cs).elements) == 42

    box = tmp_path / "box.json"
    assert (
        main(
            ["gen", "--group", "H", "--field", "101", "--kind", "box",
             "--n", "2", "--out", str(box)]
        )
        == 0
    )
    assert len(load_setfile(box).elements) == 16

    pc = tmp_path / "pc.json"
    assert (
        main(
            ["gen", "--group", "T2", "--field", "7", "--kind", "perturbed_coset",
             "--tag", "scaled_unipotent", "--rep", "3,0,1", "--swaps", "4",
             "--seed", "77", "--out", str(pc)]
        )
        == 0
    )
    assert len(load_setfile(pc).elements) == 42


def test_gen_missing_arguments_fail_cleanly(tmp_path, capsys):
    code = main(
        ["gen", "--group", "T2", "--field", "7", "--kind", "random",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


GEN_FLAGS = {"size": "12", "seed": "5", "tag": "unipotent", "rep": "3,0,1", "n": "2", "swaps": "1"}
GEN_NEEDS = {
    "random": "random generation needs --size and --seed",
    "subgroup": "subgroup generation needs --tag",
    "coset": "coset generation needs --tag and --rep",
    "box": "box generation needs --n",
    "perturbed_coset": "perturbed_coset generation needs --tag, --rep, --swaps and --seed",
}


@pytest.mark.parametrize(
    "kind, dropped",
    [(kind, key) for kind in GEN_NEEDS for key in (None, *RECIPE_FIELDS[kind])],
)
def test_gen_names_every_flag_its_kind_needs(tmp_path, capsys, kind, dropped):
    out = tmp_path / "x.json"
    flags = [arg for key in RECIPE_FIELDS[kind] if key != dropped for arg in (f"--{key}", GEN_FLAGS[key])]
    group = "H" if kind == "box" else "T2"
    code = main(["gen", "--group", group, "--field", "101", "--kind", kind, *flags, "--out", str(out)])
    if dropped is None:
        assert code == 0 and out.exists()
        return
    assert code == 1
    assert capsys.readouterr().err == f"error: {GEN_NEEDS[kind]}\n"
    assert not out.exists()


def test_gen_offers_every_recipe_kind_but_union(capsys):
    assert set(GEN_NEEDS) == set(RECIPE_FIELDS) - {"union"}
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--group", "T2", "--field", "5", "--kind", "union", "--out", "x"])
    assert exc.value.code == 1
    assert "invalid choice: 'union'" in capsys.readouterr().err


def test_bad_input_paths_fail_cleanly(tmp_path, capsys):
    code = main(["report", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err

    code = main(["verify", str(tmp_path / "nocorpus")])
    assert code == 1
    assert "error:" in capsys.readouterr().err

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json", encoding="utf-8")
    code = main(["report", str(mangled), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


MALFORMED_JSON = {
    "long_integer": b'{"p": ' + b"9" * 5000 + b"}",
    "not_utf8": b'{"p": "\xff"}',
    "deep_nesting": b"[" * 100_000,
    "not_json": b"{not json",
}


@pytest.mark.parametrize("command", ["report", "structure", "incidence", "verify"])
@pytest.mark.parametrize("content", sorted(MALFORMED_JSON))
def test_malformed_json_is_one_error_line(tmp_path, capsys, command, content):
    # past Python's integer digit limit, not UTF-8, nested past the
    # recursion limit, or not JSON: each exits 1 with one line, no traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED_JSON[content])
    out = str(tmp_path / "r.json")
    argv = {
        "report": ["report", str(bad), "--out", out],
        "structure": ["structure", str(bad), "--out", out],
        "incidence": ["incidence", "--set", str(bad), "--out", out],
        "verify": ["verify", str(tmp_path), "--manifest", str(bad)],
    }[command]
    assert main(argv) == 1
    assert_one_error_line(capsys)


def report_on_edited_set(tmp_path, edit):
    path = gen_random(tmp_path)
    obj = read_json(path)
    edit(obj)
    write_json(path, obj)
    return main(["report", str(path), "--out", str(tmp_path / "r.json")])


def test_set_file_without_field_fails_cleanly(tmp_path, capsys):
    assert report_on_edited_set(tmp_path, lambda obj: obj.pop("field")) == 1
    assert_one_error_line(capsys)


def test_set_file_with_non_integer_element_fails_cleanly(tmp_path, capsys):
    def edit(obj):
        obj["elements"][0][1] = "abc"

    assert report_on_edited_set(tmp_path, edit) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("tag", ["torus:abc", "line:1", "center:1,2"])
def test_gen_bad_tag_parameter_fails_cleanly(tmp_path, capsys, tag):
    code = main(
        ["gen", "--group", "H", "--field", "7", "--kind", "subgroup",
         "--tag", tag, "--out", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "args",
    [
        ["--field", "abc", "--kind", "random", "--size", "3", "--seed", "1"],
        ["--field", "7", "--kind", "coset", "--tag", "unipotent", "--rep", "1,x,3"],
    ],
    ids=["field", "rep"],
)
def test_gen_non_integer_argument_fails_cleanly(tmp_path, capsys, args):
    code = main(["gen", "--group", "T2", *args, "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert_one_error_line(capsys)


def test_gen_refuses_a_subgroup_past_the_set_cap(tmp_path, capsys, monkeypatch):
    # |H| = 65520 * 65521; the refusal comes from the closed-form order
    def no_build(self, spec):
        raise AssertionError("the subgroup was built")

    monkeypatch.setattr(SubgroupTag, "elements", no_build)
    for kind, extra in [
        ("subgroup", []),
        ("coset", ["--rep", "2,0,1"]),
        ("perturbed_coset", ["--rep", "2,0,1", "--swaps", "1", "--seed", "1"]),
    ]:
        code = main(
            ["gen", "--group", "T2", "--field", "65521", "--kind", kind,
             "--tag", "scaled_unipotent", *extra, "--out", str(tmp_path / "x.json")]
        )
        assert code == 3
        assert_one_error_line(capsys)
    assert not (tmp_path / "x.json").exists()


def test_gen_refuses_a_perturbed_coset_of_the_whole_group(tmp_path):
    # |unipotent| = |T2(F_2)| = 2, so no outsider exists to swap in; the
    # run is a subprocess with a timeout, so a draw that never ends fails
    out = tmp_path / "x.json"
    src = str(Path(matgrowth.__file__).resolve().parents[1])

    def gen(swaps):
        return subprocess.run(
            [sys.executable, "-m", "matgrowth", "gen", "--group", "T2", "--field", "2",
             "--kind", "perturbed_coset", "--tag", "unipotent", "--rep", "1,0,1",
             "--swaps", str(swaps), "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )

    run = gen(1)
    assert run.returncode == 1 and not out.exists()
    assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1
    assert "no outsider" in run.stderr
    assert gen(0).returncode == 0
    assert load_setfile(out).elements == SubgroupTag("unipotent").elements(standard_field(2))


# -- report ---------------------------------------------------------------------


def test_report_command(tmp_path, capsys):
    setpath = gen_random(tmp_path)
    out = tmp_path / "report.json"
    csvpath = tmp_path / "report.csv"
    code = main(
        ["report", str(setpath), "--out", str(out), "--csv", str(csvpath)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "exit=0" in printed
    rep = read_json(out)
    assert rep["schema"] == "matgrowth.report.v1"
    assert rep["status"]["exit_code"] == 0
    assert csvpath.read_text(encoding="utf-8").startswith("key,value")


def test_report_summary_names_a_capped_growth_section(tmp_path, capsys):
    # 4000^2 pairs pass the pair cap, so every product of the growth section
    # is refused; the summary gives the set's size and says so
    setpath = gen_random(tmp_path, name="big.json", field="101", size=4000, seed=1)
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main(["report", str(setpath), "--bridge", "off", "--out", str(out)]) == 3
    assert "error" in read_json(out)["growth"]
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary == f"{setpath}: size=4000 growth=capped exit=3"


def test_report_flag_issues_propagate_to_exit_code(tmp_path, capsys):
    setpath = gen_random(tmp_path, name="big.json", field="5", size=30, seed=1)
    out = tmp_path / "report.json"
    code = main(["report", str(setpath), "--out", str(out)])
    assert code == 2
    assert "issue: flag_" in capsys.readouterr().out


def test_report_option_flags(tmp_path):
    setpath = gen_random(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        ["report", str(setpath), "--out", str(out), "--lemma-k", "4",
         "--bridge", "off", "--subgroup", "torus:0", "--timings"]
    )
    assert code == 0
    rep = read_json(out)
    assert rep["options"]["lemma_k"] == 4
    assert rep["bridge"] == {"skipped": "disabled"}
    assert rep["subgroup"]["tag"] == {"kind": "torus", "x": 0}
    assert "timings" in rep


# -- incidence --------------------------------------------------------------------


def test_incidence_bridge_mode(tmp_path, capsys):
    setpath = gen_random(tmp_path, size=8, seed=2)
    out = tmp_path / "inc.json"
    code = main(["incidence", "--set", str(setpath), "--out", str(out)])
    assert code == 0
    assert "match=True" in capsys.readouterr().out
    payload = read_json(out)
    assert payload["bridge"]["matches_energy"]


def test_incidence_probe_mode(tmp_path, capsys):
    out = tmp_path / "probe.json"
    code = main(
        ["incidence", "--field", "7", "--points", "40", "--planes", "55",
         "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    probe = read_json(out)["probe"]
    assert probe["incidences"] == 275
    assert probe["max_collinear"] == 4
    assert "incidences=275" in capsys.readouterr().out


def test_bridge_on_a_large_unipotent_subgroup_is_refused(tmp_path, capsys):
    # one class of 101^2 pairs: every bridge loop would take 10^8 steps
    sub = tmp_path / "u101.json"
    main(["gen", "--group", "T2", "--field", "101", "--kind", "subgroup",
          "--tag", "unipotent", "--out", str(sub)])
    capsys.readouterr()
    start = time.perf_counter()
    out = tmp_path / "r.json"
    assert main(["report", str(sub), "--bridge", "on", "--out", str(out)]) == 3
    bridge = read_json(out)["bridge"]
    assert bridge == {"error": "quadruple count of 10201 x 10201 pairs exceeds pair cap 10000000"}
    capsys.readouterr()
    assert main(["incidence", "--set", str(sub), "--out", str(tmp_path / "i.json")]) == 3
    assert_one_error_line(capsys)
    assert time.perf_counter() - start < 30


def test_sum_set_past_the_pair_cap_is_refused(tmp_path, capsys):
    # 70 unipotent elements over F_65521: A(4) fits under the pair cap and
    # its corners fill the field, so X + DX would take 65521^2 steps
    rng = SplitMix64(3)
    spec = standard_field(65521)
    A = GroupSet("T2", spec, [(1, rng.below(65521), 1) for _ in range(70)])
    path = tmp_path / "u.json"
    save_setfile(path, explicit_setfile(A))
    start = time.perf_counter()
    out = tmp_path / "r.json"
    assert main(["report", str(path), "--structure", "--out", str(out)]) == 3
    refusal = "sum set of 65521 x 65521 elements exceeds pair cap 10000000"
    assert read_json(out)["structure"]["sum_product"] == {"error": refusal}
    capsys.readouterr()
    assert main(["structure", str(path), "--out", str(tmp_path / "s.json")]) == 3
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert time.perf_counter() - start < 30


def test_incidence_probe_needs_sizes(tmp_path):
    code = main(["incidence", "--field", "7", "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_incidence_probe_without_a_field_fails_cleanly(tmp_path, capsys):
    code = main(
        ["incidence", "--points", "5", "--planes", "5", "--seed", "1",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert_one_error_line(capsys)


# -- structure --------------------------------------------------------------------


def test_structure_command(tmp_path, capsys):
    sub = tmp_path / "sub.json"
    main(
        ["gen", "--group", "T2", "--field", "5", "--kind", "subgroup",
         "--tag", "scaled_unipotent", "--out", str(sub)]
    )
    out = tmp_path / "scan.json"
    code = main(["structure", str(sub), "--out", str(out)])
    assert code == 0
    assert "verdict=POTENT" in capsys.readouterr().out
    payload = read_json(out)
    assert payload["scan"]["verdict"] == "POTENT"
    assert "sum_product" in payload


# -- verify -----------------------------------------------------------------------


def build_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    gen_random(corpus, name="sample.json")
    sf = load_setfile(corpus / "sample.json")
    rep, code = run_report(sf)
    write_json(
        corpus / "manifest.json",
        {"sets": [{"name": "sample", "file": "sample.json", "options": {}}]},
    )
    write_json(
        corpus / "expected.json",
        {
            "sample": {
                "elements_sha256": sf.elements_digest,
                "report_sha256": digest(rep),
                "exit_code": code,
                "values": {"growth.size": 12},
            }
        },
    )
    return corpus


def test_verify_passes_on_a_fresh_corpus(tmp_path, capsys):
    corpus = build_corpus(tmp_path)
    assert main(["verify", str(corpus)]) == 0
    assert "[ok] sample" in capsys.readouterr().out


def test_verify_catches_tampered_expectations(tmp_path, capsys):
    corpus = build_corpus(tmp_path)
    expected = read_json(corpus / "expected.json")
    expected["sample"]["values"]["growth.size"] = 13
    write_json(corpus / "expected.json", expected)
    assert main(["verify", str(corpus)]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] sample" in out
    assert "growth.size" in out


def test_verify_catches_tampered_elements(tmp_path, capsys):
    corpus = build_corpus(tmp_path)
    obj = read_json(corpus / "sample.json")
    obj["elements"] = obj["elements"][:-1]
    write_json(corpus / "sample.json", obj)
    assert main(["verify", str(corpus)]) == 4
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "generator", ["random", {"kind": "random"}, {"kind": "random", "size": "x", "seed": 1}]
)
def test_verify_reports_a_malformed_generator(tmp_path, capsys, generator):
    corpus = build_corpus(tmp_path)
    obj = read_json(corpus / "sample.json")
    obj["generator"] = generator
    write_json(corpus / "sample.json", obj)
    assert main(["verify", str(corpus)]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] sample: " in out and "generator recipe" in out


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("size", "12", "generator recipe size must be a JSON int, got '12'"),
        ("size", 12.9, "generator recipe size must be a JSON int, got 12.9"),
        ("seed", True, "generator recipe seed must be a JSON int, got True"),
    ],
    ids=["string_size", "float_size", "bool_seed"],
)
def test_verify_needs_json_ints_in_the_recipe(tmp_path, capsys, key, value, message):
    corpus = build_corpus(tmp_path)
    obj = read_json(corpus / "sample.json")
    obj["generator"][key] = value
    write_json(corpus / "sample.json", obj)
    assert main(["verify", str(corpus)]) == 4
    assert f"[FAIL] sample: {message}" in capsys.readouterr().out


def test_verify_needs_json_ints_in_a_subgroup_direction(tmp_path, capsys):
    corpus = build_corpus(tmp_path)
    manifest = read_json(corpus / "manifest.json")
    manifest["sets"][0]["options"] = {
        "subgroup": {"kind": "line_center", "direction": ["1", 2.5]}
    }
    write_json(corpus / "manifest.json", manifest)
    assert main(["verify", str(corpus)]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] sample: subgroup direction must be a JSON int, got '1'" in out


@pytest.mark.parametrize("name", ["energy_constant", "incidence_constant"])
def test_verify_names_a_negative_manifest_constant(tmp_path, capsys, name):
    corpus = build_corpus(tmp_path)
    manifest = read_json(corpus / "manifest.json")
    manifest["sets"][0]["options"] = {name: {"num": -1, "den": 1}}
    write_json(corpus / "manifest.json", manifest)
    capsys.readouterr()
    assert main(["verify", str(corpus)]) == 4
    assert capsys.readouterr().out == f"[FAIL] sample: {name} must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "which, content, message",
    [
        ("manifest", {}, "manifest needs a JSON array 'sets'"),
        ("expected", [], "expected file must be a JSON object"),
    ],
    ids=["manifest_without_sets", "expected_as_a_list"],
)
def test_verify_refuses_a_malformed_corpus_file_in_one_line(
    tmp_path, capsys, which, content, message
):
    corpus = build_corpus(tmp_path)
    write_json(corpus / f"{which}.json", content)
    capsys.readouterr()
    assert main(["verify", str(corpus)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _drop_entry_key(key):
    def edit(manifest, expected):
        entry = manifest["sets"][0]
        manifest["sets"].insert(0, {k: v for k, v in entry.items() if k != key})

    return edit


def _drop_elements_digest(manifest, expected):
    del expected["sample"]["elements_sha256"]


def _values_as_a_list(manifest, expected):
    expected["sample"]["values"] = [["growth.size", 12]]


def _values_path(path):
    def edit(manifest, expected):
        expected["sample"]["values"] = {path: 1}

    return edit


@pytest.mark.parametrize(
    "edit, out",
    [
        (_drop_entry_key("name"), "[FAIL] sets[0]: manifest entry needs a JSON string 'name'\n"
                                  "[ok] sample\n"),
        (_drop_entry_key("file"), "[FAIL] sample: manifest entry needs a JSON string 'file'\n"
                                  "[ok] sample\n"),
        (_drop_elements_digest,
         "[FAIL] sample: expected record needs a JSON string 'elements_sha256'\n"),
        (_values_as_a_list, "[FAIL] sample: expected record needs a JSON object 'values'\n"),
        (_values_path("growth.lemma_checks.x"),
         "[FAIL] sample: growth.lemma_checks.x: '<missing>' != 1\n"),
        (_values_path("growth.lemma_checks.-1"),
         "[FAIL] sample: growth.lemma_checks.-1: '<missing>' != 1\n"),
    ],
    ids=["entry_without_name", "entry_without_file", "record_without_elements_digest",
         "values_as_a_list", "values_path_with_a_word_for_an_index",
         "values_path_with_a_negative_index"],
)
def test_verify_fails_a_malformed_set_entry_and_goes_on(tmp_path, capsys, edit, out):
    # each of these exited 1 with a traceback (KeyError, AttributeError,
    # ValueError), except the negative index, which read the list from its end
    corpus = build_corpus(tmp_path)
    manifest = read_json(corpus / "manifest.json")
    expected = read_json(corpus / "expected.json")
    edit(manifest, expected)
    write_json(corpus / "manifest.json", manifest)
    write_json(corpus / "expected.json", expected)
    capsys.readouterr()
    assert main(["verify", str(corpus)]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")


def test_verify_fails_a_missing_set_file_and_goes_on(tmp_path, capsys):
    # an unreadable set file used to end the run with exit 1, leaving the
    # sets after it unchecked
    corpus = build_corpus(tmp_path)
    manifest = read_json(corpus / "manifest.json")
    manifest["sets"].insert(0, {"name": "sample", "file": "missing.json"})
    write_json(corpus / "manifest.json", manifest)
    capsys.readouterr()
    assert main(["verify", str(corpus)]) == 4
    failed, ok = capsys.readouterr().out.splitlines()
    assert failed.startswith("[FAIL] sample: ") and "missing.json" in failed
    assert ok == "[ok] sample"


def test_report_refuses_the_deleted_threads_flag(tmp_path, capsys):
    path = gen_random(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["report", str(path), "--threads", "2", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == "error: unrecognized arguments: --threads 2\n"


@pytest.mark.parametrize(
    "constant, reason",
    [("abc", "is not a number"), ("1/0", "divides by zero"), ("-1", "is negative"),
     ("1e99", "is too large")],
)
def test_a_refused_constant_is_one_usage_error_line(tmp_path, capsys, constant, reason):
    # exit 2 is a failed check or flag, so a usage error must not use it
    path = gen_random(tmp_path)
    argv = ["report", str(path), "--out", str(tmp_path / "r.json"), "--energy-constant", constant]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == f"error: argument --energy-constant: constant {constant!r} {reason}\n"
    assert not (tmp_path / "r.json").exists()


def _set_element(obj, value):
    obj["elements"][0] = value


def _set_field_p(obj, value):
    obj["field"]["p"] = value


@pytest.mark.parametrize(
    "mutate, value, message",
    [
        (_set_element, [2.5, 0, 1], "set file elements must be lists of integers"),
        (_set_element, ["2", 0, 1], "set file elements must be lists of integers"),
        (_set_element, [True, 0, 1], "set file elements must be lists of integers"),
        (_set_field_p, "7", "field p must be a JSON int, got '7'"),
    ],
    ids=["float_coordinate", "string_coordinate", "bool_coordinate", "string_p"],
)
def test_set_files_need_json_integers(tmp_path, capsys, mutate, value, message):
    corpus = build_corpus(tmp_path)
    obj = read_json(corpus / "sample.json")
    mutate(obj, value)
    write_json(corpus / "sample.json", obj)
    assert main(["report", str(corpus / "sample.json"), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert main(["verify", str(corpus)]) == 4
    assert f"[FAIL] sample: {message}" in capsys.readouterr().out


@pytest.mark.parametrize("budget", [0, -1, 65])
def test_a_reach_budget_outside_1_to_64_is_refused(tmp_path, capsys, budget):
    # a budget below 1 used to run and report INCONCLUSIVE, "not reached
    # within budget 0"
    corpus = build_corpus(tmp_path)
    argv = ["structure", str(corpus / "sample.json"), "--budget", str(budget)]
    assert main([*argv, "--out", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err == "error: reach budget must be in 1..64\n"
    assert not (tmp_path / "s.json").exists()
    manifest = read_json(corpus / "manifest.json")
    manifest["sets"][0]["options"] = {"structure": True, "structure_opts": {"reach_budget": budget}}
    write_json(corpus / "manifest.json", manifest)
    assert main(["verify", str(corpus)]) == 4
    assert "[FAIL] sample: reach budget must be in 1..64" in capsys.readouterr().out


def test_verify_needs_a_json_bool_for_structure(tmp_path, capsys):
    corpus = build_corpus(tmp_path)
    manifest = read_json(corpus / "manifest.json")
    manifest["sets"][0]["options"] = {"structure": "false"}
    write_json(corpus / "manifest.json", manifest)
    assert main(["verify", str(corpus)]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] sample: structure must be a JSON bool, got 'false'" in out


WRONG_GROUP_TAGS = [("T2", "center"), ("H", "unipotent")]


@pytest.mark.parametrize("group, tag", WRONG_GROUP_TAGS)
def test_report_refuses_a_tag_of_the_other_group(tmp_path, capsys, group, tag):
    # the T2 set once ran with a spurious covering issue (exit 2), the H set
    # with a meaningless subgroup section (exit 0)
    path = gen_random(tmp_path, group=group, size=10, seed=1)
    capsys.readouterr()
    out = tmp_path / "r.json"
    assert main(["report", str(path), "--subgroup", tag, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: tag {parse_tag(tag)!r} is not a {group} subgroup\n"
    assert not out.exists()


@pytest.mark.parametrize("group, tag", WRONG_GROUP_TAGS)
def test_verify_refuses_a_manifest_tag_of_the_other_group(tmp_path, capsys, group, tag):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    sf = load_setfile(gen_random(corpus, name="sample.json", group=group, size=10, seed=1))
    write_json(
        corpus / "manifest.json",
        {"sets": [{"name": "sample", "file": "sample.json",
                   "options": {"subgroup": parse_tag(tag).to_json()}}]},
    )
    write_json(
        corpus / "expected.json",
        {"sample": {"elements_sha256": sf.elements_digest, "report_sha256": "", "exit_code": 0}},
    )
    capsys.readouterr()
    assert main(["verify", str(corpus)]) == 4
    assert capsys.readouterr().out == (
        f"[FAIL] sample: tag {parse_tag(tag)!r} is not a {group} subgroup\n"
    )
