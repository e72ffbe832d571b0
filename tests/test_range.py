"""Reports at the top of the advertised range, q <= 2^16.

Report digests and exit codes over the largest fields: F_65536
(characteristic 2), the largest prime F_65521, F_59049 = 3^10 and F_243.
Every set is seeded.  Past ``growth.VECTOR_PAIRS`` pairs, or once numpy is
loaded, as it is in the full suite, their product sets run the pair kernel,
so these pin its exp/log products and its Zech sums as well as
the pure-Python field arithmetic of the sections.

- ``--bridge on``, pinned from the two-sided class reports, which built and
  measured points and planes apart (over F_65536 the class (0, 0) of H
  holds the 24 pairs (g, g));
- bridge off, for T2 and H over each field;
- ``--structure`` on T2 sets inside a subfield, whose sum-product scan
  spans the subfield;
- one non-default subgroup tag per group over an extension field.

All but the bridge pins were taken before numpy was loaded with one BLAS
thread.
"""

import pytest

from matgrowth import standard_field
from matgrowth.cli import parse_tag
from matgrowth.config import RunOptions
from matgrowth.ffield import subfield_of_degree
from matgrowth.groups import GroupSet
from matgrowth.jsonio import digest
from matgrowth.reports import run_report
from matgrowth.rng import SplitMix64
from matgrowth.setfiles import build_setfile, explicit_setfile


def random_setfile(group, q, size):
    return build_setfile(group, standard_field(q), {"kind": "random", "size": size, "seed": 1})


def subfield_setfile(q, degree, size, seed):
    """``size`` distinct seeded elements of T2 with entries in the subfield
    of F_q of the given degree."""
    spec = standard_field(q)
    sub = subfield_of_degree(spec, degree).wires
    units = sub[1:]  # 0 sorts first
    rng = SplitMix64(seed)
    picked = set()
    while len(picked) < size:
        picked.add(tuple(s[rng.below(len(s))] for s in (units, sub, units)))
    return explicit_setfile(GroupSet("T2", spec, picked))

# (group, q, size) of a seed-1 random set -> (class count, digest, exit code)
RANGE_BRIDGE_DIGESTS = {
    ("H", 65536, 24): (277, "935aae73670894094fa1c4c9226bd383edfe61a50ce7dc64c7a651a390856f1a", 2),
    ("T2", 65521, 20): (210, "88c2b539b4c090789000cf7cdec2a88646f48d8d19dd673c287bc7497e413bf8", 0),
    ("T2", 59049, 20): (210, "ae53156c22ba8770aba30ba0d217095f9c0c2343b082840860775e1d1e89fce1", 2),
    ("H", 243, 30): (461, "23e10ef4bf4916b1fba3fe4dce2911a6486c2699a1ee4e4aa16143c36a327649", 2),
}


@pytest.mark.parametrize("group, q, size", sorted(RANGE_BRIDGE_DIGESTS))
def test_bridge_on_digests_at_the_top_of_the_range(group, q, size):
    sf = build_setfile(group, standard_field(q), {"kind": "random", "size": size, "seed": 1})
    report, code = run_report(sf, RunOptions.from_json({"bridge": "on"}))
    assert report["bridge"]["matches_energy"]
    classes, want, want_code = RANGE_BRIDGE_DIGESTS[group, q, size]
    assert (report["bridge"]["class_count"], digest(report), code) == (classes, want, want_code)


# (group, q, size) of a seed-1 random set, bridge off -> (digest, exit code)
RANGE_DIGESTS = {
    ("T2", 65521, 40): ("8ec9b776a093a2868fe43d71422d094b00f10d0303aac233e4af0e7b7410543a", 0),
    ("H", 65521, 40): ("26e381b5cf80039f476bf01b7d60040abc06f11ff33c9ce46c42c3463a6e8acc", 0),
    ("T2", 65536, 40): ("6ce8cba2d8f01a5d3ed8b9819c93242a1fd0deead4a712aa48c85292cdff7725", 2),
    ("H", 65536, 30): ("5f3803d428fb50a2fd6802a68c0f6fe1a7324be5458d1282dab0d0e5d660a4a0", 2),
    ("T2", 59049, 30): ("ed353b69e23d0ca73731f518521fc09bd15a0d57bfb4d9e14e8d705f24b41f51", 2),
    ("H", 59049, 30): ("93e69c5b984f3b298859b904b7f2db6ce9aa80e3de3792b83e12c74121e22b33", 2),
    ("T2", 243, 40): ("ee93be4d029732bd6d481c409b549201aec2534a5663e4f823af2fdb4bd5deec", 2),
    ("H", 243, 40): ("baee68218fc23d10eb2bf2146eba28516337d24d015f81fa7940e96852cda7eb", 2),
}


@pytest.mark.parametrize("group, q, size", sorted(RANGE_DIGESTS))
def test_report_digests_at_the_top_of_the_range(group, q, size):
    report, code = run_report(random_setfile(group, q, size), RunOptions(bridge="off"))
    assert (digest(report), code) == RANGE_DIGESTS[group, q, size]


# (q, subfield degree, size) of a seed-1 T2 set in that subfield, --structure
# -> (digest, exit code)
SUBFIELD_STRUCTURE_DIGESTS = {
    (65536, 4, 30): ("f55c867fdf322b486b09a808118bb6cb5eaa63b8b9ef0e3b10e64ec1d03d5804", 2),
    (59049, 2, 30): ("ee2e974d83e6eb1a4d3453a0b79ff9a07fe64a754fa9be8201f29bfd2d3edfc7", 2),
}


@pytest.mark.parametrize("q, degree, size", sorted(SUBFIELD_STRUCTURE_DIGESTS))
def test_structure_digests_of_sets_in_a_subfield(q, degree, size):
    report, code = run_report(subfield_setfile(q, degree, size, 1), RunOptions(structure=True))
    assert report["structure"]["sum_product"]["subfield_size"] == standard_field(q).p ** degree
    assert (digest(report), code) == SUBFIELD_STRUCTURE_DIGESTS[q, degree, size]


# (group, q, size, tag) of a seed-1 random set, bridge off -> (digest, exit code)
RANGE_TAG_DIGESTS = {
    ("T2", 65536, 30, "scaled_torus:5"): ("c4a293e94eb84e6f9b37de9af4f6cb295db0cf240945f213ca84a4dbecd7aa7d", 2),
    ("H", 59049, 24, "line_center:1,2"): ("99836541af176437691074b1e4ce86f42d7552dbe6210214033744d2c09a2979", 2),
}


@pytest.mark.parametrize("group, q, size, tag", sorted(RANGE_TAG_DIGESTS))
def test_non_default_tag_digests_over_extension_fields(group, q, size, tag):
    opts = RunOptions(bridge="off", subgroup=parse_tag(tag))
    report, code = run_report(random_setfile(group, q, size), opts)
    assert report["subgroup"]["tag"] == parse_tag(tag).to_json()
    assert (digest(report), code) == RANGE_TAG_DIGESTS[group, q, size, tag]
