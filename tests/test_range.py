"""The bridge at the top of the advertised range, q <= 2^16.

Report digests and exit codes of ``--bridge on`` reports over the largest
fields: F_65536 (characteristic 2, where the class (0, 0) of H holds the
24 pairs (g, g)), the largest prime F_65521, F_59049 = 3^10 and F_243,
pinned from the two-sided class reports, which built and measured points
and planes apart.
"""

import pytest

from matgrowth import standard_field
from matgrowth.config import RunOptions
from matgrowth.jsonio import digest
from matgrowth.reports import run_report
from matgrowth.setfiles import build_setfile

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
