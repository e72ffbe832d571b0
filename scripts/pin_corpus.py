"""Build the pinned regression corpus under corpus/.

Writes one set file per entry, a manifest with the report options each
set is run with, and expected.json holding element digests, report
digests, exit codes, a few spot values, and the corpus-wide pinned
constants (energy-bound maxima per group, incidence probe maximum).

Rerunning regenerates everything from the recipes; the script asserts
the qualitative plan (which sets pass the size-hypothesis flags) so a
regression in the library cannot silently repin garbage.
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matgrowth import standard_field
from matgrowth.config import RunOptions
from matgrowth.exact import fraction_json
from matgrowth.ffield import subfield_of_degree
from matgrowth.groups import GroupSet, SubgroupTag
from matgrowth.incidence import probe_instance, random_instance
from matgrowth.jsonio import digest, write_json
from matgrowth.reports import run_report
from matgrowth.rng import SplitMix64
from matgrowth.setfiles import build_setfile, explicit_setfile, save_setfile

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"

F5 = standard_field(5)
F7 = standard_field(7)
F16 = standard_field(16)


def t2_over_subfield():
    """All 36 elements of T2 with entries in the quartic subfield of F16."""
    sub = list(subfield_of_degree(F16, 2).wires)
    nz = [w for w in sub if w]
    wires = [(a, b, c) for a in nz for b in sub for c in nz]
    return explicit_setfile(GroupSet("T2", F16, wires))


def ratio_coset_sample():
    """30 of the 42 elements of one scaled-unipotent coset in T2(F7)."""
    coset = SubgroupTag("scaled_unipotent").coset(F7, (3, 0, 1))
    wires = coset.wires
    rng = SplitMix64(1011)
    picked = set()
    while len(picked) < 30:
        picked.add(wires[rng.below(len(wires))])
    return explicit_setfile(GroupSet("T2", F7, picked))


def rnd(group, q, size, seed):
    return lambda: build_setfile(
        group, standard_field(q), {"kind": "random", "size": size, "seed": seed}
    )


def gen(group, q, recipe):
    return lambda: build_setfile(group, standard_field(q), recipe)


# name -> (builder, report options, expected exit code, applicable?)
SETS = [
    ("t2_f5_random20", rnd("T2", 5, 20, 1001), {}, 2, False),
    ("t2_f5_random24", rnd("T2", 5, 24, 1002), {}, 2, False),
    ("t2_f9_random25", rnd("T2", 9, 25, 1003), {}, 2, False),
    ("t2_f7_random24", rnd("T2", 7, 24, 1005), {}, 0, True),
    ("t2_f7_random40", rnd("T2", 7, 40, 1012), {}, 2, False),
    ("t2_f25_random20", rnd("T2", 25, 20, 1006), {}, 0, True),
    ("t2_f101_random30", rnd("T2", 101, 30, 1007), {}, 0, True),
    ("h_f5_random20", rnd("H", 5, 20, 1008), {}, 2, False),
    ("h_f25_random12", rnd("H", 25, 12, 1009), {}, 0, True),
    ("h_f101_random30", rnd("H", 101, 30, 1010), {}, 0, True),
    ("box2_f101", gen("H", 101, {"kind": "box", "n": 2}), {}, 0, True),
    ("box3_f101", gen("H", 101, {"kind": "box", "n": 3}), {}, 0, True),
    (
        "u2_f7",
        gen("T2", 7, {"kind": "subgroup", "tag": {"kind": "unipotent"}}),
        {},
        0,
        True,
    ),
    (
        "torus0_f5",
        gen("T2", 5, {"kind": "subgroup", "tag": {"kind": "torus", "x": 0}}),
        {},
        0,
        True,
    ),
    ("lambdau2_coset_f7_sample30", ratio_coset_sample, {"structure": True}, 2, False),
    ("t2f4_in_f16", t2_over_subfield, {"structure": True}, 2, False),
]

PROBE_SEED = 424242
PROBE_COUNT = 100


def probe_plan():
    """Seed-derived probe shapes over F7: |P| <= 49 <= |Pi| <= 60."""
    rng = SplitMix64(PROBE_SEED)
    plan = []
    for _ in range(PROBE_COUNT):
        points = 20 + rng.below(30)  # 20..49
        planes = 49 + rng.below(12)  # 49..60
        plan.append([points, planes, rng.below(2**32)])
    return plan


def main() -> int:
    t0 = time.perf_counter()
    CORPUS.mkdir(exist_ok=True)
    manifest = {"sets": []}
    expected = {}
    fitted = {"T2": [], "H": []}

    for name, builder, options, want_exit, want_applicable in SETS:
        sf = builder()
        save_setfile(CORPUS / f"{name}.json", sf)
        opts = RunOptions.from_json(options)
        rep, code = run_report(sf, opts)

        if code != want_exit:
            raise SystemExit(
                f"{name}: exit {code}, planned {want_exit}; issues {rep['status']['issues']}"
            )
        applicable = rep["bounds"]["verdict"] == "applicable"
        if applicable != want_applicable:
            raise SystemExit(f"{name}: applicable={applicable}, planned {want_applicable}")
        if not rep["growth"]["product_energy_dominated"]:
            raise SystemExit(f"{name}: product energy exceeds quotient energy")

        # the report fits the smallest grid constant when none is pinned
        bounds = rep["bounds"]
        if bounds["constant_source"] != "fitted":
            raise SystemExit(f"{name}: energy constant is {bounds['constant_source']}, not fitted")
        if applicable:
            constant = bounds["energy_bound"]["constant"]
            fitted[sf.group].append(Fraction(constant["num"], constant["den"]))

        manifest["sets"].append({"name": name, "file": f"{name}.json", "options": options})
        values = {
            "growth.energy": rep["growth"]["energy"],
            "growth.quotient_size": rep["growth"]["quotient_size"],
            "bounds.verdict": rep["bounds"]["verdict"],
        }
        if options.get("structure"):
            values["structure.verdict"] = rep["structure"]["verdict"]
        expected[name] = {
            "elements_sha256": sf.elements_digest,
            "report_sha256": digest(rep),
            "exit_code": code,
            "values": values,
        }
        print(f"pinned {name}: n={len(sf.elements)} exit={code} verdict={rep['bounds']['verdict']}")

    probes = probe_plan()
    inc_constants = []
    for points, planes, seed in probes:
        inst = random_instance(F7, points, planes, seed)
        probe = probe_instance(inst)
        inc_constants.append(probe.bound.constant)

    expected["_pinned"] = {
        "t2_energy_constant": fraction_json(max(fitted["T2"])),
        "heis_energy_constant": fraction_json(max(fitted["H"])),
        "incidence_constant": fraction_json(max(inc_constants)),
        "probes": probes,
    }

    write_json(CORPUS / "manifest.json", manifest)
    write_json(CORPUS / "expected.json", expected)
    print(
        f"corpus pinned: {len(SETS)} sets, {len(probes)} probes,"
        f" {time.perf_counter() - t0:.1f}s"
    )
    print(
        "maxima: T2",
        max(fitted["T2"]),
        "H",
        max(fitted["H"]),
        "incidence",
        max(inc_constants),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
