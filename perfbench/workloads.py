"""Input generator: turns (workload, seed) into set files and an operation plan.

Runs before any timed process starts.  Every input is written as a set
file (or, for synthetic incidence probes, as the CLI arguments that name
one), together with a record of why it was chosen.  The timed worker
receives only the plan written here.

Run on its own to inspect a workload's inputs:

    python3 perfbench/workloads.py --workload products --seed 1 --out /tmp/x
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("corpus", "products", "wide_field", "incidence")

# Operations of the products and wide_field workloads run the report with
# the bridge off, so that pair enumeration and q-scaling paths dominate.
NO_BRIDGE = {"bridge": "off"}


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit generator seed for one input, fixed by (workload seed, label)."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:4], "big")


def _random_input(mg, group, q, n, seed, label, why):
    gen = {"kind": "random", "size": n, "seed": derive_seed(seed, label)}
    sf = mg.build_setfile(group, mg.standard_field(q), gen)
    record = {"group": group, "q": q, "n": n, "kind": "random", "seeded": True, "why": why}
    return sf, record


def _subfield_t2(mg, q, degree, why):
    """T2 over the degree-``degree`` subfield of F_q, as an explicit set file."""
    from matgrowth.setfiles import explicit_setfile

    spec = mg.standard_field(q)
    sub = sorted(e.wire for e in mg.subfield_of_degree(spec, degree).embedding)
    nz = [w for w in sub if w]
    sf = explicit_setfile(mg.GroupSet("T2", spec, [(a, b, c) for a in nz for b in sub for c in nz]))
    record = {
        "group": "T2", "q": q, "n": len(sf.elements), "seeded": False,
        "kind": f"T2(F_{len(sub)}) in T2(F_{q})", "why": why,
    }
    return sf, record


def _products(mg, seed):
    inputs = [
        _random_input(mg, "T2", 101, 40, seed, "t2_f101", "output-heavy: |AA| close to |A|^2"),
        _random_input(mg, "H", 101, 30, seed, "h_f101", "output-heavy Heisenberg product"),
        _random_input(
            mg, "T2", 256, 24, seed, "t2_f256",
            "output-heavy over an extension field (table arithmetic); size flags exit 2",
        ),
    ]
    box = mg.build_setfile("H", mg.standard_field(101), {"kind": "box", "n": 3})
    inputs.append((box, {
        "group": "H", "q": 101, "n": len(box.elements), "kind": "box(3)", "seeded": False,
        "why": "duplicate-heavy: |AA| far below |A|^2",
    }))
    inputs.append(_subfield_t2(mg, 64, 3, "duplicate-heavy: the subgroup T2(F_8), |AA| = |A|"))
    inputs.append(_subfield_t2(mg, 64, 2, "structure scan on (UNIPOTENT branch)"))
    names = [
        "t2_f101_random", "h_f101_random", "t2_f256_random", "h_f101_box3",
        "t2f8_in_f64", "t2f4_in_f64",
    ]
    options = [NO_BRIDGE] * 5 + [{"bridge": "off", "structure": True}]
    return [
        {"id": f"report:{name}", "kind": "report", "input": name, "options": opt}
        for name, opt in zip(names, options)
    ], dict(zip(names, inputs))


def _wide_field(mg, seed):
    named = {
        "t2_f1021_random": _random_input(
            mg, "T2", 1021, 12, seed, "t2_f1021",
            "subgroup section builds all (q-1)q scaled-unipotent elements",
        ),
        "h_f65536_random": _random_input(
            mg, "H", 65536, 6, seed, "h_f65536",
            "exp/log table setup at the top of the range, O(q n) line profile; size flags exit 2",
        ),
        "h_f65521_random": _random_input(
            mg, "H", 65521, 6, seed, "h_f65521", "O(q n) line profile over the largest prime",
        ),
    }
    ops = [
        {"id": f"report:{name}", "kind": "report", "input": name, "options": NO_BRIDGE}
        for name in named
    ]
    return ops, named


PINNED_PROBES = 20  # first probes of corpus/expected.json _pinned.probes, over F_7
RANDOM_PROBES = 2  # seeded 200 x 200 probes over F_101


def _incidence(mg, seed, corpus_expected):
    named = {
        "t2_f101_random": _random_input(
            mg, "T2", 101, 40, seed, "bridge_t2_f101", "bridge above the auto threshold of 25",
        ),
        "h_f101_random": _random_input(
            mg, "H", 101, 40, seed, "bridge_h_f101", "Heisenberg bridge above the threshold",
        ),
        "t2_f25_random": _random_input(
            mg, "T2", 25, 30, seed, "bridge_t2_f25", "bridge over an extension field",
        ),
    }
    ops = [{"id": f"bridge:{name}", "kind": "bridge", "input": name} for name in named]
    for i, (points, planes, pseed) in enumerate(corpus_expected["_pinned"]["probes"][:PINNED_PROBES]):
        ops.append({
            "id": f"probe:f7_pinned{i:02d}", "kind": "probe", "q": 7,
            "points": points, "planes": planes, "seed": pseed, "seeded": False,
        })
    for i in range(RANDOM_PROBES):
        ops.append({
            "id": f"probe:f101_random{i}", "kind": "probe", "q": 101, "points": 200,
            "planes": 200, "seed": derive_seed(seed, f"probe{i}"), "seeded": True,
        })
    return ops, named


def _corpus(corpus_dir):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    ops = []
    inputs = {}
    for entry in manifest["sets"]:
        inputs[entry["name"]] = corpus_dir / entry["file"]
        ops.append({
            "id": f"verify:{entry['name']}", "kind": "verify", "input": entry["name"],
            "options": entry.get("options", {}),
        })
    return ops, inputs


def build_plan(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's set files under ``out`` and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    src = ROOT / "src"
    corpus_dir = ROOT / "corpus"
    sys.path.insert(0, str(src))
    import matgrowth as mg
    out.mkdir(parents=True, exist_ok=True)
    corpus_expected = json.loads((corpus_dir / "expected.json").read_text())
    records = {}
    if workload == "corpus":
        ops, paths = _corpus(corpus_dir)
        files = {name: str(path) for name, path in paths.items()}
        for name in files:
            records[name] = {"kind": "pinned corpus set", "seeded": False}
    else:
        make = {"products": _products, "wide_field": _wide_field}.get(workload)
        if make:
            ops, named = make(mg, seed)
        else:
            ops, named = _incidence(mg, seed, corpus_expected)
        files = {}
        for name, (sf, record) in named.items():
            path = out / f"{name}.json"
            mg.save_setfile(path, sf)
            files[name] = str(path)
            records[name] = record
    plan = {
        "workload": workload,
        "seed": seed,
        "src": str(src),
        "corpus_expected": str(corpus_dir / "expected.json"),
        "inputs": files,
        "records": records,
        "ops": ops,
    }
    (out / "plan.json").write_text(json.dumps(plan, indent=2, sort_keys=True))
    return plan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    plan = build_plan(args.workload, args.seed, Path(args.out))
    for name, rec in plan["records"].items():
        print(f"{name}: {json.dumps(rec, sort_keys=True)}")
    print(f"{len(plan['ops'])} operations; plan in {Path(args.out) / 'plan.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
