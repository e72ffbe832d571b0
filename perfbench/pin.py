"""Rewrite pins.json: exit codes and output digests on the current commit.

    python3 perfbench/pin.py

Runs one pass of every workload with the default seed and pins every
operation: those whose input does not depend on the seed under "fixed",
the others under "seeds" for the default seed.  Refuses to pin an
operation that raised or that disagrees with the independent recounts.
Rerun only when an intended change of output is reviewed.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run
import workloads


def main() -> int:
    pins = {}
    for workload in workloads.WORKLOADS:
        work = run.HERE / "_work" / f"pin-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        plan = workloads.build_plan(workload, run.DEFAULT_SEED, work / "inputs")
        result = run.run_pass(work / "inputs" / "plan.json", work / "pass0", traced=False)
        recounts = check.recount(plan, work / "pass0")
        fixed, seeded = {}, {}
        for op, rec in zip(plan["ops"], result["ops"]):
            problems = rec["problems"] + recounts.get(rec["id"], ([], 0))[0]
            if "error" in rec or problems:
                print(f"{workload} {rec['id']}: {rec.get('error') or problems}", file=sys.stderr)
                return 1
            name = op.get("input")
            is_seeded = plan["records"][name]["seeded"] if name else op.get("seeded", False)
            (seeded if is_seeded else fixed)[rec["id"]] = {
                "exit_code": rec["code"], "digest": rec["digest"],
            }
        pins[workload] = {"fixed": fixed, "seeds": {str(run.DEFAULT_SEED): seeded}}
        print(f"{workload}: {len(fixed)} fixed and {len(seeded)} seeded pins")
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
