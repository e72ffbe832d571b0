"""matgrowth benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 28 --trace 0

Generates the workload's inputs from the seed, then runs timed passes
back to back, each a fresh single-threaded Python process (closed loop,
one caller), until --seconds have passed and at least three passes are
done.  End-to-end metrics are medians over the passes; times are scaled
by a reference kernel timed inside each pass (reference.py), so that the
drifting speed of a shared machine cancels out.  Outputs are checked
against pins and independent recounts (check.py).

With --trace 1 the passes alternate untraced and traced (tracing.py);
the last line then holds the per-layer metrics and the tracing overhead.
The last line of standard output is always one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
DEFAULT_SEED = 1
# Reported seconds are seconds at this reference-kernel time (worker.reference_kernel).
NOMINAL_REFERENCE_S = 0.1


class BenchError(Exception):
    pass


def machine_record() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": 1,
        "machine_settings": "untouched: no cache drops, no cgroup or huge-page changes",
    }


def run_pass(plan_path: Path, outdir: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(outdir)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((outdir / "result.json").read_text())


def load_pins(workload: str, seed: int) -> dict:
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()).get(workload, {}) if path.exists() else {}
    out = dict(pins.get("fixed", {}))
    out.update(pins.get("seeds", {}).get(str(seed), {}))
    return out


def judge(passes: list[dict], pins: dict, recounts: dict) -> list[dict]:
    """Per operation and pass: the reasons it failed (empty when it passed)."""
    first = {rec["id"]: rec.get("digest") for rec in passes[0]["ops"]}
    verdicts = []
    for k, result in enumerate(passes):
        for rec in result["ops"]:
            op_id = rec["id"]
            why = list(rec["problems"])
            if "error" in rec:
                why.append("raised: " + rec["error"].strip().splitlines()[-1])
            pin = pins.get(op_id)
            if pin is not None:
                want_code = pin["exit_code"]
            elif op_id in recounts:
                want_code = recounts[op_id][1]
            else:
                want_code = rec.get("expected_code", 0)
            if rec["code"] != want_code:
                why.append(f"exit code {rec['code']} != {want_code}")
            if pin is not None and rec.get("digest") != pin["digest"]:
                why.append("digest differs from pin")
            if rec.get("digest") != first.get(op_id):
                why.append("digest differs between passes")
            why.extend(recounts.get(op_id, ([], 0))[0])
            verdicts.append({"pass": k, "id": op_id, "problems": why})
    return verdicts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "jsonio.bytes_written":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "matgrowth" / "__init__.py").is_file() or not (
        ROOT / "corpus" / "expected.json"
    ).is_file():
        print(f"perfbench: no matgrowth source tree and corpus under {ROOT}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.build_plan(args.workload, args.seed, work / "inputs")
    plan_path = work / "inputs" / "plan.json"
    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, rec in plan["records"].items():
        print(f"input {name}: " + json.dumps(rec, sort_keys=True))

    passes: list[dict] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    try:
        while True:
            # trace mode alternates untraced and traced passes of the same plan
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(plan_path, work / f"pass{len(passes)}", traced))
            now = time.perf_counter()
            per_pass = (now - start) / len(passes)
            enough = len(passes) >= (2 if args.trace else MIN_PASSES)
            if enough and (not args.trace or len(passes) % 2 == 0) and now + per_pass > deadline:
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    recounts = check.recount(plan, work / "pass0")
    verdicts = judge(passes, load_pins(args.workload, args.seed), recounts)
    failed = [v for v in verdicts if v["problems"]]
    for v in failed[:20]:
        print(f"FAILED pass {v['pass']} {v['id']}: " + "; ".join(v["problems"]))
    attempted = len(verdicts)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)}"
        f" traced passes, {attempted} operations, {len(failed)} failed"
    )
    print(f"  ops_failed_share {len(failed) / attempted:.4f} share ({len(failed)}/{attempted} operations)")
    if args.trace:
        metrics = {}
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(p["layers"][key] for p in traced)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        plain_wall = statistics.median(p["wall_s"] for p in plain)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = plain_wall
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        for key in sorted(metrics):
            print(f"  {key:42s} {metrics[key]:>16.6f} {unit_of(key)}")
    else:
        # Times are counted in runs of the reference kernel (reference.py),
        # timed between stretches of work inside each pass, and reported as
        # seconds at NOMINAL_REFERENCE_S per run: a slow spell of a shared
        # machine slows the kernel and the workload together and cancels out.
        scaled = {
            "wall_s": [p["wall_units"] * NOMINAL_REFERENCE_S for p in plain],
            "setup_s": [p["setup_units"] * NOMINAL_REFERENCE_S for p in plain],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        samples = [r for p in plain for r in p["reference_s"]]
        print(f"  reference kernel median {statistics.median(samples):.4f} s"
              f" over {len(samples)} samples")
        metrics = {}
        for key, values in scaled.items():
            unit = "MB" if key == "peak_rss_mb" else "s"
            q1, med, q3 = quartiles(values)
            metrics[key] = med
            raw = statistics.median(p[key] for p in plain)
            print(f"  {key:12s} median {med:.4f} {unit}  quartiles {q1:.4f} .. {q3:.4f}"
                  f"  over {len(values)} passes" + (f"  (unscaled {raw:.4f} s)" if unit == "s" else ""))
        per_op: dict[str, list[float]] = {}
        for p in plain:
            for rec in p["ops"]:
                per_op.setdefault(rec["id"], []).append(rec["s"])
        for op_id, times in per_op.items():
            print(f"  op {op_id:36s} median {statistics.median(times):.4f} s unscaled")

    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            key: {"value": value, "unit": units.get(key) or unit_of(key)}
            for key, value in metrics.items()
        },
    }
    (work / "result.json").write_text(json.dumps(
        {"machine": machine, "args": vars(args), "result": result, "passes": passes,
         "failures": failed}, indent=1, sort_keys=True,
    ))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
