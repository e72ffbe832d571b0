"""One timed pass of a workload, in a fresh single-threaded process.

    python3 perfbench/worker.py PLAN OUTDIR [--trace]

Times, from outside the program, what a CLI call of each operation does:
``setup_s`` covers ``import matgrowth``, ``load_setfile`` of every input
and one first field operation per loaded spec (which builds the exp/log
tables of an extension field); ``wall_s`` runs from the first import to
the end of the last operation.  Both are also counted in runs of the
reference kernel (``ScaledClock``).  Writes ``OUTDIR/result.json``; with
``--trace`` also the per-layer metrics and ``OUTDIR/spans.jsonl``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path


def plain(obj):
    """JSON form of a result dataclass: fractions as num/den, tuples as lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    return obj


def sha256_json(obj) -> str:
    """The package's digest rule (sha256 of sorted compact JSON), kept local."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


REFERENCE_EVERY_S = 0.5


def reference_sample() -> float:
    """One run of reference.py, timed inside its own child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py"))],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


class ScaledClock:
    """Work time, each stretch between two reference samples also counted in
    reference units: its seconds divided by the mean of those two samples.

    Time spent taking samples is left out of both counts.
    """

    def __init__(self):
        self.samples = [reference_sample()]
        self.stretches: list[float] = []
        self.seconds = 0.0
        self.units = 0.0
        self.start = time.perf_counter()

    def sample(self) -> None:
        stretch = time.perf_counter() - self.start
        self.samples.append(reference_sample())
        self.stretches.append(stretch)
        self.seconds += stretch
        self.units += stretch / statistics.mean(self.samples[-2:])
        self.start = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.start >= REFERENCE_EVERY_S


def lookup(report, path: str):
    cur = report
    try:
        for part in path.split("."):
            cur = cur[int(part)] if isinstance(cur, list) else cur[part]
    except (KeyError, IndexError, TypeError):
        return "<missing>"
    return cur


def main() -> int:
    plan_path, outdir = Path(sys.argv[1]), Path(sys.argv[2])
    traced = "--trace" in sys.argv[3:]
    plan = json.loads(plan_path.read_text())
    outdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, plan["src"])

    clock = ScaledClock()
    t0 = clock.start
    import matgrowth  # noqa: F401  (the import is part of set-up)
    from matgrowth import config, ffield, incidence, jsonio, reports, setfiles

    import_s = time.perf_counter() - t0
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    loaded = {name: setfiles.load_setfile(path) for name, path in plan["inputs"].items()}
    for sf in loaded.values():
        sf.spec.inv(1)
    setup_s = time.perf_counter() - t0
    clock.sample()
    setup_units = clock.units

    expected = json.loads(Path(plan["corpus_expected"]).read_text())
    records = []
    payloads = []
    section_times: dict[str, float] = {}
    capped = 0
    for op in plan["ops"]:
        if tracer:
            tracer.op = op["id"]
        rec = {"id": op["id"], "code": None, "problems": []}
        payload = None
        start = time.perf_counter()
        try:
            kind = op["kind"]
            out = outdir / (op["id"].replace(":", "_") + ".json")
            if kind in ("verify", "report"):
                sf = loaded[op["input"]]
                opts = config.RunOptions.from_json(op["options"])
                if traced:
                    opts = dataclasses.replace(opts, timings=True)
                if kind == "verify":
                    # the checks of `matgrowth verify`, against corpus/expected.json
                    exp = expected[op["input"]]
                    regen = setfiles.regenerate(sf)
                    if regen is not None and regen.wires != sf.elements.wires:
                        rec["problems"].append("regeneration drifted from stored elements")
                    if sf.elements_digest != exp["elements_sha256"]:
                        rec["problems"].append("elements digest mismatch")
                payload, code = reports.run_report(sf, opts)
                timings = payload.pop("timings", {})
                if kind == "verify":
                    if jsonio.digest(payload) != exp["report_sha256"]:
                        rec["problems"].append("report digest mismatch")
                    for path, want in sorted(exp.get("values", {}).items()):
                        if lookup(payload, path) != want:
                            rec["problems"].append(f"{path} != {want!r}")
                    rec["expected_code"] = exp.get("exit_code", 0)
                else:
                    jsonio.write_json(out, payload)
                for name, s in timings.items():
                    section_times[name] = section_times.get(name, 0.0) + s
                capped += sum(
                    1 for v in payload.values() if isinstance(v, dict) and "error" in v
                )
                rec["issues"] = payload["status"]["issues"]
            elif kind == "bridge":
                sf = loaded[op["input"]]
                br = incidence.bridge_report(sf.elements)
                payload = {
                    "schema": "matgrowth.incidence.v1",
                    "set": {"group": sf.group, "field": sf.spec.to_json(), "size": len(sf.elements)},
                    "bridge": plain(br),
                }
                jsonio.write_json(out, payload)
                code = 0 if br.matches_energy else 2
            elif kind == "probe":
                spec = ffield.standard_field(op["q"])
                inst = incidence.random_instance(spec, op["points"], op["planes"], op["seed"])
                pr = incidence.probe_instance(inst)
                payload = {
                    "schema": "matgrowth.incidence.v1",
                    "probe": {"field": spec.to_json(), "seed": op["seed"], **plain(pr)},
                }
                jsonio.write_json(out, payload)
                code = 0 if pr.bound.holds else 2
            else:
                raise ValueError(f"unknown operation kind {kind!r}")
            rec["code"] = code
        except Exception:  # an operation that raises is a failed operation, not a crash
            rec["error"] = traceback.format_exc(limit=3)
        rec["s"] = time.perf_counter() - start
        records.append(rec)
        payloads.append(payload)
        if clock.due():
            clock.sample()
    clock.sample()
    if tracer:
        tracer.op = None

    for rec, payload in zip(records, payloads):
        rec["digest"] = sha256_json(payload) if payload is not None else None
    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": clock.seconds,
        "setup_units": setup_units,
        "wall_units": clock.units,
        "reference_s": clock.samples,
        "stretches_s": clock.stretches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": traced,
        "ops": records,
    }
    if tracer:
        result["layers"] = tracer.metrics(section_times, capped)
        tracer.dump(outdir / "spans.jsonl")
    (outdir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
