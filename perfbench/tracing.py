"""Out-of-program tracing: wraps matgrowth's public functions from outside.

Nothing in ``src/matgrowth`` knows about this module.  ``Tracer.install``
rebinds each traced function in every ``matgrowth`` module that imported
it (so ``reports.product_set`` and ``structure.product_set`` are both
wrapped) and patches methods on their classes.  Spans (name, start, end,
parent, operation id) and counts stay in memory; ``dump`` writes the
spans out when the traced process ends.

Everything runs in one thread with no queues, so no layer ever waits on
another: the layer metrics are work counts and busy time, never waits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Spans whose inclusive time (seconds) is reported as "<name>.s".
TIMED = {
    "setfiles.load_setfile": "setfiles.load_s",
    "setfiles.regenerate": "setfiles.regenerate_s",
    "ffield.FieldSpec._tables": "ffield.tables_s",
    "groups.GroupSet.__init__": "groups.groupset_s",
    "groups.SubgroupTag.elements": "groups.subgroup_elements_s",
    "growth.product_set": "growth.product_set.s",
    "growth.rep_function": "growth.rep_function.s",
    "growth.tripling_lemma_check": "growth.tripling_lemma_check.s",
    "growth.energy": "growth.energy.s",
    "cosets.t2_profile": "cosets.t2_profile.s",
    "cosets.heis_profile": "cosets.heis_profile.s",
    "cosets.dyadic_pieces": "cosets.dyadic_pieces.s",
    "exact.min_constant": "exact.min_constant.s",
    "incidence.quadruple_count": "incidence.quadruple_count.s",
    "incidence.incidence_count": "incidence.incidence_count.s",
    "incidence.collinear_stats": "incidence.collinear_stats.s",
    "incidence.probe_instance": "incidence.probe_instance.s",
    "structure.structure_scan": "structure.structure_scan.s",
    "structure.sum_product_scan": "structure.sum_product_scan.s",
    "jsonio.digest": "jsonio.digest.s",
}
SUBGROUP_CHECKS = (
    "growth.coset_count_check",
    "growth.orbit_stabilizer_check",
    "growth.intersection_power_check",
    "growth.covering_check",
)
# Spans traced only for their calls and self time.
PLAIN = (
    "setfiles.setfile_from_json",
    "growth.quotient_set",
    "growth.power_set",
    "incidence.bridge_report",
    "incidence.pair_classes",
    "incidence.build_instance",
    "incidence.line_groups",
    "incidence.random_instance",
    "structure.working_set",
    "reports.run_report",
    "jsonio.write_json",
)
COUNTS = (
    "ffield.specs_built",
    "ffield.mul_calls",
    "ffield.inv_calls",
    "groups.groupset_builds",
    "groups.groupset_elements",
    "groups.subgroup_elements",
    "growth.product_set.calls",
    "growth.product_set.pairs",
    "growth.product_set.distinct",
    "growth.rep_function.pairs",
    "growth.quotient_set.calls",
    "growth.power_set.calls",
    "cosets.profile_steps",
    "exact.min_constant.calls",
    "exact.min_constant.evals",
    "incidence.classes",
    "incidence.pairs",
    "incidence.line_pairs",
    "structure.working_set.calls",
    "jsonio.bytes_written",
)
LAYERS = (
    "setfiles", "ffield", "groups", "growth", "cosets",
    "exact", "incidence", "structure", "reports", "jsonio",
)
SECTIONS = ("growth", "subgroup", "profile", "dyadic", "bounds", "bridge", "structure")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.covered: list[float] = []
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op: str | None = None

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) records counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            tracer.covered.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - start
                tracer.self_time[name] += dur - tracer.covered.pop()
                tracer.total[name] += dur
                if tracer.covered:
                    tracer.covered[-1] += dur
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded package."""
        import matgrowth.exact as exact
        import matgrowth.incidence as incidence
        from matgrowth.ffield import FieldSpec
        from matgrowth.groups import GroupSet, SubgroupTag

        def adds(amounts):
            """after() hook adding amount(args, result) to each named count."""
            def after(counts, args, result):
                for key, amount in amounts.items():
                    counts[key] += amount(args, result)
            return after

        def one(args, result):
            return 1

        def pairs(args, result):
            return len(args[0]) * len(args[1])

        def steps(args, result):
            return args[0].spec.q * len(args[0])

        after = {
            "growth.product_set": adds({
                "growth.product_set.calls": one,
                "growth.product_set.pairs": pairs,
                "growth.product_set.distinct": lambda a, r: len(r),
            }),
            "growth.rep_function": adds({"growth.rep_function.pairs": pairs}),
            "growth.quotient_set": adds({"growth.quotient_set.calls": one}),
            "growth.power_set": adds({"growth.power_set.calls": one}),
            "cosets.t2_profile": adds({"cosets.profile_steps": steps}),
            "cosets.heis_profile": adds({"cosets.profile_steps": steps}),
            "incidence.bridge_report": adds({
                "incidence.classes": lambda a, r: r.class_count,
                "incidence.pairs": lambda a, r: r.total_pairs,
            }),
            "structure.working_set": adds({"structure.working_set.calls": one}),
            "jsonio.write_json": adds({"jsonio.bytes_written": lambda a, r: os.path.getsize(a[0])}),
            "ffield.FieldSpec.__init__": adds({"ffield.specs_built": one}),
            "groups.GroupSet.__init__": adds({
                "groups.groupset_builds": one,
                "groups.groupset_elements": lambda a, r: len(a[0].wires),
            }),
            "groups.SubgroupTag.elements": adds({"groups.subgroup_elements": lambda a, r: len(r)}),
        }
        for name in list(TIMED) + list(SUBGROUP_CHECKS) + list(PLAIN):
            module, _, attr = name.partition(".")
            if "." in attr:
                continue  # methods, patched below
            if name in ("exact.min_constant", "incidence.line_groups"):
                continue  # need argument rewriting, patched below
            self._rebind(module, attr, self.span(name, self._lookup(module, attr), after.get(name)))

        orig_min = exact.min_constant
        counts = self.counts

        def min_constant(holds, *args, **kwargs):
            def counted(c):
                counts["exact.min_constant.evals"] += 1
                return holds(c)

            counts["exact.min_constant.calls"] += 1
            return orig_min(counted, *args, **kwargs)

        self._rebind("exact", "min_constant", self.span("exact.min_constant", min_constant))

        orig_lines = incidence.line_groups

        def line_groups(spec, tuples):
            pts = list(tuples)
            counts["incidence.line_pairs"] += len(pts) * (len(pts) - 1) // 2
            return orig_lines(spec, pts)

        self._rebind("incidence", "line_groups", self.span("incidence.line_groups", line_groups))

        FieldSpec.__init__ = self.span(
            "ffield.FieldSpec.__init__", FieldSpec.__init__, after["ffield.FieldSpec.__init__"]
        )
        FieldSpec.mul = self.counter("ffield.mul_calls", FieldSpec.mul)
        FieldSpec.inv = self.counter("ffield.inv_calls", FieldSpec.inv)
        tables = FieldSpec.__dict__["_tables"]
        traced_tables = functools.cached_property(self.span("ffield.FieldSpec._tables", tables.func))
        traced_tables.__set_name__(FieldSpec, "_tables")
        FieldSpec._tables = traced_tables
        GroupSet.__init__ = self.span(
            "groups.GroupSet.__init__", GroupSet.__init__, after["groups.GroupSet.__init__"]
        )
        SubgroupTag.elements = self.span(
            "groups.SubgroupTag.elements", SubgroupTag.elements, after["groups.SubgroupTag.elements"]
        )

    @staticmethod
    def _lookup(module: str, attr: str):
        return getattr(sys.modules[f"matgrowth.{module}"], attr)

    def _rebind(self, module: str, attr: str, wrapper) -> None:
        orig = self._lookup(module, attr)
        for name, mod in list(sys.modules.items()):
            if (name == "matgrowth" or name.startswith("matgrowth.")) and getattr(
                mod, attr, None
            ) is orig:
                setattr(mod, attr, wrapper)

    # -- results --------------------------------------------------------

    def metrics(self, section_times: dict[str, float], sections_capped: int) -> dict:
        """Per-layer metrics of this process: counts, busy and self time."""
        out: dict[str, float] = {key: self.counts.get(key, 0) for key in COUNTS}
        for span_name, key in TIMED.items():
            out[key] = self.total.get(span_name, 0.0)
        out["growth.subgroup_checks.s"] = sum(self.total.get(n, 0.0) for n in SUBGROUP_CHECKS)
        pairs = out["growth.product_set.pairs"]
        out["growth.product_set.useful_ratio"] = (
            out["growth.product_set.distinct"] / pairs if pairs else 0.0
        )
        out["reports.run_report.self_s"] = self.self_time.get("reports.run_report", 0.0)
        for section in SECTIONS:
            out[f"reports.section.{section}.s"] = section_times.get(section, 0.0)
        out["reports.sections_capped"] = sections_capped
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items() if name.startswith(layer + ".")
            )
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, op = span
                    fh.write(json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    ) + "\n")
