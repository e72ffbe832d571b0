"""Assemble the full measurement report for one set file.

A report is a pure function of the set file and the run options: no wall
clock, no environment, no thread count leaks into the payload (timings
exist but are opt-in and excluded from verification).  All sections read
one shared ``Products``: every function of A a section calls takes it
whole and reads A's product sets, coset keys per subgroup tag, dyadic
pieces and caps from it, so each is built once per report.  The subgroup
tag is checked against the set's group and field before any section
runs.

Each section is a module-level function of its inputs that returns
(payload, issues).  ``run_report`` runs them in a fixed order as steps at
dotted paths: ``growth`` (the counts, then the lemma over them),
``profile`` and ``profile.m1`` or ``profile.line_max`` (the O(|A|^2) pair
maximum), ``structure`` and ``structure.sum_product``, and one step for
each other section.  A step a cap refuses leaves the marker
``{"error": ...}`` at its path, and the run exits with code 3; ``bounds``
runs only on the counts, the profile and the pair maximum, and reads
"prerequisite section failed" without them.  Failed size hypotheses or
bound violations exit with 2.
"""

from __future__ import annotations

import csv
import time
from dataclasses import fields
from fractions import Fraction

from .config import RunOptions
from .cosets import (
    dyadic_pieces,
    heis_base_max,
    heis_flags,
    heis_line_max,
    t2_fiber_maxima,
    t2_flags,
    t2_m1,
)
from .errors import CapExceeded
from .exact import (
    fraction_json,
    heis_energy_bound,
    heis_product_prediction,
    t2_energy_bound,
    t2_product_prediction,
)
from .groups import T2, SubgroupTag
from .growth import (
    Products,
    coset_count_check,
    covering_check,
    intersection_power_check,
    orbit_stabilizer_check,
    tripling_lemma_check,
)
from .incidence import bridge_report
from .setfiles import SetFile
from .structure import structure_scan, sum_product_scan

REPORT_SCHEMA = "matgrowth.report.v1"

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_CAPS = 3
EXIT_VERIFY = 4


def set_json(sf: SetFile) -> dict:
    return {"group": sf.group, "field": sf.spec.to_json(), "size": len(sf.elements)}


def fibermax_json(fm) -> dict:
    return {"value": fm.value, "witness": list(fm.witness)}


def bound_json(b) -> dict:
    return {
        "holds": b.holds,
        "constant": fraction_json(b.constant),
        "lhs": b.lhs,
        "display_ratio": b.display_ratio,
    }


def lemma_json(part) -> dict:
    out = {"name": part.name, "holds": part.holds, "lhs": part.lhs, "rhs": part.rhs}
    if part.note:
        out["note"] = part.note
    return out


def collinear_json(cs) -> dict:
    return {
        "count": cs.count,
        "total_weight": cs.total_weight,
        "max_distinct": cs.max_distinct,
        "max_weight": cs.max_weight,
        "witness": [list(row) for row in cs.witness] if cs.witness else None,
    }


def class_json(cr) -> dict:
    return {
        "key": list(cr.key),
        "pair_count": cr.pair_count,
        "quadruples": cr.quadruples,
        "incidences": cr.incidences,
        "match": cr.match,
        "points": collinear_json(cr.point_stats),
        "planes": collinear_json(cr.plane_stats),
        "bound": bound_json(cr.bound),
        "points_within_field_square": cr.points_within_field_square,
        "planes_within_field_square": cr.planes_within_field_square,
    }


def bridge_json(br) -> dict:
    return {
        "class_count": br.class_count,
        "total_pairs": br.total_pairs,
        "total_quadruples": br.total_quadruples,
        "total_incidences": br.total_incidences,
        "energy": br.energy,
        "matches_energy": br.matches_energy,
        "classes": [class_json(c) for c in br.classes],
    }


def probe_json(probe, spec, seed: int) -> dict:
    """A ProbeReport with the field and seed of its random instance."""
    out = {f.name: getattr(probe, f.name) for f in fields(probe)}
    out.update(field=spec.to_json(), seed=seed, bound=bound_json(probe.bound))
    return out


def certificate_json(c) -> dict:
    out = {"name": c.name, "holds": c.holds}
    if c.detail:
        out["detail"] = c.detail
    return out


def structure_json(sr) -> dict:
    out = {
        "verdict": sr.verdict,
        "symmetrized": sr.symmetrized,
        "working_size": sr.working_size,
        "tripling": fraction_json(sr.tripling),
        "ratio_class_count": sr.ratio_class_count,
        "threshold": fraction_json(sr.threshold),
    }
    if sr.overlap is not None:
        out["overlap"] = sr.overlap
        out["overlap_ratio"] = fraction_json(sr.overlap_ratio)
    if sr.certificates:
        out["subfield_degree"] = sr.subfield_degree
        out["subfield_size"] = sr.subfield_size
        out["corner_count"] = sr.corner_count
        out["span_size"] = sr.span_size
        out["reach_power"] = sr.reach_power
        out["certificates"] = [certificate_json(c) for c in sr.certificates]
        out["failed"] = list(sr.failed)
    return out


def sum_product_json(sp) -> dict:
    return {
        "corner_count": sp.corner_count,
        "ratio_class_count": sp.ratio_class_count,
        "dilate_count": sp.dilate_count,
        "sum_count": sp.sum_count,
        "expansion": fraction_json(sp.expansion),
        "subfield_size": sp.subfield_size,
        "span_size": sp.span_size,
        "dichotomy_low_expansion": sp.dichotomy_low_expansion,
        "dichotomy_spanning": sp.dichotomy_spanning,
        "dichotomy_holds": sp.dichotomy_holds,
        "containment_steps": sp.containment_steps,
    }


def default_subgroup(group: str) -> SubgroupTag:
    return SubgroupTag("scaled_unipotent") if group == T2 else SubgroupTag("center")


# -- sections: each takes its inputs and returns (payload, issues) -------------

def growth_counts(P: Products) -> tuple[dict, list]:
    """Sizes and energies up to the quotient, the inputs of ``bounds``."""
    n = len(P.A)
    e, estar = P.energy, P.product_energy
    square, cube = len(P.square), len(P.cube)
    quotient = len(P.quotient)
    return {
        "size": n,
        "square_size": square,
        "cube_size": cube,
        "quotient_size": quotient,
        "energy": e,
        "product_energy": estar,
        "cauchy_schwarz_quotient": e * quotient >= n**4,
        "cauchy_schwarz_product": estar * square >= n**4,
        "product_energy_dominated": estar <= e,
    }, []


def growth_section(P: Products, counts: dict, lemma_k: int) -> tuple[dict, list]:
    """``growth_counts`` with the tripling lemma's iterated sizes and checks,
    and the tripling constant (the lemma refuses an empty set first)."""
    lemma = tripling_lemma_check(P, k=lemma_k)
    issues = []
    if not (counts["cauchy_schwarz_quotient"] and counts["cauchy_schwarz_product"]):
        issues.append("cauchy_schwarz")
    if not lemma.all_hold:
        issues.append("lemma_checks")
    return {
        **counts,
        "tripling": fraction_json(Fraction(counts["cube_size"], counts["size"])),
        "iterated_sizes": dict(sorted(lemma.sizes.items())),
        "lemma_checks": [lemma_json(p) for p in lemma.parts],
    }, issues


def subgroup_section(P: Products, tag: SubgroupTag, intersection_k: int) -> tuple[dict, list]:
    spec = P.A.spec
    if not tag.is_subgroup(spec):
        return {"error": f"{tag!r} is not closed under the product"}, []
    issues = []
    counts = {}
    for name, B in (("set", P), ("quotient", P.quotient)):
        holds, bound, size = coset_count_check(B, tag)
        counts[name] = {"holds": holds, "bound": bound, "size": size}
        if not holds:
            issues.append(f"coset_count[{name}]")
    # H is one coset of itself: the check holds with bound = size = |H|
    order = tag.order(spec)
    counts["subgroup"] = {"holds": True, "bound": order, "size": order}
    ih, power_size, window = intersection_power_check(P, tag, intersection_k)
    if not ih:
        issues.append("intersection_power")
    orbit = {}
    for name, B in (("set", P.A), ("subgroup_slice", P.quotient_slice(tag))):
        oh, prod, obound = orbit_stabilizer_check(P, B, tag)
        orbit[name] = {"holds": oh, "product_size": prod, "bound": obound}
        if not oh:
            issues.append(f"orbit_stabilizer[{name}]")
    out = {
        "tag": tag.to_json(),
        "normal": tag.is_normal,
        "coset_counts": counts,
        "orbit_stabilizer": orbit,
        "intersection_power": {
            "k": intersection_k,
            "holds": ih,
            "power_size": power_size,
            "window_size": window,
        },
    }
    if tag.is_normal:
        holds, translates = covering_check(P, tag)
        out["covering"] = {"holds": holds, "translates": translates}
        if not holds:
            issues.append("covering")
    else:
        out["covering"] = {"skipped": "subgroup is not normal"}
    return out, issues


def profile_section(P: Products) -> tuple[dict, list]:
    """The O(|A|) fiber maxima and the size-hypothesis flags they decide."""
    if P.A.group == T2:
        m3, m2 = t2_fiber_maxima(P)
        hyp = t2_flags(P, m3.value)
        out = {"m3": fibermax_json(m3), "m2": fibermax_json(m2)}
        flags = {"whole_set": hyp.whole_set, "per_piece": hyp.per_piece}
    else:
        base_max = heis_base_max(P)
        hyp = heis_flags(P, base_max.value)
        out = {"base_max": fibermax_json(base_max)}
        flags = {"whole_set": hyp.whole_set, "square_shape": hyp.square_shape}
    return {**out, "flags": flags}, [f"flag_{k}" for k, ok in flags.items() if not ok]


def pair_max_section(P: Products) -> tuple[dict, list]:
    """The profile's O(|A|^2) line maximum: m1 for T2, line_max for H."""
    line_max = t2_m1 if P.A.group == T2 else heis_line_max
    return fibermax_json(line_max(P)), []


def dyadic_section(P: Products) -> tuple[list, list]:
    return [
        {
            "band": pc.j,
            "coset_count": pc.coset_count,
            "element_count": pc.element_count,
            "fiber_max": pc.fiber_max,
            "coset_keys": [list(k) for k in pc.keys],
            "within_band_budget": pc.within_budget(P.A.spec.p),
        }
        for pc in dyadic_pieces(P)
    ], []


def bounds_section(
    group: str, counts: dict, profile: dict, pair_max: dict, energy_constant: Fraction | None
) -> tuple[dict, list]:
    """The energy bound and product prediction, from the payloads of
    ``growth_counts``, ``profile_section`` and ``pair_max_section``."""
    n, e, quotient = counts["size"], counts["energy"], counts["quotient_size"]
    flags = profile["flags"]
    if group == T2:
        m1, m2 = pair_max["value"], profile["m2"]["value"]
        eb = t2_energy_bound(e, n, m1, m2, energy_constant)
        pp = t2_product_prediction(quotient, n, m1, m2, eb.constant)
        applicable = flags["whole_set"]
    else:
        m, line_max = profile["base_max"]["value"], pair_max["value"]
        eb = heis_energy_bound(e, n, m, line_max, energy_constant)
        pp = heis_product_prediction(quotient, n, m, line_max, eb.constant)
        applicable = flags["whole_set"] and flags["square_shape"]
    issues = [name for name, b in (("energy_bound", eb), ("product_prediction", pp)) if not b.holds]
    return {
        "constant_source": "pinned" if energy_constant is not None else "fitted",
        "verdict": "applicable" if applicable else "informational",
        "energy_bound": bound_json(eb),
        "product_prediction": bound_json(pp),
    }, issues


def bridge_section(P: Products, opts: RunOptions) -> tuple[dict, list]:
    if opts.bridge == "off":
        return {"skipped": "disabled"}, []
    if opts.bridge == "auto" and len(P.A) > opts.bridge_threshold:
        return {"skipped": f"set larger than threshold {opts.bridge_threshold}"}, []
    br = bridge_report(P, opts.incidence_constant)
    return bridge_json(br), [] if br.matches_energy else ["bridge_mismatch"]


def structure_section(P: Products, opts: RunOptions) -> tuple[dict, list]:
    if not opts.structure:
        return {"skipped": "disabled"}, []
    if P.A.group != T2:
        return {"skipped": "structure scan applies to T2 sets"}, []
    return structure_json(structure_scan(P, opts.structure_opts)), []


def sum_product_section(P: Products) -> tuple[dict, list]:
    return sum_product_json(sum_product_scan(P)), []


def run_report(sf: SetFile, opts: RunOptions | None = None) -> tuple[dict, int]:
    """Full report for a set file.  Returns (report, exit_code).

    The sections run in a fixed order, each as one or more steps.  A step
    writes its payload at a dotted path, or, when a cap refuses it, the
    marker ``{"error": ...}``; its time counts toward its top-level
    section, and its issues toward the status.
    """
    opts = opts or RunOptions()
    P = Products(sf.elements, opts.caps)
    group = P.A.group
    tag = opts.subgroup or default_subgroup(group)
    # refuse a tag of the other group, or one whose parameter is out of
    # range for the field, before any section runs
    tag.check_group(group)
    tag._forms(P.A.spec)

    report: dict = {
        "schema": REPORT_SCHEMA,
        "set": {
            **set_json(sf),
            "elements_sha256": sf.elements_digest,
            "generator": sf.generator,
        },
        "options": opts.to_json(),
    }
    issues: list[str] = []
    refused: list[str] = []
    timings: dict[str, float] = {}

    def step(path: str, section, *args):
        """The step's payload, None when a cap refused it."""
        t0 = time.perf_counter()
        top, _, sub = path.partition(".")
        into, key = (report[top], sub) if sub else (report, top)
        try:
            payload, found = section(*args)
            into[key] = payload
        except CapExceeded as exc:
            payload, found = None, []
            into[key] = {"error": str(exc)}
            refused.append(path)
        issues.extend(found)
        timings[top] = timings.get(top, 0.0) + time.perf_counter() - t0
        return payload

    counts = step("growth", growth_counts, P)
    if counts is not None:
        step("growth", growth_section, P, counts, opts.lemma_k)
    step("subgroup", subgroup_section, P, tag, opts.intersection_k)
    profile = step("profile", profile_section, P)
    pair_max = step("profile.m1" if group == T2 else "profile.line_max", pair_max_section, P)
    if group == T2:
        step("dyadic", dyadic_section, P)
    if counts is not None and profile is not None and pair_max is not None:
        step("bounds", bounds_section, group, counts, profile, pair_max, opts.energy_constant)
    else:
        report["bounds"] = {"error": "prerequisite section failed"}
    step("bridge", bridge_section, P, opts)
    step("structure", structure_section, P, opts)
    if opts.structure and group == T2:
        step("structure.sum_product", sum_product_section, P)

    code = EXIT_CAPS if refused else (EXIT_FLAGS if issues else EXIT_OK)
    report["status"] = {"exit_code": code, "issues": sorted(set(issues))}
    if opts.timings:
        report["timings"] = {name: round(s, 6) for name, s in timings.items()}
    return report, code


# -- flat projection -----------------------------------------------------------

def flatten_report(report: dict, prefix: str = "") -> list[tuple[str, str]]:
    """Dotted-path scalar rows; fractions collapse to num/den strings."""
    rows: list[tuple[str, str]] = []
    if isinstance(report, dict):
        keys = set(report.keys())
        if keys == {"num", "den"}:
            rows.append((prefix, f"{report['num']}/{report['den']}"))
            return rows
        for key in sorted(report):
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(flatten_report(report[key], path))
    elif isinstance(report, list):
        for i, item in enumerate(report):
            rows.extend(flatten_report(item, f"{prefix}[{i}]"))
    elif report is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(report)))
    return rows


def write_csv(path, report: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerows(flatten_report(report))
