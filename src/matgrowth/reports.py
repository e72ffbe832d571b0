"""Assemble the full measurement report for one set file.

A report is a pure function of the set file and the run options: no wall
clock, no environment, no thread count leaks into the payload (timings
exist but are opt-in and excluded from verification).  All sections read
one shared ``Products``.  Sections (and each structure scan) that blow a
cap are replaced by an ``{"error": ...}`` marker and the run exits with
code 3; failed size hypotheses or bound violations exit with 2.
"""

from __future__ import annotations

import csv
import time
from dataclasses import fields
from fractions import Fraction
from functools import cache

from .config import RunOptions
from .cosets import (
    dyadic_pieces,
    heis_flags,
    heis_profile,
    t2_flags,
    t2_profile,
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


def run_report(sf: SetFile, opts: RunOptions | None = None) -> tuple[dict, int]:
    """Full report for a set file.  Returns (report, exit_code)."""
    opts = opts or RunOptions()
    A = sf.elements
    spec = A.spec
    group = A.group
    n = len(A)
    P = Products(A, opts.caps)
    tag = opts.subgroup or default_subgroup(group)
    tag.check_group(group)  # before any section runs

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
    capped = False
    timings: dict[str, float] = {}

    def guarded(fn):
        nonlocal capped
        try:
            return fn()
        except CapExceeded as exc:
            capped = True
            return {"error": str(exc)}

    def section(name, fn):
        t0 = time.perf_counter()
        report[name] = guarded(fn)
        if opts.timings:
            timings[name] = round(time.perf_counter() - t0, 6)

    state: dict = {}

    def growth_section():
        e, estar = P.energy, P.product_energy
        square, cube = P.square, P.cube
        quotient_size = len(P.quotient)
        state.update(energy=e, quotient_size=quotient_size)
        lemma = tripling_lemma_check(P, k=opts.lemma_k)
        if not (e * quotient_size >= n**4 and estar * len(square) >= n**4):
            issues.append("cauchy_schwarz")
        if not lemma.all_hold:
            issues.append("lemma_checks")
        return {
            "size": n,
            "square_size": len(square),
            "cube_size": len(cube),
            "quotient_size": quotient_size,
            "iterated_sizes": dict(sorted(lemma.sizes.items())),
            "tripling": fraction_json(Fraction(len(cube), n)),
            "energy": e,
            "product_energy": estar,
            "cauchy_schwarz_quotient": e * quotient_size >= n**4,
            "cauchy_schwarz_product": estar * len(square) >= n**4,
            "product_energy_dominated": estar <= e,
            "lemma_checks": [lemma_json(p) for p in lemma.parts],
        }

    def subgroup_section():
        if not tag.is_subgroup(spec):
            return {"error": f"{tag!r} is not closed under the product"}
        counts = {}
        for name, B in (("set", P), ("quotient", P.quotient)):
            holds, bound, size = coset_count_check(B, tag)
            counts[name] = {"holds": holds, "bound": bound, "size": size}
            if not holds:
                issues.append(f"coset_count[{name}]")
        # H is one coset of itself: the check holds with bound = size = |H|
        order = tag.order(spec)
        counts["subgroup"] = {"holds": True, "bound": order, "size": order}
        ih, power_size, window = intersection_power_check(P, tag, opts.intersection_k)
        if not ih:
            issues.append("intersection_power")
        orbit = {}
        for name, B in (("set", A), ("subgroup_slice", P.quotient_slice(tag))):
            if len(B) == 0:
                orbit[name] = {"skipped": "empty sample"}
                continue
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
                "k": opts.intersection_k,
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
        return out

    def profile_section():
        nonlocal capped
        pair_max = None
        try:
            prof = (t2_profile if group == T2 else heis_profile)(A, opts.caps, fibers=P.fibers)
            state["profile"] = prof
        except CapExceeded as exc:
            if exc.partial is None:
                raise
            # the pair maximum is refused; the O(|A|) fibers and flags stay
            prof, pair_max, capped = exc.partial, {"error": str(exc)}, True
        if group == T2:
            flags = t2_flags(A, prof, pieces())
            state["hypothesis_pass"] = flags.whole_set
            if not flags.whole_set:
                issues.append("flag_whole_set")
            if not flags.per_piece:
                issues.append("flag_per_piece")
            return {
                "m3": fibermax_json(prof.m3),
                "m2": fibermax_json(prof.m2),
                "m1": pair_max or fibermax_json(prof.m1),
                "flags": {"whole_set": flags.whole_set, "per_piece": flags.per_piece},
            }
        flags = heis_flags(A, prof)
        state["hypothesis_pass"] = flags.whole_set and flags.square_shape
        if not flags.whole_set:
            issues.append("flag_whole_set")
        if not flags.square_shape:
            issues.append("flag_square_shape")
        return {
            "base_max": fibermax_json(prof.base_max),
            "line_max": pair_max or fibermax_json(prof.line_max),
            "flags": {"whole_set": flags.whole_set, "square_shape": flags.square_shape},
        }

    @cache  # read by the T2 flags and the dyadic section
    def pieces():
        return dyadic_pieces(A, keys=P.coset_keys)

    def dyadic_section():
        return [
            {
                "band": pc.j,
                "coset_count": pc.coset_count,
                "element_count": pc.element_count,
                "fiber_max": pc.fiber_max,
                "coset_keys": [list(k) for k in pc.keys],
                "within_band_budget": pc.within_budget(spec.p),
            }
            for pc in pieces()
        ]

    def bounds_section():
        e = state["energy"]
        prof = state["profile"]
        if group == T2:
            eb = t2_energy_bound(e, n, prof.m1.value, prof.m2.value, opts.energy_constant)
            pp = t2_product_prediction(
                state["quotient_size"], n, prof.m1.value, prof.m2.value, eb.constant
            )
        else:
            eb = heis_energy_bound(
                e, n, prof.base_max.value, prof.line_max.value, opts.energy_constant
            )
            pp = heis_product_prediction(
                state["quotient_size"], n, prof.base_max.value, prof.line_max.value, eb.constant
            )
        if not eb.holds:
            issues.append("energy_bound")
        if not pp.holds:
            issues.append("product_prediction")
        return {
            "constant_source": "pinned" if opts.energy_constant is not None else "fitted",
            "verdict": "applicable" if state.get("hypothesis_pass") else "informational",
            "energy_bound": bound_json(eb),
            "product_prediction": bound_json(pp),
        }

    def bridge_section():
        if opts.bridge == "off":
            return {"skipped": "disabled"}
        if opts.bridge == "auto" and n > opts.bridge_threshold:
            return {"skipped": f"set larger than threshold {opts.bridge_threshold}"}
        br = bridge_report(P, opts.incidence_constant)
        if not br.matches_energy:
            issues.append("bridge_mismatch")
        return bridge_json(br)

    def structure_section():
        if not opts.structure:
            return {"skipped": "disabled"}
        if group != T2:
            return {"skipped": "structure scan applies to T2 sets"}
        # a cap hit in one scan is reported there and leaves the other intact
        out = guarded(lambda: structure_json(structure_scan(P, opts.structure_opts)))
        out["sum_product"] = guarded(lambda: sum_product_json(sum_product_scan(P)))
        return out

    section("growth", growth_section)
    section("subgroup", subgroup_section)
    section("profile", profile_section)
    if group == T2:
        section("dyadic", dyadic_section)
    if "profile" in state and "energy" in state:
        section("bounds", bounds_section)
    else:
        report["bounds"] = {"error": "prerequisite section failed"}
    section("bridge", bridge_section)
    section("structure", structure_section)

    code = EXIT_CAPS if capped else (EXIT_FLAGS if issues else EXIT_OK)
    report["status"] = {"exit_code": code, "issues": sorted(set(issues))}
    if opts.timings:
        report["timings"] = timings
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
