"""Command line front end: gen / report / incidence / structure / verify."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .config import RunOptions, StructureOptions
from .errors import CapExceeded, MatGrowthError, ParameterError
from .ffield import FieldSpec, _prime_power, standard_field
from .groups import SubgroupTag, subgroup_kind
from .growth import Products
from .incidence import bridge_report, probe_instance, random_instance
from .jsonio import digest, read_json, write_json
from .reports import (
    EXIT_CAPS,
    EXIT_FLAGS,
    EXIT_OK,
    EXIT_VERIFY,
    bridge_json,
    probe_json,
    run_report,
    set_json,
    structure_json,
    sum_product_json,
    write_csv,
)
from .setfiles import RECIPE_FIELDS, build_setfile, load_setfile, regenerate, save_setfile
from .structure import structure_scan, sum_product_scan


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ParameterError(f"{what} must be comma-separated integers, got {text!r}") from None


def parse_field(qtext: str, modulus: str | None) -> FieldSpec:
    try:
        q = int(qtext)
    except ValueError:
        raise ParameterError(f"field size must be an integer, got {qtext!r}") from None
    if modulus is None:
        return standard_field(q)
    p, r = _prime_power(q)
    return FieldSpec(p, r, _int_list(modulus, "modulus"))


def parse_tag(text: str) -> SubgroupTag:
    """A tag such as ``unipotent``, ``torus:3`` or ``line:1,2``: the kind, and
    after a colon the one parameter its ``SUBGROUP_KINDS`` entry names."""
    kind, colon, param = text.partition(":")
    takes = subgroup_kind(kind).param
    try:
        if takes == "x":
            return SubgroupTag(kind, x=int(param))
        if takes == "direction":
            a, b = param.split(",")
            return SubgroupTag(kind, direction=(int(a), int(b)))
        if colon:
            raise ValueError
    except ValueError:
        raise ParameterError(f"bad parameter in subgroup tag {text!r}") from None
    return SubgroupTag(kind)


def parse_fraction(text: str) -> Fraction:
    """A nonnegative constant such as 7/2 or 1.5e-3.  A refusal is an
    ``ArgumentTypeError``, whose message argparse prints."""
    # bound the digits Fraction would build, so the report can print them
    exponent = text.lower().partition("e")[2]
    if len(text) > 64 or (exponent and abs(int(exponent)) > 64):
        raise argparse.ArgumentTypeError(f"constant {text!r} is too large")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"constant {text!r} divides by zero") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"constant {text!r} is not a number") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"constant {text!r} is negative")
    return value


def parse_triple(text: str) -> tuple[int, int, int]:
    parts = _int_list(text, "representative")
    if len(parts) != 3:
        raise ParameterError(f"expected three comma-separated integers, got {text!r}")
    return (parts[0], parts[1], parts[2])


# The recipe value of a gen flag, by recipe field; the integer fields are
# taken as given.
_RECIPE_VALUE = {
    "tag": lambda text: parse_tag(text).to_json(),
    "rep": lambda text: list(parse_triple(text)),
}


def cmd_gen(args) -> int:
    spec = parse_field(args.field, args.modulus)
    keys = RECIPE_FIELDS[args.kind]
    if any(getattr(args, key) is None for key in keys):
        flags = [f"--{key}" for key in keys]
        listed = ", ".join(flags[:-1]) + " and " if len(flags) > 1 else ""
        raise MatGrowthError(f"{args.kind} generation needs {listed}{flags[-1]}")
    gen = {"kind": args.kind}
    for key in keys:
        gen[key] = _RECIPE_VALUE.get(key, int)(getattr(args, key))
    sf = build_setfile(args.group, spec, gen)
    save_setfile(args.out, sf)
    print(f"wrote {args.out}: {args.group} over F_{spec.q}, {len(sf.elements)} elements")
    return EXIT_OK


def build_options(args) -> RunOptions:
    kwargs: dict = {}
    if getattr(args, "lemma_k", None) is not None:
        kwargs["lemma_k"] = args.lemma_k
    if getattr(args, "intersection_k", None) is not None:
        kwargs["intersection_k"] = args.intersection_k
    if getattr(args, "bridge", None) is not None:
        kwargs["bridge"] = args.bridge
    if getattr(args, "structure", False):
        kwargs["structure"] = True
    if getattr(args, "subgroup", None):
        kwargs["subgroup"] = parse_tag(args.subgroup)
    if getattr(args, "energy_constant", None) is not None:
        kwargs["energy_constant"] = args.energy_constant
    if getattr(args, "timings", False):
        kwargs["timings"] = True
    return RunOptions(**kwargs)


def cmd_report(args) -> int:
    sf = load_setfile(args.setfile)
    opts = build_options(args)
    rep, code = run_report(sf, opts)
    write_json(args.out, rep)
    if args.csv:
        write_csv(args.csv, rep)
    g = rep["growth"]
    if "error" in g:  # a refused product: the set's size is all that is known
        summary = f"size={len(sf.elements)} growth=capped"
    else:
        summary = f"size={g['size']} energy={g['energy']} square={g['square_size']}"
    print(f"{args.setfile}: {summary} exit={code}")
    for issue in rep["status"]["issues"]:
        print(f"  issue: {issue}")
    return code


def cmd_incidence(args) -> int:
    if args.set:
        sf = load_setfile(args.set)
        br = bridge_report(sf.elements, args.constant)
        payload = {
            "schema": "matgrowth.incidence.v1",
            "set": set_json(sf),
            "bridge": bridge_json(br),
        }
        write_json(args.out, payload)
        print(
            f"{args.set}: classes={br.class_count}"
            f" quadruples={br.total_quadruples} energy={br.energy}"
            f" match={br.matches_energy}"
        )
        return EXIT_OK if br.matches_energy else EXIT_FLAGS
    if args.field is None or args.points is None or args.planes is None or args.seed is None:
        raise MatGrowthError("probe mode needs --field, --points, --planes and --seed")
    spec = parse_field(args.field, args.modulus)
    inst = random_instance(spec, args.points, args.planes, args.seed)
    probe = probe_instance(inst, args.constant)
    payload = {"schema": "matgrowth.incidence.v1", "probe": probe_json(probe, spec, args.seed)}
    write_json(args.out, payload)
    print(
        f"probe over F_{spec.q}: incidences={probe.incidences}"
        f" max_collinear={probe.max_collinear}"
        f" ratio={probe.bound.display_ratio:.4f}"
    )
    return EXIT_OK if probe.bound.holds else EXIT_FLAGS


def cmd_structure(args) -> int:
    sf = load_setfile(args.setfile)
    opts = StructureOptions(
        potent_exponent=args.exponent,
        potent_floor=args.floor,
        reach_budget=args.budget,
    )
    P = Products(sf.elements)
    sr = structure_scan(P, opts)
    payload = {
        "schema": "matgrowth.structure.v1",
        "set": set_json(sf),
        "scan": structure_json(sr),
        "sum_product": sum_product_json(sum_product_scan(P)),
    }
    write_json(args.out, payload)
    print(f"{args.setfile}: verdict={sr.verdict}" + (
        f" failed={','.join(sr.failed)}" if sr.failed else ""
    ))
    return EXIT_OK


def _lookup(report, path: str):
    """The value at a dotted path; a list is indexed by a part of digits
    only, and any other part is a KeyError."""
    cur = report
    for part in path.split("."):
        if isinstance(cur, list):
            if not (part.isascii() and part.isdigit()):
                raise KeyError(part)
            part = int(part)
        cur = cur[part]
    return cur


_JSON_KINDS = {str: "string", list: "array", dict: "object"}


def _json_field(record, key: str, kind: type, what: str, default=None):
    """record[key], or ``default`` when the key is absent and a default is
    given; a ParameterError naming the field unless ``record`` is a JSON
    object and the value is of ``kind``."""
    if not isinstance(record, dict):
        raise ParameterError(f"{what} must be a JSON object")
    value = record.get(key, default)
    if not isinstance(value, kind):
        raise ParameterError(f"{what} needs a JSON {_JSON_KINDS[kind]} {key!r}")
    return value


def cmd_verify(args) -> int:
    corpus = Path(args.corpus)
    manifest = read_json(args.manifest or corpus / "manifest.json")
    expected = read_json(args.expected or corpus / "expected.json")
    sets = _json_field(manifest, "sets", list, "manifest")
    if not isinstance(expected, dict):
        raise ParameterError("expected file must be a JSON object")
    any_failed = False
    for k, entry in enumerate(sets):
        name = f"sets[{k}]"
        problems: list[str] = []
        try:
            name = _json_field(entry, "name", str, "manifest entry")
            sf = load_setfile(corpus / _json_field(entry, "file", str, "manifest entry"))
            exp = expected.get(name)
            if exp is None:
                problems.append("no expected record")
            else:
                elements_sha256 = _json_field(exp, "elements_sha256", str, "expected record")
                report_sha256 = _json_field(exp, "report_sha256", str, "expected record")
                values = _json_field(exp, "values", dict, "expected record", {})
                regen = regenerate(sf)
                if regen is not None and regen != sf.elements:
                    problems.append("regeneration drifted from stored elements")
                if sf.elements_digest != elements_sha256:
                    problems.append("elements digest mismatch")
                opts = RunOptions.from_json(entry.get("options", {}))
                rep, code = run_report(sf, opts)
                if digest(rep) != report_sha256:
                    problems.append("report digest mismatch")
                if code != exp.get("exit_code", 0):
                    problems.append(f"exit code {code} != {exp.get('exit_code', 0)}")
                for path, want in sorted(values.items()):
                    try:
                        got = _lookup(rep, path)
                    except (KeyError, IndexError, TypeError):
                        got = "<missing>"
                    if got != want:
                        problems.append(f"{path}: {got!r} != {want!r}")
        except (MatGrowthError, OSError) as exc:
            problems.append(str(exc))
        status = "FAIL" if problems else "ok"
        print(f"[{status}] {name}" + (": " + "; ".join(problems) if problems else ""))
        any_failed = any_failed or bool(problems)
    return EXIT_VERIFY if any_failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with the package's usage errors: one ``error:`` line on
    stderr and exit 1, as for any other input error.  Subcommand parsers
    share the class."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matgrowth",
        description="growth, coset profiles and incidence counts for matrix group subsets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a set file")
    g.add_argument("--group", choices=("T2", "H"), required=True)
    g.add_argument("--field", required=True, help="field size q (prime power)")
    g.add_argument("--modulus", help="comma-separated modulus coefficients, low degree first")
    g.add_argument("--kind", required=True, choices=[k for k in RECIPE_FIELDS if k != "union"])
    g.add_argument("--size", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--tag", help="subgroup tag, e.g. scaled_unipotent or torus:3")
    g.add_argument("--rep", help="coset representative a,b,c")
    g.add_argument("--n", type=int, help="box side")
    g.add_argument("--swaps", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("report", help="run the full measurement report")
    r.add_argument("setfile")
    r.add_argument("--out", required=True)
    r.add_argument("--csv")
    r.add_argument("--lemma-k", dest="lemma_k", type=int)
    r.add_argument("--intersection-k", dest="intersection_k", type=int)
    r.add_argument("--bridge", choices=("on", "off", "auto"))
    r.add_argument("--structure", action="store_true")
    r.add_argument("--subgroup", help="override the profiled subgroup tag")
    r.add_argument("--energy-constant", dest="energy_constant", type=parse_fraction)
    r.add_argument("--timings", action="store_true")
    r.set_defaults(func=cmd_report)

    i = sub.add_parser("incidence", help="bridge a set file or probe a random instance")
    i.add_argument("--set", help="set file to bridge")
    i.add_argument("--field", help="field size for probe mode")
    i.add_argument("--modulus")
    i.add_argument("--points", type=int)
    i.add_argument("--planes", type=int)
    i.add_argument("--seed", type=int)
    i.add_argument("--constant", type=parse_fraction)
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_incidence)

    s = sub.add_parser("structure", help="potent/unipotent structure scan")
    s.add_argument("setfile")
    s.add_argument("--exponent", type=int, default=StructureOptions.potent_exponent)
    s.add_argument("--floor", type=int, default=StructureOptions.potent_floor)
    s.add_argument("--budget", type=int, default=StructureOptions.reach_budget)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_structure)

    v = sub.add_parser("verify", help="check a corpus against its pinned expectations")
    v.add_argument("corpus")
    v.add_argument("--manifest")
    v.add_argument("--expected")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except (MatGrowthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
