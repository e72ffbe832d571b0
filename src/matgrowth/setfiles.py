"""Set files: the on-disk JSON form of a group subset plus its recipe.

A set file records the ambient group, the field (with its modulus, so
the file is self-contained), an optional generator recipe, and the
element list in canonical order.  Files with a generator can be
regenerated bit-for-bit, which the verify command uses to prove that a
stored corpus matches its recipes.  Files without a generator are
explicit element lists (hand-built or sampled once and frozen).

Generator kinds, with the fields ``RECIPE_FIELDS`` requires of each:

  random            size, seed: uniform distinct elements of the group
  subgroup          tag: all elements of a named subgroup
  coset             tag, rep: the left coset rep * subgroup
  box               n: Heisenberg brick [0,n) x [0,n) x [0,n^2), prime
                    field with p > 3 n^2 so products stay combinatorial
  perturbed_coset   tag, rep, swaps, seed: a coset with ``swaps`` random
                    elements exchanged for random outsiders (refused when
                    the coset is the whole group)
  union             parts: union of sub-generators

A recipe, or a subgroup it names, past ``Caps.max_set_elements`` is
refused through ``config.check_set`` before anything is built.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .config import Caps, check_set, json_typed
from .errors import ParameterError
from .ffield import FieldSpec
from .groups import (
    GROUPS,
    H,
    T2,
    GroupSet,
    SubgroupTag,
    check_group_wire,
    group_order,
    wire_key,
)
from .jsonio import digest, read_json, write_json
from .rng import SplitMix64

SET_SCHEMA = "matgrowth.set.v1"

# The fields each generator kind requires, in the order ``generate`` reads
# them; ``matgrowth gen`` takes one flag per field.
RECIPE_FIELDS = {
    "random": ("size", "seed"),
    "subgroup": ("tag",),
    "coset": ("tag", "rep"),
    "box": ("n",),
    "perturbed_coset": ("tag", "rep", "swaps", "seed"),
    "union": ("parts",),
}


class SetFile(NamedTuple):
    """A loaded set file: the group, its field, the recipe if any, and the set."""

    group: str
    spec: FieldSpec
    generator: dict | None
    elements: GroupSet

    def to_json(self) -> dict:
        return {
            "schema": SET_SCHEMA,
            "group": self.group,
            "field": self.spec.to_json(),
            "generator": self.generator,
            "elements": [list(w) for w in self.elements],
        }

    @property
    def elements_digest(self) -> str:
        return digest([list(w) for w in self.elements])


def random_set(group: str, spec: FieldSpec, size: int, seed: int) -> GroupSet:
    """Uniform sample of distinct elements, by rejection over wire triples."""
    domain = group_order(spec, group)
    if size < 1 or size > domain:
        raise ParameterError(f"size {size} out of range for a group of order {domain}")
    check_set("random set", size, Caps.max_set_elements)
    rng = SplitMix64(seed)
    got: set = set()
    while len(got) < size:
        got.add(_random_wire(rng, group, spec.q))
    return GroupSet(group, spec, got, _checked=True)


def _random_wire(rng: SplitMix64, group: str, q: int) -> tuple[int, int, int]:
    """A uniform wire of the group: packed keys below q^3, rejecting the
    triples with a zero diagonal entry for T2."""
    while True:
        w = rng.below(q * q * q)
        triple = (w // (q * q), (w // q) % q, w % q)
        if group != T2 or (triple[0] != 0 and triple[2] != 0):
            return triple


def box_set(spec: FieldSpec, n: int) -> GroupSet:
    """The Heisenberg brick with sides n, n, n^2 anchored at the origin."""
    if spec.r != 1:
        raise ParameterError("box sets are defined over prime fields")
    if n < 1:
        raise ParameterError("box side must be >= 1")
    if spec.p <= 3 * n * n:
        raise ParameterError(
            f"box({n}) needs p > {3 * n * n} so that products do not wrap"
        )
    check_set(f"box({n})", n**4, Caps.max_set_elements)
    wires = [
        (x, y, z) for x in range(n) for y in range(n) for z in range(n * n)
    ]
    return GroupSet(H, spec, wires, _checked=True)


def perturbed_coset(
    tag: SubgroupTag, spec: FieldSpec, rep: tuple[int, int, int], swaps: int, seed: int
) -> GroupSet:
    """The left coset rep * subgroup with ``swaps`` members traded for
    random outsiders; refused when the coset is the whole group, which
    has no outsider to draw."""
    group = tag.group
    if swaps > 0 and tag.order(spec) == group_order(spec, group):
        raise ParameterError(
            f"perturbed_coset: a coset of {tag!r} is all of {group}(F_{spec.q}), "
            "so no outsider can be swapped in"
        )
    base = list(tag.coset(spec, rep))
    rng = SplitMix64(seed)
    current = set(base)
    order = list(base)
    check_set("swapped-in set", swaps, Caps.max_set_elements)
    for _ in range(swaps):
        at = rng.below(len(order))
        victim = order[at]
        triple = _random_wire(rng, group, spec.q)
        while triple in current:
            triple = _random_wire(rng, group, spec.q)
        current.discard(victim)
        current.add(triple)
        order[at] = triple
    return GroupSet(group, spec, current, _checked=True)


def _generator_tag(group: str, spec: FieldSpec, gen: dict) -> SubgroupTag:
    """The recipe's subgroup tag, refused before any build past the set cap."""
    tag = SubgroupTag.from_json(gen["tag"])
    tag.check_group(group)
    check_set(f"{tag!r} over F_{spec.q}", tag.order(spec), Caps.max_set_elements)
    return tag


def generate(group: str, spec: FieldSpec, gen: dict) -> GroupSet:
    if not isinstance(gen, dict):
        raise ParameterError(f"generator recipe must be an object, got {gen!r}")
    kind = gen.get("kind")
    if not isinstance(kind, str) or kind not in RECIPE_FIELDS:
        raise ParameterError(f"unknown generator kind {kind!r}")
    for key in RECIPE_FIELDS[kind]:
        if key not in gen:
            raise ParameterError(f"{kind} generator recipe has no {key!r} field")

    def integer(key: str) -> int:
        return json_typed(gen[key], int, f"generator recipe {key}")

    def rep() -> tuple[int, int, int]:
        coords = json_typed(gen["rep"], list, "generator recipe rep")
        coords = [json_typed(x, int, "generator recipe rep coordinate") for x in coords]
        return check_group_wire(spec, group, coords)

    if kind == "random":
        return random_set(group, spec, integer("size"), integer("seed"))
    if kind == "subgroup":
        return _generator_tag(group, spec, gen).elements(spec)
    if kind == "coset":
        return _generator_tag(group, spec, gen).coset(spec, rep())
    if kind == "box":
        if group != H:
            raise ParameterError("box sets live in the Heisenberg group")
        return box_set(spec, integer("n"))
    if kind == "perturbed_coset":
        tag = _generator_tag(group, spec, gen)
        return perturbed_coset(tag, spec, rep(), integer("swaps"), integer("seed"))
    parts = gen["parts"]  # union
    if type(parts) is not list or not parts:
        raise ParameterError("union generator needs a list of at least one part")
    out = generate(group, spec, parts[0])
    for part in parts[1:]:
        out = out.union(generate(group, spec, part))
    return out


def build_setfile(group: str, spec: FieldSpec, gen: dict) -> SetFile:
    return SetFile(group=group, spec=spec, generator=gen, elements=generate(group, spec, gen))


def explicit_setfile(elements: GroupSet) -> SetFile:
    return SetFile(
        group=elements.group, spec=elements.spec, generator=None, elements=elements
    )


def setfile_from_json(obj: dict) -> SetFile:
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != SET_SCHEMA:
        raise ParameterError(f"not a set file (schema {schema!r})")
    group = obj.get("group")
    if group not in GROUPS:
        raise ParameterError(f"unknown group {group!r}")
    if "field" not in obj:
        raise ParameterError("set file has no field")
    spec = FieldSpec.from_json(obj["field"])
    raw = obj.get("elements")
    if not isinstance(raw, list) or not raw:
        raise ParameterError("set file has no elements")
    # real JSON integers only: int() would truncate 2.5 and accept "2" or true
    if not all(type(w) is list and all(type(x) is int for x in w) for w in raw):
        raise ParameterError("set file elements must be lists of integers")
    keys = array("q", (wire_key(spec, check_group_wire(spec, group, w)) for w in raw))
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ParameterError("element list is not in canonical sorted order")
    return SetFile(
        group=group,
        spec=spec,
        generator=obj.get("generator"),
        elements=GroupSet(group, spec, _keys=keys),
    )


def load_setfile(path) -> SetFile:
    return setfile_from_json(read_json(path))


def save_setfile(path, sf: SetFile) -> None:
    write_json(path, sf.to_json())


def regenerate(sf: SetFile) -> GroupSet | None:
    """Rerun the stored recipe; None when the file is an explicit list."""
    if sf.generator is None:
        return None
    try:
        return generate(sf.group, sf.spec, sf.generator)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParameterError(f"malformed generator recipe {sf.generator!r}") from None
