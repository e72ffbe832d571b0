"""Option dataclasses shared by the library, the report runner and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

from .errors import CapExceeded, ParameterError
from .exact import fraction_json

# Largest power a run may ask for: lemma_k, intersection_k, and the
# structure scan's potent exponent and reach budget.  It bounds the work
# and keeps the exact integers a report prints (|A(1)|^(k-3) in the lemma
# check, tripling^exponent in the potent threshold) at a printable size.
MAX_POWER = 64


def json_typed(value, kind: type, what: str):
    """``value`` when its JSON type is exactly ``kind``: 2.5, "2" and true are not ints."""
    if type(value) is not kind:
        raise ParameterError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class Caps:
    """Hard ceilings that turn runaway computations into clean errors.

    Every refusal goes through ``check_pairs`` or ``check_set``.
    """

    max_set_elements: int = 10**6
    max_pair_products: int = 10**7


def check_pairs(what: str, n: int, m: int, cap: int, items: str = "elements") -> None:
    """Refuse an n x m pair loop past the pair cap, before it starts."""
    if n * m > cap:
        raise CapExceeded(f"{what} of {n} x {m} {items} exceeds pair cap {cap}")


def check_set(what: str, size: int, cap: int, partial_size: int | None = None) -> None:
    """Refuse a set of ``size`` elements past the set cap, before it is built."""
    if size > cap:
        raise CapExceeded(
            f"{what} of {size} elements exceeds set cap {cap}", partial_size=partial_size
        )


@dataclass(frozen=True)
class StructureOptions:
    """The structure scan's thresholds: the potent test's exponent and
    floor, and how many powers the span search may reach."""

    potent_exponent: int = 10
    potent_floor: int = 1
    reach_budget: int = 12

    def __post_init__(self):
        if abs(self.potent_exponent) > MAX_POWER:
            raise ParameterError(f"potent exponent must be within +-{MAX_POWER}")
        if not 1 <= self.reach_budget <= MAX_POWER:
            raise ParameterError(f"reach budget must be in 1..{MAX_POWER}")

    def to_json(self) -> dict:
        return {
            "potent_exponent": self.potent_exponent,
            "potent_floor": self.potent_floor,
            "reach_budget": self.reach_budget,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StructureOptions":
        names = {f.name for f in fields(cls)}  # all int-valued
        return cls(**{k: json_typed(v, int, k) for k, v in obj.items() if k in names})


@dataclass(frozen=True)
class RunOptions:
    """Knobs of a report run.  Serialized into manifests verbatim.

    Wall-clock timings are off by default: a report is a pure function of
    the set file and the options.
    """

    lemma_k: int = 3
    intersection_k: int = 1
    bridge: str = "auto"  # "on" | "off" | "auto"
    bridge_threshold: int = 25
    structure: bool = False
    structure_opts: StructureOptions = field(default_factory=StructureOptions)
    subgroup: object | None = None  # SubgroupTag; None picks the group default
    energy_constant: Fraction | None = None
    incidence_constant: Fraction | None = None
    timings: bool = False
    caps: Caps = field(default_factory=Caps)

    def __post_init__(self):
        if self.bridge not in ("on", "off", "auto"):
            raise ParameterError(f"bridge must be on/off/auto, got {self.bridge!r}")
        if not 1 <= self.lemma_k <= MAX_POWER:
            raise ParameterError(f"lemma_k must be in 1..{MAX_POWER}")
        if not 1 <= self.intersection_k <= MAX_POWER:
            raise ParameterError(f"intersection_k must be in 1..{MAX_POWER}")
        for name in ("energy_constant", "incidence_constant"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ParameterError(f"{name} must be nonnegative, got {value}")

    def to_json(self) -> dict:
        out = {
            "lemma_k": self.lemma_k,
            "intersection_k": self.intersection_k,
            "bridge": self.bridge,
            "bridge_threshold": self.bridge_threshold,
            "structure": self.structure,
        }
        if self.structure:
            out["structure_opts"] = self.structure_opts.to_json()
        if self.subgroup is not None:
            out["subgroup"] = self.subgroup.to_json()
        for name in ("energy_constant", "incidence_constant"):
            if getattr(self, name) is not None:
                out[name] = fraction_json(getattr(self, name))
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RunOptions":
        """Options from a manifest entry; keys it does not know are ignored."""
        from .groups import SubgroupTag

        kwargs: dict = {}
        try:
            for key in ("lemma_k", "intersection_k", "bridge_threshold"):
                if key in obj:
                    kwargs[key] = json_typed(obj[key], int, key)
            if "bridge" in obj:
                kwargs["bridge"] = str(obj["bridge"])
            if "structure" in obj:
                kwargs["structure"] = json_typed(obj["structure"], bool, "structure")
            if "structure_opts" in obj:
                kwargs["structure_opts"] = StructureOptions.from_json(obj["structure_opts"])
            if obj.get("subgroup") is not None:
                kwargs["subgroup"] = SubgroupTag.from_json(obj["subgroup"])
            for key in ("energy_constant", "incidence_constant"):
                if obj.get(key) is not None:
                    num, den = obj[key]["num"], obj[key]["den"]
                    kwargs[key] = Fraction(json_typed(num, int, key), json_typed(den, int, key))
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"malformed run options: {obj!r}") from exc
        return cls(**kwargs)
