"""Exact growth and incidence measurements for subsets of T2(F_q) and H(F_q)."""

from .config import Caps, RunOptions, StructureOptions
from .cosets import dyadic_pieces, heis_profile, t2_profile
from .errors import CapExceeded, MatGrowthError, MismatchError, ParameterError
from .exact import (
    heis_energy_bound,
    incidence_bound,
    le_linear_plus_sqrt,
    min_constant,
    t2_energy_bound,
)
from .ffield import (
    FieldSpec,
    default_modulus,
    span_over_subfield,
    standard_field,
    subfield_generated_by,
    subfield_of_degree,
)
from .groups import GroupSet, SubgroupTag, generated_closure
from .growth import (
    Products,
    coset_count_check,
    covering_check,
    energy,
    energy_oracle,
    intersection_power_check,
    orbit_stabilizer_check,
    power_set,
    product_energy,
    product_set,
    quotient_set,
    rep_function,
    symmetrized_power,
    tripling_constant,
    tripling_lemma_check,
)
from .incidence import (
    bridge_report,
    collinear_stats,
    incidence_count,
    pair_classes,
    probe_instance,
    random_instance,
)
from .reports import run_report
from .rng import SplitMix64
from .setfiles import SetFile, build_setfile, load_setfile, regenerate, save_setfile
from .structure import structure_scan, sum_product_scan

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "CapExceeded",
    "FieldSpec",
    "GroupSet",
    "MatGrowthError",
    "MismatchError",
    "ParameterError",
    "Products",
    "RunOptions",
    "SetFile",
    "SplitMix64",
    "StructureOptions",
    "SubgroupTag",
    "bridge_report",
    "build_setfile",
    "collinear_stats",
    "coset_count_check",
    "covering_check",
    "default_modulus",
    "dyadic_pieces",
    "energy",
    "energy_oracle",
    "generated_closure",
    "heis_energy_bound",
    "heis_profile",
    "incidence_bound",
    "incidence_count",
    "intersection_power_check",
    "le_linear_plus_sqrt",
    "load_setfile",
    "min_constant",
    "orbit_stabilizer_check",
    "pair_classes",
    "power_set",
    "probe_instance",
    "product_energy",
    "product_set",
    "quotient_set",
    "random_instance",
    "regenerate",
    "rep_function",
    "run_report",
    "save_setfile",
    "span_over_subfield",
    "standard_field",
    "structure_scan",
    "subfield_generated_by",
    "subfield_of_degree",
    "sum_product_scan",
    "symmetrized_power",
    "t2_energy_bound",
    "t2_profile",
    "tripling_constant",
    "tripling_lemma_check",
]
