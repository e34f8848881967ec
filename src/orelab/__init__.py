"""Left Ore localization on finite rings given by multiplication tables.

The package builds fraction rings S^{-1}R at left denominator sets,
enumerates the saturated denominator sets of a finite ring, classifies
which elements can be inverted, and checks a registry of structural
laws about all of this.  Everything is exhaustive and exact; size
guards keep the exhaustive parts honest about what they can afford.
"""

from .errors import (
    AxiomViolation,
    BadSpec,
    Guards,
    DEFAULT_GUARDS,
    InternalInconsistency,
    NotDenominator,
    NotOre,
    OreLabError,
    ParseError,
    SizeGuardExceeded,
    ZeroAbsorbed,
    guards_from_env,
)
from .rings import (
    CarrierSubset,
    FiniteRing,
    ProductRing,
    RingMap,
    direct_product,
    from_tables,
    ideal_closure,
    induced_map,
    is_division_ring,
    is_semiprime,
    left_ideals,
    minimal_primes,
    opposite,
    quotient,
    regular_elements,
    two_sided_ideals,
    uniform_dimension,
    unit_pullback,
    units,
)
from .oresets import (
    MulSet,
    OreReport,
    ass,
    core,
    denominator_sidedness,
    is_left_denominator,
    is_left_ore,
    mul_closure,
    ore_report,
    r_ass,
    saturate,
)
from .localize import (
    FractionRing,
    LargestQuotient,
    build_fraction_ring,
    classical_left_quotient,
    core_transfer_isomorphism,
    largest_left_quotient,
    quotient_model_isomorphism,
)
from .maxden import (
    Decomposition,
    LocalizationProfile,
    LocalizabilityVerdict,
    brute_force_denominator_sets,
    is_left_localizable,
    is_localization_maximal,
    left_localization_radical,
    localization_profile,
    max_den,
    product_decomposition,
    saturated_denominator_sets,
    sided_profiles,
)
from .catalog import (
    DEFAULT_CATALOG,
    RingSpec,
    canonical_hash,
    canonical_text,
    construct,
    load_ring_file,
    parse_manifest,
    parse_spec,
    save_ring_file,
)
from .laws import LAW_REGISTRY, LawResult, law_ids, run_laws

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation", "BadSpec", "Guards", "DEFAULT_GUARDS", "InternalInconsistency",
    "NotDenominator", "NotOre", "OreLabError", "ParseError", "SizeGuardExceeded",
    "ZeroAbsorbed", "guards_from_env",
    "CarrierSubset", "FiniteRing", "ProductRing", "RingMap", "direct_product",
    "from_tables", "ideal_closure", "induced_map", "is_division_ring", "is_semiprime",
    "left_ideals", "minimal_primes", "opposite", "quotient", "regular_elements",
    "two_sided_ideals", "uniform_dimension", "unit_pullback", "units",
    "MulSet", "OreReport", "ass", "core", "denominator_sidedness", "is_left_denominator",
    "is_left_ore", "mul_closure", "ore_report", "r_ass", "saturate",
    "FractionRing", "LargestQuotient", "build_fraction_ring", "classical_left_quotient",
    "core_transfer_isomorphism", "largest_left_quotient", "quotient_model_isomorphism",
    "Decomposition", "LocalizationProfile", "LocalizabilityVerdict",
    "brute_force_denominator_sets", "is_left_localizable", "is_localization_maximal",
    "left_localization_radical", "localization_profile", "max_den",
    "product_decomposition", "saturated_denominator_sets", "sided_profiles",
    "DEFAULT_CATALOG", "RingSpec", "canonical_hash", "canonical_text", "construct",
    "load_ring_file", "parse_manifest", "parse_spec", "save_ring_file",
    "LAW_REGISTRY", "LawResult", "law_ids", "run_laws",
    "__version__",
]
