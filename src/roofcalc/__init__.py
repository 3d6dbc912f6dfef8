"""Exact-arithmetic Lie theory for homogeneous roofs.

Root systems and Weyl groups over the integers, Borel-Weil-Bott
cohomology of equivariant bundles, Grothendieck-ring classes of
generalized flag varieties, finite-field point counts of isotropic
Grassmannians, and L-equivalence certificates for the Calabi-Yau pairs
cut out by homogeneous roofs.  Every computation is exact; no floating
point is used anywhere.
"""

from .bwb import SINGLE, VANISHES, CohomologyResult, bwb
from .limits import DEFAULT_CAP, ResourceCapExceeded, resource_cap
from .motive import (
    ExactDivisionError,
    LPolynomial,
    class_of_quotient,
    igr_class,
    igr_point_count,
    roof_identity_residual,
)
from .reps import (
    DominanceError,
    NotARepresentation,
    WeightMultiset,
    decompose_levi,
    dual_highest_weight,
    exterior_power,
    is_ample,
    weight_multiset,
    weyl_dimension,
)
from .roofs import (
    DETERMINED,
    INCONCLUSIVE,
    KoszulResult,
    RoofFamily,
    RoofReport,
    catalog,
    koszul_zero_locus_cohomology,
    roof_data,
    verify_roof,
)
from .rootsys import (
    RootData,
    RootSystem,
    RootSystemError,
    Weight,
    build_root_system,
    make_weight,
    pair,
    reflect,
)
from .weyl import (
    ParabolicSubgroup,
    WeylElement,
    act,
    compose,
    coset_lengths,
    from_word,
    inverse,
    longest_element,
    minimal_coset_reps,
    orbit,
    parabolic,
    weyl_group_order,
)

__all__ = [
    "CohomologyResult",
    "DEFAULT_CAP",
    "DETERMINED",
    "DominanceError",
    "ExactDivisionError",
    "INCONCLUSIVE",
    "KoszulResult",
    "LPolynomial",
    "NotARepresentation",
    "ParabolicSubgroup",
    "ResourceCapExceeded",
    "RoofFamily",
    "RoofReport",
    "RootData",
    "RootSystem",
    "RootSystemError",
    "SINGLE",
    "VANISHES",
    "Weight",
    "WeightMultiset",
    "WeylElement",
    "act",
    "build_root_system",
    "bwb",
    "catalog",
    "class_of_quotient",
    "compose",
    "coset_lengths",
    "decompose_levi",
    "dual_highest_weight",
    "exterior_power",
    "from_word",
    "igr_class",
    "igr_point_count",
    "inverse",
    "is_ample",
    "koszul_zero_locus_cohomology",
    "longest_element",
    "make_weight",
    "minimal_coset_reps",
    "orbit",
    "pair",
    "parabolic",
    "reflect",
    "resource_cap",
    "roof_data",
    "roof_identity_residual",
    "verify_roof",
    "weight_multiset",
    "weyl_dimension",
    "weyl_group_order",
]
