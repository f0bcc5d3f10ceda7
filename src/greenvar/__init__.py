"""Green's relations on variant semigroups of partial injections and
transformations, computed two independent ways and cross-checked.

The package splits along that duplication:

    elements       the finite maps themselves and their universes
    engine         brute-force classification through principal ideals
    closedform_is  closed-form classes and counts for partial injections
    closedform_t   closed-form classes and counts for transformations
    structure      duality and isomorphism witnesses between variants
    cli            command-line front end (`greenvar`)

Closed forms run in two modes: "literal" evaluates the published
descriptions verbatim, "corrected" applies the equal-rank repairs; the
brute-force engine is the referee between them.
"""

from .closedform_is import (
    DivisibilityVerdict,
    ISCountReport,
    closed_classification_is,
    count_is_classes,
    d_class_is,
    falling_factorial,
    h_class_is,
    l_class_is,
    r_class_is,
    right_divisible,
)
from .closedform_t import (
    TCountReport,
    closed_classification_t,
    count_t_classes,
    d_class_t,
    fed,
    h_class_t,
    l_class_t,
    r_class_t,
    spread,
    stirling2,
)
from .elements import (
    FAMILIES,
    FAMILY_IS,
    FAMILY_T,
    UNDEFINED,
    CapacityError,
    Element,
    ParseError,
    PartialPerm,
    Transformation,
    compose,
    constant,
    elements_at,
    empty_map,
    enumerate_family,
    family_of,
    family_size,
    format_element,
    identity,
    parse_element,
)
from .engine import (
    BRUTE_CAP,
    RELATIONS,
    ClassCountSummary,
    EggBox,
    GreenClassification,
    VariantSemigroup,
    all_egg_boxes,
    brute_classification,
    egg_box,
    green_classes_brute,
    summarize_classes_by_rank,
    variant_product,
    variant_semigroup,
    verify_d_equals_j,
)
from .structure import (
    DualCheckReport,
    IsoWitness,
    dual_check,
    iso_preserves_classes,
    iso_witness,
    rank_representative,
    verify_isomorphism,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_CAP",
    "CapacityError",
    "ClassCountSummary",
    "DivisibilityVerdict",
    "DualCheckReport",
    "EggBox",
    "Element",
    "FAMILIES",
    "FAMILY_IS",
    "FAMILY_T",
    "GreenClassification",
    "ISCountReport",
    "IsoWitness",
    "ParseError",
    "PartialPerm",
    "RELATIONS",
    "TCountReport",
    "Transformation",
    "UNDEFINED",
    "VariantSemigroup",
    "all_egg_boxes",
    "brute_classification",
    "closed_classification_is",
    "closed_classification_t",
    "compose",
    "constant",
    "count_is_classes",
    "count_t_classes",
    "d_class_is",
    "d_class_t",
    "dual_check",
    "egg_box",
    "elements_at",
    "empty_map",
    "enumerate_family",
    "falling_factorial",
    "family_of",
    "family_size",
    "fed",
    "format_element",
    "green_classes_brute",
    "h_class_is",
    "h_class_t",
    "identity",
    "iso_preserves_classes",
    "iso_witness",
    "l_class_is",
    "l_class_t",
    "parse_element",
    "r_class_is",
    "r_class_t",
    "rank_representative",
    "right_divisible",
    "spread",
    "stirling2",
    "summarize_classes_by_rank",
    "variant_product",
    "variant_semigroup",
    "verify_d_equals_j",
    "__version__",
]
