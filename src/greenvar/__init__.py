"""Green's relations on variant semigroups of partial injections and
transformations, computed two independent ways and cross-checked.

The package splits along that duplication:

    elements       the finite maps themselves and their universes
    classes        classifications, shared by both methods, and the
                   closed forms' keying, shared by both families
    engine         brute-force classification through principal ideals
    closedform_is  closed-form classes and counts for partial injections
    closedform_t   closed-form classes and counts for transformations
    counts         the count audit: count formulas against enumeration
    structure      duality and isomorphism witnesses between variants
    cli            command-line front end (`greenvar`) and its green command
    commands       the verify, count, eggbox, iso and dual commands

Closed forms run in two modes: "literal" evaluates the published
descriptions verbatim, "corrected" applies the equal-rank repairs; the
brute-force engine is the referee between them.

Importing the package loads no submodule: each exported name is imported
from its module on first use (PEP 562), so ``import greenvar`` does not
load numpy.  The CLI likewise executes engine, the closed forms, counts,
structure and commands only when a command first calls into them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "classes": "RELATIONS GreenClassification",
    "closedform_is": """DivisibilityVerdict closed_classification_is
        count_is_classes falling_factorial right_divisible""",
    "closedform_t": "closed_classification_t count_t_classes fed spread stirling2",
    "counts": "ClassCountSummary CountReport summarize_classes_by_rank",
    "elements": """FAMILIES FAMILY_IS FAMILY_T UNDEFINED CapacityError Element ParseError
        PartialPerm Transformation compose constant elements_at empty_map enumerate_family
        family_of family_size format_element identity parse_element""",
    "engine": """BRUTE_BUDGET EggBoxes VariantSemigroup all_egg_boxes brute_classification egg_box
        green_classes_brute variant_product variant_semigroup verify_d_equals_j""",
    "structure": """DualCheckReport IsoWitness dual_check iso_preserves_classes iso_witness
        rank_representative verify_isomorphism""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
