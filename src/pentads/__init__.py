"""Exact construction of graded Lie algebras from reductive representations,
with certificate-producing regularity decisions for the induced
prehomogeneous vector spaces."""

from .catalog import CatalogEntry, CatalogError, catalog, resolve
from .exact_linalg import Matrix, kernel_basis, rank, solve
from .graded import (
    GradedAlgebra,
    GradedVector,
    GradingElement,
    check_grading,
    check_minimality,
    extend,
    grading_element,
)
from .lie import (
    MatrixLieAlgebra,
    build_algebra,
    direct_sum,
    family,
    trace_form,
)
from .pentad import (
    DualModule,
    PhiMap,
    Representation,
    StandardPentad,
    check_standard,
    dual_representation,
)
from .preh import (
    GradingElementError,
    PartnerResult,
    RegularityVerdict,
    ScalarCenterError,
    Sl2Triple,
    decide_regularity,
    find_generic,
    is_generic,
    sl2_partner,
    verify_certificate,
)
from .serialize import dumps, pentad_from_json, pentad_to_json, verdict_from_json, verdict_to_json

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "DualModule",
    "GradedAlgebra",
    "GradedVector",
    "GradingElement",
    "GradingElementError",
    "Matrix",
    "MatrixLieAlgebra",
    "PartnerResult",
    "PhiMap",
    "RegularityVerdict",
    "Representation",
    "ScalarCenterError",
    "Sl2Triple",
    "StandardPentad",
    "build_algebra",
    "catalog",
    "check_grading",
    "check_minimality",
    "check_standard",
    "decide_regularity",
    "direct_sum",
    "dual_representation",
    "dumps",
    "extend",
    "family",
    "find_generic",
    "grading_element",
    "is_generic",
    "kernel_basis",
    "pentad_from_json",
    "pentad_to_json",
    "rank",
    "resolve",
    "sl2_partner",
    "solve",
    "trace_form",
    "verdict_from_json",
    "verdict_to_json",
    "verify_certificate",
]
