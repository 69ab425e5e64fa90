"""Exact construction of graded Lie algebras from reductive representations,
with certificate-producing regularity decisions for the induced
prehomogeneous vector spaces."""

import sys
from importlib import import_module

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

# the home module of each exported name; importing the package loads none (PEP 562)
_HOME = {name: module for module, names in (
    ("catalog", ("CatalogEntry", "CatalogError", "catalog", "resolve")),
    ("exact_linalg", ("Matrix", "kernel_basis", "rank", "solve")),
    ("graded", ("GradedAlgebra", "GradedVector", "check_grading", "check_minimality", "extend")),
    ("lie", ("MatrixLieAlgebra", "build_algebra", "direct_sum", "family", "trace_form")),
    ("pentad", ("DualModule", "GradingElement", "PhiMap", "Representation", "StandardPentad",
                "check_standard", "dual_representation", "grading_element")),
    ("preh", ("GradingElementError", "PartnerResult", "RegularityVerdict", "ScalarCenterError",
              "Sl2Triple", "decide_regularity", "find_generic", "is_generic", "sl2_partner",
              "verify_certificate")),
    ("serialize", ("dumps", "pentad_from_json", "pentad_to_json", "verdict_from_json",
                   "verdict_to_json")),
) for name in names}


def __getattr__(name):
    # read through on every access, never stored here, so a patched home shows
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    """Loading the submodule catalog binds it on the package; the package
    keeps serving the function catalog instead."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
