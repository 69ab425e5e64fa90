"""The package's value classes: immutable, equal exactly when their fields
are, and hashing alike when those fields hash.

The records are typing.NamedTuple classes and the classes that validate
or cache subclass exact_linalg.Frozen; both kinds name their fields in
_fields, which these tests read.
"""

import importlib
import inspect

import pytest

from pentads.catalog import CatalogEntry, gl1_scalar
from pentads.exact_linalg import Frozen, Matrix, SolveResult
from pentads.graded import GradedVector
from pentads.lie import (
    FormReport,
    MatrixLieAlgebra,
    ScalarCenterReport,
    family,
)
from pentads.pentad import (
    AxiomFailure,
    DualModule,
    GradingElement,
    GradingElementResult,
    Representation,
    StandardPentad,
    ValidationReport,
)
from pentads.preh import (
    GenericSearch,
    PartnerResult,
    RegularityVerdict,
    Sl2Triple,
)

MODULES = ("exact_linalg", "lie", "pentad", "graded", "preh", "catalog")


def scalar_rep(n=1):
    return Representation(family("gl", 1), (Matrix.identity(n),))


# class -> (build one instance, build one whose fields differ); each call
# builds its fields afresh, so equal instances share no field objects
CASES = {
    Matrix: (lambda: Matrix([[1, 0]]), lambda: Matrix([[0, 1]])),
    SolveResult: (lambda: SolveResult("affine", (1, 0), [(0, 1)]),
                  lambda: SolveResult("affine", (1, 0), [(0, 2)])),
    FormReport: (lambda: FormReport(True, False, True, kernel_witness=(1, 0)),
                 lambda: FormReport(True, False, True, kernel_witness=(0, 1))),
    ScalarCenterReport: (lambda: ScalarCenterReport(True, 1, 2, True, "ok"),
                         lambda: ScalarCenterReport(True, 1, 3, True, "ok")),
    MatrixLieAlgebra: (lambda: family("gl", 1), lambda: family("gl", 2)),
    Representation: (scalar_rep, lambda: scalar_rep(2)),
    DualModule: (lambda: DualModule((Matrix([[-1]]),), Matrix([[1]])),
                 lambda: DualModule((Matrix([[-1]]),), Matrix([[2]]))),
    StandardPentad: (gl1_scalar, lambda: StandardPentad(
        scalar_rep(), DualModule((Matrix([[-1]]),), Matrix([[2]])), Matrix([[1]]))),
    AxiomFailure: (lambda: AxiomFailure("form_symmetric", (0, 1), "d"),
                   lambda: AxiomFailure("form_symmetric", (1, 0), "d")),
    ValidationReport: (lambda: ValidationReport(True, (), ("n",)),
                       lambda: ValidationReport(True, (), ("m",))),
    GradingElement: (lambda: GradingElement((2,)), lambda: GradingElement((-2,))),
    GradingElementResult: (lambda: GradingElementResult("found", GradingElement((2,)), ()),
                           lambda: GradingElementResult("found", GradingElement((1,)), ())),
    GradedVector: (lambda: GradedVector(1, (1, 0)), lambda: GradedVector(-1, (1, 0))),
    GenericSearch: (lambda: GenericSearch("found", (1,), 1, 1, 1, 0),
                    lambda: GenericSearch("found", (1,), 1, 1, 1, 5)),
    Sl2Triple: (lambda: Sl2Triple(gl1_scalar(), (2,), (2,), (1,)),
                lambda: Sl2Triple(gl1_scalar(), (1,), (2,), (2,))),
    PartnerResult: (lambda: PartnerResult("affine", (1,), ((1,),), None),
                    lambda: PartnerResult("affine", (1,), ((2,),), None)),
    RegularityVerdict: (
        lambda: RegularityVerdict("Regular", (2,), (1,), (2,), {"r": (1, 1)}, None, 0, 64),
        lambda: RegularityVerdict("Regular", (2,), (1,), (2,), {"r": (1, 1)}, None, 1, 64)),
    CatalogEntry: (lambda: CatalogEntry("gl1_scalar", (), gl1_scalar, "a line"),
                   lambda: CatalogEntry("gl1_scalar", (1,), gl1_scalar, "a line")),
}
# a list or dict field makes these unhashable, as it did their dataclasses
UNHASHABLE = {SolveResult, RegularityVerdict}


def test_every_value_class_is_covered():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"pentads.{name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and cls is not Frozen and issubclass(cls, (Frozen, tuple))):
                found.add(cls)
    assert found == set(CASES)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    build, build_other = CASES[cls]
    a, b, other = build(), build(), build_other()
    assert type(a) is type(b) is type(other) is cls
    for name in (a._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, a._fields[0])
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == repr(b) != repr(other)
    assert repr(a).startswith(f"{cls.__name__}({a._fields[0]}=")
