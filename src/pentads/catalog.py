"""Built-in pentads.

Every entry is a pure function of its integer parameters and passes
check_standard.  The headline entry is matrix_space_example: the algebra
gl(1) + sp(n) + so(3) acting on 2n x 3 matrices, realized row-major, with
the symplectic-times-identity pairing.  It is the standard test bed for the
whole pipeline because everything about it is known in closed form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple

from .exact_linalg import Matrix, kronecker
from .lie import classical_basis, standard_symplectic_form, trace_form
from .pentad import StandardPentad, box_tensor, dual_representation


class CatalogError(ValueError):
    pass


class CatalogEntry(NamedTuple):
    name: str
    parameters: tuple[int, ...]
    builder: Callable[..., StandardPentad]
    description: str

    def build(self) -> StandardPentad:
        return self.builder(*self.parameters)


def _defining(kinds: list[tuple[str, int]], pairing: Matrix | None = None) -> StandardPentad:
    """The box tensor of the classical (kind, n) algebras' defining modules,
    its contragredient dual under the pairing, and the trace form."""
    rep = box_tensor([classical_basis(kind, n) for kind, n in kinds])
    return StandardPentad(rep, dual_representation(rep, pairing), trace_form(rep.algebra))


def gl1_scalar() -> StandardPentad:
    """gl(1) acting on a line by multiplication; the smallest pentad."""
    return _defining([("gl", 1)])


def gl2_standard() -> StandardPentad:
    """gl(2) on its standard module, with B(X,Y) = Tr(XY) - (1/3)Tr(X)Tr(Y).

    The center summand is rescaled so that the degree-2 component of the
    graded algebra vanishes and the whole algebra closes as sl(3) with
    dimensions (0, 2, 4, 2, 0).  The plain trace form keeps growing one more
    step; that variant ships as gl2_trace.
    """
    p = _defining([("gl", 2)])
    tr = tuple(b.trace() for b in p.algebra.basis)
    return StandardPentad(p.rep, p.dual,
                          p.form - Matrix([[Fraction(a * b, 3) for b in tr] for a in tr]))


def gl2_trace() -> StandardPentad:
    """gl(2) on its standard module with the plain trace form.

    Grades out to dimensions (1, 2, 4, 2, 1), a copy of sp(4).
    """
    return _defining([("gl", 2)])


def gl1_so_vector(m: int = 3) -> StandardPentad:
    """gl(1) + so(m) acting on the m-dimensional vector module.

    2 <= m <= 96: the cost grows about as m^4, and at m = 96 one
    `regularity --verify-certificate` run takes under a minute.
    """
    if not 2 <= m <= 96:
        raise CatalogError(f"gl1_so_vector needs {'m >= 2' if m < 2 else 'm <= 96'}")
    return _defining([("gl", 1), ("so", m)])


def matrix_space_example(n: int = 2) -> StandardPentad:
    """gl(1) + sp(n) + so(3) on 2n x 3 matrices, flattened row-major.

    The scalar acts by multiplication, the symplectic factor from the left,
    the orthogonal factor by minus right multiplication.  The pairing of a
    matrix v with a dual matrix u is Tr(t(v).J.u) for the standard
    symplectic J, i.e. the matrix kron(J, Id_3) on flat vectors.  The form
    on the algebra is the ambient trace form, which restricts blockwise.
    2 <= n <= 32: the cost grows about as n^4, and at n = 32 one
    `regularity --verify-certificate` run takes under a minute.
    """
    if not 2 <= n <= 32:
        raise CatalogError(f"matrix_space_example needs {'n >= 2' if n < 2 else 'n <= 32'}")
    return _defining([("gl", 1), ("sp", n), ("so", 3)],
                     kronecker(standard_symplectic_form(n), Matrix.identity(3)))


_REGISTRY: dict[str, CatalogEntry] = {entry.name: entry for entry in (
    CatalogEntry("gl1_scalar", (), gl1_scalar, "gl(1) on a line; regular, extends to sl(2)"),
    CatalogEntry("gl2_standard", (), gl2_standard,
                 "gl(2) standard module, center-rescaled form; extends to sl(3)"),
    CatalogEntry("gl2_trace", (), gl2_trace,
                 "gl(2) standard module, plain trace form; extends to sp(4)"),
    CatalogEntry("gl1_so_vector", (3,), gl1_so_vector, "gl(1) + so(m) on the vector module"),
    CatalogEntry("matrix_space_example", (2,), matrix_space_example,
                 "gl(1) + sp(n) + so(3) on 2n x 3 matrices"),
)}

# accepted alternate spelling for the matrix-space entry
_ALIASES = {"paper_example": "matrix_space_example"}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(\s*([^()]*?)\s*\))?\s*$")
# a parameter is ASCII digits with an optional sign: int() alone would also
# read "1_2" and non-ASCII digits such as "\u0664"
_PARAM_RE = re.compile(r"[+-]?[0-9]+")


def resolve(spec: str) -> CatalogEntry:
    """Parse 'name' or 'name(3)' into a catalog entry with bound parameters."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise CatalogError(f"cannot parse catalog reference {spec!r}")
    name, args = m.group(1), m.group(2)
    name = _ALIASES.get(name, name)
    if name not in _REGISTRY:
        raise CatalogError(f"unknown catalog entry {name!r}")
    entry = _REGISTRY[name]
    if args is None or args == "":
        params = entry.parameters
    else:
        parts = [a.strip() for a in args.split(",")]
        if not all(_PARAM_RE.fullmatch(a) for a in parts):
            raise CatalogError(f"parameters of {name!r} must be integers")
        try:
            params = tuple(map(int, parts))
        except ValueError as exc:  # more digits than Python's int() reads
            raise CatalogError(f"cannot read the parameters of {name!r}: {exc}") from None
    if len(params) > len(entry.parameters):
        raise CatalogError(f"{name!r} takes at most {len(entry.parameters)} parameter(s)")
    return entry._replace(parameters=params)


def catalog() -> list[CatalogEntry]:
    """The default entries, each with its default parameters."""
    return list(_REGISTRY.values())
