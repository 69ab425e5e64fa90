"""Exact linear algebra over the rationals.

Everything in this package reduces to the routines in this module: ranks,
kernels, and linear solves computed without rounding.  Scalars are plain
``int`` or ``fractions.Fraction``; integers are kept as ``int`` wherever
possible because integer arithmetic is much cheaper than Fraction
arithmetic and the two compare equal.  Division is the only operation that
can leave the integers, so it always goes through :func:`qdiv`.

Determinism matters as much as exactness here: kernel bases come from the
reduced row echelon form, which is unique for a given row space, so every
routine returns identical output for identical input, with no dependence
on dict ordering or pivot luck.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

Q = Union[int, Fraction]
Vec = tuple[Q, ...]
# The nonzero coordinates (k, c) of a vector, ascending in k.
SparseVec = tuple[tuple[int, Q], ...]


def qof(x: Q | str) -> Q:
    """Coerce an int, Fraction, or string like '-3/7' to a scalar."""
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return qnorm(x)
    if isinstance(x, str):
        # Plain ASCII integer literals, the bulk of every pentad file, skip
        # Fraction's regex; int() gives them the same value.
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            return int(x)
        return qnorm(Fraction(x))
    raise TypeError(f"not a rational scalar: {x!r}")


def qnorm(x: Q) -> Q:
    """Collapse integral Fractions back to int (keeps the fast path alive)."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def qdiv(a: Q, b: Q) -> Q:
    """Exact division; never touches floats."""
    return qnorm(Fraction(a) / b)


def qstr(x: Q) -> str:
    """Serialize a scalar as 'p' or 'p/q' in lowest terms."""
    return str(qnorm(x))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix, stored as a row-major grid."""

    entries: tuple[Vec, ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Q | str]]) -> "Matrix":
        return Matrix(tuple(tuple(qof(x) for x in row) for row in rows))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i: int, j: int) -> Q:
        return self.entries[i][j]

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def flat(self) -> Vec:
        """Row-major flattening."""
        return tuple(x for row in self.entries for x in row)

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c: Q) -> "Matrix":
        return Matrix(tuple(tuple(c * a for a in row) for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} @ {other.shape()}")
        # Skip zero entries; the action matrices this package builds are sparse.
        brows = other.entries
        out = []
        for arow in self.entries:
            acc: list[Q] = [0] * other.cols
            for k, a in enumerate(arow):
                if a:
                    for j, b in enumerate(brows[k]):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(tuple(acc))
        return Matrix(tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)) if self.entries else ())

    def trace(self) -> Q:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return qnorm(sum(self.entries[i][i] for i in range(self.rows)))

    def apply(self, v: Sequence[Q]) -> Vec:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        out = []
        for row in self.entries:
            acc: Q = 0
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(qnorm(acc))
        return tuple(out)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row-major, so kron(A, I) acts blockwise on the left."""
    out = []
    for arow in a.entries:
        for brow in b.entries:
            out.append(tuple(x * y for x in arow for y in brow))
    return Matrix(tuple(out))


def _int_rows(m: Matrix) -> list[list[int]]:
    """Scale each row to integer entries (rank-preserving)."""
    out = []
    for row in m.entries:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) for x in row])
    return out


def rank(m: Matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination on an integer-scaled copy."""
    a = _int_rows(m)
    nrows, ncols = len(a), m.cols
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        piv = a[r][c]
        for i in range(r + 1, nrows):
            head = a[i][c]
            ai, ar = a[i], a[r]
            # Sylvester's identity makes this division exact for every row,
            # including head == 0, so the update must never be skipped.
            for j in range(c, ncols):
                ai[j] = (ai[j] * piv - head * ar[j]) // prev
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns (unique for the row space)."""
    a = [list(row) for row in m.entries]
    nrows, ncols = len(a), m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        piv = a[r][c]
        if piv != 1:
            a[r] = [qdiv(x, piv) for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [qnorm(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(tuple(tuple(row) for row in a)), tuple(pivots)


def kernel_basis(m: Matrix) -> list[Vec]:
    """Canonical basis of the right kernel.

    One vector per free column, ordered by free column index; stacked as
    columns the result is in reduced column echelon form, so equal inputs
    give byte-equal bases.
    """
    reduced, pivots = rref(m)
    ncols = m.cols
    pivot_of_col = {c: i for i, c in enumerate(pivots)}
    free = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for f in free:
        v: list[Q] = [0] * ncols
        v[f] = 1
        for c, i in pivot_of_col.items():
            v[c] = qnorm(-reduced.entries[i][f])
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class SolveResult:
    """Classification of a linear system a @ x = b.

    status is 'none', 'unique', or 'affine'.  For 'unique' the solution is
    exact; for 'affine' it is the particular solution with all free
    variables set to zero, alongside the canonical kernel basis.
    """

    status: str
    solution: Vec | None
    kernel: list[Vec]

    @property
    def is_unique(self) -> bool:
        return self.status == "unique"

    @property
    def is_solvable(self) -> bool:
        return self.status != "none"


def solve(a: Matrix, b: Sequence[Q]) -> SolveResult:
    """Solve a @ x = b exactly, classifying the solution set."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    solutions = solve_multi(a, Matrix(tuple((qof(x),) for x in b)))
    x = solutions[0]
    if x is None:
        return SolveResult("none", None, [])
    ker = kernel_basis(a)
    if ker:
        return SolveResult("affine", x, ker)
    return SolveResult("unique", x, [])


def solve_multi(a: Matrix, rhs: Matrix) -> list[Vec | None]:
    """Particular solutions of a @ x = rhs[:, j] for each column j.

    One echelon pass for all right-hand sides.  Each solution has free
    variables set to zero; None marks an inconsistent column.
    """
    if rhs.rows != a.rows:
        raise ValueError("right-hand side row count does not match")
    ncols, nrhs = a.cols, rhs.cols
    stacked = Matrix(tuple(tuple(ar) + tuple(br) for ar, br in zip(a.entries, rhs.entries)))
    reduced, pivots = rref(stacked)
    out: list[Vec | None] = []
    sys_pivots = [c for c in pivots if c < ncols]
    bad_rows = [i for i, c in enumerate(pivots) if c >= ncols]
    for j in range(nrhs):
        col = ncols + j
        # A pivot in the rhs block means that column's system is inconsistent,
        # but only if the offending row actually involves this rhs column.
        inconsistent = any(reduced.entries[i][col] for i in bad_rows)
        if inconsistent:
            out.append(None)
            continue
        x: list[Q] = [0] * ncols
        for i, c in enumerate(sys_pivots):
            x[c] = reduced.entries[i][col]
        out.append(tuple(x))
    return out


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices have inverses")
    cols = solve_multi(m, Matrix.identity(m.rows))
    if any(c is None for c in cols):
        raise ValueError("matrix is singular")
    return Matrix(tuple(zip(*cols)))


def _sparse_int_row(row: Iterable[tuple[int, Q]]) -> dict[int, int]:
    """Clear denominators and strip the content; {column: nonzero int}."""
    nz = [(j, x) for j, x in row if x]
    if not nz:
        return {}
    denom = 1
    for _, x in nz:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    vals = {}
    g = 0
    for j, x in nz:
        v = int(x * denom)
        vals[j] = v
        g = gcd(g, v)
    if g > 1:
        for j in vals:
            vals[j] //= g
    return vals


def _strip_content(r: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in r.values():
        g = gcd(g, v)
        if g == 1:
            return r
    if g > 1:
        for j in r:
            r[j] //= g
    return r


def sparse_row_space_basis(rows: Iterable[Iterable[tuple[int, Q]]]) -> list[SparseVec]:
    """Canonical (RREF) basis of the span of rows given by their nonzeros.

    Each row is its (column, value) pairs; zero values are ignored, and each
    basis row comes back as its nonzeros ascending in column.  The echelon
    runs on sparse integer rows with fraction-free updates (cross-multiply,
    then divide out the content), because candidate stacks in the graded
    construction run to hundreds of mostly-sparse rows and dense Fraction
    arithmetic is an order of magnitude slower there.  The final backward
    pass still returns the RREF of the span, which is unique, so generator
    order cannot leak into the result.
    """
    echelon: dict[int, dict[int, int]] = {}  # leading column -> sparse row
    for row in rows:
        r = _sparse_int_row(row)
        while r:
            lead = min(r)
            piv = echelon.get(lead)
            if piv is None:
                echelon[lead] = r
                break
            a, b = r[lead], piv[lead]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            new = {j: fa * v for j, v in r.items()}
            for j, v in piv.items():
                w = new.get(j, 0) - fb * v
                if w:
                    new[j] = w
                else:
                    new.pop(j, None)
            r = _strip_content(new)
    leads = sorted(echelon)
    # Backward pass, bottom row up.  Rows below are already reduced, so they
    # carry no pivot column but their own and one batched accumulation per
    # row clears every lower pivot at once.
    for idx in range(len(leads) - 2, -1, -1):
        r = echelon[leads[idx]]
        hits = [L for L in leads[idx + 1:] if L in r]
        if not hits:
            continue
        for L in hits:
            piv = echelon[L]
            p, c = piv[L], r[L]
            g = gcd(p, c)
            fp, fc = p // g, c // g
            if fp != 1:
                for j in r:
                    r[j] *= fp
            for j, v in piv.items():
                w = r.get(j, 0) - fc * v
                if w:
                    r[j] = w
                else:
                    r.pop(j, None)
        echelon[leads[idx]] = _strip_content(r)
    out = []
    for lead in leads:
        r = echelon[lead]
        head = r[lead]
        out.append(tuple((j, r[j] if head == 1 else qnorm(Fraction(r[j], head)))
                         for j in sorted(r)))
    return out


def row_space_basis(rows: Iterable[Sequence[Q]]) -> list[Vec]:
    """Canonical (RREF) basis of the span of the given dense row vectors,
    as dense rows as wide as the widest input row."""
    width = 0

    def nonzeros():
        nonlocal width
        for row in rows:
            width = max(width, len(row))
            yield enumerate(row)

    basis = sparse_row_space_basis(nonzeros())
    return [dense_vec(r, width) for r in basis]


def dense_vec(v: Iterable[tuple[int, Q]], n: int) -> Vec:
    """The length-n vector with the given nonzeros."""
    out: list[Q] = [0] * n
    for j, x in v:
        out[j] = x
    return tuple(out)


def pivot_columns(basis: Sequence[Vec]) -> tuple[int, ...]:
    """Leading column of each row of an echelon basis."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in basis)


def coords_in_rows(basis: Sequence[Vec], v: Sequence[Q]) -> Vec | None:
    """Coordinates of v in an RREF row basis, or None if v is outside the span.

    Because the basis is in reduced form, the coordinate on each row is just
    v's entry at that row's pivot column.
    """
    coords = []
    residual = list(v)
    for row in basis:
        lead = next(j for j, x in enumerate(row) if x)
        c = residual[lead]
        coords.append(qnorm(c))
        if c:
            residual = [qnorm(x - c * y) for x, y in zip(residual, row)]
    if any(residual):
        return None
    return tuple(coords)


def vec_add(u: Sequence[Q], v: Sequence[Q]) -> Vec:
    return tuple(qnorm(a + b) for a, b in zip(u, v))


def vec_scale(c: Q, v: Sequence[Q]) -> Vec:
    return tuple(qnorm(c * x) for x in v)


def vec_neg(v: Sequence[Q]) -> Vec:
    return tuple(-x for x in v)


def vec_dot(u: Sequence[Q], v: Sequence[Q]) -> Q:
    return qnorm(sum(a * b for a, b in zip(u, v) if a and b))


def is_zero_vec(v: Sequence[Q]) -> bool:
    return all(not x for x in v)


def zero_vec(n: int) -> Vec:
    return (0,) * n
