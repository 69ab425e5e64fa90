"""Exact linear algebra over the rationals.

Everything in this package reduces to the routines in this module: ranks,
kernels, and linear solves computed without rounding.  Scalars are plain
``int`` or ``fractions.Fraction``; integers are kept as ``int`` wherever
possible because integer arithmetic is much cheaper than Fraction
arithmetic and the two compare equal.  Division is the only operation that
can leave the integers, and its results are always normalized
(:func:`qnorm`).

A :class:`Matrix` stores only its nonzeros and its width: the matrices here
are almost all zeros, so every operation walks and returns nonzeros, and the
dense grid is derived only to print or to test.

All elimination is one sparse echelon, :func:`sparse_row_space_basis`: a
fraction-free pass over sparse integer rows that returns the reduced row
echelon form (RREF) of their span, dividing only at the end, once per entry
of the result.  rref and kernel_basis (sparse_kernel_basis by nonzeros) read
that RREF; solve, solve_multi, inverse and graded's expansions share one
reader of the RREF of [A | B], which gives each column's solution by nonzeros.
One fraction-free step serves the forward and the backward pass, and the
forward pass takes rows in the engine's own order (rank counts the rows it
keeps); :func:`echelon_add` runs that step in the caller's order instead.

Determinism matters as much as exactness here: kernel bases come from the
reduced row echelon form, which is unique for a given row space, so every
routine returns identical output for identical input, with no dependence
on dict ordering or pivot luck.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from itertools import chain, compress
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

Q = Union[int, Fraction]
Vec = tuple[Q, ...]
# The nonzero coordinates (k, c) of a vector, ascending in k.
SparseVec = tuple[tuple[int, Q], ...]

_RATIONAL = re.compile(r"([+-]?[0-9]+)/([0-9]+)")


def qof(x: Q | str) -> Q:
    """Coerce an int, Fraction, or string like '-3/7' to a scalar; the
    dispatch is on the exact type, so a bool is not a scalar, and a string
    must read [+-]?[0-9]+(/[0-9]+)? in ASCII, or it raises ValueError."""
    t = type(x)
    if t is int:
        return x
    if t is str:
        # Plain integer literals, the bulk of every pentad file, skip the regex
        digits = x[1:] if x[:1] in ("+", "-") else x
        if digits.isascii() and digits.isdigit():
            return int(x)
        parts = _RATIONAL.fullmatch(x)
        if parts is None:
            raise ValueError(f"malformed rational literal: {x!r}")
        return qnorm(Fraction(int(parts[1]), int(parts[2])))
    if t is Fraction:
        return qnorm(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def qnorm(x: Q) -> Q:
    """Collapse integral Fractions back to int (keeps the fast path alive)."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def qstr(x: Q) -> str:
    """Serialize a scalar as 'p' or 'p/q' in lowest terms."""
    return str(qnorm(x))


class Frozen:
    """Base of the classes whose instances never change once built.  A
    subclass names its fields in _fields and sets them in __init__ with
    _init; == and hash compare those fields on instances of one class, the
    repr shows them, and setting or deleting an attribute raises
    AttributeError.  functools.cached_property writes the instance dict
    directly, so it still caches on a subclass that has one."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Matrix(Frozen):
    """Immutable sparse rational matrix, stored as `nonzeros`, for each row
    the (col, x) pairs with x != 0 ascending in col, and the width `cols`;
    == and hash read exactly those.  `Matrix(rows)` takes dense rows,
    `from_nonzeros` rows already in stored form; the dense grid `entries` is
    derived on demand, for serialization and tests."""

    __slots__ = _fields = ("nonzeros", "cols")
    nonzeros: tuple[SparseVec, ...]
    cols: int

    def __init__(self, entries: Iterable[Sequence[Q]]):
        rows = tuple(entries)
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "nonzeros",
                           tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in rows))
        object.__setattr__(self, "cols", cols)

    @staticmethod
    def from_nonzeros(nonzeros: Iterable[SparseVec], cols: int) -> "Matrix":
        """The matrix with these rows of nonzeros, each already ascending in
        column with no zero value; the caller guarantees that form."""
        m = object.__new__(Matrix)
        object.__setattr__(m, "nonzeros", tuple(nonzeros))
        object.__setattr__(m, "cols", cols)
        return m

    @staticmethod
    def from_flat_nonzeros(v: SparseVec, rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix whose row-major flattening has the
        nonzeros v: the inverse of flat_nonzeros."""
        out: list[list[tuple[int, Q]]] = [[] for _ in range(rows)]
        for j, x in v:
            out[j // cols].append((j % cols, x))
        return Matrix.from_nonzeros(map(tuple, out), cols)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix.from_nonzeros(((),) * rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_nonzeros((((i, 1),) for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.nonzeros)

    @property
    def entries(self) -> tuple[Vec, ...]:
        """The dense grid of rows."""
        return tuple(dense_vec(row, self.cols) for row in self.nonzeros)

    def entry(self, i: int, j: int) -> Q:
        return dense_vec(self.nonzeros[i], self.cols)[j]

    def flat(self) -> Vec:
        """Row-major flattening."""
        return tuple(chain.from_iterable(self.entries))

    def flat_nonzeros(self) -> SparseVec:
        """The nonzeros of the row-major flattening, ascending."""
        n = self.cols
        return tuple((i * n + j, x) for i, row in self.nonempty() for j, x in row)

    def nonempty(self) -> Iterator[tuple[int, SparseVec]]:
        """(i, row i) for the nonempty rows, the empty ones skipped in C."""
        return compress(enumerate(self.nonzeros), self.nonzeros)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return linear_combination((1, 1), (self, other))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return linear_combination((1, -1), (self, other))

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: Q) -> "Matrix":
        return Matrix.from_nonzeros((tuple((j, qnorm(c * x)) for j, x in row) if c else ()
                                     for row in self.nonzeros), self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} @ {other.shape()}")
        brows = other.nonzeros
        out: list[SparseVec] = [()] * self.rows
        for r, arow in self.nonempty():
            acc: dict[int, Q] = {}
            for k, a in arow:
                for j, b in brows[k]:
                    acc[j] = acc.get(j, 0) + a * b
            if acc:
                out[r] = sparse_row(acc)
        return Matrix.from_nonzeros(out, other.cols)

    def transpose(self) -> "Matrix":
        out: list[list[tuple[int, Q]]] = [[] for _ in range(self.cols)]
        for i, row in self.nonempty():
            for j, x in row:
                out[j].append((i, x))
        return Matrix.from_nonzeros(map(tuple, out), self.rows)

    def trace(self) -> Q:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return qnorm(sum(x for i, row in enumerate(self.nonzeros) for j, x in row if i == j))

    def apply(self, v: Sequence[Q]) -> Vec:
        """Matrix-vector product."""
        return linear_combination_apply((1,), (self,), v)


def _check_count(coeffs: Sequence[Q], mats: Sequence[Matrix]) -> None:
    if len(coeffs) != len(mats):
        raise ValueError(f"{len(coeffs)} coefficients for {len(mats)} matrices")


def linear_combination(coeffs: Sequence[Q], mats: Sequence[Matrix]) -> Matrix:
    """sum_i c_i M_i over equally shaped matrices, walking the nonzeros of
    the matrices with nonzero coefficients and normalizing once; the zero
    matrix of the common shape when every coefficient is zero."""
    _check_count(coeffs, mats)
    rows, cols = mats[0].shape()
    acc: dict[int, dict[int, Q]] = {}
    for c, m in zip(coeffs, mats):
        if c:
            if m.shape() != (rows, cols):
                raise ValueError(f"shape mismatch: {m.shape()} vs {(rows, cols)}")
            for r, row in m.nonempty():
                out = acc.setdefault(r, {})
                for j, x in row:
                    out[j] = out.get(j, 0) + c * x
    return Matrix.from_nonzeros([sparse_row(acc[r]) if r in acc else () for r in range(rows)],
                                cols)


def linear_combination_apply(coeffs: Sequence[Q], mats: Sequence[Matrix],
                             v: Sequence[Q]) -> Vec:
    """linear_combination(coeffs, mats).apply(v) without forming the sum:
    one accumulation over the nonzeros of the matrices with nonzero
    coefficients, normalized once."""
    _check_count(coeffs, mats)
    check_length(v, mats[0].cols)
    acc: list[Q] = [0] * mats[0].rows
    for c, m in zip(coeffs, mats):
        if c:
            for r, row in m.nonempty():
                for j, x in row:
                    vj = v[j]
                    if vj:
                        acc[r] += c * x * vj
    return tuple(qnorm(x) for x in acc)


def ratio(n: Q, d: int) -> Q:
    """n / d for a scalar n and a nonzero integer d, an int when it is one."""
    return n // d if n % d == 0 else Fraction(n, d)


def cleared(v: Sequence[Q]) -> tuple[list[int], int]:
    """(D v, D) for the least positive D that makes every entry of D v an
    integer."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def sparse_row(acc: dict[int, Q]) -> SparseVec:
    """A row accumulator {col: x} as its normalized nonzeros, ascending."""
    return tuple((j, qnorm(x)) for j, x in sorted(acc.items()) if x)


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row-major, so kron(A, I) acts blockwise on the left."""
    n = b.cols
    return Matrix.from_nonzeros(
        (tuple((i * n + j, qnorm(x * y)) for i, x in arow for j, y in brow) if arow and brow
         else () for arow in a.nonzeros for brow in b.nonzeros), a.cols * n)


def rank(m: Matrix) -> int:
    """Rank: the number of rows the forward pass keeps, with neither the
    backward pass nor the final division run."""
    return len(_forward(m.nonzeros))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns (unique for the row space).

    The basis rows of the row space come first, padded with zero rows to
    the input's shape.
    """
    basis = sparse_row_space_basis(m.nonzeros)
    padded = Matrix.from_nonzeros(basis + [()] * (m.rows - len(basis)), m.cols)
    return padded, tuple(r[0][0] for r in basis)


def _kernel_of_rref(basis: Sequence[SparseVec], ncols: int) -> list[SparseVec]:
    """Canonical kernel basis of the first ncols columns of RREF rows whose
    pivots all lie in those columns, by nonzeros: one vector per free column
    f, with minus column f of the pivot rows at their pivots, which all lie
    left of f, and 1 at f."""
    vecs: dict[int, list[tuple[int, Q]]] = {f: [] for f in range(ncols)}
    for row in basis:
        del vecs[row[0][0]]
    for row in basis:
        lead = row[0][0]
        for j, x in row[1:]:
            if j < ncols:
                vecs[j].append((lead, -x))
    return [tuple(v) + ((f, 1),) for f, v in vecs.items()]


def sparse_kernel_basis(m: Matrix) -> list[SparseVec]:
    """kernel_basis by nonzeros, ascending in column."""
    return _kernel_of_rref(sparse_row_space_basis(m.nonzeros), m.cols)


def kernel_basis(m: Matrix) -> list[Vec]:
    """Canonical basis of the right kernel.

    One vector per free column, ordered by free column index; stacked as
    columns the result is in reduced column echelon form, so equal inputs
    give byte-equal bases.
    """
    return [dense_vec(v, m.cols) for v in sparse_kernel_basis(m)]


class SolveResult(NamedTuple):
    """Classification of a linear system a @ x = b.

    status is 'none', 'unique', or 'affine'.  For 'unique' the solution is
    exact; for 'affine' it is the particular solution with all free
    variables set to zero, alongside the canonical kernel basis.
    """

    status: str
    solution: Vec | None
    kernel: list[Vec]


def _solutions(a: Matrix, rhs_rows: Iterable[SparseVec], width: int) -> tuple[list, list]:
    """Echelon [a | rhs] once (rhs by its rows of nonzeros, width columns)
    and read it: the RREF rows, and per rhs column the particular solution
    of a @ x = that column by nonzeros, ascending with free variables zero,
    or None when a pivot row of the rhs block involves the column."""
    ncols = a.cols
    basis = sparse_row_space_basis(chain(ar, ((ncols + j, x) for j, x in br))
                                   for ar, br in zip(a.nonzeros, rhs_rows))
    sols: list[list[tuple[int, Q]] | None] = [[] for _ in range(width)]
    for row in basis:
        lead = row[0][0]
        for j, x in row:
            if j >= ncols:
                if lead < ncols:
                    sols[j - ncols].append((lead, x))
                else:
                    sols[j - ncols] = None
    return basis, sols


def solve(a: Matrix, b: Sequence[Q]) -> SolveResult:
    """Solve a @ x = b exactly, classifying the solution set.

    One echelon of [a | b]: when b is consistent the pivot rows, read
    without the last column, are the RREF of a, so they give the kernel.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    basis, (x,) = _solutions(a, (((0, qof(c)),) for c in b), 1)
    if x is None:
        return SolveResult("none", None, [])
    ker = [dense_vec(v, a.cols) for v in _kernel_of_rref(basis, a.cols)]
    return SolveResult("affine" if ker else "unique", dense_vec(x, a.cols), ker)


def solve_multi(a: Matrix, rhs: Matrix) -> list[Vec | None]:
    """Particular solutions of a @ x = rhs[:, j] for each column j, from
    one echelon of [a | rhs]: free variables set to zero, None for an
    inconsistent column."""
    if rhs.rows != a.rows:
        raise ValueError("right-hand side row count does not match")
    return [None if x is None else dense_vec(x, a.cols)
            for x in _solutions(a, rhs.nonzeros, rhs.cols)[1]]


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix, read by nonzeros; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices have inverses")
    cols = _solutions(m, Matrix.identity(m.rows).nonzeros, m.rows)[1]
    if None in cols:
        raise ValueError("matrix is singular")
    return Matrix.from_nonzeros(cols, m.rows).transpose()


def _sparse_int_row(row: Iterable[tuple[int, Q]]) -> dict[int, int]:
    """Clear denominators and strip the content; {column: nonzero int}."""
    vals = {j: x for j, x in row if x}
    denominators = [x.denominator for x in vals.values() if type(x) is Fraction]
    if denominators:
        denom = lcm(*denominators)
        vals = {j: x.numerator * (denom // x.denominator) if type(x) is Fraction else x * denom
                for j, x in vals.items()}
    return _strip_content(vals)


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


def _reduce(r: dict[int, int], piv: dict[int, int], col: int) -> dict[int, int]:
    """The fraction-free step, in place: r := (p/g)·r − (c/g)·piv with
    p = piv[col], c = r[col] and g = gcd(p, c), which clears column col of r
    and keeps it integral.  Both passes of the engine run it."""
    p, c = piv[col], r[col]
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
            del r[j]
    return r


def _insert(echelon: dict[int, dict[int, int]], r: dict[int, int]) -> bool:
    """Reduce a sparse integer row against the echelon and keep what is left
    under its leading column; False when nothing is left."""
    while r:
        lead = min(r)
        piv = echelon.get(lead)
        if piv is None:
            echelon[lead] = r
            return True
        _strip_content(_reduce(r, piv, lead))
    return False


def echelon_add(echelon: dict[int, dict[int, int]], row: Iterable[tuple[int, Q]]) -> bool:
    """One forward step in the caller's order, for a span grown row by row
    (a Lie algebra's greedy generating set depends on that order): reduce a
    row, given by its nonzeros, against the echelon {leading column: sparse
    integer row} and keep the rest.  False when the row was in the span."""
    return _insert(echelon, _sparse_int_row(row))


def _forward(rows: Iterable[Iterable[tuple[int, Q]]]) -> dict[int, dict[int, int]]:
    """The forward pass, {leading column: sparse integer row}, in the engine's
    own intake order: descending leading column, ties by ascending length,
    so fill does not depend on the order the caller happens to use."""
    echelon: dict[int, dict[int, int]] = {}
    stack = sorted(filter(None, map(_sparse_int_row, rows)), key=lambda r: (-min(r), len(r)))
    stack.reverse()
    while stack:  # off the list as it is taken, so a row reduced to nothing is freed
        _insert(echelon, stack.pop())
    return echelon


def sparse_row_space_basis(rows: Iterable[Iterable[tuple[int, Q]]]) -> list[SparseVec]:
    """Canonical (RREF) basis of the span of rows given by their nonzeros.

    Each row is its (column, value) pairs; zero values are ignored, and each
    basis row comes back as its nonzeros ascending in column.  Both passes
    run one fraction-free step on sparse integer rows, since the systems here
    run to thousands of mostly-sparse rows where dense Fraction arithmetic is
    an order of magnitude slower.  The RREF of the span is unique, so neither
    the engine's intake order nor the caller's leaks into the result.
    """
    echelon = _forward(rows)
    leads = sorted(echelon)
    # Backward pass, bottom row up: rows below are reduced, so carry no pivot
    # but their own, and a row's content is divided out after its last step.
    for lead in reversed(leads):
        r = echelon[lead]
        for j in sorted(j for j in r if j > lead and j in echelon):
            _reduce(r, echelon[j], j)
        _strip_content(r)
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
    rows = list(rows)
    width = max(map(len, rows), default=0)
    return [dense_vec(r, width) for r in sparse_row_space_basis(map(enumerate, rows))]


def dense_vec(v: Iterable[tuple[int, Q]], n: int) -> Vec:
    """The length-n vector with the given nonzeros."""
    out: list[Q] = [0] * n
    for j, x in v:
        out[j] = x
    return tuple(out)


def check_length(v: Sequence[Q], n: int) -> None:
    """Raise ValueError unless v has exactly n coordinates."""
    if len(v) != n:
        raise ValueError(f"expected {n} coordinates, got {len(v)}")


def vec_scale(c: Q, v: Sequence[Q]) -> Vec:
    return tuple(qnorm(c * x) for x in v)


def is_zero_vec(v: Sequence[Q]) -> bool:
    return all(not x for x in v)

