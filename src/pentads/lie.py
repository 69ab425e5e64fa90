"""Matrix Lie algebras over the rationals.

An algebra here is a list of ambient matrices closed under the commutator.
Structure constants are computed once, exactly, at construction, and stored
once, by the nonzero brackets only (MatrixLieAlgebra.structure).  Everything
downstream (brackets, ad matrices, the center, the derived subalgebra,
invariant-form checks, the homomorphism check, the graded construction)
reads that one table, and no reader walks all d^2 pairs.

Classical families are canonical kernel bases of their defining equations,
one sparse matrix on the flattened matrix, so two calls with the same
parameters return identical bases, entry for entry.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from functools import cached_property
from typing import NamedTuple, Sequence

from .exact_linalg import (
    Frozen,
    Matrix,
    Q,
    SparseVec,
    Vec,
    check_length,
    echelon_add,
    kernel_basis,
    kronecker,
    linear_combination,
    qnorm,
    sparse_kernel_basis,
    sparse_row,
    sparse_row_space_basis,
)


class LieAlgebraError(ValueError):
    pass


class NotIndependentError(LieAlgebraError):
    """The proposed basis is linearly dependent."""


class NotClosedError(LieAlgebraError):
    """A commutator of basis elements left the span."""

    def __init__(self, i: int, j: int):
        super().__init__(f"commutator of basis elements {i} and {j} is outside the span")
        self.pair = (i, j)


class MatrixLieAlgebra(Frozen):
    """A Lie algebra of ambient_size x ambient_size matrices.

    structure[i] maps each j with [basis[i], basis[j]] != 0, ascending, to
    its coordinates as a SparseVec, the (k, c) with c != 0 ascending in k;
    i and the j commuting with basis[i] are absent.  It is the only copy of
    the structure constants, derived from the basis, so ==, hash and the
    repr read the basis alone; bracketing never re-solves a linear system.
    """

    _fields = ("ambient_size", "basis")

    def __init__(self, ambient_size: int, basis: tuple[Matrix, ...],
                 structure: tuple[dict[int, SparseVec], ...]):
        self._init(ambient_size, basis)
        object.__setattr__(self, "structure", structure)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def ad_matrix(self, u: Sequence[Q]) -> Matrix:
        """Matrix of v -> [u, v]: ad(b_i) combined by u over u_i != 0 (0 ad(b_0) at u = 0)."""
        check_length(u, self.dim)
        support = [i for i, c in enumerate(u) if c] or [0]
        return linear_combination([u[i] for i in support], list(map(self.ad_basis, support)))

    def ad_basis(self, i: int) -> Matrix:
        """ad(b_i): row k holds the (j, c) with c the k-th coordinate of [b_i, b_j]."""
        rows: dict[int, list[tuple[int, Q]]] = {}
        for j, cij in self.structure[i].items():
            for k, c in cij:
                rows.setdefault(k, []).append((j, c))
        out: list[SparseVec] = [()] * self.dim
        for k, row in rows.items():
            out[k] = tuple(row)
        return Matrix.from_nonzeros(out, self.dim)

    @cached_property
    def center(self) -> tuple[Vec, ...]:
        """Canonical coordinate basis of {z : [z, g] = 0}, computed on first
        use and kept (scalar_center_report and every grading-element solve
        read it): the kernel of the nonempty rows of ad(s), stacked, for s in
        self.generators only, since by Jacobi [z, [s, t]] = [[z, s], t] +
        [s, [z, t]] = 0 once z commutes with S, and S + [S, S] spans g.  The
        kernel basis is canonical, so neither the rows chosen nor their order
        matters.
        """
        rows = [row for s in self.generators for _, row in self.ad_basis(s).nonempty()]
        return tuple(kernel_basis(Matrix.from_nonzeros(rows, self.dim)))

    @cached_property
    def trace_gram(self) -> Matrix:
        """Gram matrix of (a, b) -> Tr(ab) on the basis, computed on first use
        and kept.  Tr(b_i b_j) is flat(b_i) . flat(t(b_j)), so the whole Gram
        matrix is one sparse product, normalized like every product, of the
        flattened basis with the flattened transposed basis."""
        nn = self.ambient_size ** 2
        flat = Matrix.from_nonzeros((b.flat_nonzeros() for b in self.basis), nn)
        flat_t = Matrix.from_nonzeros((b.transpose().flat_nonzeros() for b in self.basis), nn)
        return flat @ flat_t.transpose()

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Basis indices, ascending, of a generating set S with
        span(S + [S, S]) = g, computed on first use and kept.

        Walking the basis in order, b_j joins S when it is outside
        span(S + [S, S]), which is echeloned as it grows, with the brackets
        read off the structure table.  Checks may then run over S alone:
        a subalgebra that holds S is all of g (by Jacobi, the x where a
        linear map respects every bracket with x form one, and so do the x
        with ad x skew for a bilinear form), and [g, g] is the span of
        [S, g], since [[s, t], y] = [s, [t, y]] - [t, [s, y]].
        """
        echelon: dict[int, dict[int, int]] = {}
        gens: list[int] = []
        for j in range(self.dim):
            if len(echelon) == self.dim:
                break
            if echelon_add(echelon, ((j, 1),)):
                for row in filter(None, map(self.structure[j].get, gens)):
                    echelon_add(echelon, row)
                gens.append(j)
        return tuple(gens)


def unit_coords(dim: int, j: int) -> Vec:
    return tuple(1 if i == j else 0 for i in range(dim))


def commutator(a: dict[int, SparseVec], b: dict[int, SparseVec], n: int) -> dict[int, Q]:
    """ab - ba by flat index r n + c, from dict(m.nonempty()) of each; it may hold zeros."""
    acc: dict[int, Q] = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for r, row in x.items():
            for c, u in row:
                for t, v in y.get(c, ()):
                    acc[r * n + t] = acc.get(r * n + t, 0) + sign * u * v
    return acc


def index_partners(mats: Sequence[dict[int, SparseVec]]) -> list[set[int]]:
    """For each matrix i, given by dict(m.nonempty()), the j > i sharing an
    index with it (a column of one is a nonempty row of the other; other
    pairs have ab = ba = 0), at the cost of the pairs found, not d(d-1)/2."""
    keys = [set(m).union(~c for row in m.values() for c, _ in row) for m in mats]
    on: defaultdict[int, list[int]] = defaultdict(list)  # row r: key r, column c: key ~c
    for i, ks in enumerate(keys):
        for key in ks:
            on[key].append(i)
    return [set().union(*(on[~k][bisect_right(on[~k], i):] for k in ks))
            for i, ks in enumerate(keys)]


def build_algebra(ambient_size: int, basis: Sequence[Matrix]) -> MatrixLieAlgebra:
    """Assemble an algebra from a basis, verifying independence and closure.

    One sparse echelon of the nonzeros of [flat(b_i) | e_i] does all the
    linear algebra.  Its RREF is [R | E] with R = E.B the RREF of the basis
    span, so the basis is independent exactly when all pivots lie in the
    first block.  A flattened commutator v then has the coordinates
    v[pivots] . E, and it lies in the span exactly when v - v[pivots] . R
    vanishes.  Only the pairs that share an index are bracketed, in order,
    and a nonzero bracket is stored with its negative, so keys ascend.
    """
    basis = tuple(basis)
    n = ambient_size
    nn = n * n
    for b in basis:
        if b.shape() != (n, n):
            raise LieAlgebraError("basis matrix has the wrong ambient size")
    echelon = sparse_row_space_basis(
        b.flat_nonzeros() + ((nn + i, 1),) for i, b in enumerate(basis))
    if any(row[0][0] >= nn for row in echelon):
        raise NotIndependentError("basis is linearly dependent")
    # Each RREF row split at column n^2: its pivot, its nonzeros in R past
    # the pivot (the other pivot columns are zero there), and those in E.
    pivot_row = {row[0][0]: idx for idx, row in enumerate(echelon)}
    r_rest = [[(c, x) for c, x in row[1:] if c < nn] for row in echelon]
    e_rows = [[(c - nn, x) for c, x in row if c >= nn] for row in echelon]

    maps = [dict(b.nonempty()) for b in basis]
    table: list[dict[int, SparseVec]] = [{} for _ in basis]
    for i, partners in enumerate(index_partners(maps)):
        for j in sorted(partners):
            residual: dict[int, Q] = {}
            coords: dict[int, Q] = {}
            for col, t in commutator(maps[i], maps[j], n).items():
                idx = pivot_row.get(col)
                if idx is None:
                    residual[col] = residual.get(col, 0) + t
                elif t:
                    for c2, x in r_rest[idx]:
                        residual[c2] = residual.get(c2, 0) - t * x
                    for k, x in e_rows[idx]:
                        coords[k] = coords.get(k, 0) + t * x
            if any(residual.values()):
                raise NotClosedError(i, j)
            cij = sparse_row(coords)
            if cij:
                table[i][j] = cij
                table[j][i] = tuple((k, -x) for k, x in cij)
    return MatrixLieAlgebra(ambient_size, basis, tuple(table))


def standard_symplectic_form(n: int) -> Matrix:
    """The 2n x 2n block matrix [[0, I], [-I, 0]]."""
    return Matrix.from_nonzeros(
        [((n + i, 1),) for i in range(n)] + [((i, -1),) for i in range(n)], 2 * n)


def classical_basis(kind: str, n: int) -> tuple[int, list[Matrix]]:
    """Classical families as (ambient size, basis), the arguments of
    build_algebra: gl(n), sl(n), so(n), and sp(n) on ambient size 2n, each
    the canonical kernel of its defining equations on flat(A) as one sparse
    matrix: none for gl (the matrix units, in order), the trace row for sl,
    I + S for so and kron(I, t(J)) + kron(J, I) S for sp (A J + J t(A) = 0),
    where the permutation S sends flat(A) to flat(t(A)).
    """
    if n < 1:
        raise LieAlgebraError("family parameter must be positive")
    size = 2 * n if kind == "sp" else n
    nn = size * size
    flip = Matrix.from_nonzeros(((((r % size) * size + r // size, 1),) for r in range(nn)), nn)
    if kind == "gl":
        equations = Matrix.zeros(0, nn)
    elif kind == "sl":
        equations = Matrix.from_nonzeros([tuple((p * size + p, 1) for p in range(size))], nn)
    elif kind == "so":
        equations = Matrix.identity(nn) + flip
    elif kind == "sp":
        j, i_size = standard_symplectic_form(n), Matrix.identity(size)
        equations = kronecker(i_size, j.transpose()) + kronecker(j, i_size) @ flip
    else:
        raise LieAlgebraError(f"unknown family kind: {kind!r}")
    return size, [Matrix.from_flat_nonzeros(v, size, size) for v in sparse_kernel_basis(equations)]


def family(kind: str, n: int) -> MatrixLieAlgebra:
    """Classical families: gl(n), sl(n), so(n), and sp(n) on ambient size 2n."""
    return build_algebra(*classical_basis(kind, n))


def direct_sum(blocks: Sequence[tuple[int, Sequence[Matrix]]]) -> MatrixLieAlgebra:
    """Block-diagonal sum of (ambient size, basis) blocks, built once by
    build_algebra; the bases concatenate in argument order.  A matrix must
    be size x size: a wider one would reach into the next block."""
    total = sum(size for size, _ in blocks)
    basis: list[Matrix] = []
    offset = 0
    for size, block in blocks:
        above, below = ((),) * offset, ((),) * (total - offset - size)
        for b in block:
            if b.shape() != (size, size):
                raise LieAlgebraError("basis matrix has the wrong ambient size")
            shifted = tuple(tuple((c + offset, x) for c, x in row) for row in b.nonzeros)
            basis.append(Matrix.from_nonzeros(above + shifted + below, total))
        offset += size
    return build_algebra(total, basis)


def trace_form(alg: MatrixLieAlgebra) -> Matrix:
    """Gram matrix of the trace form (a, b) -> Tr(ab) on the stored basis."""
    return alg.trace_gram


class FormReport(NamedTuple):
    symmetric: bool
    nondegenerate: bool
    invariant: bool
    symmetry_witness: tuple[int, int] | None = None
    kernel_witness: Vec | None = None
    invariance_witness: tuple[int, int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.symmetric and self.nondegenerate and self.invariant


def check_form(alg: MatrixLieAlgebra, g: Matrix) -> FormReport:
    """Verify symmetry, nondegeneracy, and invariance B([a,b],c) = B(a,[b,c])
    of the form with Gram matrix g."""
    if g.shape() != (alg.dim, alg.dim):
        raise LieAlgebraError("Gram matrix size does not match the algebra dimension")
    gt = g.transpose()
    sym_wit = None
    for i, (row, col) in enumerate(zip(g.nonzeros, gt.nonzeros)):
        if row != col:
            # the first asymmetric pair (i, j): a difference left of the
            # diagonal would have shown in an earlier row, so j > i
            sym_wit = (i, min(j for j, _ in set(row) ^ set(col)))
            break
    ker = kernel_basis(g)
    inv_wit = _invariance_witness(alg, g, gt)
    return FormReport(sym_wit is None, not ker, inv_wit is None,
                      sym_wit, ker[0] if ker else None, inv_wit)


def _invariance_witness(alg: MatrixLieAlgebra, g: Matrix,
                        gt: Matrix) -> tuple[int, int, int] | None:
    """The first (i, j, k) in lexicographic order where B([b_i,b_j],b_k) !=
    B(b_i,[b_j,b_k]), that is, where ad(b_j) is not B-skew, or None; gt is g
    transposed.  Row i of the two sides, over k, is C_ij . G and G_i . ad(b_j),
    so only the i with C_ij != 0 or G_i meeting a nonempty row of ad(b_j) are
    read, none past the best witness so far, and the j off alg.generators
    only after a failure (the x with ad x B-skew form a subalgebra).
    """
    gens = alg.generators
    g_rows, gt_rows = g.nonzeros, gt.nonzeros
    best = None
    for j in [*gens, *sorted(set(range(alg.dim)).difference(gens))]:
        if best is None and j not in gens:
            break
        ad_j = alg.ad_basis(j)
        rows = set(alg.structure[j]).union(
            *([i for i, _ in gt_rows[m]] for m, _ in ad_j.nonempty()))
        for i in sorted(rows):
            if best is not None and (i, j) > best[:2]:
                break
            diff: dict[int, Q] = {}
            for m, c in alg.structure[i].get(j, ()):
                for k, x in g_rows[m]:
                    diff[k] = diff.get(k, 0) + c * x
            for m, x in g_rows[i]:
                for k, c in ad_j.nonzeros[m]:
                    diff[k] = diff.get(k, 0) - x * c
            bad = [k for k, v in diff.items() if v]
            if bad:
                best = (i, j, min(bad))
                break
    return best


class ScalarCenterReport(NamedTuple):
    """Does the algebra split as a one-dimensional center acting by a nonzero
    scalar on the module, plus its derived subalgebra?

    The graded construction's distinguished grading element lives in exactly
    this situation, so the regularity decision procedure requires it.
    """

    holds: bool
    center_dim: int
    scalar: Q | None
    decomposes: bool
    reason: str


def scalar_center_report(alg: MatrixLieAlgebra,
                         action: Sequence[Matrix]) -> ScalarCenterReport:
    """Check the scalar-center hypothesis against the given action matrices."""
    if len(action) != alg.dim:
        raise LieAlgebraError("one action matrix per basis element is required")
    zs = alg.center
    center_dim = len(zs)
    # g = z(g) + [g, g], a direct sum, when the dimensions add up and the two
    # span; [g, g] is the span of the [s, b_j], s in alg.generators
    echelon: dict[int, dict[int, int]] = {}
    for s in alg.generators:
        for row in alg.structure[s].values():
            echelon_add(echelon, row)
    derived_dim = len(echelon)
    for z in zs:
        echelon_add(echelon, enumerate(z))
    decomposes = center_dim + derived_dim == alg.dim and len(echelon) == alg.dim
    if center_dim != 1:
        return ScalarCenterReport(False, center_dim, None, decomposes,
                                  f"center dimension is {center_dim}, not 1")
    if not decomposes:
        return ScalarCenterReport(False, center_dim, None, False,
                                  "center and derived subalgebra do not span")
    pi_z = linear_combination(zs[0], action)
    n = pi_z.rows
    scalar = pi_z.entry(0, 0)
    if pi_z != Matrix.identity(n).scale(scalar):
        return ScalarCenterReport(False, 1, None, decomposes,
                                  "center generator does not act as a scalar")
    if not scalar:
        return ScalarCenterReport(False, 1, 0, decomposes, "center acts by zero")
    return ScalarCenterReport(True, 1, qnorm(scalar), True, "ok")
