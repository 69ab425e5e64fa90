"""Reference code the tests check the library against.

None of it is on the pipeline's path: it reconstructs ambient matrices from
algebra coordinates, reads coordinates back with a dense solve, checks the
Phi-map's equivariance identity on random samples, builds two pentads whose
pairing and form are neither identity nor trace, builds the mirrored pentad
whose Phi the graded construction's negative half reads, keeps the dense
cell-by-cell loops that Matrix.nonzeros replaced, keeps the operations of
the dense row grid that Matrix stored before it stored only nonzeros, with
a check of the stored form, reads graded action tables densely at every
pivot, keeps Phi's table as the (i, r, c) triples that the slice matrices
replaced, with the two loops that contracted it, keeps the all-pairs scans
that the generating-set checks and the shared-index pair enumeration
replaced (closure included), the direct sum that shifted its factors'
structure tables, the center and the grading-element solve over every
commutation row, the center as the kernel of a hand-built row per
(generator, coordinate) and the degree-0 graded action read through
ad_matrix, ad(b_i) as the transposed matrix of its brackets, the rank read
off the full echelon, the JSON matrix reader and writer that walked every
cell, Witt's dimension formula for free Lie algebras, pentads over an
algebra in a changed basis, castling pairs, whose regularity verdicts must
agree, and the classical bases solved one matrix unit at a time, the
reference for the families' sparse equations.
"""

import random
from fractions import Fraction
from itertools import chain, combinations
from math import lcm, prod

from pentads.catalog import _defining, matrix_space_example, resolve
from pentads.exact_linalg import (
    Matrix,
    dense_vec,
    inverse,
    kernel_basis,
    kronecker,
    linear_combination,
    qnorm,
    qstr,
    row_space_basis,
    solve,
    solve_multi,
    sparse_kernel_basis,
    sparse_row,
    sparse_row_space_basis,
)
from pentads.lie import (
    MatrixLieAlgebra,
    build_algebra,
    classical_basis,
    standard_symplectic_form,
    trace_form,
    unit_coords,
)
from pentads.serialize import SerializationError, scalar_from_json
from pentads.pentad import (
    DualModule,
    Representation,
    StandardPentad,
    dual_representation,
    random_int_vector,
)


def vec_add(u, v):
    """u + v, entry by entry, normalized."""
    return tuple(qnorm(a + b) for a, b in zip(u, v))


def vec_dot(u, v):
    return qnorm(sum(a * b for a, b in zip(u, v)))


def pair(p, v, phi):
    """<v, phi> through the pentad's pairing matrix."""
    return vec_dot(v, p.dual.pairing.apply(phi))


def display_name(entry):
    """A catalog entry as resolve() reads it back: 'name' or 'name(3,4)'."""
    if not entry.parameters:
        return entry.name
    return f"{entry.name}({','.join(str(x) for x in entry.parameters)})"


def mirror(p):
    """Swap the module and its dual.

    The mirrored pairing is the transpose, so <phi, v>' = <v, phi>, and the
    compatibility axiom transposes onto itself.  Its Phi is the reference
    for the degree-one maps of the graded construction's negative half.
    """
    return StandardPentad(Representation(p.algebra, p.dual.action),
                          DualModule(p.rep.action, p.dual.pairing.transpose()), p.form)


def matrix_of(alg, coords):
    """The ambient matrix with the given coordinates in alg's basis."""
    if len(coords) != alg.dim:
        raise ValueError("coordinate length does not match dimension")
    acc = Matrix.zeros(alg.ambient_size, alg.ambient_size)
    for c, b in zip(coords, alg.basis):
        if c:
            acc = acc + b.scale(c)
    return acc


def coords_of(alg, m):
    """Coordinates of an ambient matrix in alg's basis, or None outside the span."""
    stack = Matrix(tuple(b.flat() for b in alg.basis)).transpose()
    return solve_multi(stack, Matrix(tuple((x,) for x in m.flat())))[0]


def equivariance_failure(p, trials=20, seed=0):
    """The first failure of Phi(pi(a)v (x) phi) + Phi(v (x) pi*(a)phi) =
    [a, Phi(v (x) phi)] over every basis element a and `trials` seeded random
    (v, phi) pairs, as a readable witness; None when the identity holds."""
    rng = random.Random(seed)
    d, m = p.algebra.dim, p.module_dim
    for t in range(trials):
        v = random_int_vector(rng, m)
        phi = random_int_vector(rng, m)
        base = p.phi.apply(v, phi)
        for i in range(d):
            av = p.rep.action[i].apply(v)
            aphi = p.dual.action[i].apply(phi)
            lhs = vec_add(p.phi.apply(av, phi), p.phi.apply(v, aphi))
            if lhs != p.algebra.ad_matrix(unit_coords(d, i)).apply(base):
                return f"basis element {i}, trial {t}: v = {v}, phi = {phi}"
    return None


# --- Pentads with a rational, non-symmetric pairing and a non-trace form ------

def _blockwise_form(p, scales):
    """The trace form rescaled on each ideal: scales[i] multiplies row and
    column i, which keeps it invariant as long as each ideal gets one scale."""
    gram = trace_form(p.algebra)
    return Matrix(tuple(
        tuple(scales[i] * x * scales[j] for j, x in enumerate(row))
        for i, row in enumerate(gram.entries)))


def rational_vector_pentad():
    """gl(1) + so(3) on C^3 with a rational pairing and a non-trace form."""
    base = resolve("gl1_so_vector(3)").build()
    pairing = Matrix([[2, Fraction(1, 3), 0], [0, 1, -1], [1, 0, Fraction(1, 2)]])
    form = _blockwise_form(base, [3] + [Fraction(1, 2)] * 3)
    return StandardPentad(base.rep, dual_representation(base.rep, pairing), form)


def rational_matrix_space_pentad():
    """matrix_space_example(2) with the pairing kron(J, diag(1, 2, 1/3)) and
    the trace form scaled by 2 on gl(1), 1/2 on sp(2) and 3 on so(3)."""
    base = matrix_space_example(2)
    diag = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, Fraction(1, 3)]])
    pairing = kronecker(standard_symplectic_form(2), diag)
    scales = [2] + [Fraction(1, 2)] * 10 + [3] * 3
    return StandardPentad(base.rep,
                          dual_representation(base.rep, pairing),
                          _blockwise_form(base, scales))


# --- Dense loops over every cell, the reference for Matrix.nonzeros ----------

def dense_nonzeros(m):
    """For each row, the (col, x) pairs with x != 0, found by scanning cells."""
    return tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in m.entries)


def dense_matmul(a, b):
    """a @ b, skipping zero cells."""
    out = []
    for arow in a.entries:
        acc = [0] * b.cols
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(b.entries[k]):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return Matrix(tuple(out))


def dense_apply(m, v):
    """m . v, skipping zero cells."""
    out = []
    for row in m.entries:
        acc = 0
        for a, x in zip(row, v):
            if a and x:
                acc = acc + a * x
        out.append(qnorm(acc))
    return tuple(out)


def dense_is_zero(m):
    return all(not x for row in m.entries for x in row)


def dense_linear_combination(coeffs, mats):
    """sum_i c_i M_i, skipping zero coefficients and zero cells."""
    acc = [[0] * mats[0].cols for _ in range(mats[0].rows)]
    for c, m in zip(coeffs, mats):
        if c:
            for out, row in zip(acc, m.entries):
                for j, x in enumerate(row):
                    if x:
                        out[j] += c * x
    return Matrix(tuple(tuple(qnorm(x) for x in row) for row in acc))


def dense_trace_product(a, b):
    """Tr(a @ b), skipping zero cells."""
    acc = 0
    for i, row in enumerate(a.entries):
        for k, x in enumerate(row):
            if x:
                y = b.entries[k][i]
                if y:
                    acc = acc + x * y
    return qnorm(acc)


def pivot_columns(basis):
    """Leading column of each row of a dense echelon basis."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in basis)


# --- Operations on the dense row grid, the reference for Matrix storage -------

def assert_canonical(m):
    """m is in stored form: within each row, columns strictly ascending and
    in range, no zero value, and no integral Fraction (an int wherever the
    value is one)."""
    for row in m.nonzeros:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
        assert all(x for _, x in row)
        assert all(type(x) is int or x.denominator != 1 for _, x in row)


# Each takes matrices (read through .entries) and returns a dense grid, a
# tuple of row tuples, computed cell by cell as the grid-backed Matrix did;
# its product is dense_matmul above.

def grid_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.entries, b.entries))


def grid_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(a.entries, b.entries))


def grid_neg(a):
    return tuple(tuple(-x for x in row) for row in a.entries)


def grid_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a.entries)


def grid_transpose(a):
    return tuple(zip(*a.entries)) if a.entries else ()


def grid_trace(a):
    if a.rows != a.cols:
        raise ValueError("trace of a non-square matrix")
    return qnorm(sum(a.entries[i][i] for i in range(a.rows)))


def grid_kronecker(a, b):
    return tuple(tuple(x * y for x in arow for y in brow)
                 for arow in a.entries for brow in b.entries)


def grid_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def grid_zeros(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def grid_flat(a):
    return tuple(chain.from_iterable(a.entries))


# --- The dense pivot read, the reference for graded action tables -----------

def dense_pivot_action(half, degree):
    """The algebra basis acting on U_degree of a graded half, each column
    read from the twisted map at every pivot of the stored basis in turn:
    the dense reference for _Half._build_action.

    A stored map is the n x m matrix F with F[t][r] = [u_s, y_r]_t,
    flattened row-major (t * m + r).  A basis element twists it to
    A F - F D, with A its action one degree down and D its action on
    U_{-1}; on the flattened F that is the matrix A (x) I_m - I_n (x) D^T."""
    m, n = half.m, half.dims[degree - 1]
    maps = half.maps[degree]
    pivots = [f[0][0] for f in maps]
    flats = Matrix.from_nonzeros(maps, n * m)
    out = []
    lower = [Matrix.from_nonzeros(cols, n).transpose() for cols in half.columns(degree - 1)]
    for amat, dmat in zip(lower, half.dual):
        twist = (kronecker(amat, Matrix.identity(m))
                 - kronecker(Matrix.identity(n), dmat.transpose()))
        columns = []
        for row in (flats @ twist.transpose()).nonzeros:
            g = dict(row)
            coords = [g.get(p, 0) for p in pivots]
            for c, v in zip(coords, maps):
                if c:
                    for j, x in v:
                        g[j] = g.get(j, 0) - c * x
            assert not any(g.values()), "action left the component span"
            columns.append([qnorm(c) for c in coords])
        out.append(Matrix(tuple(zip(*columns))))
    return out


# --- Phi as (i, r, c) triples, the reference for the slice matrices ----------

def phi_triples(p):
    """(D, units): units[a] holds the nonzeros (i, r, c) of D Phi(x_a (x) y_r),
    ascending in (i, r), as integers over the least common denominator D,
    accumulated over the columns of G^-1."""
    ginv_cols = inverse(p.form).transpose().nonzeros
    tables = [(a.transpose() @ p.dual.pairing).nonzeros for a in p.rep.action]
    units = []
    for a in range(p.module_dim):
        acc = {}
        for i, t in enumerate(tables):
            for r, w in t[a]:
                for row, g in ginv_cols[i]:
                    acc[row, r] = acc.get((row, r), 0) + g * w
        units.append([(i, r, c) for (i, r), c in sorted(acc.items()) if c])
    d = lcm(*(c.denominator for entries in units for _, _, c in entries))
    return d, tuple(tuple((i, r, c.numerator * (d // c.denominator)) for i, r, c in entries)
                    for entries in units)


def triple_ad_on_dual(p, x):
    """D times the matrix of phi -> Phi(x (x) phi), from the triples."""
    out = [{} for _ in range(p.algebra.dim)]
    for xa, entries in zip(x, phi_triples(p)[1]):
        if xa:
            for i, r, c in entries:
                out[i][r] = out[i].get(r, 0) + xa * c
    return Matrix.from_nonzeros(map(sparse_row, out), p.module_dim)


def triple_module_partner_map(p, y):
    """D times the matrix of xi -> Phi(xi (x) y), from the triples."""
    out = [{} for _ in range(p.algebra.dim)]
    for a, entries in enumerate(phi_triples(p)[1]):
        for i, r, c in entries:
            yr = y[r]
            if yr:
                out[i][a] = out[i].get(a, 0) + c * yr
    return Matrix.from_nonzeros(map(sparse_row, out), p.module_dim)


# --- Shifted factor tables, the direct sum before it called build_algebra --

def shifted_sum(algebras):
    """Block-diagonal sum of built algebras, with the structure table
    assembled from the factors' tables shifted along the diagonal and no
    bracket recomputed: blocks on disjoint diagonal positions are
    independent and commute."""
    total = sum(a.ambient_size for a in algebras)
    basis, table, offset = [], [], 0
    for a in algebras:
        above, below = ((),) * offset, ((),) * (total - offset - a.ambient_size)
        for b in a.basis:
            shifted = tuple(tuple((c + offset, x) for c, x in row) for row in b.nonzeros)
            basis.append(Matrix.from_nonzeros(above + shifted + below, total))
        shift = len(table)
        for row in a.structure:
            table.append({j + shift: tuple((k + shift, c) for k, c in cij)
                          for j, cij in row.items()})
        offset += a.ambient_size
    return MatrixLieAlgebra(total, tuple(basis), tuple(table))


# --- All-pairs scans, the reference for the generating-set checks -----------

def _commutator_row(a, b, r):
    """Row r of ab - ba from a.nonzeros and b.nonzeros; it may hold zeros."""
    acc = {}
    for c, x in a[r]:
        for t, y in b[c]:
            acc[t] = acc.get(t, 0) + x * y
    for c, x in b[r]:
        for t, y in a[c]:
            acc[t] = acc.get(t, 0) - x * y
    return acc


def all_pairs_closure_failure(basis):
    """The first pair i < j whose commutator, formed densely, is outside the
    span of the basis, scanning every pair; None when the span is closed."""
    stack = Matrix(tuple(b.flat() for b in basis)).transpose()
    for i, j in combinations(range(len(basis)), 2):
        bracket = Matrix(grid_sub(dense_matmul(basis[i], basis[j]),
                                  dense_matmul(basis[j], basis[i])))
        if solve(stack, grid_flat(bracket)).status == "none":
            return (i, j)
    return None


def all_pairs_homomorphism_failure(alg, action):
    """The first pair i < j with [pi(b_i), pi(b_j)] != pi([b_i, b_j]),
    scanning every pair and every row; None when pi is a homomorphism."""
    rows = [a.nonzeros for a in action]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for r in range(action[0].rows):
                acc = _commutator_row(rows[i], rows[j], r)
                for k, g in alg.structure[i].get(j, ()):
                    for t, y in rows[k][r]:
                        acc[t] = acc.get(t, 0) - g * y
                if any(acc.values()):
                    return (i, j)
    return None


def all_pairs_invariance_witness(alg, gram):
    """The first (i, j, k) with B([b_i,b_j],b_k) != B(b_i,[b_j,b_k]), each
    side summed over dense coordinates; None when B is invariant."""
    d = alg.dim
    g = gram.entries
    table = [[dense_vec(row.get(j, ()), d) for j in range(d)] for row in alg.structure]
    for i in range(d):
        for j in range(d):
            cij = table[i][j]
            for k in range(d):
                cjk = table[j][k]
                lhs = sum(cij[m] * g[m][k] for m in range(d))
                rhs = sum(g[i][m] * cjk[m] for m in range(d))
                if lhs != rhs:
                    return (i, j, k)
    return None


# --- Dense center and derived subalgebra of a dense structure table, the
# --- reference for the center and for scalar_center_report's decomposition --

def dense_center(table):
    """Canonical kernel basis of every row of [z, b_j] = 0."""
    d = len(table)
    if d == 0:
        return []
    rows = [tuple(table[i][j][k] for i in range(d)) for j in range(d) for k in range(d)]
    return kernel_basis(Matrix(tuple(rows)))


def dense_derived(table):
    """Canonical basis of the span of every commutator [b_i, b_j]."""
    d = len(table)
    return row_space_basis(table[i][j] for i in range(d) for j in range(i + 1, d)
                           if any(table[i][j]))


# --- Every commutation row, the reference for the center on generators and
# --- for the grading element in center coordinates ---------------------------

def all_commutation_rows(alg):
    """The nonzero rows of [z, b_j] = 0 for every j, ordered by (j, k)."""
    rows = {}
    for i, row in enumerate(alg.structure):
        for j, cij in row.items():
            for k, c in cij:
                rows.setdefault((j, k), []).append((i, c))
    return [tuple(rows[key]) for key in sorted(rows)]


def all_rows_center(alg):
    """The canonical kernel basis of all d^2 commutation rows."""
    return kernel_basis(Matrix.from_nonzeros(all_commutation_rows(alg), alg.dim))


def generator_rows_center(alg):
    """The canonical kernel basis of the rows of [z, s] = 0 for s in
    alg.generators, row (s, k) built by hand as (C_0s^k, ..., C_(d-1)s^k)."""
    rows = {}
    for i, row in enumerate(alg.structure):
        for s in alg.generators:
            for k, c in row.get(s, ()):
                rows.setdefault((s, k), []).append((i, c))
    return tuple(kernel_basis(Matrix.from_nonzeros(map(tuple, rows.values()), alg.dim)))


def ad_matrix_actions(alg):
    """ad(b_i) for every basis element, each through ad_matrix of a unit
    vector (which combines all d structure rows)."""
    return [alg.ad_matrix(unit_coords(alg.dim, i)) for i in range(alg.dim)]


def transposed_ad_basis(alg, i):
    """ad(b_i) as the d-row matrix whose row j is [b_i, b_j], transposed."""
    row, d = alg.structure[i], alg.dim
    return Matrix.from_nonzeros([row.get(j, ()) for j in range(d)], d).transpose()


def stacked_grading_element(p):
    """(status, element coordinates, solution space) from one solve of every
    commutation row stacked on one row per matrix cell and side, empty cells
    included, against (0, 2 Id, -2 Id)."""
    m = p.module_dim
    rows = all_commutation_rows(p.algebra)
    rhs = [0] * len(rows)
    for action, lam in ((p.rep.action, 2), (p.dual.action, -2)):
        stacked = Matrix.from_nonzeros((a.flat_nonzeros() for a in action), m * m)
        rows.extend(stacked.transpose().nonzeros)
        rhs.extend(lam if cell % (m + 1) == 0 else 0 for cell in range(m * m))
    res = solve(Matrix.from_nonzeros(rows, p.algebra.dim), tuple(rhs))
    status = {"none": "absent", "affine": "degenerate", "unique": "found"}[res.status]
    return status, res.solution, tuple(res.kernel)


def echelon_rank(m):
    """The number of rows of the canonical echelon basis."""
    return len(sparse_row_space_basis(m.nonzeros))


# --- JSON matrices cell by cell, the reference for the nonzero reader/writer --

def dense_matrix_from_json(obj):
    """Every cell parsed, then the dense grid checked for equal rows."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SerializationError("a matrix must be a non-empty JSON array of rows")
    try:
        return Matrix(tuple(tuple(scalar_from_json(x) for x in row) for row in obj))
    except ValueError as exc:
        raise SerializationError(str(exc)) from None


def dense_matrix_to_json(m):
    return [[qstr(x) for x in row] for row in m.entries]


def mobius(n):
    """The Moebius function: 0 when a square divides n, else (-1)^(number of
    prime factors)."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def witt_dimension(m, k):
    """W(m, k) = (1/k) sum over d | k of mobius(d) m^(k/d): the dimension of
    the degree-k part of the free Lie algebra on m generators (Witt 1937)."""
    return sum(mobius(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def conjugated(p, q):
    """p on the module with its basis changed by the invertible matrix q:
    pi'(a) = q^-1 pi(a) q, with the contragredient dual for the pairing
    t(q) P q, so that <q v, q phi> is the old pairing of v and phi."""
    q_inv = inverse(q)
    rep = Representation(p.algebra, tuple(q_inv @ a @ q for a in p.rep.action))
    return StandardPentad(rep, dual_representation(rep, q.transpose() @ p.dual.pairing @ q),
                          p.form)


def rebased(p):
    """p over its algebra in the basis b'_i = b_i + b_(i+1) (the last kept),
    each basis matrix conjugated by the dense Q = I + J: a triangular
    change of basis fills in the structure table, and the actions, the dual
    actions and the form t G t^T follow the new basis."""
    d, n = p.algebra.dim, p.algebra.ambient_size
    t = [tuple(1 if j in (i, i + 1) else 0 for j in range(d)) for i in range(d)]
    q = Matrix(tuple(tuple(2 if r == c else 1 for c in range(n)) for r in range(n)))
    q_inv = inverse(q)
    alg = build_algebra(n, [q_inv @ linear_combination(row, p.algebra.basis) @ q for row in t])
    rep = Representation(alg, tuple(linear_combination(row, p.rep.action) for row in t))
    dual = DualModule(tuple(linear_combination(row, p.dual.action) for row in t),
                      p.dual.pairing)
    tm = Matrix(tuple(t))
    return StandardPentad(rep, dual, tm @ p.form @ tm.transpose())


def castling_pair(factors, m):
    """The pentads of gl(1) + g + sl(m) on V (x) C^m and of its castling
    transform gl(1) + g + sl(N - m) on V (x) C^(N - m), where g is the sum
    of the classical (kind, n) factors and V, of dimension N, the box tensor
    of their defining modules.  A castling transform keeps the generic
    isotropy subalgebra, so regularity and dim g - dim V agree across the
    pair (Sato-Kimura 1977).  The transform acts on V* (x) C^(N - m); V
    stands in for V*, which is the same module for so and sp and the same
    up to the outer automorphism X -> -t(X) for sl."""
    size = prod(classical_basis(*factor)[0] for factor in factors)
    return tuple(_defining([("gl", 1), *factors, ("sl", k)]) for k in (m, size - m))


# --- Classical bases one matrix unit at a time, the reference for the ------
# --- families' defining equations written as one sparse matrix ---------------

def unit_matrix(n, p, q):
    """The n x n matrix unit E_pq."""
    return Matrix.from_nonzeros(((((q, 1),) if i == p else ()) for i in range(n)), n)


def units_classical_basis(kind, n):
    """classical_basis as it was built before: each family's defining map
    applied to every matrix unit, and the canonical kernel of the images."""
    size = 2 * n if kind == "sp" else n
    if kind == "gl":
        return size, [unit_matrix(n, p, q) for p in range(n) for q in range(n)]
    j = standard_symplectic_form(n)
    defining = {"sl": lambda a: Matrix.identity(n).scale(a.trace()),
                "so": lambda a: a + a.transpose(),
                "sp": lambda a: a @ j + j @ a.transpose()}[kind]
    images = Matrix.from_nonzeros(
        (defining(unit_matrix(size, p, q)).flat_nonzeros()
         for p in range(size) for q in range(size)), size * size)
    return size, [Matrix.from_flat_nonzeros(v, size, size)
                  for v in sparse_kernel_basis(images.transpose())]
