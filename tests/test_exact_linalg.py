from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentads import exact_linalg
from pentads.exact_linalg import (
    Matrix,
    inverse,
    kernel_basis,
    kronecker,
    linear_combination,
    linear_combination_apply,
    qnorm,
    qof,
    qstr,
    rank,
    row_space_basis,
    rref,
    solve,
    solve_multi,
    sparse_kernel_basis,
    sparse_row_space_basis,
    vec_scale,
)

from oracles import (
    assert_canonical,
    dense_apply,
    dense_is_zero,
    dense_linear_combination,
    dense_matmul,
    dense_nonzeros,
    dense_trace_product,
    echelon_rank,
    grid_add,
    grid_flat,
    grid_identity,
    grid_kronecker,
    grid_neg,
    grid_scale,
    grid_sub,
    grid_trace,
    grid_transpose,
    grid_zeros,
)

scalars = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6),
              st.integers(min_value=1, max_value=4)),
)


def matrices(max_rows=4, max_cols=4):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix(normalized(rows)))
        )
    )


def random_elementary_ops(rng: random.Random, base: Matrix, steps: int) -> Matrix:
    """Scramble a matrix by rank-preserving row/column operations."""
    rows = [list(r) for r in base.entries]
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0 and len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1 and len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2 and len(rows[0]) > 1:
            i, j = rng.sample(range(len(rows[0])), 2)
            c = rng.randint(-3, 3)
            for row in rows:
                row[i] = row[i] + c * row[j]
        else:
            i = rng.randrange(len(rows))
            c = rng.choice([-2, -1, 1, 2, 3])
            rows[i] = [x * c for x in rows[i]]
    return Matrix(rows)


# --- The dense oracle -------------------------------------------------------
# The elimination routines as they stood before every routine became a reader
# of sparse_row_space_basis: Bareiss rank on integer-scaled rows and a dense
# Fraction Gauss-Jordan rref, with kernel_basis, solve and solve_multi on top.
# The differential tests below hold the sparse engine to their output.


def qdiv(a, b):
    """Exact division, normalized."""
    return qnorm(Fraction(a) / b)


def _oracle_int_rows(m: Matrix) -> list[list[int]]:
    out = []
    for row in m.entries:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) for x in row])
    return out


def oracle_rank(m: Matrix) -> int:
    a = _oracle_int_rows(m)
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
            for j in range(c, ncols):
                ai[j] = (ai[j] * piv - head * ar[j]) // prev
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def oracle_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
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


def oracle_kernel_basis(m: Matrix) -> list[tuple]:
    reduced, pivots = oracle_rref(m)
    ncols = m.cols
    pivot_of_col = {c: i for i, c in enumerate(pivots)}
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_of_col):
        v = [0] * ncols
        v[f] = 1
        for c, i in pivot_of_col.items():
            v[c] = qnorm(-reduced.entries[i][f])
        basis.append(tuple(v))
    return basis


def oracle_solve_multi(a: Matrix, rhs: Matrix) -> list:
    ncols = a.cols
    stacked = Matrix(tuple(tuple(ar) + tuple(br) for ar, br in zip(a.entries, rhs.entries)))
    reduced, pivots = oracle_rref(stacked)
    out = []
    sys_pivots = [c for c in pivots if c < ncols]
    bad_rows = [i for i, c in enumerate(pivots) if c >= ncols]
    for j in range(rhs.cols):
        col = ncols + j
        if any(reduced.entries[i][col] for i in bad_rows):
            out.append(None)
            continue
        x = [0] * ncols
        for i, c in enumerate(sys_pivots):
            x[c] = reduced.entries[i][col]
        out.append(tuple(x))
    return out


def oracle_solve(a: Matrix, b) -> tuple:
    """(status, solution, kernel), solving with one rref and taking the
    kernel from a second one."""
    x = oracle_solve_multi(a, Matrix(tuple((qof(v),) for v in b)))[0]
    if x is None:
        return "none", None, []
    ker = oracle_kernel_basis(a)
    return ("affine" if ker else "unique"), x, ker


def oracle_inverse(m: Matrix) -> Matrix | None:
    cols = oracle_solve_multi(m, Matrix.identity(m.rows))
    if any(c is None for c in cols):
        return None
    return Matrix(tuple(zip(*cols)))


class TestScalars:
    def test_qof_parses_strings(self):
        assert qof("3/4") == Fraction(3, 4)
        assert qof("-5") == -5
        assert isinstance(qof("6/2"), int)

    def test_qof_rejects_bool(self):
        with pytest.raises(TypeError):
            qof(True)

    def test_qstr_round_trip(self):
        for x in (0, -7, Fraction(2, 3), Fraction(-9, 4)):
            assert qof(qstr(x)) == x


class TestMatrixOps:
    def test_matmul_identity(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m @ Matrix.identity(2) == m
        assert Matrix.identity(2) @ m == m

    def test_matmul_known_product(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a @ b == Matrix([[2, 1], [4, 3]])

    def test_transpose_involution(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m
        assert m.transpose().shape() == (3, 2)

    def test_trace(self):
        assert Matrix([[1, 9], [7, Fraction(1, 2)]]).trace() == Fraction(3, 2)
        with pytest.raises(ValueError):
            Matrix([[1, 2, 3]]).trace()

    def test_apply(self):
        m = Matrix([[1, 2], [0, -1]])
        assert m.apply((3, 4)) == (11, -4)

    def test_shape_mismatch_raises(self):
        a = Matrix([[1, 2]])
        with pytest.raises(ValueError):
            a @ a
        with pytest.raises(ValueError):
            a + Matrix.identity(2)

    def test_flat_is_row_major(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.flat() == (1, 2, 3, 4)


@st.composite
def combinations(draw):
    """Equally shaped matrices with one coefficient each; the coefficients
    are all integers, mixed integers and Fractions, or all zero."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid = st.lists(st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r)
    mats = draw(st.lists(grid.map(lambda rows: Matrix(normalized(rows))), min_size=1,
                         max_size=5))
    coeff = draw(st.sampled_from((st.integers(-6, 6), scalars, st.just(0))))
    return draw(st.lists(coeff, min_size=len(mats), max_size=len(mats))), mats


class TestLinearCombination:
    @settings(max_examples=150, deadline=None)
    @given(combinations())
    def test_matches_fold_of_scaled_sums(self, case):
        coeffs, mats = case
        fold = Matrix.zeros(*mats[0].shape())
        for c, m in zip(coeffs, mats):
            fold = fold + m.scale(c)
        got = linear_combination(coeffs, mats)
        assert got == fold
        # normalized: an integral Fraction comes back as an int
        assert typed(got.flat()) == typed(tuple(qnorm(x) for x in fold.flat()))

    def test_zero_coefficients_give_zero_matrix_of_input_shape(self):
        mats = [Matrix([[1, 2, 3], [4, 5, 6]]), Matrix([[0, 0, 1], [1, 0, 0]])]
        assert linear_combination((0, Fraction(0)), mats) == Matrix.zeros(2, 3)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            linear_combination((1, 1), [Matrix.identity(2), Matrix.identity(3)])

    def test_coefficient_count_must_match(self):
        # one coefficient per matrix: neither truncated nor padded
        mats = [Matrix.identity(3), Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])]
        for coeffs in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError):
                linear_combination(coeffs, mats)
            with pytest.raises(ValueError):
                linear_combination_apply(coeffs, mats, (1, 0, 0))

    def test_apply_vector_length_must_match(self):
        mats = [Matrix.identity(3)]
        for v in ((1, 0), (1, 0, 0, 7)):
            with pytest.raises(ValueError):
                linear_combination_apply((1,), mats, v)
            with pytest.raises(ValueError):
                mats[0].apply(v)


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(3)) == 3

    def test_zero(self):
        assert rank(Matrix.zeros(2, 3)) == 0

    def test_known_rank_two_rectangle(self):
        # 4x3 with two independent rows; turns up again as a regularity witness.
        m = Matrix([[0, 0, -1], [0, 0, 0], [1, 0, 0], [0, 0, 0]])
        assert rank(m) == 2

    def test_fractional_entries(self):
        assert rank(Matrix([[Fraction(1, 2), Fraction(1, 3)],
                                      [Fraction(1, 4), 1]])) == 2
        # proportional rows after clearing denominators
        assert rank(Matrix([[Fraction(1, 2), Fraction(1, 3)],
                                      [Fraction(3, 2), 1]])) == 1

    def test_rank_preserved_by_elementary_ops(self):
        rng = random.Random(20260816)
        for trial in range(25):
            r = rng.randrange(0, 4)
            rows, cols = rng.randint(max(r, 1), 5), rng.randint(max(r, 1), 5)
            base = Matrix(
                [[1 if (i == j and i < r) else 0 for j in range(cols)] for i in range(rows)]
            )
            scrambled = random_elementary_ops(rng, base, steps=12)
            assert rank(scrambled) == r, f"trial {trial}"

    def test_forward_pass_only(self, monkeypatch):
        # rank counts the rows the forward pass keeps and never forms the RREF
        def no_rref(rows):
            raise AssertionError("rank ran the backward pass")

        monkeypatch.setattr(exact_linalg, "sparse_row_space_basis", no_rref)
        m = Matrix([[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 0, 1], [0, 0, 0]])
        assert rank(m) == 2


class TestRref:
    def test_idempotent(self):
        m = Matrix([[2, 4, 1], [1, 2, 0], [0, 0, 3]])
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert again == reduced
        assert pivots == pivots2

    def test_pivot_columns_carry_identity(self):
        m = Matrix([[1, 2, 1], [2, 4, 3]])
        reduced, pivots = rref(m)
        assert pivots == (0, 2)
        for i, c in enumerate(pivots):
            col = [reduced.entry(r, c) for r in range(reduced.rows)]
            assert col == [1 if r == i else 0 for r in range(reduced.rows)]

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_pivot_count_matches_bareiss_rank(self, m):
        _, pivots = rref(m)
        assert len(pivots) == oracle_rank(m)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(Matrix.identity(2)) == []

    def test_zero_row_matrix(self):
        basis = kernel_basis(Matrix.zeros(1, 2))
        assert basis == [(1, 0), (0, 1)]

    def test_sum_functional(self):
        basis = kernel_basis(Matrix([[1, 1]]))
        assert len(basis) == 1
        v = basis[0]
        assert vec_scale(-1, (v[1],)) == (v[0],)  # proportional to (1, -1)

    def test_deterministic(self):
        m = Matrix([[1, 2, 3], [2, 4, 6]])
        assert kernel_basis(m) == kernel_basis(m)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank_nullity(self, m):
        assert rank(m) + len(kernel_basis(m)) == m.cols

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.apply(v))

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_rows=5, max_cols=6))
    def test_sparse_kernel_is_the_kernel_by_nonzeros(self, m):
        # the RREF names each vector's nonzeros, ascending, with the 1 at
        # its free column last
        sparse = sparse_kernel_basis(m)
        assert sparse == [tuple((j, x) for j, x in enumerate(v) if x) for v in kernel_basis(m)]
        assert all(v[-1][1] == 1 and [j for j, _ in v] == sorted({j for j, _ in v})
                   for v in sparse)

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_flat_nonzeros_round_trip(self, m):
        assert Matrix.from_flat_nonzeros(m.flat_nonzeros(), m.rows, m.cols) == m

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_kernel_vectors_independent(self, m):
        basis = kernel_basis(m)
        if basis:
            assert rank(Matrix(basis)) == len(basis)


class TestSolve:
    def test_unique(self):
        res = solve(Matrix.identity(2), (3, 4))
        assert res.status == "unique"
        assert res.solution == (3, 4)
        assert res.kernel == []

    def test_affine(self):
        res = solve(Matrix([[1, 1]]), (2,))
        assert res.status == "affine"
        assert res.solution == (2, 0)
        assert len(res.kernel) == 1

    def test_none(self):
        res = solve(Matrix([[1], [1]]), (1, 2))
        assert res.status == "none"
        assert res.solution is None

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            solve(Matrix.identity(2), (1,))

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.lists(scalars, min_size=1, max_size=4))
    def test_solution_satisfies_system(self, m, x):
        x = x[: m.cols] + [0] * max(0, m.cols - len(x))
        b = m.apply(tuple(x))
        res = solve(m, b)
        assert res.status != "none"
        assert m.apply(res.solution) == b
        assert (res.status == "unique") == (len(kernel_basis(m)) == 0)

    def test_solve_multi_matches_solve(self):
        a = Matrix([[1, 2], [3, 4], [4, 6]])
        rhs = Matrix([[3, 1], [7, 1], [10, 9]])
        cols = solve_multi(a, rhs)
        assert cols[0] == solve(a, (3, 7, 10)).solution
        assert cols[1] is None  # second column is inconsistent

    def test_solve_multi_rhs_rows_checked(self):
        with pytest.raises(ValueError, match="right-hand side row count does not match"):
            solve_multi(Matrix.identity(2), Matrix.identity(3))

    def test_inverse_round_trip(self):
        m = Matrix([[2, 1, 0], [1, 1, 1], [0, 3, 1]])
        assert m @ inverse(m) == Matrix.identity(3)
        assert inverse(m) @ m == Matrix.identity(3)

    def test_inverse_fractional(self):
        m = Matrix([[2, 0], [0, 3]])
        assert inverse(m) == Matrix(
            [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])

    def test_inverse_rejects_singular(self):
        with pytest.raises(ValueError):
            inverse(Matrix([[1, 2], [2, 4]]))

    def test_inverse_rejects_rectangular(self):
        with pytest.raises(ValueError):
            inverse(Matrix([[1, 2]]))


class TestKronecker:
    def test_identity(self):
        assert kronecker(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_block_structure(self):
        a = Matrix([[0, 1], [2, 0]])
        b = Matrix([[1, 1], [0, 1]])
        k = kronecker(a, b)
        assert k.shape() == (4, 4)
        assert k.entries[0] == (0, 0, 1, 1)
        assert k.entries[2] == (2, 2, 0, 0)

    def test_mixed_product_rule(self):
        rng = random.Random(7)
        mk = lambda: Matrix([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
        a, b, c, d = mk(), mk(), mk(), mk()
        assert kronecker(a, b) @ kronecker(c, d) == kronecker(a @ c, b @ d)

    def test_rank_multiplicative(self):
        rng = random.Random(11)
        for _ in range(10):
            ra, rb = rng.randrange(0, 3), rng.randrange(0, 3)
            base_a = Matrix(
                [[1 if (i == j and i < ra) else 0 for j in range(3)] for i in range(3)]
            )
            base_b = Matrix(
                [[1 if (i == j and i < rb) else 0 for j in range(3)] for i in range(3)]
            )
            a = random_elementary_ops(rng, base_a, 8)
            b = random_elementary_ops(rng, base_b, 8)
            assert rank(kronecker(a, b)) == ra * rb


# --- Differential tests against the dense oracle ------------------------------

_small = st.integers(min_value=-6, max_value=6)
_big = st.builds(lambda mag, sign: sign * mag,
                 st.integers(min_value=2 ** 200, max_value=2 ** 260), st.sampled_from((-1, 1)))
ENTRY_KINDS = {
    "integer": _small,
    "fraction-heavy": st.one_of(
        st.builds(qdiv, st.integers(-99, 99), st.integers(1, 97)), _small),
    "200-bit": st.one_of(
        _big, st.builds(qdiv, _big, st.integers(2 ** 200, 2 ** 230)), st.just(0), _small),
}
SHAPES = {
    "square": (st.integers(1, 5), st.integers(1, 5)),
    "tall": (st.integers(5, 9), st.integers(1, 3)),
    "wide": (st.integers(1, 3), st.integers(5, 9)),
}


@st.composite
def adversarial(draw, square=False):
    """A matrix of one entry kind and one shape, then made degenerate: zero
    rows, zero columns, duplicated rows, or a product of thin factors."""
    entry = ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))]
    if square:
        r = c = draw(st.integers(1, 5))
    else:
        rs, cs = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
        r, c = draw(rs), draw(cs)
    grid = lambda nr, nc: [draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    kind = draw(st.sampled_from(("plain", "zero-rows", "zero-cols", "duplicate", "deficient")))
    rows = grid(r, c)
    if kind == "zero-rows":
        for i in draw(st.sets(st.integers(0, r - 1), min_size=1)):
            rows[i] = [0] * c
    elif kind == "zero-cols":
        for j in draw(st.sets(st.integers(0, c - 1), min_size=1)):
            for row in rows:
                row[j] = 0
    elif kind == "duplicate" and r > 1:
        src = draw(st.integers(0, r - 1))
        for i in draw(st.sets(st.integers(0, r - 1), min_size=1)):
            rows[i] = list(rows[src])
    elif kind == "deficient":
        k = draw(st.integers(0, max(0, min(r, c) - 1)))
        if k == 0:
            rows = [[0] * c for _ in range(r)]
        else:
            rows = (Matrix(grid(r, k)) @ Matrix(grid(k, c))).entries
    return Matrix(normalized(rows))


@st.composite
def systems(draw, nrhs=1):
    """A matrix and right-hand sides, each either a @ x for a drawn x
    (consistent) or a drawn vector (usually inconsistent on tall input)."""
    a = draw(adversarial())
    entry = ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))]
    cols = []
    for _ in range(nrhs):
        if draw(st.booleans()):
            cols.append(a.apply(tuple(draw(st.lists(entry, min_size=a.cols, max_size=a.cols)))))
        else:
            cols.append(tuple(draw(st.lists(entry, min_size=a.rows, max_size=a.rows))))
    return a, cols


def typed(v):
    """Values with their types, so an int and an equal Fraction differ."""
    if v is None:
        return None
    return [typed(x) if isinstance(x, (tuple, list)) else (type(x).__name__, x) for x in v]


@st.composite
def reordered(draw):
    """A system and an order of its rows that takes each at least once: a
    permutation of the rows with some of them repeated."""
    a, (b,) = draw(systems())
    extra = draw(st.lists(st.integers(0, a.rows - 1), max_size=a.rows))
    return a, b, draw(st.permutations(list(range(a.rows)) + extra))


class TestRowSpace:
    def test_matches_rref(self):
        m = Matrix([[2, 4, 0], [1, 2, 1], [3, 6, 1]])
        basis = row_space_basis(m.entries)
        reduced, pivots = rref(m)
        assert basis == list(reduced.entries[:len(pivots)])

    @settings(max_examples=150, deadline=None)
    @given(reordered())
    def test_order_independent(self, case):
        # the engine takes rows in its own order, so permuting the rows of a
        # system or repeating some of them changes no result
        a, b, order = case
        moved = Matrix.from_nonzeros([a.nonzeros[i] for i in order], a.cols)
        assert (typed(sparse_row_space_basis(moved.nonzeros))
                == typed(sparse_row_space_basis(a.nonzeros)))
        assert rank(moved) == rank(a)
        got, want = solve(moved, [b[i] for i in order]), solve(a, b)
        assert got == want
        assert typed(got.solution) == typed(want.solution)
        assert typed(got.kernel) == typed(want.kernel)


class TestEngineMatchesDenseOracle:
    @settings(max_examples=150, deadline=None)
    @given(adversarial())
    def test_rank(self, m):
        assert rank(m) == oracle_rank(m)

    @settings(max_examples=150, deadline=None)
    @given(adversarial())
    def test_rank_is_the_echelon_row_count(self, m):
        # the forward pass keeps exactly as many rows as the RREF has
        assert rank(m) == echelon_rank(m)

    @settings(max_examples=150, deadline=None)
    @given(adversarial())
    def test_rref_with_padding_and_pivots(self, m):
        reduced, pivots = rref(m)
        want, want_pivots = oracle_rref(m)
        assert pivots == want_pivots
        assert reduced.shape() == want.shape() == m.shape()
        assert typed(reduced.entries) == typed(want.entries)

    @settings(max_examples=150, deadline=None)
    @given(adversarial())
    def test_kernel_basis(self, m):
        assert typed(kernel_basis(m)) == typed(oracle_kernel_basis(m))

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_solve(self, system):
        a, (b,) = system
        res = solve(a, b)
        status, solution, kernel = oracle_solve(a, b)
        assert res.status == status
        assert typed(res.solution) == typed(solution)
        assert typed(res.kernel) == typed(kernel)

    @settings(max_examples=150, deadline=None)
    @given(systems(nrhs=3))
    def test_solve_multi(self, system):
        a, cols = system
        rhs = Matrix(zip(*cols))
        got = solve_multi(a, rhs)
        want = oracle_solve_multi(a, rhs)
        assert [x is None for x in got] == [x is None for x in want]
        assert typed(got) == typed(want)

    @settings(max_examples=100, deadline=None)
    @given(adversarial(square=True))
    def test_inverse(self, m):
        want = oracle_inverse(m)
        if want is None:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            assert typed(inverse(m).entries) == typed(want.entries)

    @settings(max_examples=100, deadline=None)
    @given(systems())
    def test_integral_fractions_read_as_ints(self, system):
        # Matrix() keeps entries as given, so Fraction(k, 1) can reach the
        # engine; the output must not depend on it
        a, (b,) = system
        raw = Matrix(tuple(tuple(Fraction(x) for x in row) for row in a.entries))
        assert typed(rref(raw)[0].entries) == typed(rref(a)[0].entries)
        assert typed(kernel_basis(raw)) == typed(kernel_basis(a))
        assert solve(raw, [Fraction(x) for x in b]) == solve(a, b)
        assert typed(solve(raw, [Fraction(x) for x in b]).solution) == typed(solve(a, b).solution)


# --- The sparse view against the dense cell loops it replaced -----------------

@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    """A matrix of one entry kind, mostly zeros, with some rows and some
    columns zeroed outright; rows and cols fix the shape when given."""
    entry = ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))]
    r = rows if rows is not None else draw(st.integers(1, 6))
    c = cols if cols is not None else draw(st.integers(1, 6))
    cell = st.one_of(st.just(0), st.just(0), entry)
    grid = [draw(st.lists(cell, min_size=c, max_size=c)) for _ in range(r)]
    for i in draw(st.sets(st.integers(0, r - 1))):
        grid[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1))):
        for row in grid:
            row[j] = 0
    return Matrix(grid)


@st.composite
def products(draw):
    a = draw(sparse_matrices())
    return a, draw(sparse_matrices(rows=a.cols))


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(sparse_matrices(n, n)), draw(sparse_matrices(n, n))


@st.composite
def sparse_combinations(draw):
    a = draw(sparse_matrices())
    mats = [a] + draw(st.lists(sparse_matrices(a.rows, a.cols), max_size=4))
    return draw(st.lists(scalars, min_size=len(mats), max_size=len(mats))), mats


class TestSparseViewMatchesDenseLoops:
    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_nonzeros(self, m):
        assert typed(m.nonzeros) == typed(dense_nonzeros(m))
        assert m.nonzeros is m.nonzeros  # computed once

    @settings(max_examples=100, deadline=None)
    @given(products())
    def test_matmul(self, pair):
        a, b = pair
        # products come back normalized, ints wherever the value is one
        assert typed((a @ b).entries) == typed(normalized(dense_matmul(a, b).entries))

    @settings(max_examples=100, deadline=None)
    @given(products())
    def test_apply(self, pair):
        m, vecs = pair
        for v in vecs.transpose().entries:
            assert typed(m.apply(v)) == typed(dense_apply(m, v))

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_is_zero(self, m):
        assert m.is_zero() == dense_is_zero(m)

    @settings(max_examples=100, deadline=None)
    @given(sparse_combinations())
    def test_linear_combination(self, case):
        coeffs, mats = case
        assert (typed(linear_combination(coeffs, mats).entries)
                == typed(dense_linear_combination(coeffs, mats).entries))

    @settings(max_examples=100, deadline=None)
    @given(square_pairs())
    def test_trace_product(self, pair):
        a, b = pair
        assert typed(((a @ b).trace(),)) == typed((dense_trace_product(a, b),))


# --- The nonzeros-only storage against the dense row grid it replaced ----------

@st.composite
def stored_matrices(draw, rows=None, cols=None):
    """A mostly-zero matrix of one entry kind with 0 to 5 rows and columns,
    built either from its dense rows or from its nonzeros (always from its
    nonzeros when it has no rows: dense rows cannot carry a width then)."""
    entry = ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))]
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    cell = st.one_of(st.just(0), st.just(0), entry)
    grid = [draw(st.lists(cell, min_size=c, max_size=c)) for _ in range(r)]
    if r and draw(st.booleans()):
        return Matrix(grid)
    return Matrix.from_nonzeros(
        (tuple((j, x) for j, x in enumerate(row) if x) for row in grid), c)


@st.composite
def same_shape_pairs(draw):
    a = draw(stored_matrices())
    return a, draw(stored_matrices(a.rows, a.cols))


@st.composite
def stored_products(draw):
    a = draw(stored_matrices())
    return a, draw(stored_matrices(rows=a.cols))


def nonzero_cells(grid):
    """The (col, type, value) of every nonzero cell, row by row."""
    return [[(j, type(x).__name__, x) for j, x in enumerate(row) if x] for row in grid]


def normalized(grid):
    return tuple(tuple(qnorm(x) for x in row) for row in grid)


def assert_matches_grid(m, grid):
    assert m.entries == grid
    assert m.rows == len(grid)
    if grid:
        assert m.cols == len(grid[0])
    assert nonzero_cells(m.entries) == nonzero_cells(grid)
    assert_canonical(m)


class TestStorageMatchesDenseGrid:
    @settings(max_examples=150, deadline=None)
    @given(same_shape_pairs(), scalars)
    def test_add_sub_neg_scale(self, pair, c):
        a, b = pair
        # sums are linear combinations and a scaling is a product, so they
        # come back normalized
        assert_matches_grid(a + b, normalized(grid_add(a, b)))
        assert_matches_grid(a - b, normalized(grid_sub(a, b)))
        assert_matches_grid(-a, grid_neg(a))
        assert_matches_grid(a.scale(c), normalized(grid_scale(a, c)))

    @settings(max_examples=150, deadline=None)
    @given(stored_products())
    def test_matmul(self, pair):
        a, b = pair
        product = a @ b
        assert_matches_grid(product, normalized(dense_matmul(a, b).entries))
        assert product.shape() == (a.rows, b.cols)

    @settings(max_examples=150, deadline=None)
    @given(stored_matrices())
    def test_transpose_and_flat(self, m):
        t = m.transpose()
        if m.rows:
            assert_matches_grid(t, grid_transpose(m))
        else:  # the grid of a row-less matrix kept no width to transpose
            assert t == Matrix.zeros(m.cols, 0)
        assert t.shape() == (m.cols, m.rows)
        assert t.transpose() == m
        assert m.flat() == grid_flat(m)
        assert m.flat_nonzeros() == tuple((j, x) for j, x in enumerate(m.flat()) if x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: stored_matrices(n, n)))
    def test_trace(self, m):
        assert typed((m.trace(),)) == typed((grid_trace(m),))

    def test_trace_of_non_square_raises(self):
        for m in (Matrix.zeros(2, 3), Matrix.from_nonzeros((), 2)):
            with pytest.raises(ValueError, match="non-square"):
                m.trace()
            with pytest.raises(ValueError, match="non-square"):
                grid_trace(m)

    @settings(max_examples=100, deadline=None)
    @given(stored_matrices(), stored_matrices())
    def test_kronecker(self, a, b):
        k = kronecker(a, b)
        assert_matches_grid(k, normalized(grid_kronecker(a, b)))
        assert k.shape() == (a.rows * b.rows, a.cols * b.cols)

    @pytest.mark.parametrize("n", range(6))
    def test_identity_and_zeros(self, n):
        assert_matches_grid(Matrix.identity(n), grid_identity(n))
        assert Matrix.identity(n).shape() == (n, n)
        for r in range(4):
            assert_matches_grid(Matrix.zeros(r, n), grid_zeros(r, n))
            assert Matrix.zeros(r, n).shape() == (r, n)

    @settings(max_examples=150, deadline=None)
    @given(stored_matrices())
    def test_dense_and_nonzeros_builds_are_equal(self, m):
        grid = m.entries
        cols = len(grid[0]) if grid else 0
        dense = Matrix(grid)
        sparse = Matrix.from_nonzeros(dense.nonzeros, cols)
        assert dense == sparse and hash(dense) == hash(sparse)
        # an integral Fraction equals, and hashes like, its int
        as_fractions = Matrix(tuple(tuple(Fraction(x) for x in row) for row in grid))
        assert as_fractions == dense and hash(as_fractions) == hash(dense)

    def test_shape_is_part_of_equality(self):
        assert Matrix.zeros(2, 3) != Matrix.zeros(3, 2)
        assert Matrix.zeros(0, 3) != Matrix.zeros(0, 2)
        assert Matrix(((0, 0),)) == Matrix.zeros(1, 2)

    @pytest.mark.parametrize("rows", [((1, 2), (3,)), ((), (0,)), ((1,), (2, 3), (4,))])
    def test_ragged_rows_are_rejected(self, rows):
        with pytest.raises(ValueError, match="^ragged rows$"):
            Matrix(rows)

    def test_is_immutable(self):
        m = Matrix.identity(2)
        with pytest.raises(AttributeError):
            m.cols = 3
