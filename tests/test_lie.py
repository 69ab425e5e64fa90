"""Tests for matrix Lie algebras, classical families, and invariant forms."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pentads.catalog import catalog, resolve
from pentads.exact_linalg import (Matrix, dense_vec, inverse, is_zero_vec, kernel_basis,
                                  linear_combination, qof, rank, row_space_basis, solve_multi,
                                  sparse_row_space_basis, vec_scale)
from pentads.lie import (
    FormReport,
    MatrixLieAlgebra,
    NotClosedError,
    NotIndependentError,
    LieAlgebraError,
    build_algebra,
    check_form,
    classical_basis,
    direct_sum,
    family,
    index_partners,
    scalar_center_report,
    standard_symplectic_form,
    trace_form,
    unit_coords,
)

from pentads import lie

from oracles import (ad_matrix_actions, all_commutation_rows, all_pairs_closure_failure,
                     all_rows_center, coords_of, dense_center, dense_derived,
                     dense_trace_product, display_name, generator_rows_center, matrix_of,
                     rational_matrix_space_pentad, rational_vector_pentad, rebased, shifted_sum,
                     transposed_ad_basis, units_classical_basis, vec_add)


def commutator(a, b):
    return a @ b - b @ a


def e(n, i, j):
    """Elementary matrix with a single 1 at (i, j)."""
    return Matrix(tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(n))
                        for r in range(n)))


class TestCommutator:
    def test_elementary_product_rule(self):
        # [E_01, E_10] = E_00 - E_11 in gl(2)
        assert commutator(e(2, 0, 1), e(2, 1, 0)) == e(2, 0, 0) - e(2, 1, 1)

    def test_antisymmetry(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 1]])
        assert commutator(a, b) == -commutator(b, a)

    def test_trace_product_matches_full_product(self):
        a = Matrix([[1, Fraction(1, 2)], [0, 3]])
        b = Matrix([[2, 1], [5, -1]])
        assert dense_trace_product(a, b) == (a @ b).trace()


class TestBuildAlgebra:
    def test_rejects_dependent_basis(self):
        with pytest.raises(NotIndependentError):
            build_algebra(2, [e(2, 0, 0), e(2, 0, 0).scale(2)])

    def test_rejects_open_span_with_witness(self):
        # [E_01, E_10] has a diagonal part, so this pair cannot close.
        with pytest.raises(NotClosedError) as exc:
            build_algebra(2, [e(2, 0, 1), e(2, 1, 0)])
        assert exc.value.pair == (0, 1)

    def test_rejects_wrong_ambient_size(self):
        with pytest.raises(ValueError):
            build_algebra(3, [e(2, 0, 0)])

    def test_structure_constants_of_borel(self):
        alg = build_algebra(2, [e(2, 0, 0), e(2, 0, 1)])
        # [E_00, E_01] = E_01
        assert alg.structure[0][1] == ((1, 1),)
        assert alg.structure[1][0] == ((1, -1),)
        assert 0 not in alg.structure[0]

    def test_ad_matrix_matches_ambient_commutator(self):
        alg = family("gl", 2)
        u, v = (1, 2, 0, -1), (0, 1, 1, 0)
        lhs = matrix_of(alg, alg.ad_matrix(u).apply(v))
        rhs = commutator(matrix_of(alg, u), matrix_of(alg, v))
        assert lhs == rhs

    def test_coords_of_round_trip(self):
        alg = family("so", 3)
        coords = (3, Fraction(-1, 2), 7)
        assert coords_of(alg, matrix_of(alg, coords)) == coords

    def test_coords_of_outside_span_is_none(self):
        alg = family("so", 3)
        assert coords_of(alg, e(3, 0, 0)) is None

    def test_wrong_coordinate_length_rejected(self):
        # too short and too long, in either argument: no silent truncation
        # and no bare IndexError
        alg = family("gl", 2)
        for bad in ((0, 1), (0, 0, 1, 0, 5)):
            with pytest.raises(ValueError):
                alg.ad_matrix(bad)
            with pytest.raises(ValueError):
                alg.ad_matrix((0, 0, 1, 0)).apply(bad)

    def test_ad_matrix_of_diagonal_element(self):
        # ad(E_00) acts on gl(2) with eigenvalues 0, 1, -1, 0 on the E_ij basis.
        alg = family("gl", 2)
        ad = alg.ad_matrix(unit_coords(4, 0))
        assert ad == Matrix([
            [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]])


class TestFamilies:
    @pytest.mark.parametrize("kind,n,expected_dim", [
        ("gl", 1, 1), ("gl", 2, 4), ("gl", 3, 9),
        ("sl", 2, 3), ("sl", 3, 8),
        ("so", 2, 1), ("so", 3, 3), ("so", 4, 6),
        ("sp", 1, 3), ("sp", 2, 10), ("sp", 3, 21),
    ])
    def test_dimensions(self, kind, n, expected_dim):
        assert family(kind, n).dim == expected_dim

    def test_parameter_must_be_positive(self):
        with pytest.raises(LieAlgebraError) as exc:
            family("so", 0)
        assert str(exc.value) == "family parameter must be positive"

    def test_gl_basis_is_elementary_row_major(self):
        alg = family("gl", 2)
        assert alg.basis == (e(2, 0, 0), e(2, 0, 1), e(2, 1, 0), e(2, 1, 1))

    def test_so3_basis_is_canonical(self):
        alg = family("so", 3)
        assert alg.basis == (
            e(3, 1, 0) - e(3, 0, 1),
            e(3, 2, 0) - e(3, 0, 2),
            e(3, 2, 1) - e(3, 1, 2),
        )

    def test_sl_matrices_are_traceless(self):
        for b in family("sl", 3).basis:
            assert b.trace() == 0

    def test_sp_defining_equation(self):
        j = standard_symplectic_form(2)
        for b in family("sp", 2).basis:
            assert (b @ j + j @ b.transpose()).is_zero()

    def test_sp2_span_matches_block_description(self):
        # sp(2) should be { [[X, Y], [Z, -X^t]] : Y, Z symmetric }, built here
        # from an explicit block enumeration rather than the kernel solver.
        def block(x, y, z):
            w = x.transpose().scale(-1)
            top = tuple(tuple(xr) + tuple(yr) for xr, yr in zip(x.entries, y.entries))
            bot = tuple(tuple(zr) + tuple(wr) for zr, wr in zip(z.entries, w.entries))
            return Matrix(top + bot)

        zero = Matrix.zeros(2, 2)
        sym = [e(2, 0, 0), e(2, 1, 1), e(2, 0, 1) + e(2, 1, 0)]
        gens = [block(e(2, i, j), zero, zero) for i in range(2) for j in range(2)]
        gens += [block(zero, s, zero) for s in sym]
        gens += [block(zero, zero, s) for s in sym]
        assert len(gens) == 10

        fam = family("sp", 2)
        fam_stack = [b.flat() for b in fam.basis]
        gen_stack = [g.flat() for g in gens]
        assert rank(Matrix(tuple(gen_stack))) == 10
        assert rank(Matrix(tuple(fam_stack + gen_stack))) == 10

    @pytest.mark.parametrize("kind,n", [("sl", 2), ("sl", 4), ("so", 3), ("so", 6),
                                        ("sp", 1), ("sp", 3)])
    def test_basis_is_the_dense_kernel_read(self, kind, n, monkeypatch):
        # The defining equations' kernel, read cell by cell from the dense
        # kernel vectors, reshaped row-major; the family reads the sparse
        # kernel's nonzeros and never asks for the dense one.
        size = 2 * n if kind == "sp" else n
        j = standard_symplectic_form(n)
        defining = {"sl": lambda a: Matrix.identity(n).scale(a.trace()),
                    "so": lambda a: a + a.transpose(),
                    "sp": lambda a: a @ j + j @ a.transpose()}[kind]
        images = Matrix(tuple(defining(e(size, p, q)).flat()
                              for p in range(size) for q in range(size)))
        want = tuple(Matrix(tuple(v[i * size:(i + 1) * size] for i in range(size)))
                     for v in kernel_basis(images.transpose()))
        monkeypatch.setattr(lie, "kernel_basis", None)
        assert family(kind, n).basis == want

    @pytest.mark.parametrize("kind, top", [("gl", 6), ("sl", 8), ("so", 12), ("sp", 6)])
    def test_equations_match_the_unit_images(self, kind, top):
        # the defining equations, written as one sparse matrix on flat(A),
        # have the kernel of the images of the matrix units, so the
        # canonical bases agree entry for entry, in value and in type
        for n in range(1, top + 1):
            got, want = classical_basis(kind, n), units_classical_basis(kind, n)
            assert got == want
            assert repr(got) == repr(want)

    def test_family_is_deterministic(self):
        assert family("sp", 2).basis == family("sp", 2).basis
        assert family("so", 4).structure == family("so", 4).structure

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            family("su", 2)


class TestJacobi:
    @pytest.mark.parametrize("alg", [
        family("gl", 2), family("so", 3), family("sp", 2),
    ], ids=["gl2", "so3", "sp2"])
    def test_structure_constants_satisfy_jacobi(self, alg):
        d = alg.dim
        units = [unit_coords(d, i) for i in range(d)]

        def br(u, v):
            return alg.ad_matrix(u).apply(v)

        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    s = br(br(units[i], units[j]), units[k])
                    s = vec_add(s, br(br(units[j], units[k]), units[i]))
                    s = vec_add(s, br(br(units[k], units[i]), units[j]))
                    assert not any(s), (i, j, k)


coords10 = st.tuples(*[st.integers(min_value=-5, max_value=5) for _ in range(10)])


class TestBracketBilinearity:
    @given(coords10, coords10, coords10, st.integers(min_value=-5, max_value=5))
    def test_linear_in_first_slot(self, u, v, w, c):
        alg = family("sp", 2)
        lhs = alg.ad_matrix(vec_add(u, vec_scale(c, v))).apply(w)
        rhs = vec_add(alg.ad_matrix(u).apply(w), vec_scale(c, alg.ad_matrix(v).apply(w)))
        assert lhs == rhs


class TestDirectSum:
    def test_blocks_and_dimension(self):
        alg = direct_sum([classical_basis("gl", 1), classical_basis("so", 3)])
        assert alg.ambient_size == 4
        assert alg.dim == 4
        assert alg.basis[0] == Matrix([
            [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        # so(3) block sits in the lower-right corner
        assert alg.basis[1].entries[2][1] == 1
        assert alg.basis[1].entries[1][2] == -1

    def test_cross_blocks_commute(self):
        alg = direct_sum([classical_basis("gl", 1), classical_basis("so", 3)])
        assert alg.ad_matrix(unit_coords(4, 0)).apply(unit_coords(4, 2)) == (0, 0, 0, 0)

    def test_center_of_sum(self):
        alg = direct_sum([classical_basis("gl", 1), classical_basis("so", 3)])
        assert alg.center == ((1, 0, 0, 0),)

    @pytest.mark.parametrize("parts", [
        [("gl", 1), ("so", 2)], [("gl", 1), ("so", 3)], [("gl", 1), ("so", 5)],
        [("gl", 1), ("sp", 2), ("so", 3)], [("gl", 1), ("sp", 3), ("so", 3)],
        [("gl", 1), ("gl", 1)], [("sl", 2), ("gl", 2)]], ids=str)
    def test_shifted_tables_match_build_algebra(self, parts):
        # the sums the catalog builds, and two more: build_algebra on the
        # block-diagonal basis derives the table that shifting the factors'
        # own tables gives
        alg = direct_sum([classical_basis(kind, n) for kind, n in parts])
        shifted = shifted_sum([family(kind, n) for kind, n in parts])
        assert alg == shifted
        assert repr(alg.structure) == repr(shifted.structure)

    @pytest.mark.parametrize("spec, parts", [
        ("gl1_so_vector(4)", [("gl", 1), ("so", 4)]),
        ("matrix_space_example(3)", [("gl", 1), ("sp", 3), ("so", 3)])])
    def test_catalog_sums_match_shifted_factor_tables(self, spec, parts):
        alg = resolve(spec).build().algebra
        shifted = shifted_sum([family(kind, n) for kind, n in parts])
        assert alg == shifted
        assert repr(alg.structure) == repr(shifted.structure)

    def test_block_matrix_wider_than_its_block_rejected(self):
        # its entry in column 2 would otherwise land in the gl(1) block
        wide = Matrix([[0, 0, 1], [0, 0, 0]])
        with pytest.raises(LieAlgebraError, match="basis matrix has the wrong ambient size"):
            direct_sum([(2, [wide]), classical_basis("gl", 1)])


OSCILLATOR = build_algebra(3, [e(3, 0, 1), e(3, 1, 2), e(3, 0, 2),
                               Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])])


class TestCenterAndDerived:
    def test_center_of_gl2_is_scalars(self):
        assert family("gl", 2).center == ((1, 0, 0, 1),)

    def test_center_of_sl2_is_trivial(self):
        assert family("sl", 2).center == ()

    def test_center_of_abelian_is_everything(self):
        gl1 = family("gl", 1)
        assert gl1.center == ((1,),)
        both = direct_sum([(1, gl1.basis)] * 2).center
        assert both == ((1, 0), (0, 1))
        assert all(type(x) is int for v in both for x in v)

    def test_center_inside_derived_does_not_split(self):
        # [x, y] = z, [t, x] = x, [t, y] = -y: the center z lies in
        # [g, g] = <x, y, z>, so dimensions 1 + 3 add up to 4 but the two
        # do not span
        alg = OSCILLATOR
        report = scalar_center_report(alg, list(alg.basis))
        assert (report.center_dim, report.decomposes) == (1, False)
        assert report.reason == "center and derived subalgebra do not span"


class TestForms:
    def test_trace_form_of_so3(self):
        form = trace_form(family("so", 3))
        assert form == Matrix.identity(3).scale(-2)

    def test_trace_form_on_reductive_algebra_passes(self):
        for alg in (family("gl", 2), family("so", 3), family("sp", 2)):
            report = check_form(alg, trace_form(alg))
            assert report.ok, report

    def test_degenerate_form_reports_kernel_witness(self):
        alg = build_algebra(2, [e(2, 0, 0), e(2, 0, 1)])
        report = check_form(alg, trace_form(alg))
        assert not report.nondegenerate
        assert report.kernel_witness == (0, 1)

    def test_noninvariant_form_reports_triple(self):
        report = check_form(family("gl", 2), Matrix.identity(4))
        assert not report.invariant
        # [b_0, b_1] = b_1 and [b_1, b_1] = 0, so B(b_1, b_1) = 1 != 0 at k = 1
        assert report.invariance_witness == (0, 1, 1)

    def test_gram_size_checked(self):
        with pytest.raises(LieAlgebraError) as exc:
            check_form(family("gl", 2), Matrix.identity(3))
        assert str(exc.value) == "Gram matrix size does not match the algebra dimension"

    def test_asymmetric_form_reports_pair(self):
        gram = Matrix([[0, 1], [0, 0]])
        alg = build_algebra(2, [e(2, 0, 0), e(2, 1, 1)])
        report = check_form(alg, gram)
        assert not report.symmetric
        assert report.symmetry_witness == (0, 1)


class TestScalarCenter:
    def test_gl1_scalar_action_holds(self):
        report = scalar_center_report(family("gl", 1), [Matrix.identity(5)])
        assert report.holds
        assert report.center_dim == 1
        assert report.scalar == 1

    def test_gl2_standard_action_holds(self):
        alg = family("gl", 2)
        report = scalar_center_report(alg, list(alg.basis))
        assert report.holds
        assert report.scalar == 1

    def test_centerless_algebra_fails(self):
        alg = family("sl", 2)
        report = scalar_center_report(alg, list(alg.basis))
        assert not report.holds
        assert report.center_dim == 0

    def test_two_dimensional_center_fails(self):
        alg = build_algebra(2, [e(2, 0, 0), e(2, 1, 1)])
        report = scalar_center_report(alg, list(alg.basis))
        assert not report.holds
        assert report.center_dim == 2

    def test_zero_action_fails(self):
        report = scalar_center_report(family("gl", 1), [Matrix.zeros(3, 3)])
        assert not report.holds
        assert "zero" in report.reason

    def test_nonscalar_action_fails(self):
        report = scalar_center_report(
            family("gl", 1), [Matrix([[1, 0], [0, 2]])])
        assert not report.holds
        assert report.scalar is None

    def test_wrong_action_count_rejected(self):
        with pytest.raises(ValueError):
            scalar_center_report(family("gl", 2), [Matrix.identity(2)])


# --- Differential tests against the dense implementations -------------------
#
# The structure constants used to be a dense d x d table of length-d vectors,
# built with a Bareiss rank and one solve_multi over all commutators, and
# check_form walked every (i, j, k) of it.  Those routines are kept here, as
# they were, as the oracle for the sparse table and its readers.

def dense_structure(ambient_size, basis):
    """The dense table, or the same exception build_algebra raised before."""
    basis = tuple(basis)
    for b in basis:
        if b.shape() != (ambient_size, ambient_size):
            raise ValueError("basis matrix has the wrong ambient size")
    d = len(basis)
    flat_stack = Matrix(tuple(b.flat() for b in basis))
    if d and rank(flat_stack) != d:
        raise NotIndependentError("basis is linearly dependent")
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    coords = []
    if pairs:
        rhs = Matrix(tuple(
            commutator(basis[i], basis[j]).flat() for i, j in pairs
        )).transpose()
        coords = solve_multi(flat_stack.transpose(), rhs)
    table = [[(0,) * d] * d for _ in range(d)]
    for (i, j), c in zip(pairs, coords):
        if c is None:
            raise NotClosedError(i, j)
        table[i][j] = c
        table[j][i] = vec_scale(-1, c)
    return table


def dense_check_form(table, g):
    d = len(table)
    symmetric, sym_wit = True, None
    for i in range(d):
        for j in range(i + 1, d):
            if g.entries[i][j] != g.entries[j][i]:
                symmetric, sym_wit = False, (i, j)
                break
        if not symmetric:
            break
    ker = kernel_basis(g)
    invariant, inv_wit = True, None
    for i in range(d):
        if not invariant:
            break
        for j in range(d):
            if not invariant:
                break
            cij = table[i][j]
            for k in range(d):
                lhs = 0
                if not is_zero_vec(cij):
                    for m, c in enumerate(cij):
                        if c and g.entries[m][k]:
                            lhs = lhs + c * g.entries[m][k]
                rhs = 0
                cjk = table[j][k]
                if not is_zero_vec(cjk):
                    for m, c in enumerate(cjk):
                        if c and g.entries[i][m]:
                            rhs = rhs + c * g.entries[i][m]
                if lhs != rhs:
                    invariant, inv_wit = False, (i, j, k)
                    break
    return FormReport(symmetric, not ker, invariant,
                      sym_wit, ker[0] if ker else None, inv_wit)


def dense_table(alg):
    return [[dense_vec(alg.structure[i].get(j, ()), alg.dim) for j in range(alg.dim)]
            for i in range(alg.dim)]


CATALOG_PENTADS = [display_name(e) for e in catalog()] + [
    "matrix_space_example(3)", "gl1_so_vector(4)", "gl1_so_vector(5)"]
FAMILY_ALGEBRAS = [("gl", 1), ("gl", 3), ("sl", 2), ("sl", 3), ("so", 2), ("so", 5),
                   ("sp", 1), ("sp", 2)]


def catalog_algebras():
    out = [(name, resolve(name).build().algebra) for name in CATALOG_PENTADS]
    out += [(f"{k}({n})", family(k, n)) for k, n in FAMILY_ALGEBRAS]
    out.append(("gl1+so3", direct_sum([classical_basis("gl", 1), classical_basis("so", 3)])))
    return out


CATALOG_ALGEBRAS = catalog_algebras()
ALGEBRA_IDS = [name for name, _ in CATALOG_ALGEBRAS]
# Algebras that are not their center plus [g, g]: the nonabelian plane
# [x, y] = y and the Heisenberg algebra fall short in dimension, and
# OSCILLATOR has its center inside [g, g].
UNSPLIT_ALGEBRAS = [("aff(1)", build_algebra(2, [e(2, 0, 0), e(2, 0, 1)])),
                    ("heisenberg", build_algebra(3, [e(3, 0, 1), e(3, 1, 2), e(3, 0, 2)])),
                    ("oscillator", OSCILLATOR)]


def span_rank(alg, gens):
    """dim span(S + [S, S]) for the basis indices S."""
    return len(sparse_row_space_basis(
        [((s, 1),) for s in gens] + [alg.structure[s].get(t, ()) for s in gens for t in gens]))


class TestGeneratingSet:
    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS], ids=ALGEBRA_IDS)
    def test_generators_and_their_brackets_span(self, alg):
        gens = alg.generators
        assert list(gens) == sorted(set(gens)) and all(0 <= s < alg.dim for s in gens)
        assert span_rank(alg, gens) == alg.dim

    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS], ids=ALGEBRA_IDS)
    def test_generators_are_the_greedy_walk(self, alg):
        # b_j is a generator exactly when it lies outside span(S' + [S', S'])
        # for the generators S' before it
        gens = alg.generators
        for j in range(alg.dim):
            earlier = [s for s in gens if s < j]
            assert (j in gens) == (span_rank(alg, earlier + [j]) > span_rank(alg, earlier))

    def test_semisimple_algebras_need_few_generators(self):
        # gl(1) + so(12) has 67 basis elements and 12 greedy generators
        alg = resolve("gl1_so_vector(12)").build().algebra
        assert (alg.dim, len(alg.generators)) == (67, 12)
        assert family("gl", 1).generators == (0,)

    @pytest.mark.parametrize("spec,gens", [
        ("matrix_space_example(2)", (0, 1, 2, 3, 4, 7, 8, 11, 12)),
        ("gl1_so_vector(5)", (0, 1, 2, 4, 7))])
    def test_pinned_generators(self, spec, gens):
        # the greedy walk takes the basis by ascending index through
        # echelon_add, which keeps that order; walked in the engine's intake
        # order (descending leading column) it would pick another set
        assert resolve(spec).build().algebra.generators == gens


SUM_ALGEBRAS = [(f"gl1^{k}" + ("+gl2" if with_gl2 else ""),
                 direct_sum([classical_basis("gl", 1)] * k
                            + ([classical_basis("gl", 2)] if with_gl2 else [])))
                for k in (1, 2, 3) for with_gl2 in (False, True)]


class TestCenterOnGenerators:
    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS + SUM_ALGEBRAS],
                             ids=ALGEBRA_IDS + [name for name, _ in SUM_ALGEBRAS])
    def test_matches_kernel_of_all_commutation_rows(self, alg):
        want = all_rows_center(alg)
        assert list(alg.center) == want
        assert [list(map(type, v)) for v in alg.center] == [list(map(type, v)) for v in want]

    @pytest.mark.parametrize(
        "alg", [a for _, a in CATALOG_ALGEBRAS + SUM_ALGEBRAS + UNSPLIT_ALGEBRAS]
        + [rebased(resolve(name).build()).algebra for name in CATALOG_PENTADS],
        ids=ALGEBRA_IDS + [name for name, _ in SUM_ALGEBRAS + UNSPLIT_ALGEBRAS]
        + [f"rebased {name}" for name in CATALOG_PENTADS])
    def test_matches_the_hand_built_generator_rows(self, alg):
        want = generator_rows_center(alg)
        assert alg.center == want
        assert [list(map(type, v)) for v in alg.center] == [list(map(type, v)) for v in want]
        assert [alg.ad_basis(i) for i in range(alg.dim)] == ad_matrix_actions(alg)

    def test_solves_only_the_generators_rows(self, monkeypatch):
        # gl(1) + so(12) has 12 generators of 67: the center is the kernel
        # of the 220 rows of [z, s] = 0, not of all 1320 rows of [z, b_j] = 0
        alg = resolve("gl1_so_vector(12)").build().algebra
        assert len(alg.generators) == 12
        shapes, real = [], lie.kernel_basis

        def spy(m):
            shapes.append(m.shape())
            return real(m)

        monkeypatch.setattr(lie, "kernel_basis", spy)
        assert alg.center == ((1,) + (0,) * 66,)
        assert shapes == [(220, 67)]
        assert len(all_commutation_rows(alg)) == 1320

    def test_derived_span_skips_commuting_pairs(self, monkeypatch):
        # [g, g] is echeloned from the brackets [s, b_j], s a generator; an
        # empty one (a commuting pair, absent from the table) would be a
        # no-op in echelon_add, so only the nonempty rows reach it, then one
        # call per center vector
        p = resolve("matrix_space_example(3)").build()
        alg = p.algebra
        nonempty = sum(len(alg.structure[s]) for s in alg.generators)
        assert 0 < nonempty < len(alg.generators) * alg.dim
        calls, real = [], lie.echelon_add

        def spy(echelon, row):
            calls.append(row)
            return real(echelon, row)

        monkeypatch.setattr(lie, "echelon_add", spy)
        assert scalar_center_report(alg, list(p.rep.action)).holds
        assert len(calls) == nonempty + len(alg.center)


class TestSparseStructureMatchesDense:
    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS], ids=ALGEBRA_IDS)
    def test_structure_constants(self, alg):
        assert dense_table(alg) == dense_structure(alg.ambient_size, alg.basis)
        for row in alg.structure:
            for cij in row.values():
                ks = [k for k, _ in cij]
                assert ks == sorted(set(ks))
                assert all(c for _, c in cij)

    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS + UNSPLIT_ALGEBRAS],
                             ids=ALGEBRA_IDS + [name for name, _ in UNSPLIT_ALGEBRAS])
    def test_rows_hold_only_the_nonzero_brackets(self, alg):
        # row i maps each j with [b_i, b_j] != 0, ascending, to that
        # bracket; the commuting j are absent, and row j holds the negative
        table = dense_structure(alg.ambient_size, alg.basis)
        for i, row in enumerate(alg.structure):
            assert list(row.keys()) == sorted(row)
            assert all(row.values())
            for j, cij in row.items():
                assert alg.structure[j][i] == tuple((k, -c) for k, c in cij)
            assert ({j: dense_vec(cij, alg.dim) for j, cij in row.items()}
                    == {j: v for j, v in enumerate(table[i]) if any(v)})

    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS + UNSPLIT_ALGEBRAS],
                             ids=ALGEBRA_IDS + [name for name, _ in UNSPLIT_ALGEBRAS])
    def test_center_and_derived(self, alg):
        table = dense_structure(alg.ambient_size, alg.basis)
        center, derived = dense_center(table), dense_derived(table)
        assert list(alg.center) == center
        splits = (len(center) + len(derived) == alg.dim
                  and rank(Matrix(tuple(center + derived))) == alg.dim)
        assert scalar_center_report(alg, list(alg.basis)).decomposes is splits

    @pytest.mark.parametrize("name", CATALOG_PENTADS)
    def test_form_report_on_catalog_pentads(self, name):
        p = resolve(name).build()
        table = dense_structure(p.algebra.ambient_size, p.algebra.basis)
        for gram in (p.form, trace_form(p.algebra), Matrix.identity(p.algebra.dim)):
            assert check_form(p.algebra, gram) == dense_check_form(table, gram)

    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS], ids=ALGEBRA_IDS)
    def test_trace_gram(self, alg):
        assert alg.trace_gram == Matrix(tuple(
            tuple(dense_trace_product(a, b) for b in alg.basis) for a in alg.basis))

    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS], ids=ALGEBRA_IDS)
    def test_build_skips_only_commuting_pairs(self, alg):
        # build_algebra skips the pairs whose matrices cannot multiply; its
        # table from the same basis is still the all-pairs one, for the
        # direct sums (most of whose pairs are skipped) too
        built = build_algebra(alg.ambient_size, alg.basis)
        assert dense_table(built) == dense_structure(alg.ambient_size, alg.basis)
        assert repr(built.structure) == repr(alg.structure)

    def test_build_forms_fewer_commutator_rows(self, monkeypatch):
        # so(6): 15 basis matrices E_ab - E_ba.  Only the 60 pairs that
        # share an index are bracketed, one flat commutator each; the 45
        # disjoint pairs cannot multiply and form none (all pairs: 105).
        pairs, real = [], lie.commutator

        def counting(a, b, n):
            pairs.append((a, b))
            return real(a, b, n)

        monkeypatch.setattr(lie, "commutator", counting)
        alg = family("so", 6)
        assert alg.dim == 15
        assert len(pairs) == 60
        assert all(any(real(a, b, 6).values()) for a, b in pairs)

    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS], ids=ALGEBRA_IDS)
    def test_ad_matrix_columns_are_brackets(self, alg):
        table = dense_structure(alg.ambient_size, alg.basis)
        u = tuple((i % 5) - 2 for i in range(alg.dim))
        ad = alg.ad_matrix(u)
        for j in range(alg.dim):
            col = [0] * alg.dim
            for i, ui in enumerate(u):
                for k in range(alg.dim):
                    col[k] += ui * table[i][j][k]
            assert tuple(row[j] for row in ad.entries) == tuple(col)


SMALL_ALGEBRAS = [family("gl", 2), family("so", 3), family("sp", 2), family("sl", 3),
                  direct_sum([classical_basis("gl", 1), classical_basis("so", 3)])]
SMALL_ALGEBRA_IDS = ["gl2", "so3", "sp2", "sl3", "gl1+so3"]
# valid invariant forms: the trace forms, and gl(2) with the rescaled center
SMALL_FORMS = [(a, trace_form(a)) for a in SMALL_ALGEBRAS] + [
    (resolve("gl2_standard").build().algebra, resolve("gl2_standard").build().form)]
scalars = st.one_of(st.integers(min_value=-4, max_value=4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=5).map(qof))


@st.composite
def tampered_grams(draw):
    """A valid invariant form on a small algebra with single entries changed:
    one entry at a time, a symmetric pair at a time, or a zeroed row and
    column, which leave it asymmetric, non-invariant or degenerate."""
    alg, gram = draw(st.sampled_from(SMALL_FORMS))
    d = alg.dim
    g = [list(row) for row in gram.entries]
    mode = draw(st.sampled_from(["asymmetric", "symmetric", "degenerate"]))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=d - 1))
        j = draw(st.integers(min_value=0, max_value=d - 1))
        if mode == "degenerate":
            for k in range(d):
                g[i][k] = g[k][i] = 0
            continue
        v = draw(scalars)
        g[i][j] = v
        if mode == "symmetric":
            g[j][i] = v
    return alg, Matrix(tuple(tuple(row) for row in g))


class TestFormReportDifferential:
    @given(tampered_grams())
    def test_tampered_grams_match_dense(self, case):
        alg, gram = case
        table = dense_structure(alg.ambient_size, alg.basis)
        assert check_form(alg, gram) == dense_check_form(table, gram)

    @pytest.mark.parametrize("alg", SMALL_ALGEBRAS, ids=SMALL_ALGEBRA_IDS)
    def test_every_single_entry_bump_matches_dense(self, alg):
        table = dense_structure(alg.ambient_size, alg.basis)
        base = trace_form(alg).entries
        for i in range(alg.dim):
            for j in range(alg.dim):
                g = [list(row) for row in base]
                g[i][j] += 1
                gram = Matrix(tuple(tuple(row) for row in g))
                assert check_form(alg, gram) == dense_check_form(table, gram)


# The catalog and family algebras, and the algebras of the two pentads with
# rational pairings and forms
AD_ALGEBRAS = CATALOG_ALGEBRAS + [("rational_vector", rational_vector_pentad().algebra),
                                  ("rational_matrix_space",
                                   rational_matrix_space_pentad().algebra)]


@st.composite
def ad_coordinates(draw):
    """An algebra and a coordinate vector on it: the zero vector, or one of
    ints and Fractions with most entries zero."""
    _, alg = draw(st.sampled_from(AD_ALGEBRAS))
    if draw(st.booleans()):
        return alg, (0,) * alg.dim
    entry = st.one_of(st.just(0), st.just(0), scalars)
    return alg, tuple(draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim)))


class TestAdMatrixSupport:
    """ad_matrix(u) combines ad(b_i) only for the u_i != 0: the structure
    table is the one store of g's action, and no d x d copy is built."""

    @pytest.fixture
    def ad_calls(self, monkeypatch):
        calls, real = [], MatrixLieAlgebra.ad_basis

        def spy(alg, i):
            calls.append(i)
            return real(alg, i)

        monkeypatch.setattr(MatrixLieAlgebra, "ad_basis", spy)
        return calls

    @pytest.mark.parametrize("alg", [a for _, a in CATALOG_ALGEBRAS], ids=ALGEBRA_IDS)
    def test_builds_one_ad_basis_per_nonzero(self, alg, ad_calls):
        d = alg.dim
        for u in [(0,) * d, unit_coords(d, d - 1),
                  tuple(Fraction(i, 3) if i % 4 == 1 else 0 for i in range(d)),
                  tuple((i % 3) - 1 for i in range(d))]:
            ad_calls.clear()
            ad = alg.ad_matrix(u)
            assert ad.shape() == (d, d)
            assert ad_calls == ([i for i, c in enumerate(u) if c] or [0])
        assert alg.ad_matrix((0,) * d) == Matrix.zeros(d, d)

    @settings(max_examples=60, deadline=None)
    @given(ad_coordinates())
    def test_matches_the_full_combination(self, case):
        alg, u = case
        got = alg.ad_matrix(u)
        want = linear_combination(u, [alg.ad_basis(i) for i in range(alg.dim)])
        assert got == want
        assert ([[type(x) for _, x in row] for row in got.nonzeros]
                == [[type(x) for _, x in row] for row in want.nonzeros])


def raised(m, r, c):
    """m with 1 added to entry (r, c)."""
    rows = [dict(row) for row in m.nonzeros]
    rows[r][c] = rows[r].get(c, 0) + 1
    return Matrix.from_nonzeros([tuple(sorted((k, x) for k, x in row.items() if x))
                                 for row in rows], m.cols)


class TestInvarianceScan:
    """ad(b_i) is regrouped straight from structure[i], and check_form names
    its invariance witness in one scan that builds each ad(b_j) at most once
    and reads the j off the generators only after a failure."""

    @pytest.mark.parametrize("alg", [a for _, a in AD_ALGEBRAS],
                             ids=[name for name, _ in AD_ALGEBRAS])
    def test_ad_basis_is_the_transposed_brackets(self, alg):
        for i in range(alg.dim):
            got, want = alg.ad_basis(i), transposed_ad_basis(alg, i)
            assert got == want
            assert ([[type(x) for _, x in row] for row in got.nonzeros]
                    == [[type(x) for _, x in row] for row in want.nonzeros])

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"_invariance_witness": 0, "ad_basis": 0}

        def spy(owner, name):
            original = getattr(owner, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, counting)

        spy(lie, "_invariance_witness")
        spy(MatrixLieAlgebra, "ad_basis")
        return calls

    @pytest.mark.parametrize("name", CATALOG_PENTADS)
    def test_one_scan_builds_each_ad_basis_once(self, name, calls):
        # the two-pass scan called _invariance_witness twice on a failing
        # form and built ad(b_j) |S| + d times there
        p = resolve(name).build()
        alg, d = p.algebra, p.algebra.dim
        gens = alg.generators
        assert check_form(alg, p.form).invariant
        assert calls == {"_invariance_witness": 1, "ad_basis": len(gens)}
        calls.update(_invariance_witness=0, ad_basis=0)
        report = check_form(alg, raised(p.form, d - 1, d - 1))
        # every form on an abelian algebra is invariant
        assert (report.invariance_witness is None) == (not any(alg.structure))
        assert calls["_invariance_witness"] == 1
        assert len(gens) <= calls["ad_basis"] <= d

    def test_failing_scan_holds_one_ad_basis_at_a_time(self):
        # gl(1) + so(40), d = 781: the two-pass scan held all 781 ad(b_j)
        # at once and traced about 12 MB
        p = resolve("gl1_so_vector(40)").build()
        gram = raised(p.form, 57, 93)
        tracemalloc.start()
        try:
            report = check_form(p.algebra, gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.invariance_witness == (1, 56, 93)
        assert peak < 4 * 2 ** 20


def outcome(build, ambient_size, basis):
    """('ok', dense table), ('closed', pair) or ('dependent', None)."""
    try:
        result = build(ambient_size, basis)
    except NotClosedError as exc:
        return ("closed", exc.pair)
    except NotIndependentError:
        return ("dependent", None)
    return ("ok", result if isinstance(result, list) else dense_table(result))


small_entries = st.one_of(st.integers(min_value=-2, max_value=2),
                          st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))
small_matrices = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(st.lists(small_entries, min_size=n, max_size=n),
                 min_size=n, max_size=n).map(Matrix),
        min_size=1, max_size=4))


class TestBuildAlgebraDifferential:
    @given(small_matrices)
    def test_random_bases_match_dense(self, basis):
        n = basis[0].rows
        assert outcome(build_algebra, n, basis) == outcome(dense_structure, n, basis)

    @given(small_matrices, st.lists(scalars, min_size=4, max_size=4))
    def test_dependent_bases_match_dense(self, basis, coeffs):
        n = basis[0].rows
        combo = Matrix.zeros(n, n)
        for c, b in zip(coeffs, basis):
            combo = combo + b.scale(c)
        for pos in (0, len(basis)):
            dependent = basis[:pos] + [combo] + basis[pos:]
            got = outcome(build_algebra, n, dependent)
            assert got == outcome(dense_structure, n, dependent)
            assert got == ("dependent", None)

    @given(small_matrices)
    def test_closed_spans_match_dense(self, basis):
        # Adding commutators until the span closes gives closed algebras too.
        n = basis[0].rows
        reduced = row_space_basis(b.flat() for b in basis)
        for _ in range(3):
            mats = [Matrix(tuple(r[i * n:(i + 1) * n] for i in range(n))) for r in reduced]
            more = [commutator(a, b).flat() for a in mats for b in mats]
            grown = row_space_basis([m.flat() for m in mats] + more)
            if len(grown) == len(reduced):
                break
            reduced = grown
        mats = [Matrix(tuple(r[i * n:(i + 1) * n] for i in range(n))) for r in reduced]
        if not mats:
            return
        assert outcome(build_algebra, n, mats) == outcome(dense_structure, n, mats)


# --- Pair enumeration against the all-pairs scan ------------------------------

def closure_outcome(ambient_size, basis):
    """None when build_algebra accepts the basis, else the pair it names."""
    try:
        build_algebra(ambient_size, basis)
    except NotClosedError as exc:
        return exc.pair
    return None


def independent(basis):
    return rank(Matrix(tuple(b.flat() for b in basis))) == len(basis)


def dense_conjugate(basis, n):
    """The basis conjugated by Q = I + J (J all ones), whose inverse
    I - J/(n+1) has no zero entry either, so the matrices fill in."""
    q = Matrix(tuple(tuple(2 if r == c else 1 for c in range(n)) for r in range(n)))
    q_inv = inverse(q)
    return [q_inv @ b @ q for b in basis]


def embedded(blocks):
    """(total size, basis) of the block-diagonal sum of (size, basis)
    blocks, placed cell by cell."""
    total = sum(size for size, _ in blocks)
    out, offset = [], 0
    for size, basis in blocks:
        for b in basis:
            grid = [[0] * total for _ in range(total)]
            for r, row in enumerate(b.entries):
                grid[offset + r][offset:offset + size] = row
            out.append(Matrix(tuple(map(tuple, grid))))
        offset += size
    return total, out


CONJUGATED_FAMILIES = [("sl", 2), ("so", 3), ("gl", 2), ("sp", 1), ("so", 4)]
nonzero_bumps = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


class TestPairEnumeration:
    """build_algebra brackets only the pairs that share an index, in order;
    the all-pairs scan of oracles.py names the first pair outside the span."""

    @given(small_matrices)
    def test_random_bases_name_the_reference_pair(self, basis):
        assume(independent(basis))
        assert closure_outcome(basis[0].rows, basis) == all_pairs_closure_failure(basis)

    @pytest.mark.parametrize("kind, n", CONJUGATED_FAMILIES)
    def test_conjugated_dense_bases_pair_everything(self, kind, n):
        size, basis = classical_basis(kind, n)
        conj = dense_conjugate(basis, size)
        d = len(conj)
        partners = index_partners([dict(b.nonempty()) for b in conj])
        assert partners == [set(range(i + 1, d)) for i in range(d)]
        # conjugation is an automorphism, so the structure constants stay
        assert build_algebra(size, conj).structure == family(kind, n).structure

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CONJUGATED_FAMILIES), st.data())
    def test_bumped_conjugated_bases_name_the_reference_pair(self, family_params, data):
        size, basis = classical_basis(*family_params)
        conj = dense_conjugate(basis, size)
        k = data.draw(st.integers(0, len(conj) - 1))
        r, c = (data.draw(st.integers(0, size - 1)) for _ in range(2))
        conj[k] = conj[k] + e(size, r, c).scale(data.draw(nonzero_bumps))
        assume(independent(conj))
        assert closure_outcome(size, conj) == all_pairs_closure_failure(conj)

    def test_block_sum_fails_only_on_its_last_pair(self):
        # span{E_01, E_10} is not closed ([E_01, E_10] = E_00 - E_11), and
        # every other pair is closed or in different blocks
        blocks = [classical_basis("so", 3), classical_basis("gl", 1),
                  classical_basis("sl", 2), (2, [e(2, 0, 1), e(2, 1, 0)])]
        total, basis = embedded(blocks)
        last = (len(basis) - 2, len(basis) - 1)
        assert all_pairs_closure_failure(basis) == last
        assert closure_outcome(total, basis) == last
        with pytest.raises(NotClosedError) as exc:
            direct_sum(blocks)
        assert exc.value.pair == last
