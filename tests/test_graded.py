"""Graded construction: dimensions, brackets, grading and minimality checks."""

import hashlib
import random
from fractions import Fraction
from functools import cache
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentads.catalog import catalog, matrix_space_example, resolve
from pentads.exact_linalg import (
    Matrix,
    dense_vec,
    inverse,
    linear_combination_apply,
    qnorm,
    rank,
    ratio,
    row_space_basis,
    solve_multi,
    vec_scale,
)
from pentads import exact_linalg, graded
from pentads.graded import (
    DegreeError,
    GradedVector,
    _Half,
    check_grading,
    check_minimality,
    extend,
)
from pentads.lie import (MatrixLieAlgebra, classical_basis, direct_sum, family, trace_form,
                         unit_coords)
from pentads.preh import decide_regularity, verify_certificate
from pentads.pentad import (
    DualModule,
    GradingElement,
    PhiMap,
    Representation,
    StandardPentad,
    check_standard,
    dual_representation,
    grading_element,
)

from oracles import (ad_matrix_actions, conjugated, dense_pivot_action, display_name, mirror,
                     mobius, pivot_columns, rational_matrix_space_pentad,
                     rational_vector_pentad, rebased, stacked_grading_element, vec_add,
                     witt_dimension)


def build(spec, degree):
    return extend(resolve(spec).build(), degree)


def units(g):
    out = []
    for deg, n in g.dims.items():
        for i in range(n):
            out.append(GradedVector(deg, unit_coords(n, i)))
    return out


def degrees_fit(g, *degs):
    sums = {degs[0] + degs[1], degs[0] + degs[2], degs[1] + degs[2], sum(degs)}
    return all(abs(s) <= g.max_degree for s in sums)


def assert_jacobi(g, a, b, c):
    left = g.bracket(a, g.bracket(b, c))
    right = vec_add(g.bracket(g.bracket(a, b), c).coords,
                    g.bracket(b, g.bracket(a, c)).coords)
    assert left.coords == right


class TestGradingElement:
    def test_scalar_entry(self):
        res = grading_element(resolve("gl1_scalar").build())
        assert res.status == "found"
        assert res.element.coords == (2,)
        assert res.solution_space == ()

    def test_gl2_entries(self):
        for spec in ("gl2_standard", "gl2_trace"):
            res = grading_element(resolve(spec).build())
            assert res.status == "found"
            assert res.element.coords == (2, 0, 0, 2)

    def test_matrix_space_entry(self):
        res = grading_element(resolve("matrix_space_example(2)").build())
        assert res.status == "found"
        assert res.element.coords == (2,) + (0,) * 13

    def test_traceless_action_has_none(self):
        # pi(g) = 2 Id forces a nonzero trace, out of reach for sl(2)
        alg = family("sl", 2)
        rep = Representation(alg, alg.basis)
        p = StandardPentad(rep, dual_representation(rep), trace_form(alg))
        res = grading_element(p)
        assert res.status == "absent"
        assert res.element is None

    def test_unconstrained_center_is_degenerate(self):
        # second summand acts by zero, so its coefficient is free
        alg = direct_sum([classical_basis("gl", 1)] * 2)
        rep = Representation(alg, (Matrix([[1]]), Matrix([[0]])))
        p = StandardPentad(rep, dual_representation(rep), trace_form(alg))
        res = grading_element(p)
        assert res.status == "degenerate"
        assert res.element.coords == (2, 0)
        assert res.solution_space == ((0, 1),)


def grading_triple(p):
    res = grading_element(p)
    return res.status, None if res.element is None else res.element.coords, res.solution_space


def typed(v):
    """Values with their types, so an int and an equal Fraction differ."""
    if isinstance(v, (tuple, list)):
        return [typed(x) for x in v]
    return (type(v).__name__, v)


@st.composite
def abelian_pentads(draw):
    """gl(1)^k, plus gl(2) on a two-dimensional block when drawn, acting by
    diagonal matrices (scalars on the gl(2) block), with the contragredient
    dual or that dual with bumped entries.  The grading element of such a
    pentad can be found, absent or degenerate."""
    k = draw(st.integers(1, 3))
    with_gl2 = draw(st.booleans())
    n = draw(st.integers(0, 2) if with_gl2 else st.integers(1, 3))
    size = n + 2 * with_gl2
    entries = st.sampled_from([-1, 0, 1, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
    action = []
    for _ in range(k):
        diag = [draw(entries)] * 2 if with_gl2 else []
        diag += [draw(entries) for _ in range(n)]
        action.append(Matrix([[x if r == c else 0 for c in range(size)]
                              for r, x in enumerate(diag)]))
    blocks = [classical_basis("gl", 1)] * k
    if with_gl2:
        blocks.append(classical_basis("gl", 2))
        action += [Matrix.from_nonzeros(b.nonzeros + ((),) * n, size)
                   for b in blocks[-1][1]]
    alg = direct_sum(blocks)
    rep = Representation(alg, tuple(action))
    dual = dual_representation(rep)
    bumps = draw(st.lists(st.tuples(st.integers(0, alg.dim - 1), st.integers(0, size - 1),
                                    st.integers(0, size - 1),
                                    st.sampled_from([-1, 1, Fraction(1, 2)])), max_size=2))
    if bumps:
        grids = [[list(row) for row in a.entries] for a in dual.action]
        for i, r, c, x in bumps:
            grids[i][r][c] = qnorm(grids[i][r][c] + x)
        dual = DualModule(tuple(Matrix(g) for g in grids), dual.pairing)
    return StandardPentad(rep, dual, trace_form(alg))


def bumped_dual(p):
    """p with 1 added to the first cell of its first dual action matrix."""
    grids = [[list(row) for row in a.entries] for a in p.dual.action]
    grids[0][0][0] = qnorm(grids[0][0][0] + 1)
    return StandardPentad(p.rep, DualModule(tuple(Matrix(g) for g in grids), p.dual.pairing),
                          p.form)


class TestGradingElementMatchesStackedSolve:
    """The solve in center coordinates, lifted through the center basis,
    against one solve of every commutation row stacked on every cell row."""

    @settings(max_examples=200, deadline=None)
    @given(abelian_pentads())
    def test_drawn_pentads(self, p):
        got, want = grading_triple(p), stacked_grading_element(p)
        assert got == want
        assert typed(got) == typed(want)

    def test_every_status(self):
        pentads = [e.build() for e in catalog()]
        pentads += [rational_vector_pentad(), rational_matrix_space_pentad()]
        pentads += [bumped_dual(p) for p in pentads]
        alg = direct_sum([classical_basis("gl", 1)] * 2)
        rep = Representation(alg, (Matrix([[1]]), Matrix([[0]])))
        pentads.append(StandardPentad(rep, dual_representation(rep), trace_form(alg)))
        seen = set()
        for p in pentads:
            got, want = grading_triple(p), stacked_grading_element(p)
            assert got == want
            assert typed(got) == typed(want)
            seen.add(got[0])
        assert seen == {"found", "absent", "degenerate"}


DIM_PINS = [
    ("gl1_scalar", 3, {-3: 0, -2: 0, -1: 1, 0: 1, 1: 1, 2: 0, 3: 0}),
    ("gl2_standard", 3, {-3: 0, -2: 0, -1: 2, 0: 4, 1: 2, 2: 0, 3: 0}),
    ("gl2_trace", 3, {-3: 0, -2: 1, -1: 2, 0: 4, 1: 2, 2: 1, 3: 0}),
    ("gl1_so_vector(3)", 3, {-3: 8, -2: 3, -1: 3, 0: 4, 1: 3, 2: 3, 3: 8}),
    ("matrix_space_example(2)", 2, {-2: 66, -1: 12, 0: 14, 1: 12, 2: 66}),
]


class TestDims:
    @pytest.mark.parametrize("spec,degree,expected", DIM_PINS,
                             ids=[p[0] for p in DIM_PINS])
    def test_component_dimensions(self, spec, degree, expected):
        g = build(spec, degree)
        assert g.dims == expected

    def test_trace_entry_closes_at_two(self):
        # total 10 = dim sp(4); nothing appears past degree two
        g = build("gl2_trace", 3)
        assert sum(g.dims.values()) == 10

    def test_standard_entry_closes_at_one(self):
        # total 8 = dim sl(3)
        g = build("gl2_standard", 2)
        assert sum(g.dims.values()) == 8

    def test_dim_accessor_bound(self):
        g = build("gl1_scalar", 2)
        assert g.dim(2) == 0
        with pytest.raises(DegreeError, match="exceeds"):
            g.dim(3)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(DegreeError, match="at least 1"):
            build("gl1_scalar", 0)


class TestBracket:
    def test_module_dual_pairs_through_phi(self):
        p = resolve("gl2_trace").build()
        g = extend(p, 2)
        for a in range(2):
            for b in range(2):
                x = GradedVector(1, unit_coords(2, a))
                y = GradedVector(-1, unit_coords(2, b))
                expected = p.phi.apply(x.coords, y.coords)
                assert g.bracket(x, y).coords == expected
                assert g.bracket(y, x).coords == vec_scale(-1, expected)

    def test_algebra_action_on_module_lines(self):
        p = resolve("gl2_trace").build()
        g = extend(p, 2)
        a = GradedVector(0, (1, 2, 0, -1))
        v = GradedVector(1, (3, 5))
        w = GradedVector(-1, (1, -1))
        assert (g.bracket(a, v).coords
                == linear_combination_apply(a.coords, p.rep.action, v.coords))
        dual = vec_add(vec_scale(1, p.dual.action[0].apply(w.coords)),
                       vec_scale(2, p.dual.action[1].apply(w.coords)))
        dual = vec_add(dual, vec_scale(-1, p.dual.action[3].apply(w.coords)))
        assert g.bracket(a, w).coords == dual
        assert g.bracket(v, a).coords == vec_scale(-1, g.bracket(a, v).coords)

    def test_scalar_entry_carries_sl2(self):
        g = build("gl1_scalar", 2)
        x = GradedVector(1, (1,))
        y = GradedVector(-1, (1,))
        h = GradedVector(0, grading_element(g.pentad).element.coords)
        assert g.bracket(x, y).coords == (1,)
        assert g.bracket(h, x).coords == (2,)
        assert g.bracket(h, y).coords == (-2,)

    def test_degree_two_brackets_evaluate(self):
        g = build("gl2_trace", 2)
        f = g.component_maps(2)[0]
        y = (4, -7)
        got = g.bracket(GradedVector(2, (1,)), GradedVector(-1, y))
        assert got.degree == 1
        assert got.coords == f.apply(y)
        fneg = g.component_maps(-2)[0]
        x = (2, 9)
        got = g.bracket(GradedVector(1, x), GradedVector(-2, (1,)))
        assert got.coords == vec_scale(-1, fneg.apply(x))

    def test_antisymmetry_exhaustive(self):
        g = build("gl2_trace", 2)
        all_units = units(g)
        for a in all_units:
            for b in all_units:
                if abs(a.degree + b.degree) > g.max_degree:
                    continue
                ab = g.bracket(a, b).coords
                ba = g.bracket(b, a).coords
                assert ab == vec_scale(-1, ba)

    @pytest.mark.parametrize("spec", ["gl2_standard", "gl2_trace"])
    def test_jacobi_exhaustive(self, spec):
        g = build(spec, 2)
        all_units = units(g)
        for a in all_units:
            for b in all_units:
                for c in all_units:
                    if degrees_fit(g, a.degree, b.degree, c.degree):
                        assert_jacobi(g, a, b, c)

    def test_jacobi_exhaustive_so_vector(self):
        g = build("gl1_so_vector(3)", 2)
        all_units = units(g)
        for a in all_units:
            for b in all_units:
                for c in all_units:
                    if degrees_fit(g, a.degree, b.degree, c.degree):
                        assert_jacobi(g, a, b, c)

    def test_jacobi_spot_matrix_space(self):
        import random

        g = build("matrix_space_example(2)", 2)
        rng = random.Random(11)

        def rand(degree):
            n = g.dim(degree)
            return GradedVector(degree, tuple(rng.randint(-9, 9) for _ in range(n)))

        for degs in [(1, 1, -2), (2, -1, -1), (-2, 1, 1), (0, 2, -2), (2, -2, 1)]:
            if not degrees_fit(g, *degs):
                continue
            assert_jacobi(g, *(rand(d) for d in degs))

    def test_degree_bound_enforced(self):
        g = build("gl2_trace", 2)
        with pytest.raises(DegreeError, match="exceeds"):
            g.bracket(GradedVector(2, (1,)), GradedVector(1, (1, 0)))

    def test_coordinate_length_checked(self):
        g = build("gl2_trace", 2)
        with pytest.raises(DegreeError, match="length"):
            g.bracket(GradedVector(1, (1,)), GradedVector(-1, (1, 0)))

    @pytest.mark.parametrize("spec", ["gl2_trace", "gl1_so_vector(3)"])
    def test_expansions_reconstruct_basis(self, spec):
        # every degree-two basis vector is reachable from degree-one pairs;
        # the table holds the brackets times Phi's denominator D, and the
        # integer coefficients are the expansion times its denominator delta
        g = build(spec, 2)
        d = g.pentad.phi.denominator
        for half in (g.positive, g.negative):
            n = half.dims[2]
            expansions, delta = half.expansions(2)
            for s0, terms in enumerate(expansions):
                acc = (0,) * n
                for coeff, a_idx, s_idx in terms:
                    up = dense_vec(half.up[1][a_idx][s_idx], n)
                    acc = vec_add(acc, vec_scale(coeff, up))
                assert acc == vec_scale(delta * d, unit_coords(n, s0))


class TestComponentsAndActions:
    def test_component_maps_guard(self):
        g = build("gl2_trace", 2)
        with pytest.raises(DegreeError, match="degree 2"):
            g.component_maps(1)

    def test_degree_zero_action_is_ad(self):
        g = build("gl2_trace", 2)
        alg = g.pentad.algebra
        mats = g.action_matrices(0)
        assert mats[1] == alg.ad_matrix(unit_coords(4, 1))

    @pytest.mark.parametrize("spec", [display_name(e) for e in catalog()])
    @pytest.mark.parametrize("rebase", [False, True], ids=["catalog", "rebased"])
    def test_degree_zero_action_matches_the_ad_matrix_reference(self, spec, rebase):
        p = resolve(spec).build()
        p = rebased(p) if rebase else p
        assert extend(p, 1).action_matrices(0) == ad_matrix_actions(p.algebra)

    def test_degree_one_actions_are_the_representations(self):
        g = build("gl2_trace", 2)
        assert g.action_matrices(1) == list(g.pentad.rep.action)
        assert g.action_matrices(-1) == list(g.pentad.dual.action)

    def test_top_degree_action_is_lazy(self):
        g = build("gl2_trace", 2)
        assert 2 not in g.positive._columns
        mats = g.action_matrices(2)
        assert 2 in g.positive._columns
        h = grading_element(g.pentad).element.coords
        acc = Matrix.zeros(1, 1)
        for hi, mat in zip(h, mats):
            if hi:
                acc = acc + mat.scale(hi)
        assert acc == Matrix([[4]])

    def test_construction_is_deterministic(self):
        g1 = build("gl1_so_vector(3)", 3)
        g2 = build("gl1_so_vector(3)", 3)
        assert g1.dims == g2.dims
        for deg in (2, 3, -2, -3):
            assert g1.component_maps(deg) == g2.component_maps(deg)
        assert g1.positive.up == g2.positive.up
        assert g1.negative.up == g2.negative.up


class TestChecks:
    @pytest.mark.parametrize("spec,degree", [
        ("gl1_scalar", 3),
        ("gl2_standard", 3),
        ("gl2_trace", 3),
        ("gl1_so_vector(3)", 3),
        ("matrix_space_example(2)", 2),
    ])
    def test_grading_and_minimality_hold(self, spec, degree):
        g = build(spec, degree)
        h = grading_element(g.pentad).element
        assert check_grading(g, h) is True
        assert check_minimality(g) is True

    def test_doubled_element_fails_grading(self):
        g = build("gl2_trace", 2)
        h = grading_element(g.pentad).element
        assert check_grading(g, GradingElement(vec_scale(2, h.coords))) is False

    def test_noncentral_element_fails_grading(self):
        g = build("gl2_trace", 2)
        assert check_grading(g, GradingElement((0, 1, 0, 0))) is False

    def test_grading_element_absent_for_gl1_on_a_plane_by_diag_1_0(self):
        # The diagonal cell (1, 1) of pi(b_0) is empty, and its equation
        # 0 = 2 is what makes the system inconsistent: a row builder that
        # dropped empty cell rows would find h = 2.
        alg = family("gl", 1)
        rep = Representation(alg, (Matrix([[1, 0], [0, 0]]),))
        p = StandardPentad(rep, dual_representation(rep), trace_form(alg))
        assert check_standard(p).ok
        res = grading_element(p)
        assert (res.status, res.element, res.solution_space) == ("absent", None, ())

    def test_zero_row_breaks_minimality(self):
        g = build("gl2_trace", 2)
        half = g.positive
        half.maps[2] = half.maps[2] + ((),)  # the zero map
        half.dims[2] += 1
        assert check_minimality(g) is False

    def test_duplicate_row_breaks_minimality(self):
        g = build("gl2_trace", 2)
        half = g.negative
        half.maps[2] = half.maps[2] + half.maps[2]
        half.dims[2] *= 2
        assert check_minimality(g) is False

    @pytest.mark.parametrize("tamper", ["zero row", "duplicate row"])
    def test_minimality_reads_the_leads(self, tamper, monkeypatch):
        # Stored bases are RREF rows, so an empty row or a lead that does not
        # increase is already a dependence: no rank is computed.
        g = build("gl2_trace", 2)
        half = g.positive
        half.maps[2] += ((),) if tamper == "zero row" else half.maps[2]
        half.dims[2] = len(half.maps[2])

        def no_rank(rows):
            raise AssertionError("check_minimality computed a rank")

        monkeypatch.setattr(graded, "sparse_row_space_basis", no_rank)
        assert check_minimality(g) is False

    @pytest.mark.parametrize("spec,degree", [("gl1_so_vector(3)", 3),
                                             ("matrix_space_example(2)", 3),
                                             ("gl2_trace", 1)])
    def test_grading_reads_each_action_table_once(self, spec, degree, monkeypatch):
        # h's action is compared on U_1 .. U_{top-1} of each side, once per
        # degree; the top degree follows from the tables below it, so
        # neither its table nor any stored map is read.
        g = build(spec, degree)
        h = grading_element(g.pentad).element
        calls, real = [], _Half.transposed

        def spy(half, k):
            calls.append((half is g.positive, k))
            return real(half, k)

        monkeypatch.setattr(_Half, "transposed", spy)
        monkeypatch.setattr(graded, "_twist", None)
        assert check_grading(g, h) is True
        want = [(side is g.positive, k) for side in (g.positive, g.negative)
                for k in range(1, max(max(side.maps), 2))]
        assert calls == want
        assert set(k for _, k in want) == set(range(1, max(degree, 2)))


# ---------------------------------------------------------------------------
# Dense oracle: the graded construction as it was before components were
# stored by their nonzeros, with every map and action table a dense Matrix.
# The sparse storage must reproduce it exactly.


class _DenseHalf:
    def __init__(self, pentad, max_degree):
        self.pentad = pentad
        self.max_degree = max_degree
        m = pentad.module_dim
        self.dims = {1: m}
        self.maps = {}
        self.actions = {}
        self.up = {}
        self._candidates = {}
        self._expansions = {}
        # _phi_units[a][r] = Phi(x_a (x) y_r) = G^-1 . (W_i[a][r])_i, from this
        # pentad's own tensor W_i = t(pi(b_i)).P
        gram_inv = inverse(pentad.form)
        tables = [a.transpose().entries for a in pentad.rep.action]
        pairing = pentad.dual.pairing.entries
        w = [[[sum(t[a][c] * pairing[c][r] for c in range(m)) for r in range(m)]
              for a in range(m)] for t in tables]
        self._phi_units = [[gram_inv.apply(tuple(wi[a][r] for wi in w)) for r in range(m)]
                           for a in range(m)]
        for k in range(1, max_degree):
            if self.dims.get(k, 0) == 0:
                self.dims[k + 1] = 0
                continue
            self._build_next(k)

    def _build_next(self, k):
        m = self.pentad.module_dim
        nk = self.dims[k]
        candidates = []
        for a in range(m):
            up_prev = self.up[k - 1][a] if k > 1 else None
            for s in range(nk):
                cols = []
                for r in range(m):
                    col = list(self._act_column(k, self._phi_units[a][r], s))
                    if k == 1:
                        h = self._phi_units[s][r]
                        for t, x in enumerate(self._act_column(1, h, a)):
                            if x:
                                col[t] -= x
                    else:
                        w = tuple(row[r] for row in self.maps[k][s].entries)
                        for t, wt in enumerate(w):
                            if wt:
                                for t2, uv in enumerate(up_prev[t]):
                                    if uv:
                                        col[t2] += wt * uv
                    cols.append(col)
                candidates.append(tuple(qnorm(col[t]) for t in range(nk) for col in cols))
        basis = row_space_basis(candidates)
        self._candidates[k + 1] = candidates
        self.dims[k + 1] = len(basis)
        if not basis:
            self.up[k] = [[() for _ in range(nk)] for _ in range(m)]
            return
        self.maps[k + 1] = tuple(
            Matrix(tuple(v[t * m:(t + 1) * m] for t in range(self.dims[k]))) for v in basis)
        pivots = pivot_columns(basis)
        self.up[k] = [[tuple(candidates[a * nk + s][p] for p in pivots) for s in range(nk)]
                      for a in range(m)]
        if k + 1 < self.max_degree:
            self._build_action(k + 1)

    def _act_column(self, k, g, s):
        mats = self.pentad.rep.action if k == 1 else self.actions[k]
        acc = [0] * self.dims[k]
        for i, gi in enumerate(g):
            if gi:
                for r, row in enumerate(mats[i].entries):
                    if row[s]:
                        acc[r] = acc[r] + gi * row[s]
        return tuple(qnorm(x) for x in acc)

    def _build_action(self, degree):
        prev = degree - 1
        amats = self.pentad.rep.action if prev == 1 else self.actions[prev]
        dmats = self.pentad.dual.action
        basis_flats = [mp.flat() for mp in self.maps[degree]]
        pivots = pivot_columns(basis_flats)
        out = []
        for i in range(self.pentad.algebra.dim):
            cols = []
            for mp in self.maps[degree]:
                g = (amats[i] @ mp - mp @ dmats[i]).flat()
                coords = tuple(g[p] for p in pivots)
                resid = list(g)
                for c, row in zip(coords, basis_flats):
                    if c:
                        resid = [x - c * y for x, y in zip(resid, row)]
                if any(resid):
                    raise ArithmeticError("action left the component span")
                cols.append(coords)
            out.append(Matrix(tuple(zip(*cols))))
        self.actions[degree] = out

    def action_table(self, k):
        if k not in self.actions and self.dims.get(k, 0):
            self._build_action(k)
        return self.actions.get(k, [])

    def expansions(self, degree):
        if degree not in self._expansions:
            nk = self.dims[degree - 1]
            stack = Matrix(tuple(self._candidates[degree])).transpose()
            rhs = Matrix(tuple(mp.flat() for mp in self.maps[degree])).transpose()
            self._expansions[degree] = [
                tuple((c, *divmod(pos, nk)) for pos, c in enumerate(sol) if c)
                for sol in solve_multi(stack, rhs)]
        return self._expansions[degree]

    def evaluate(self, degree, f_coords, y):
        acc = (0,) * self.dims[degree - 1]
        for s, c in enumerate(f_coords):
            if c:
                acc = vec_add(acc, vec_scale(c, self.maps[degree][s].apply(y)))
        return acc

    def up_bracket(self, k, x, u):
        acc = (0,) * self.dims.get(k + 1, 0)
        table = self.up.get(k)
        if table is None:
            return acc
        for a, xa in enumerate(x):
            for s, us in enumerate(u):
                if xa and us and table[a][s]:
                    acc = vec_add(acc, vec_scale(xa * us, table[a][s]))
        return acc

    def phi(self, v, phi):
        acc = (0,) * self.pentad.algebra.dim
        for a, va in enumerate(v):
            for r, fr in enumerate(phi):
                if va and fr:
                    acc = vec_add(acc, vec_scale(va * fr, self._phi_units[a][r]))
        return acc

    def action(self, k, g, v):
        if k == 1:
            return linear_combination_apply(g, self.pentad.rep.action, v)
        acc = (0,) * self.dims[k]
        for gi, mat in zip(g, self.action_table(k)):
            if gi:
                acc = vec_add(acc, vec_scale(gi, mat.apply(v)))
        return acc


class _DenseAlgebra:
    def __init__(self, pentad, max_degree):
        self.pentad = pentad
        self.max_degree = max_degree
        self.positive = _DenseHalf(pentad, max_degree)
        self.negative = _DenseHalf(mirror(pentad), max_degree)
        self._memo = {}
        self._dims = {0: pentad.algebra.dim}
        for k in range(1, max_degree + 1):
            self._dims[k] = self.positive.dims.get(k, 0)
            self._dims[-k] = self.negative.dims.get(k, 0)

    def bracket(self, j, a, k, b):
        target = self._dims[j + k]
        if target == 0 or not any(a) or not any(b):
            return (0,) * target
        if j == 0:
            if k == 0:
                return self.pentad.algebra.ad_matrix(a).apply(b)
            return (self.positive if k > 0 else self.negative).action(abs(k), a, b)
        if k == 0:
            return vec_scale(-1, self.bracket(0, b, j, a))
        if j == 1:
            if k == -1:
                return self.positive.phi(a, b)
            if k >= 1:
                return self.positive.up_bracket(k, a, b)
            return vec_scale(-1, self.negative.evaluate(-k, b, a))
        if j == -1:
            if k == 1:
                return vec_scale(-1, self.positive.phi(b, a))
            if k <= -1:
                return self.negative.up_bracket(-k, a, b)
            return vec_scale(-1, self.positive.evaluate(k, b, a))
        if j >= 2 and k == -1:
            return self.positive.evaluate(j, a, b)
        if j <= -2 and k == 1:
            return self.negative.evaluate(-j, a, b)
        acc = (0,) * target
        for s, cs in enumerate(a):
            if cs:
                acc = vec_add(acc, vec_scale(cs, self._bracket_unit(j, s, k, b)))
        return acc

    def _bracket_unit(self, j, s, k, b):
        half = self.positive if j > 0 else self.negative
        one = 1 if j > 0 else -1
        prev = j - one
        acc = (0,) * self._dims[j + k]
        for c, a_idx, u_idx in half.expansions(abs(j))[s]:
            x = unit_coords(self.pentad.module_dim, a_idx)
            u = unit_coords(self._dims[prev], u_idx)
            term = self.bracket(one, x, prev + k, self._memo_bracket(prev, u_idx, k, b))
            xb = self.bracket(one, x, k, b)
            term = vec_add(term, vec_scale(-1, self.bracket(prev, u, one + k, xb)))
            acc = vec_add(acc, vec_scale(c, term))
        return acc

    def _memo_bracket(self, j, s, k, b):
        acc = (0,) * self._dims[j + k]
        for t, bt in enumerate(b):
            if bt:
                key = (j, s, k, t)
                if key not in self._memo:
                    self._memo[key] = self.bracket(j, unit_coords(self._dims[j], s),
                                                   k, unit_coords(self._dims[k], t))
                acc = vec_add(acc, vec_scale(bt, self._memo[key]))
        return acc


def dense_check_minimality(g):
    for half in (g.positive, g.negative):
        for k in range(2, g.max_degree + 1):
            n = half.dims.get(k, 0)
            if n == 0:
                continue
            flats = [mp.flat() for mp in half.maps[k]]
            last = -1
            for v in flats:
                lead = next((j for j, x in enumerate(v) if x), None)
                if lead is None or lead <= last:
                    if rank(Matrix(tuple(flats))) != n:
                        return False
                    break
                last = lead
    return True


def dense_check_grading(g, h):
    p = g.pentad
    d = p.algebra.dim
    for j in range(d):
        if any(p.algebra.ad_matrix(h.coords).apply(unit_coords(d, j))):
            return False

    def combo(mats, n):
        acc = Matrix.zeros(n, n)
        for hi, mat in zip(h.coords, mats):
            if hi:
                acc = acc + mat.scale(hi)
        return acc

    m = p.module_dim
    for degree, mats in ((1, p.rep.action), (-1, p.dual.action)):
        if combo(mats, m) != Matrix.identity(m).scale(2 * degree):
            return False
    for half, sign in ((g.positive, 1), (g.negative, -1)):
        dh = combo(half.pentad.dual.action, m)
        for n in range(2, g.max_degree + 1):
            if half.dims.get(n, 0) == 0:
                continue
            amats = half.pentad.rep.action if n == 2 else half.actions[n - 1]
            mh = combo(amats, half.dims[n - 1])
            for f in half.maps[n]:
                if mh @ f - f @ dh != f.scale(2 * sign * n):
                    return False
    return True


ORACLE_CASES = [("gl2_trace", 3), ("gl2_standard", 3), ("gl1_so_vector(3)", 3),
                ("gl1_so_vector(4)", 4), ("matrix_space_example(2)", 2)]
ORACLE_IDS = [f"{spec}@{k}" for spec, k in ORACLE_CASES]


@pytest.fixture(scope="module", params=ORACLE_CASES, ids=ORACLE_IDS)
def sparse_and_dense(request):
    spec, degree = request.param
    p = resolve(spec).build()
    return extend(p, degree), _DenseAlgebra(p, degree)


def unit_pairs(g):
    """Every pair of unit vectors whose bracket stays inside the degree bound,
    in the order their brackets are hashed below."""
    dims = g.dims
    for j, nj in dims.items():
        for k, nk in dims.items():
            if abs(j + k) <= g.max_degree:
                for s in range(nj):
                    for t in range(nk):
                        yield GradedVector(j, unit_coords(nj, s)), GradedVector(k, unit_coords(nk, t))


def unit_pair_digest(g):
    digest = hashlib.sha256()
    for a, b in unit_pairs(g):
        digest.update(repr(g.bracket(a, b).coords).encode())
    return digest.hexdigest()


class TestSparseMatchesDense:
    def test_dims(self, sparse_and_dense):
        g, dense = sparse_and_dense
        assert g.dims == dict(sorted(dense._dims.items()))

    def test_component_maps_and_up(self, sparse_and_dense):
        g, dense = sparse_and_dense
        for half, dhalf, sign in ((g.positive, dense.positive, 1),
                                  (g.negative, dense.negative, -1)):
            for k in range(2, g.max_degree + 1):
                assert g.component_maps(sign * k) == dhalf.maps.get(k, ())
            # up[0], the action of g on U_1, has no dense counterpart; the
            # other tables hold the brackets times Phi's denominator D
            assert half.up.keys() - {0} == dhalf.up.keys()
            d = g.pentad.phi.denominator
            for k, table in half.up.items():
                if k == 0:
                    continue
                n = half.dims[k + 1]
                assert ([[dense_vec(v, n) for v in row] for row in table]
                        == [[vec_scale(d, v) if v else (0,) * n for v in row]
                            for row in dhalf.up[k]])

    def test_action_matrices(self, sparse_and_dense):
        g, dense = sparse_and_dense
        for half, dhalf, sign in ((g.positive, dense.positive, 1),
                                  (g.negative, dense.negative, -1)):
            for k in range(2, g.max_degree + 1):
                assert g.action_matrices(sign * k) == dhalf.action_table(k)

    def test_expansions(self, sparse_and_dense):
        # The sparse half solves in U_k coordinates against its bracket
        # table, the dense one in map space against the candidate maps; both
        # systems share one row space, so the solutions agree exactly: the
        # sparse integer coefficients c over delta are the dense ones.
        g, dense = sparse_and_dense
        for half, dhalf in ((g.positive, dense.positive), (g.negative, dense.negative)):
            for k in range(2, g.max_degree + 1):
                if half.dims.get(k, 0):
                    (stored, delta), want = half.expansions(k), dhalf.expansions(k)
                    got = [tuple((ratio(c, delta), a, s) for c, a, s in terms)
                           for terms in stored]
                    assert got == want
                    assert ([[type(c) for c, _, _ in terms] for terms in got]
                            == [[type(c) for c, _, _ in terms] for terms in want])

    def test_checks_agree(self, sparse_and_dense):
        g, dense = sparse_and_dense
        h = grading_element(g.pentad).element
        alg = g.pentad.algebra
        d = alg.dim
        noncentral = next(j for j in range(d) if alg.structure[j])
        elements = [h, GradingElement(vec_scale(2, h.coords)),
                    GradingElement(vec_add(h.coords, unit_coords(d, noncentral)))]
        verdicts = [check_grading(g, e) for e in elements]
        assert verdicts == [dense_check_grading(dense, e) for e in elements]
        assert verdicts == [True, False, False]
        assert check_minimality(g) is dense_check_minimality(dense) is True


# The dense bracket recursion takes 4.5 s on matrix_space_example(2)@2 and
# 20 s on gl1_so_vector(4)@4, so those two are checked by the digests pinned
# further down, computed with the dense construction.  The two rational
# pentads pair by a non-symmetric matrix of Fractions and carry a non-trace
# form, so the negative side's bracket with U_1, read off the swapped and
# negated unit table, is checked against the negated dense Phi of the
# pentad itself.
RATIONAL_PENTADS = {"rational_vector": rational_vector_pentad,
                    "rational_matrix_space": rational_matrix_space_pentad}


@pytest.mark.parametrize("spec,degree", [("gl2_trace", 3), ("gl2_standard", 3),
                                         ("gl1_so_vector(3)", 3), ("gl1_so_vector(4)", 3),
                                         ("rational_vector", 2),
                                         ("rational_matrix_space", 2)])
def test_unit_pair_brackets_match_dense(spec, degree):
    p = RATIONAL_PENTADS[spec]() if spec in RATIONAL_PENTADS else resolve(spec).build()
    g, dense = extend(p, degree), _DenseAlgebra(p, degree)
    for a, b in unit_pairs(g):
        got = g.bracket(a, b).coords
        want = dense.bracket(a.degree, a.coords, b.degree, b.coords)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))


def test_tampered_action_fails_both_grading_checks():
    # A central h acting by 2 on U_1 gives M F - F D = 2n F for any map F, so
    # the map comparison can only fail through a wrong action table: bump one
    # off-diagonal entry of the action of b_0 (the support of h) on U_2.
    p = resolve("gl1_so_vector(3)").build()
    g, dense = extend(p, 3), _DenseAlgebra(p, 3)
    h = grading_element(p).element
    assert h.coords[0] and not any(h.coords[1:])
    rows = [list(row) for row in g.action_matrices(2)[0].entries]
    rows[0][1] += 1
    g.positive._columns[2][0] = Matrix(tuple(map(tuple, rows))).transpose().nonzeros
    rows = [list(row) for row in dense.positive.actions[2][0].entries]
    rows[0][1] += 1
    dense.positive.actions[2][0] = Matrix(tuple(map(tuple, rows)))
    assert g.action_matrices(2)[0] == dense.positive.actions[2][0]
    assert check_grading(g, h) is dense_check_grading(dense, h) is False


# sha256 of the unit-pair brackets in unit_pairs order, computed with the
# dense construction above (the one the sparse storage replaced)
UNIT_PAIR_DIGESTS = [
    ("matrix_space_example(2)", 2,
     "8275ae0b255311bd4ef1760758d47a296f8c6946b8142ccf2849b0f01ad7f866"),
    ("gl1_so_vector(4)", 3, "bfee5fa640ce426dbec4f3de2f6703d15f51a5df12ec3510e00df29c4c00fdfe"),
    ("gl1_so_vector(4)", 4, "8a83ff7bc5a7f632c2c86ab74e012035c209f3e1b967d7d2838d0e9a3fe1cda7"),
]


@pytest.mark.parametrize("spec,degree,digest", UNIT_PAIR_DIGESTS,
                         ids=[f"{s}@{k}" for s, k, _ in UNIT_PAIR_DIGESTS])
def test_pinned_unit_pair_brackets(spec, degree, digest):
    assert unit_pair_digest(build(spec, degree)) == digest


class TestWorkCounts:
    """The degree-two brackets and the grading check stay on the sparse rows."""

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = {"apply": 0, "matmul": 0, "evaluate": 0}

        def spy(cls, name, key, counts=lambda *args: True):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[key] += counts(*args)
                return original(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        spy(Matrix, "apply", "apply")
        spy(Matrix, "__matmul__", "matmul")
        # degree 1 evaluates Phi, which every generator pair ends in
        spy(_Half, "evaluate", "evaluate", lambda half, degree, *rest: degree >= 2)
        return calls

    def test_no_dense_products(self, spied):
        import random

        g = build("matrix_space_example(2)", 2)
        h = grading_element(g.pentad).element
        spied.update(apply=0, matmul=0)
        rng = random.Random(3)
        for _ in range(3):
            a, b = (GradedVector(k, tuple(rng.randint(-9, 9) for _ in range(66)))
                    for k in (2, -2))
            g.bracket(a, b)
            g.bracket(b, a)
        assert check_grading(g, h) is True
        assert spied["apply"] == spied["matmul"] == 0

    def test_generator_brackets_hoisted(self, spied):
        # [a, b] for a in U_2 and a dense b in U_-2 brackets b with each
        # generator x_a once: at most m = 12 evaluations of U_-2 on U_1.
        g = build("matrix_space_example(2)", 2)
        b = GradedVector(-2, tuple(range(1, 67)))
        spied["evaluate"] = 0
        g.bracket(GradedVector(2, (1,) * 66), b)
        assert 0 < spied["evaluate"] <= 12

    @pytest.mark.parametrize("spec,degree,most", [("matrix_space_example(2)", 3, 3788),
                                                  ("gl1_so_vector(8)", 4, 4776)])
    def test_forward_pass_fill(self, spec, degree, most, monkeypatch):
        # The forward pass takes the top-degree candidate stack in the
        # engine's own order (descending leading column, ties by ascending
        # length) and keeps at most these nonzeros; in the order the
        # candidates are built it kept 4840 and 8277.
        stacks, real = [], graded.sparse_row_space_basis

        def spy(rows):
            rows = [tuple(row) for row in rows]
            stacks.append(rows)
            return real(rows)

        monkeypatch.setattr(graded, "sparse_row_space_basis", spy)
        build(spec, degree)
        # degrees 2..degree of the positive half, then of the negative half
        assert len(stacks) == 2 * (degree - 1)
        for rows in (stacks[degree - 2], stacks[-1]):
            assert sum(map(len, exact_linalg._forward(rows).values())) <= most


CATALOG_SPECS = [display_name(e) for e in catalog()]


class TestSinglePaths:
    """The negative half reads the pentad's own Phi slices by dual index,
    negated, and each action table reads its coordinates off g's own keys."""

    @pytest.mark.parametrize("spec", CATALOG_SPECS + sorted(RATIONAL_PENTADS))
    def test_negative_units_are_the_mirror_phi(self, spec):
        # Each half's degree-one maps are integers over the pentad's Phi
        # denominator D, keyed i * m + r: divided by D, the positive half's
        # are the pentad's own Phi table, the negative half's the mirror's.
        p = RATIONAL_PENTADS[spec]() if spec in RATIONAL_PENTADS else resolve(spec).build()
        g = extend(p, 1)
        m, d = p.module_dim, p.phi.denominator
        for got, phi in ((g.positive.maps[1], p.phi), (g.negative.maps[1], PhiMap(mirror(p)))):
            want = tuple(tuple((i * m + r, qnorm(Fraction(c, phi.denominator)))
                               for i, row in enumerate(s.nonzeros) for r, c in row)
                         for s in phi.module_slices)
            assert tuple(tuple((j, qnorm(Fraction(x, d))) for j, x in row) for row in got) == want
            assert [[type(c) for _, c in row] for row in got] == [[int] * len(row) for row in want]

    @pytest.mark.parametrize("spec", CATALOG_SPECS + sorted(RATIONAL_PENTADS))
    def test_unit_pairs_of_degree_one_are_phi(self, spec):
        # [x_a, y_r] = Phi(x_a (x) y_r) and [y_r, x_a] = -Phi(x_a (x) y_r),
        # read through the degree-one maps
        p = RATIONAL_PENTADS[spec]() if spec in RATIONAL_PENTADS else resolve(spec).build()
        g = extend(p, 1)
        m = p.module_dim
        for a in range(m):
            for r in range(m):
                x, y = unit_coords(m, a), unit_coords(m, r)
                want = p.phi.apply(x, y)
                for got, expected in ((g.bracket(GradedVector(1, x), GradedVector(-1, y)), want),
                                      (g.bracket(GradedVector(-1, y), GradedVector(1, x)),
                                       tuple(-c for c in want))):
                    assert got == GradedVector(0, expected)
                    assert list(map(type, got.coords)) == list(map(type, expected))

    def test_no_second_pentad(self, monkeypatch):
        p = matrix_space_example(2)
        p.phi
        calls = {"Representation": 0, "PhiMap": 0}

        def spy(cls, name, key):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        spy(Representation, "__post_init__", "Representation")
        spy(PhiMap, "__init__", "PhiMap")
        extend(p, 3)
        assert calls == {"Representation": 0, "PhiMap": 0}

    @pytest.mark.parametrize("spec,degree", [(s, 3) for s in CATALOG_SPECS]
                             + [("gl1_so_vector(4)", 4)])
    def test_integer_tables_and_candidates(self, spec, degree, monkeypatch):
        # Phi's table enters undivided, so every candidate row the echelon
        # sees, the degree-one maps and the bracket tables with U_1 are ints
        rows_seen, real = [], graded.sparse_row_space_basis

        def spy(rows):
            rows = [tuple(row) for row in rows]
            rows_seen.extend(rows)
            return real(rows)

        monkeypatch.setattr(graded, "sparse_row_space_basis", spy)
        g = build(spec, degree)
        assert rows_seen
        assert all(type(x) is int for row in rows_seen for _, x in row)
        for half in (g.positive, g.negative):
            assert all(type(x) is int for f in half.maps[1] for _, x in f)
            for k, table in half.up.items():
                if k:
                    assert all(type(x) is int for row in table for v in row for _, x in v)

    @pytest.mark.parametrize("spec,degree", [(s, 3) for s in CATALOG_SPECS]
                             + [("gl1_so_vector(4)", 4)]
                             + [(s, 2) for s in sorted(RATIONAL_PENTADS)])
    def test_bracket_recursion_stays_in_integers(self, spec, degree, monkeypatch):
        # Every contraction of a table, every intermediate bracket, every term
        # added to a common-denominator sum and the sum itself, every memo
        # entry and every expansion term is integers over a positive int
        # denominator.  The catalog's tables leave no Fraction to clear; the
        # rational fixtures' do, and the contraction clears it at once.
        rational = spec in RATIONAL_PENTADS
        calls, failures = [0], []

        def integral(v, d):
            return type(d) is int and d > 0 and all(type(x) is int for _, x in v)

        def spy(owner, name, check):
            real = getattr(owner, name)

            def wrapper(*args):
                out = real(*args)
                calls[0] += 1
                if not check(out, *args):
                    failures.append((name, args, out))
                return out
            monkeypatch.setattr(owner, name, wrapper)

        spy(graded, "_contract",
            lambda out, table, a, b, d: integral(*out) and (rational or out[1] == d))
        spy(graded.GradedAlgebra, "_sparse_bracket", lambda out, *args: integral(*out))
        spy(graded._Sum, "add", lambda out, acc, f, v, d: type(f) is int and integral(v, d))
        spy(graded._Sum, "result", lambda out, acc: integral(*out))
        g = extend(RATIONAL_PENTADS[spec]() if rational else resolve(spec).build(), degree)
        rng = random.Random(16)
        dims = {k: n for k, n in g.dims.items() if n}
        for j, nj in dims.items():
            for k, nk in dims.items():
                if abs(j + k) <= degree:
                    g.bracket(GradedVector(j, tuple(rng.randint(-9, 9) for _ in range(nj))),
                              GradedVector(k, tuple(rng.randint(-9, 9) for _ in range(nk))))
        assert calls[0] and not failures
        assert all(integral(*v) for v in g._memo.values())
        for half in (g.positive, g.negative):
            for terms, delta in half._expansions.values():
                assert integral(((a, c) for t in terms for c, a, _ in t), delta)

    @pytest.mark.parametrize("spec,degree", [(s, 3) for s in CATALOG_SPECS]
                             + [("gl1_so_vector(4)", 4)])
    def test_action_tables_match_dense_pivot_read(self, spec, degree):
        g = build(spec, degree)
        for half, sign in ((g.positive, 1), (g.negative, -1)):
            for k in range(2, degree + 1):
                if half.dims.get(k, 0):
                    assert g.action_matrices(sign * k) == dense_pivot_action(half, k)


def pentad_of(spec):
    return RATIONAL_PENTADS[spec]() if spec in RATIONAL_PENTADS else resolve(spec).build()


class TestDegreeZeroReadsTheSupport:
    """g's action on U_0 = g is read off the structure table through
    ad_matrix, which builds ad(b_i) only for the nonzero coordinates: the
    grading check builds one per nonzero of h, and a bracket of two
    degree-0 vectors one per nonzero of the first."""

    @pytest.fixture
    def ad_calls(self, monkeypatch):
        """Spies on ad_basis from the call on, so that building the pentad,
        h and the graded algebra is not counted; returns the call list."""
        def install():
            calls, real = [], MatrixLieAlgebra.ad_basis

            def spy(alg, i):
                calls.append(i)
                return real(alg, i)

            monkeypatch.setattr(MatrixLieAlgebra, "ad_basis", spy)
            return calls
        return install

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_grading_builds_one_ad_per_nonzero_of_h(self, spec, ad_calls):
        p = resolve(spec).build()
        h = grading_element(p).element
        g = extend(p, 1)
        calls = ad_calls()
        assert check_grading(g, h) is True
        assert calls == [i for i, c in enumerate(h.coords) if c]

    @pytest.mark.parametrize("spec", CATALOG_SPECS + sorted(RATIONAL_PENTADS))
    def test_unit_bracket_builds_one_ad(self, spec, ad_calls):
        p = pentad_of(spec)
        g = extend(p, 1)
        d = p.algebra.dim
        calls = ad_calls()
        b = tuple(range(1, d + 1))
        got = g.bracket(GradedVector(0, unit_coords(d, d - 1)), GradedVector(0, b))
        assert calls == [d - 1]
        assert got.coords == p.algebra.ad_basis(d - 1).apply(b)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CATALOG_SPECS + sorted(RATIONAL_PENTADS)), st.data())
    def test_brackets_are_ad_matrix_applied(self, spec, data):
        # ints, Fractions and zeros in both arguments; the bracket clears
        # them to integers over one denominator and divides once at the end
        g = degree_zero_algebra(spec)
        alg = g.pentad.algebra
        entry = st.sampled_from([0, 0, 0, 1, -2, 5, Fraction(1, 2), Fraction(-4, 3)])
        a, b = (tuple(data.draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim)))
                for _ in range(2))
        got = g.bracket(GradedVector(0, a), GradedVector(0, b))
        want = alg.ad_matrix(a).apply(b)
        assert got == GradedVector(0, want)
        assert typed(got.coords) == typed(want)


@pytest.mark.parametrize("max_degree", [1, 2])
@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_no_degree_zero_up_table_is_stored(spec, max_degree):
    # [x_a, b_t] = -pi(b_t) x_a is read off columns(1) where degree 2 is
    # built, so the up tables start at degree 1
    g = extend(resolve(spec).build(), max_degree)
    for half in (g.positive, g.negative):
        assert 0 not in half.up
        assert set(half.up) <= set(range(1, max_degree))


@cache
def degree_zero_algebra(spec):
    return extend(pentad_of(spec), 1)


# bracket(a / alpha, b / beta) = bracket(a, b) / (alpha beta): the arguments'
# denominators leave through the one division at the end.  On the rational
# fixtures the brackets are also compared with the dense recursion.
SCALING_CASES = [("gl2_trace", 3), ("matrix_space_example(2)", 2),
                 ("rational_vector", 2), ("rational_matrix_space", 2)]
_SCALING_ALGEBRAS = {}


def scaling_algebras(spec, degree):
    if (spec, degree) not in _SCALING_ALGEBRAS:
        rational = spec in RATIONAL_PENTADS
        p = RATIONAL_PENTADS[spec]() if rational else resolve(spec).build()
        _SCALING_ALGEBRAS[spec, degree] = (extend(p, degree),
                                           _DenseAlgebra(p, degree) if rational else None)
    return _SCALING_ALGEBRAS[spec, degree]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SCALING_CASES), st.data())
def test_bracket_scales_with_argument_denominators(case, data):
    g, dense = scaling_algebras(*case)
    degrees = [k for k, n in g.dims.items() if n]
    j = data.draw(st.sampled_from(degrees))
    k = data.draw(st.sampled_from([k for k in degrees if abs(j + k) <= g.max_degree]))
    a, b = (tuple(data.draw(st.lists(st.integers(-9, 9), min_size=g.dim(d), max_size=g.dim(d))))
            for d in (j, k))
    alpha, beta = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
    a_q = tuple(qnorm(Fraction(x, alpha)) for x in a)
    b_q = tuple(qnorm(Fraction(x, beta)) for x in b)
    got = g.bracket(GradedVector(j, a_q), GradedVector(k, b_q)).coords
    want = tuple(qnorm(Fraction(x) / (alpha * beta))
                 for x in g.bracket(GradedVector(j, a), GradedVector(k, b)).coords)
    assert got == want
    assert list(map(type, got)) == list(map(type, want))
    if dense is not None:
        dense_got = dense.bracket(j, a_q, k, b_q)
        assert got == dense_got
        assert list(map(type, got)) == list(map(type, dense_got))


class TestWittBound:
    """U_1 generates the positive part, so dim U_k is at most the dimension
    W(m, k) of degree k in the free Lie algebra on m = dim U_1 generators;
    the same holds on the negative side."""

    def test_witt_dimension_oracle(self):
        # Moebius values, and the necklace counts W(2, k) and W(3, k)
        assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
        assert [witt_dimension(2, k) for k in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
        assert [witt_dimension(3, k) for k in range(1, 6)] == [3, 3, 8, 18, 48]

    @pytest.mark.parametrize("spec", CATALOG_SPECS + sorted(RATIONAL_PENTADS))
    def test_dims_within_witt_bound(self, spec):
        p = RATIONAL_PENTADS[spec]() if spec in RATIONAL_PENTADS else resolve(spec).build()
        g = extend(p, 3)
        m = p.module_dim
        for k in range(1, 4):
            assert g.dim(k) <= witt_dimension(m, k)
            assert g.dim(-k) <= witt_dimension(m, k)

    @pytest.mark.parametrize("spec,dims", [
        ("gl1_so_vector(3)", (3, 3, 8)),
        ("gl1_so_vector(4)", (4, 6, 20, 60)),
        ("gl1_so_vector(5)", (5, 10, 40)),
        ("matrix_space_example(2)", (12, 66, 572)),
    ])
    def test_free_families_meet_the_bound(self, spec, dims):
        g = build(spec, len(dims))
        m = g.dim(1)
        assert dims == tuple(witt_dimension(m, k) for k in range(1, len(dims) + 1))
        for sign in (1, -1):
            assert tuple(g.dim(sign * k) for k in range(1, len(dims) + 1)) == dims


@pytest.mark.parametrize("spec", ["gl1_scalar", "gl2_standard", "gl2_trace"])
def test_extend_stops_at_the_first_zero_component(spec):
    # Each side of these entries shuts down within four degrees, so an
    # astronomically large bound costs nothing past the first zero component.
    p = resolve(spec).build()
    p.phi
    start = perf_counter()
    g = extend(p, 10 ** 20)
    assert perf_counter() - start < 0.1
    assert g.dim(10 ** 20) == g.dim(-10 ** 20) == 0
    assert max(g.positive.dims) <= 4 and max(g.negative.dims) <= 4
    small = extend(p, 5)
    assert [g.dim(k) for k in range(-5, 6)] == list(small.dims.values())
    with pytest.raises(DegreeError):
        g.dim(10 ** 20 + 1)


# A change of basis of the module gives an isomorphic pentad: pi'(a) =
# Q^-1 pi(a) Q, with the contragredient dual for the pairing t(Q) P Q.  Q is
# a product of a few elementary integer matrices, and the pentad is
# conjugated by Q or by its inverse, which gives Phi's slices a new
# denominator.  matrix_space_example(2) is built to degree 2 only: over 15
# draws of this strategy its degree-3 construction took from 0.1 s to as
# much as 21 s (fill in the forward pass of the candidate echelon, although
# its RREF keeps under 1900 nonzeros of at most 6 bits), while degree 2
# stays under 0.05 s.
CONJUGATED_DEGREES = {"gl1_scalar": 3, "gl2_trace": 3, "gl1_so_vector(3)": 3,
                      "gl1_so_vector(4)": 3, "matrix_space_example(2)": 2}
_REFERENCE = {}


def reference(spec):
    """(pentad, graded dims, regularity outcome) of the catalog entry."""
    if spec not in _REFERENCE:
        p = resolve(spec).build()
        _REFERENCE[spec] = (p, extend(p, CONJUGATED_DEGREES[spec]).dims,
                            decide_regularity(p).outcome)
    return _REFERENCE[spec]


@st.composite
def conjugations(draw):
    spec = draw(st.sampled_from(sorted(CONJUGATED_DEGREES)))
    m = reference(spec)[0].module_dim
    q = Matrix.identity(m)
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        e = [[int(r == s) for s in range(m)] for r in range(m)]
        # scale row i, or add a multiple of row j to row i
        e[i][j] = draw(st.sampled_from([-2, -1, 2, 3]))
        q = q @ Matrix(e)
    return spec, inverse(q) if draw(st.booleans()) else q


@settings(max_examples=10, deadline=None)
@given(conjugations())
def test_conjugated_pentads_keep_dims_and_verdict(case):
    spec, q = case
    p, dims, outcome = reference(spec)
    c = conjugated(p, q)
    assert check_standard(c).ok
    degree = CONJUGATED_DEGREES[spec]
    g = extend(c, degree)
    assert g.dims == dims
    for k in range(1, degree + 1):
        assert g.dim(k) <= witt_dimension(p.module_dim, k)
        assert g.dim(-k) <= witt_dimension(p.module_dim, k)
    verdict = decide_regularity(c)
    assert verdict.outcome == outcome
    assert verify_certificate(c, verdict)
