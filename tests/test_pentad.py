"""Tests for representations, dual modules, pentad axioms, and the Phi-map."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentads.catalog import catalog, resolve
from pentads.exact_linalg import (Matrix, inverse, kronecker, linear_combination,
                                  linear_combination_apply, qnorm, qstr, rank, vec_scale)
from pentads.lie import (
    LieAlgebraError,
    NotClosedError,
    NotIndependentError,
    _invariance_witness,
    build_algebra,
    check_form,
    classical_basis,
    family,
    trace_form,
    unit_coords,
)
from pentads.pentad import (
    DualModule,
    HomomorphismError,
    PentadError,
    PhiMap,
    Representation,
    StandardPentad,
    box_tensor,
    check_standard,
    dual_representation,
    homomorphism_failures,
)

from pentads import exact_linalg, lie, pentad

from oracles import (
    all_pairs_homomorphism_failure,
    conjugated,
    dense_matmul,
    all_pairs_invariance_witness,
    display_name,
    equivariance_failure,
    grid_add,
    mirror,
    pair,
    rational_matrix_space_pentad,
    rational_vector_pentad,
    vec_add,
)


def coordinate_pentad(alg, action=None, form=None):
    """Pentad with identity pairing, contragredient dual, and trace form."""
    rep = Representation(alg, tuple(action) if action else alg.basis)
    return StandardPentad(rep, dual_representation(rep), form or trace_form(alg))


def gl1_scalar(module_dim=1):
    alg = family("gl", 1)
    return coordinate_pentad(alg, [Matrix.identity(module_dim)], Matrix.identity(1))


class TestRepresentation:
    def test_standard_representation_accepted(self):
        rep = Representation(family("sp", 2), family("sp", 2).basis)
        assert rep.module_dim == 4

    def test_homomorphism_enforced_at_construction(self):
        alg = family("so", 3)
        # swapping two action matrices breaks [b_0, b_1] = action commutator
        bad = (alg.basis[1], alg.basis[0], alg.basis[2])
        with pytest.raises(HomomorphismError) as exc:
            Representation(alg, bad)
        assert exc.value.pair == (0, 1)

    def test_failure_on_a_row_both_actions_leave_empty(self):
        # Heisenberg algebra [x, y] = z acting on a line by x, y -> 0 and
        # z -> 1: row 0 of pi(x) and of pi(y) is empty, and only row 0 of
        # pi([x, y]) = pi(z) breaks the axiom, for the pair (0, 1) alone.
        def unit(p, q):
            return Matrix([[1 if (i, j) == (p, q) else 0 for j in range(3)]
                                     for i in range(3)])

        alg = build_algebra(3, [unit(0, 1), unit(1, 2), unit(0, 2)])
        assert alg.structure[0][1] == ((2, 1),)
        action = (Matrix.zeros(1, 1), Matrix.zeros(1, 1), Matrix.identity(1))
        assert list(homomorphism_failures(alg, action)) == [(0, 1)]
        with pytest.raises(HomomorphismError) as exc:
            Representation(alg, action)
        assert exc.value.pair == (0, 1)

    def test_action_count_checked(self):
        with pytest.raises(PentadError):
            Representation(family("gl", 2), (Matrix.identity(2),))

    def test_zero_dimensional_algebra_rejected(self):
        with pytest.raises(PentadError) as exc:
            Representation(build_algebra(1, []), ())
        assert str(exc.value) == "zero-dimensional algebras are not supported here"

    def test_act_is_linear_combination(self):
        # E_00 - 2 E_11 acts as diag(1, -2)
        rep = Representation(family("gl", 2), family("gl", 2).basis)
        assert linear_combination_apply((1, 0, 0, -2), rep.action, (1, 0)) == (1, 0)
        assert linear_combination_apply((1, 0, 0, -2), rep.action, (0, 1)) == (0, -2)

    def test_apply_matches_act(self):
        rep = Representation(family("sp", 2), family("sp", 2).basis)
        coords = (1, 0, -1, 2, 0, 0, 1, 0, 0, 3)
        v = (1, -1, 2, 0)
        assert (linear_combination_apply(coords, rep.action, v)
                == linear_combination(coords, rep.action).apply(v))

    def test_apply_rejects_wrong_lengths(self):
        # gl(1) + so(3) on C^3: d = 4, m = 3; no silent truncation, no IndexError
        rep = resolve("gl1_so_vector(3)").build().rep
        assert (rep.algebra.dim, rep.module_dim) == (4, 3)
        for coords, v in (((1,), (1, 0, 0)), ((1, 0, 0, 0, 5), (1, 0, 0)),
                          ((1, 0, 0, 0), (1, 0, 0, 7)), ((1, 0, 0, 0), (1, 0))):
            with pytest.raises(ValueError):
                linear_combination_apply(coords, rep.action, v)
        with pytest.raises(ValueError):
            linear_combination((1,), rep.action)


class TestDualRepresentation:
    def test_gl1_scalar_dualizes_to_negation(self):
        rep = Representation(family("gl", 1), (Matrix([[1]]),))
        dual = dual_representation(rep)
        assert dual.action == (Matrix([[-1]]),)
        assert dual.pairing == Matrix.identity(1)

    def test_coordinate_dual_is_negated_transpose(self):
        rep = Representation(family("gl", 2), family("gl", 2).basis)
        dual = dual_representation(rep)
        for a, d in zip(rep.action, dual.action):
            assert d == a.transpose().scale(-1)

    @pytest.mark.parametrize("pairing", [
        None,
        Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
    ], ids=["identity", "symplectic"])
    def test_compatibility_holds_by_construction(self, pairing):
        rep = Representation(family("sp", 2), family("sp", 2).basis)
        dual = dual_representation(rep, pairing)
        p = dual.pairing
        for a, d in zip(rep.action, dual.action):
            assert (a.transpose() @ p + p @ d).is_zero()

    def test_singular_pairing_rejected(self):
        rep = Representation(family("gl", 2), family("gl", 2).basis)
        with pytest.raises(ValueError):
            dual_representation(rep, Matrix.zeros(2, 2))

    def test_pairing_shape_rejected(self):
        with pytest.raises(PentadError) as exc:
            DualModule((Matrix([[-1]]),), Matrix([[1, 0]]))
        assert str(exc.value) == "pairing matrix must be square"
        with pytest.raises(PentadError) as exc:
            dual_representation(gl1_scalar().rep, Matrix.identity(2))
        assert str(exc.value) == "pairing size must match the module dimension"

    def test_dual_dimension_must_match_module(self):
        rep = gl1_scalar().rep
        with pytest.raises(PentadError) as exc:
            StandardPentad(rep, DualModule((Matrix.identity(2),), Matrix.identity(2)),
                           Matrix.identity(1))
        assert str(exc.value) == "dual dimension must equal the module dimension"


class TestCheckStandard:
    def test_gl1_scalar_pentad_is_valid(self):
        report = check_standard(gl1_scalar())
        assert report.ok
        assert report.failures == ()
        assert any("unique" in n for n in report.notes)

    def test_classical_coordinate_pentads_are_valid(self):
        for alg in (family("gl", 2), family("sp", 2)):
            assert check_standard(coordinate_pentad(alg)).ok

    def test_zero_form_reports_degeneracy(self):
        alg = family("gl", 2)
        rep = Representation(alg, alg.basis)
        p = StandardPentad(rep, dual_representation(rep), Matrix.zeros(4, 4))
        report = check_standard(p)
        assert not report.ok
        assert [f.axiom for f in report.failures] == ["form_nondegenerate"]
        assert "radical" in report.failures[0].detail

    def test_asymmetric_form_reported(self):
        alg = family("gl", 1)
        rep = Representation(alg, (Matrix.identity(1),))
        gram = Matrix([[1]])
        p = StandardPentad(rep, dual_representation(rep), gram)
        assert check_standard(p).ok  # 1x1 cannot be asymmetric; sanity anchor

        alg2 = family("gl", 2)
        rep2 = Representation(alg2, alg2.basis)
        p2 = StandardPentad(rep2, dual_representation(rep2), Matrix(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        axioms = {f.axiom for f in check_standard(p2).failures}
        assert "form_symmetric" in axioms

    def test_corrupted_dual_sign_reported_with_witness(self):
        alg = family("sp", 2)
        rep = Representation(alg, alg.basis)
        dual = dual_representation(rep)
        bad = DualModule((dual.action[0].scale(-1),) + dual.action[1:], dual.pairing)
        report = check_standard(StandardPentad(rep, bad, trace_form(alg)))
        assert not report.ok
        assert any(f.axiom == "dual_compatibility" and f.indices == (0,)
                   for f in report.failures)

    def test_mismatched_sizes_rejected(self):
        alg = family("gl", 2)
        rep = Representation(alg, alg.basis)
        with pytest.raises(PentadError):
            StandardPentad(rep, DualModule(rep.action, Matrix.identity(3)), trace_form(alg))

    def test_wrong_size_form_rejected(self):
        alg = family("gl", 2)
        rep = Representation(alg, alg.basis)
        for gram in (Matrix.identity(3), Matrix.zeros(4, 3)):
            with pytest.raises(PentadError, match="^form size must match the algebra dimension$"):
                StandardPentad(rep, dual_representation(rep), gram)

    def test_record_is_its_three_pieces(self):
        p = resolve("gl1_scalar").build()
        assert StandardPentad._fields == ("rep", "dual", "form")
        assert p.algebra is p.rep.algebra
        assert type(p.form) is Matrix


class TestPhiMap:
    def test_gl1_scalar_is_multiplication(self):
        p = gl1_scalar()
        assert p.phi.apply((3,), (5,)) == (15,)
        assert p.phi.apply((Fraction(1, 2),), (4,)) == (2,)

    def test_zero_in_either_slot(self):
        p = coordinate_pentad(family("gl", 2))
        assert p.phi.apply((0, 0), (1, 7)) == (0, 0, 0, 0)
        assert p.phi.apply((1, 7), (0, 0)) == (0, 0, 0, 0)

    @pytest.mark.parametrize("alg", [family("gl", 2), family("sp", 2)],
                             ids=["gl2", "sp2"])
    def test_defining_equation_exhaustive_over_bases(self, alg):
        p = coordinate_pentad(alg)
        solver = PhiMap(p)
        d, m = alg.dim, p.module_dim
        for j in range(m):
            v = unit_coords(m, j)
            for k in range(m):
                phi = unit_coords(m, k)
                g = solver.apply(v, phi)
                for i in range(d):
                    lhs = p.form.apply(g)[i]
                    rhs = pair(p, p.rep.action[i].apply(v), phi)
                    assert lhs == rhs, (i, j, k)

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.integers(-9, 9)] * 2), st.tuples(*[st.integers(-9, 9)] * 2),
           st.tuples(*[st.integers(-9, 9)] * 2), st.integers(-9, 9))
    def test_bilinearity(self, v, w, phi, c):
        p = coordinate_pentad(family("gl", 2))
        solver = PhiMap(p)
        lhs = solver.apply(vec_add(v, vec_scale(c, w)), phi)
        rhs = vec_add(solver.apply(v, phi), vec_scale(c, solver.apply(w, phi)))
        assert lhs == rhs
        lhs2 = solver.apply(phi, vec_add(v, vec_scale(c, w)))
        rhs2 = vec_add(solver.apply(phi, v), vec_scale(c, solver.apply(phi, w)))
        assert lhs2 == rhs2

    def test_degenerate_form_rejected(self):
        alg = family("gl", 2)
        rep = Representation(alg, alg.basis)
        p = StandardPentad(rep, dual_representation(rep), Matrix.zeros(4, 4))
        with pytest.raises(PentadError):
            PhiMap(p)


class TestEquivariance:
    def test_gl1_scalar(self):
        assert equivariance_failure(gl1_scalar(), trials=5) is None

    @pytest.mark.parametrize("alg", [family("gl", 2), family("sp", 2)],
                             ids=["gl2", "sp2"])
    def test_coordinate_pentads(self, alg):
        assert equivariance_failure(coordinate_pentad(alg), trials=10, seed=3) is None

    def test_corrupted_dual_fails_with_witness(self):
        alg = family("gl", 2)
        rep = Representation(alg, alg.basis)
        dual = dual_representation(rep)
        bad = DualModule(
            (dual.action[0], dual.action[1].scale(-1)) + dual.action[2:],
            dual.pairing)
        witness = equivariance_failure(
            StandardPentad(rep, bad, trace_form(alg)), trials=5)
        assert "basis element" in witness

    def test_deterministic_given_seed(self):
        p = coordinate_pentad(family("sp", 2))
        assert equivariance_failure(p, 5, seed=9) == equivariance_failure(p, 5, seed=9)


class TestBoxTensor:
    def test_matrix_module_action_formula(self):
        # module is 4x3 matrices flattened row-major; the combined action of
        # (a, A, B) must be a.M + A.M - M.B on random integer M
        sp2, so3 = family("sp", 2), family("so", 3)
        rep = box_tensor([classical_basis("gl", 1), classical_basis("sp", 2),
                          classical_basis("so", 3)])
        assert rep.module_dim == 12
        assert rep.algebra.dim == 14

        rng = random.Random(5)
        m = Matrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)])
        flat = m.flat()

        def unflatten(v):
            return Matrix(tuple(v[i * 3:(i + 1) * 3] for i in range(4)))

        # gl1 generator: scalar 1
        assert unflatten(rep.action[0].apply(flat)) == m
        # each sp(2) generator A: left multiplication on the 4x3 block
        for idx, a in enumerate(sp2.basis):
            got = unflatten(rep.action[1 + idx].apply(flat))
            assert got == a @ m
        # each so(3) generator B acts by -(right multiplication)
        for idx, b in enumerate(so3.basis):
            got = unflatten(rep.action[11 + idx].apply(flat))
            assert got == (m @ b).scale(-1)

    @pytest.mark.parametrize("position", [0, 1])
    def test_block_that_does_not_close_is_rejected(self, position):
        # so(3) with its first matrix made symmetric spans no subalgebra;
        # the sum is built once, wherever the broken block sits
        size, basis = classical_basis("so", 3)
        symmetric = Matrix.from_nonzeros(
            [tuple((c, abs(x)) for c, x in row) for row in basis[0].nonzeros], size)
        blocks = [classical_basis("gl", 1)]
        blocks.insert(position, (size, [symmetric] + basis[1:]))
        with pytest.raises(NotClosedError):
            box_tensor(blocks)

    def test_block_with_a_repeated_matrix_is_rejected(self):
        size, basis = classical_basis("so", 3)
        with pytest.raises(NotIndependentError):
            box_tensor([classical_basis("gl", 1), (size, basis + basis[:1])])

    def test_block_matrix_of_the_wrong_size_is_rejected(self):
        with pytest.raises(LieAlgebraError, match="basis matrix has the wrong ambient size"):
            box_tensor([(2, [Matrix.identity(3)])])

    def test_empty_factor_list_rejected(self):
        with pytest.raises(PentadError):
            box_tensor([])


class TestMirror:
    @pytest.mark.parametrize("alg", [family("gl", 2), family("sp", 2)],
                             ids=["gl2", "sp2"])
    def test_mirror_is_standard(self, alg):
        assert check_standard(mirror(coordinate_pentad(alg))).ok

    def test_mirror_phi_is_negated_swap(self):
        p = coordinate_pentad(family("sp", 2))
        solver = PhiMap(p)
        mirror_solver = PhiMap(mirror(p))
        rng = random.Random(2)
        for _ in range(10):
            v = tuple(rng.randint(-9, 9) for _ in range(4))
            phi = tuple(rng.randint(-9, 9) for _ in range(4))
            assert mirror_solver.apply(phi, v) == vec_scale(-1, solver.apply(v, phi))

    def test_mirror_involution(self):
        p = coordinate_pentad(family("gl", 2))
        q = mirror(mirror(p))
        assert q.rep.action == p.rep.action
        assert q.dual.action == p.dual.action
        assert q.dual.pairing == p.dual.pairing

    def test_mirror_pairing_transposes(self):
        pairing = Matrix(
            [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
        alg = family("sp", 2)
        rep = Representation(alg, alg.basis)
        p = StandardPentad(rep, dual_representation(rep, pairing), trace_form(alg))
        q = mirror(p)
        v, phi = (1, 2, 3, 4), (5, 6, 7, 8)
        assert pair(q, phi, v) == pair(p, v, phi)


# Every catalog entry at its default parameters, and the two rational
# fixtures, whose pairing and form are neither identity nor trace.
SMALL_PENTADS = [e.build() for e in catalog()] + [
    rational_vector_pentad(), rational_matrix_space_pentad()]
SMALL_PENTAD_IDS = [display_name(e) for e in catalog()] + [
    "rational_vector", "rational_matrix_space"]
bumps = st.one_of(st.integers(min_value=-3, max_value=3),
                  st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))


def bumped(m, r, c, delta):
    """m with delta added to entry (r, c)."""
    grid = [list(row) for row in m.entries]
    grid[r][c] += delta
    return Matrix(tuple(tuple(qnorm(x) for x in row) for row in grid))


@st.composite
def bumped_actions(draw):
    """A small pentad's algebra and its action with one entry of one
    matrix changed (by zero, now and then)."""
    p = draw(st.sampled_from(SMALL_PENTADS))
    action = list(p.rep.action)
    i = draw(st.integers(min_value=0, max_value=len(action) - 1))
    r, c = (draw(st.integers(min_value=0, max_value=p.module_dim - 1)) for _ in range(2))
    action[i] = bumped(action[i], r, c, draw(bumps))
    return p.algebra, tuple(action)


@st.composite
def bumped_grams(draw):
    """A small pentad's algebra and its form's Gram matrix with one entry,
    or one symmetric pair of entries, changed."""
    p = draw(st.sampled_from(SMALL_PENTADS))
    d = p.algebra.dim
    i, j = (draw(st.integers(min_value=0, max_value=d - 1)) for _ in range(2))
    delta = draw(bumps)
    gram = bumped(p.form, i, j, delta)
    if i != j and draw(st.booleans()):
        gram = bumped(gram, j, i, delta)
    return p.algebra, gram


class TestGeneratingSetChecks:
    """The homomorphism and invariance checks scan the pairs that involve
    alg.generators and read the other pairs only after a failure; the
    all-pairs scans of oracles.py are the reference."""

    @given(bumped_actions())
    @settings(max_examples=150, deadline=None)
    def test_homomorphism_check_matches_all_pairs(self, case):
        alg, action = case
        expected = all_pairs_homomorphism_failure(alg, action)
        gens = alg.generators
        every = list(homomorphism_failures(alg, action))
        assert (every[0] if every else None) == expected
        on_generators = list(homomorphism_failures(alg, action, gens))
        assert on_generators == [(i, j) for i, j in every if i in gens or j in gens]
        assert (not on_generators) == (expected is None)
        if expected is None:
            Representation(alg, action)
        else:
            with pytest.raises(HomomorphismError) as exc:
                Representation(alg, action)
            assert exc.value.pair == expected

    @given(bumped_grams())
    @settings(max_examples=150, deadline=None)
    def test_invariance_check_matches_all_pairs(self, case):
        alg, gram = case
        expected = all_pairs_invariance_witness(alg, gram)
        assert _invariance_witness(alg, gram, gram.transpose()) == expected
        assert check_form(alg, gram).invariance_witness == expected

    @pytest.mark.parametrize("p", SMALL_PENTADS, ids=SMALL_PENTAD_IDS)
    def test_unbumped_pentads_pass_both(self, p):
        assert all_pairs_homomorphism_failure(p.algebra, p.rep.action) is None
        assert all_pairs_invariance_witness(p.algebra, p.form) is None
        assert check_form(p.algebra, p.form).invariant


# --- Pair enumeration of the homomorphism check -------------------------------

def dense_conjugation(m):
    """Q = I + J (J all ones), with no zero entry in Q or its inverse."""
    return Matrix(tuple(tuple(2 if r == c else 1 for c in range(m)) for r in range(m)))


@st.composite
def bumped_conjugated_actions(draw):
    """A small pentad conjugated by a dense Q, so that every pair of action
    matrices shares an index, with one entry of one action matrix bumped."""
    p = draw(st.sampled_from(SMALL_PENTADS[:4]))
    c = conjugated(p, dense_conjugation(p.module_dim))
    action = list(c.rep.action)
    i = draw(st.integers(min_value=0, max_value=len(action) - 1))
    r, col = (draw(st.integers(min_value=0, max_value=p.module_dim - 1)) for _ in range(2))
    action[i] = bumped(action[i], r, col, draw(bumps))
    return c.algebra, tuple(action)


@st.composite
def partly_zero_actions(draw):
    """A small pentad's algebra with a drawn subset of its action matrices
    set to zero: a zero matrix shares no index with any other, so only a
    nonempty bracket brings such a pair to the check."""
    p = draw(st.sampled_from(SMALL_PENTADS))
    zero = Matrix.zeros(p.module_dim, p.module_dim)
    keep = draw(st.lists(st.booleans(), min_size=p.algebra.dim, max_size=p.algebra.dim))
    return p.algebra, tuple(a if k else zero for a, k in zip(p.rep.action, keep))


class TestHomomorphismPairEnumeration:
    """homomorphism_failures visits the pairs whose actions share an index
    or whose bracket is nonempty; the all-pairs scan of oracles.py names the
    same first failing pair."""

    @given(partly_zero_actions())
    @settings(max_examples=60, deadline=None)
    def test_partly_zero_actions_name_the_reference_pair(self, case):
        alg, action = case
        expected = all_pairs_homomorphism_failure(alg, action)
        every = list(homomorphism_failures(alg, action))
        assert (every[0] if every else None) == expected
        if expected is not None:
            with pytest.raises(HomomorphismError) as exc:
                Representation(alg, action)
            assert exc.value.pair == expected

    @given(bumped_conjugated_actions())
    @settings(max_examples=60, deadline=None)
    def test_conjugated_dense_actions_name_the_reference_pair(self, case):
        alg, action = case
        expected = all_pairs_homomorphism_failure(alg, action)
        if expected is None:
            Representation(alg, action)
        else:
            with pytest.raises(HomomorphismError) as exc:
                Representation(alg, action)
            assert exc.value.pair == expected

    def test_block_sum_fails_only_on_its_last_pair(self):
        # the last block is the diagonal 2 x 2 matrices, an abelian algebra,
        # acting by E_00 and E_01: only the last pair breaks the bracket
        diag = (2, [Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]])])
        alg = lie.direct_sum([classical_basis("so", 3), classical_basis("gl", 1),
                              classical_basis("sl", 2), diag])
        action = list(alg.basis)
        action[-1] = Matrix.from_nonzeros(((),) * 6 + (((7, 1),), ()), 8)
        last = (alg.dim - 2, alg.dim - 1)
        assert all_pairs_homomorphism_failure(alg, action) == last
        assert list(homomorphism_failures(alg, action)) == [last]
        with pytest.raises(HomomorphismError) as exc:
            Representation(alg, tuple(action))
        assert exc.value.pair == last


class TestPairWorkCounts:
    """How many pairs build_algebra and the homomorphism check bracket on
    two catalog entries, one flat commutator per pair; a return to all
    d(d-1)/2 pairs fails here with no timing involved."""

    # spec: (d, built pairs, pairs of the generator scan, pairs of the full scan)
    COUNTS = {"gl1_so_vector(12)": (67, 660, 231, 726),
              "matrix_space_example(3)": (25, 102, 159, 189)}

    @pytest.mark.parametrize("spec", sorted(COUNTS))
    def test_pair_counts(self, spec, monkeypatch):
        counts = {}

        def counting(home, key):
            real = home.commutator

            def counted(a, b, n):
                counts[key] = counts.get(key, 0) + 1
                return real(a, b, n)
            monkeypatch.setattr(home, "commutator", counted)

        counting(lie, "build")
        counting(pentad, "check")
        p = resolve(spec).build()
        built, on_generators = counts["build"], counts["check"]
        counts.clear()
        assert list(homomorphism_failures(p.algebra, p.rep.action)) == []
        d = p.algebra.dim
        assert (d, built, on_generators, counts["check"]) == self.COUNTS[spec]
        assert counts["check"] < d * (d - 1) // 2


# --- The pairing applied by its nonzeros ---------------------------------------

PAIRED_REPS = [Representation(family("sp", 2), family("sp", 2).basis),
               Representation(family("gl", 2), family("gl", 2).basis),
               resolve("gl1_so_vector(3)").build().rep]
pairing_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def paired_reps(draw):
    """A representation and a random rational pairing, invertible or not,
    monomial or not."""
    rep = draw(st.sampled_from(PAIRED_REPS))
    m = rep.module_dim
    pairing = Matrix(tuple(tuple(draw(pairing_entries) for _ in range(m)) for _ in range(m)))
    return rep, pairing


def dense_neg(m):
    return Matrix(tuple(tuple(-x for x in row) for row in m.entries))


class TestPairingByNonzeros:
    """dual_representation and the dual_compatibility check against the
    product formulas, formed with dense_matmul."""

    @given(paired_reps())
    @settings(max_examples=80, deadline=None)
    def test_dual_is_the_product_formula(self, case):
        rep, pairing = case
        if rank(pairing) < rep.module_dim:
            with pytest.raises(PentadError, match="singular"):
                dual_representation(rep, pairing)
            return
        p_inv = inverse(pairing)
        dual = dual_representation(rep, pairing)
        for a, d in zip(rep.action, dual.action):
            assert d == dense_neg(dense_matmul(dense_matmul(p_inv, a.transpose()), pairing))

    @given(paired_reps(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_compatibility_failures_are_the_product_formula(self, case, data):
        rep, pairing = case
        m = rep.module_dim
        duals = tuple(
            Matrix(tuple(tuple(data.draw(pairing_entries) for _ in range(m)) for _ in range(m)))
            if data.draw(st.booleans()) else a.transpose().scale(-1) for a in rep.action)
        p = StandardPentad(rep, DualModule(duals, pairing), trace_form(rep.algebra))
        expected = []
        for i, (a, d) in enumerate(zip(rep.action, duals)):
            resid = grid_add(dense_matmul(a.transpose(), pairing), dense_matmul(pairing, d))
            cells = [(r, c, x) for r, row in enumerate(resid) for c, x in enumerate(row) if x]
            if cells:
                r, c, x = cells[0]
                expected.append(((i,), f"t(pi(b_{i})).P + P.pi*(b_{i}) has entry "
                                       f"{qstr(qnorm(x))} at ({r}, {c})"))
        got = [(f.indices, f.detail) for f in check_standard(p).failures
               if f.axiom == "dual_compatibility"]
        assert got == expected


class TestProductWorkCounts:
    """Each product is formed in the order of its formula, so the dual and
    its compatibility check transpose each action once, and a product with
    a monomial factor on the left builds nothing for an empty result row; a
    return to the pairing-on-the-right transposes fails here with no timing
    involved."""

    @staticmethod
    def count_transposes(monkeypatch):
        real, seen = Matrix.transpose, []

        def counting(self):
            seen.append(self)
            return real(self)

        monkeypatch.setattr(Matrix, "transpose", counting)
        return seen

    def test_dual_representation_transposes_each_action_once(self, monkeypatch):
        rep = resolve("gl1_so_vector(12)").build().rep
        seen = self.count_transposes(monkeypatch)
        dual_representation(rep)
        # inverse reads its solved columns as one transpose; every other
        # transpose is of an action matrix, each once
        assert len(seen) == rep.algebra.dim + 1
        assert [id(m) for m in seen if any(m is a for a in rep.action)] == list(
            map(id, rep.action))

    def test_check_standard_transposes_each_action_once(self, monkeypatch):
        p = resolve("gl1_so_vector(12)").build()
        real_check_form = pentad.check_form

        def outside_the_form(alg, g):  # check_form's own transposes are not counted
            start = len(seen)
            report = real_check_form(alg, g)
            del seen[start:]
            return report

        seen = self.count_transposes(monkeypatch)
        monkeypatch.setattr(pentad, "check_form", outside_the_form)
        assert check_standard(p).ok
        assert [id(m) for m in seen] == list(map(id, p.rep.action))

    def test_identity_on_the_left_builds_only_nonempty_rows(self, monkeypatch):
        x = Matrix.from_nonzeros([()] * 40 + [((3, 2), (7, -1))] + [()] * 50
                                 + [((0, Fraction(1, 2)),)] + [()] * 4, 8)
        real, rows = exact_linalg.sparse_row, []

        def counting(acc):
            rows.append(acc)
            return real(acc)

        monkeypatch.setattr(exact_linalg, "sparse_row", counting)
        assert Matrix.identity(96) @ x == x
        assert len(rows) == 2
