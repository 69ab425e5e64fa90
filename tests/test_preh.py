"""Generic points, sl2 partners, and the regularity decision procedure."""

import importlib
from functools import cache, cached_property
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentads import cli, exact_linalg, lie, pentad, preh
from pentads.catalog import _defining, catalog, resolve
from pentads.exact_linalg import Matrix, inverse, is_zero_vec, kernel_basis, qof, qstr, rank
from pentads.lie import family, trace_form, unit_coords
from pentads.pentad import (
    DualModule,
    GradingElement,
    Representation,
    StandardPentad,
    check_standard,
    dual_representation,
    grading_element,
)
from pentads.preh import (
    GradingElementError,
    ScalarCenterError,
    Sl2Triple,
    ad_on_dual,
    decide_regularity,
    find_generic,
    is_generic,
    module_partner_map,
    sl2_partner,
    verify_certificate,
)
from pentads.serialize import SerializationError, verdict_from_json, verdict_to_json

from oracles import (castling_pair, conjugated, display_name, mirror,
                     rational_matrix_space_pentad, rational_vector_pentad)

# Known generic points of the matrix-space entries (block-identity 2n x 3
# matrices, flattened row-major) and the unique partner of the first one.
GENERIC_X2 = (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
PARTNER_Y2 = (0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0)
GENERIC_X3 = (1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)


def scalar_pentad(n):
    """gl(1) acting by the identity on an n-dimensional module."""
    alg = family("gl", 1)
    rep = Representation(alg, (Matrix.identity(n),))
    return StandardPentad(rep, dual_representation(rep), trace_form(alg))


def h0_of(p):
    return grading_element(p).element


class TestAdOnDual:
    def test_scalar_pentad(self):
        p = resolve("gl1_scalar").build()
        assert ad_on_dual(p, (1,)) == Matrix([[1]])
        assert ad_on_dual(p, (0,)) == Matrix.zeros(1, 1)

    def test_shape(self):
        p = resolve("gl1_so_vector(3)").build()
        assert ad_on_dual(p, (1, 2, 3)).shape() == (4, 3)

    def test_block_identity_has_full_rank(self):
        p = resolve("matrix_space_example(2)").build()
        assert rank(ad_on_dual(p, GENERIC_X2)) == 12

    def test_linearity_in_x(self):
        p = resolve("gl2_trace").build()
        a = ad_on_dual(p, (1, 0)) + ad_on_dual(p, (0, 1))
        assert a == ad_on_dual(p, (1, 1))


class TestIsGeneric:
    def test_scalar_pentad(self):
        p = resolve("gl1_scalar").build()
        assert is_generic(p, (1,)) is True
        assert is_generic(p, (0,)) is False

    def test_block_identity_is_generic(self):
        p = resolve("matrix_space_example(2)").build()
        assert is_generic(p, GENERIC_X2) is True
        assert is_generic(p, unit_coords(12, 0)) is False

    def test_block_identity_generic_n3(self):
        p = resolve("matrix_space_example(3)").build()
        assert is_generic(p, GENERIC_X3) is True


class TestFindGeneric:
    def test_scalar_pentad_first_unit(self):
        res = find_generic(resolve("gl1_scalar").build())
        assert res.found
        assert res.x == (1,)
        assert (res.rank, res.needed, res.attempts_used) == (1, 1, 1)

    def test_matrix_space_entry(self):
        p = resolve("matrix_space_example(2)").build()
        res = find_generic(p)
        assert res.found
        assert is_generic(p, res.x)

    def test_dimension_obstruction(self):
        res = find_generic(scalar_pentad(5))
        assert not res.found
        assert res.attempts_used == 0
        assert "exceeds algebra dimension" in res.reason

    def test_zero_action_exhausts_budget(self):
        alg = family("sl", 2)
        rep = Representation(alg, (Matrix.zeros(1, 1),) * 3)
        p = StandardPentad(rep, dual_representation(rep), trace_form(alg))
        res = find_generic(p, attempts=5)
        assert not res.found
        assert res.attempts_used == 5
        assert res.rank == 0
        assert "best rank 0 of 1" in res.reason

    def test_deterministic_per_seed(self):
        p = resolve("matrix_space_example(2)").build()
        assert find_generic(p, seed=3) == find_generic(p, seed=3)


class TestSl2Partner:
    def test_scalar_pentad(self):
        p = resolve("gl1_scalar").build()
        res = sl2_partner(p, h0_of(p), (1,))
        assert res.status == "unique"
        assert res.y == (2,)
        assert res.triple == Sl2Triple(p, (2,), (2,), (1,))

    def test_matrix_space_partner_is_pinned(self):
        p = resolve("matrix_space_example(2)").build()
        res = sl2_partner(p, h0_of(p), GENERIC_X2)
        assert res.status == "unique"
        assert res.y == PARTNER_Y2
        reshaped = Matrix(tuple(PARTNER_Y2[3 * i:3 * i + 3] for i in range(4)))
        assert rank(reshaped) == 2

    def test_zero_point_has_no_partner(self):
        p = resolve("matrix_space_example(2)").build()
        assert sl2_partner(p, h0_of(p), (0,) * 12).status == "none"

    def test_gl2_entries_have_no_partner(self):
        for spec in ("gl2_standard", "gl2_trace"):
            p = resolve(spec).build()
            x = find_generic(p).x
            assert sl2_partner(p, h0_of(p), x).status == "none"

    def test_affine_classification(self):
        # gl(1) on a plane: every nonzero x solves, never uniquely
        p = scalar_pentad(2)
        res = sl2_partner(p, h0_of(p), (1, 1))
        assert res.status == "affine"
        assert res.y == (2, 0)
        assert res.kernel == ((-1, 1),)
        assert res.triple is None

    def test_raw_vector_h_is_rejected(self):
        # only the grading element makes the eigenvalue relations automatic
        p = resolve("gl1_scalar").build()
        with pytest.raises(TypeError):
            sl2_partner(p, (2,), (1,))

    def test_uniqueness_matches_genericity(self):
        # solvable systems split unique/affine exactly along genericity
        for spec in ("gl1_scalar", "gl2_standard", "gl1_so_vector(3)",
                     "matrix_space_example(2)"):
            p = resolve(spec).build()
            h = h0_of(p)
            samples = [find_generic(p).x, unit_coords(p.module_dim, 0)]
            for x in samples:
                if x is None:
                    continue
                res = sl2_partner(p, h, x)
                if res.status == "unique":
                    assert is_generic(p, x)
                if res.status == "affine":
                    assert not is_generic(p, x)
                if res.status != "none":
                    assert (res.status == "unique") == is_generic(p, x)


class TestSl2Triple:
    def test_relations_enforced(self):
        p = resolve("gl1_scalar").build()
        Sl2Triple(p, (2,), (2,), (1,))
        with pytest.raises(ValueError, match=r"\[x, y\] = h"):
            Sl2Triple(p, (3,), (2,), (1,))
        with pytest.raises(ValueError, match=r"\[h, x\] = 2x"):
            Sl2Triple(p, (2,), (4,), (1,))
        # gl(2) on C^2: h = 2 E_00 sends the dual vector e_1 to 0, not to -2 e_1
        with pytest.raises(ValueError, match=r"^sl2 relation \[h, y\] = -2y fails$"):
            Sl2Triple(resolve("gl2_trace").build(), y=(0, 1), h=(2, 0, 0, 0), x=(1, 0))


class TestModulePartner:
    def test_scalar_pentad(self):
        p = resolve("gl1_scalar").build()
        # y = 2 completes x = 1, and xi -> Phi(xi (x) y) is injective
        assert sl2_partner(p, h0_of(p), (1,)).y == (2,)
        assert kernel_basis(module_partner_map(p, (2,))) == []
        assert kernel_basis(module_partner_map(p, (0,))) == [(1,)]

    def test_pinned_partner_has_kernel(self):
        p = resolve("matrix_space_example(2)").build()
        assert sl2_partner(p, h0_of(p), GENERIC_X2).y == PARTNER_Y2
        assert kernel_basis(module_partner_map(p, PARTNER_Y2))
        # and the obstruction is a genuine kernel vector
        ker = kernel_basis(module_partner_map(p, PARTNER_Y2))
        assert ker
        assert is_zero_vec(module_partner_map(p, PARTNER_Y2).apply(ker[0]))

    def test_regular_entry_passes(self):
        p = resolve("gl1_so_vector(3)").build()
        v = decide_regularity(p)
        assert v.outcome == "Regular"
        assert sl2_partner(p, h0_of(p), v.x).y == v.y
        assert kernel_basis(module_partner_map(p, v.y)) == []


class TestRelativeInvariantIndicator:
    """A partner exists, sl2_partner(...).status != "none", exactly when a
    nontrivial relative invariant does."""

    def test_matrix_space_entry(self):
        p = resolve("matrix_space_example(2)").build()
        h = h0_of(p)
        assert sl2_partner(p, h, GENERIC_X2).status != "none"
        assert sl2_partner(p, h, (0,) * 12).status == "none"

    def test_scalar_pentad(self):
        p = resolve("gl1_scalar").build()
        assert sl2_partner(p, h0_of(p), (1,)).status != "none"


class TestDecideRegularity:
    def test_scalar_entry_regular(self):
        v = decide_regularity(resolve("gl1_scalar").build())
        assert v.outcome == "Regular"
        assert (v.h0, v.x, v.y) == ((2,), (1,), (2,))
        assert v.ranks == {"dual_partner_injectivity": (1, 1),
                           "module_partner_injectivity": (1, 1)}
        assert v.witness is None

    def test_so_vector_regular(self):
        v = decide_regularity(resolve("gl1_so_vector(3)").build())
        assert v.outcome == "Regular"
        assert v.x == (1, 0, 0)
        assert v.y == (2, 0, 0)
        assert all(got == need for got, need in v.ranks.values())

    @pytest.mark.parametrize("spec", ["gl2_standard", "gl2_trace"])
    def test_gl2_entries_not_regular(self, spec):
        v = decide_regularity(resolve(spec).build())
        assert v.outcome == "NotRegular"
        assert v.witness == {"clause": "no_dual_partner"}

    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_space_not_regular(self, n):
        p = resolve(f"matrix_space_example({n})").build()
        v = decide_regularity(p)
        assert v.outcome == "NotRegular"
        assert v.witness["clause"] == "module_partner_kernel"
        w = v.witness["vector"]
        assert not is_zero_vec(w)
        assert is_zero_vec(module_partner_map(p, v.y).apply(w))

    def test_inconclusive_when_module_outgrows_algebra(self):
        v = decide_regularity(scalar_pentad(5))
        assert v.outcome == "Inconclusive"
        assert v.x is None and v.y is None
        assert "exceeds algebra dimension" in v.witness["reason"]

    def test_center_hypothesis_enforced(self):
        alg = family("sl", 2)
        rep = Representation(alg, alg.basis)
        p = StandardPentad(rep, dual_representation(rep), trace_form(alg))
        with pytest.raises(ScalarCenterError):
            decide_regularity(p)

    def test_broken_dual_has_no_grading_element(self):
        p = resolve("gl1_scalar").build()
        broken = StandardPentad(p.rep, DualModule((Matrix([[5]]),), p.dual.pairing), p.form)
        with pytest.raises(GradingElementError, match="absent"):
            decide_regularity(broken)

    @pytest.mark.parametrize("spec", [
        "gl1_scalar", "gl2_standard", "gl2_trace", "gl1_so_vector(3)",
        "matrix_space_example(2)",
    ])
    def test_outcome_is_seed_invariant(self, spec):
        p = resolve(spec).build()
        outcomes = {decide_regularity(p, seed=s).outcome for s in range(5)}
        assert len(outcomes) == 1

    @pytest.mark.parametrize("spec", [
        "gl1_scalar", "gl2_standard", "gl1_so_vector(3)",
        "matrix_space_example(2)",
    ])
    def test_certificates_replay(self, spec):
        p = resolve(spec).build()
        v = decide_regularity(p)
        assert verify_certificate(p, v) is True

    def test_inconclusive_replays(self):
        p = scalar_pentad(5)
        assert verify_certificate(p, decide_regularity(p)) is True

    def test_tampered_certificate_fails(self):
        p = resolve("gl1_scalar").build()
        v = decide_regularity(p)
        assert verify_certificate(p, v._replace(y=(3,))) is False
        assert verify_certificate(p, v._replace(outcome="NotRegular")) is False
        assert verify_certificate(p, v._replace(h0=(4,))) is False
        assert verify_certificate(p, v._replace(h0=None)) is False
        assert verify_certificate(p, v._replace(outcome="Maybe")) is False


def _bump(vec, k=0, by=1):
    """A certificate vector (JSON strings) with entry k moved by `by`."""
    out = list(vec)
    out[k] = qstr(qof(out[k]) + by)
    return out


def _doubled(vec):
    return [qstr(2 * qof(x)) for x in vec]


# Each tamper changes one field of a certificate's JSON, the form the CLI
# replays.  Regular certificate of gl1_so_vector(3): H0 (2,0,0,0), X (1,0,0),
# Y (2,0,0), no witness.  NotRegular certificate of matrix_space_example(2):
# clause module_partner_kernel with a kernel vector of N(Y).
REGULAR_TAMPERS = {
    "H0 entry": lambda c: {"H0": _bump(c["H0"])},
    "H0 off-center": lambda c: {"H0": _bump(c["H0"], k=1)},
    "X doubled": lambda c: {"X": _doubled(c["X"])},
    "X entry": lambda c: {"X": _bump(c["X"], k=1)},
    "X zero": lambda c: {"X": ["0"] * len(c["X"])},
    "X short": lambda c: {"X": c["X"][:-1]},
    "Y doubled": lambda c: {"Y": _doubled(c["Y"])},
    "Y entry": lambda c: {"Y": _bump(c["Y"], k=2)},
    "witness vector": lambda c: {"witness": {"clause": "module_partner_kernel",
                                             "vector": ["1"] + ["0"] * (len(c["X"]) - 1)}},
    "clause": lambda c: {"witness": {"clause": "no_dual_partner"}},
    "outcome NotRegular": lambda c: {"outcome": "NotRegular"},
    "outcome Inconclusive": lambda c: {"outcome": "Inconclusive"},
    "outcome unknown": lambda c: {"outcome": "regular"},
}
# tampers that verdict_from_json itself refuses, before any replay
REJECTED_AT_LOAD = {"outcome unknown"}
NOT_REGULAR_TAMPERS = {
    "H0 entry": lambda c: {"H0": _bump(c["H0"])},
    "H0 off-center": lambda c: {"H0": _bump(c["H0"], k=3)},
    "X doubled": lambda c: {"X": _doubled(c["X"])},
    "X entry": lambda c: {"X": _bump(c["X"], k=4)},
    "Y doubled": lambda c: {"Y": _doubled(c["Y"])},
    "Y entry": lambda c: {"Y": _bump(c["Y"], k=0)},
    "witness vector entry": lambda c: {"witness": {**c["witness"],
                                                   "vector": _bump(c["witness"]["vector"], k=-1)}},
    "witness vector zero": lambda c: {"witness": {**c["witness"],
                                                  "vector": ["0"] * len(c["witness"]["vector"])}},
    "witness vector dropped": lambda c: {"witness": {"clause": c["witness"]["clause"]}},
    "clause no_dual_partner": lambda c: {"witness": {**c["witness"], "clause": "no_dual_partner"}},
    "clause unknown": lambda c: {"witness": {**c["witness"], "clause": "kernel"}},
    "outcome Regular": lambda c: {"outcome": "Regular"},
    "outcome Inconclusive": lambda c: {"outcome": "Inconclusive"},
    "ranks empty": lambda c: {"ranks": {}},
    "ranks other label": lambda c: {"ranks": {"x": [1, 2]}},
    "ranks short": lambda c: {"ranks": {"dual_partner_injectivity": [11, 12]}},
    "ranks extra label": lambda c: {"ranks": {**c["ranks"],
                                              "module_partner_injectivity": [12, 12]}},
}
REGULAR_TAMPERS.update({
    "ranks empty": lambda c: {"ranks": {}},
    "ranks wrong": lambda c: {"ranks": {"dual_partner_injectivity": [0, 99]}},
    "ranks module dropped": lambda c: {"ranks": {"dual_partner_injectivity": [3, 3]}},
    "ranks module short": lambda c: {"ranks": {**c["ranks"],
                                               "module_partner_injectivity": [2, 3]}},
})


def _witness(key, value):
    return lambda c: {"witness": {**c["witness"], key: value}}


# Inconclusive certificates: the module outgrows the algebra (scalar_pentad(5),
# no sample drawn), or a two-sample search misses (matrix_space_example(2)).
INCONCLUSIVE_TAMPERS = {
    "ranks set": lambda c: {"ranks": {"dual_partner_injectivity": [0, 5]}},
    "X set": lambda c: {"X": ["1"] * len(c["H0"])},
    "Y set": lambda c: {"Y": ["1"] * len(c["H0"])},
    "witness reason": _witness("reason", "no generic point"),
    "witness best_rank": lambda c: _witness("best_rank", c["witness"]["best_rank"] + 1)(c),
    "witness needed": lambda c: _witness("needed", c["witness"]["needed"] - 1)(c),
    "witness attempts": lambda c: _witness("attempts", c["witness"]["attempts"] + 1)(c),
    "witness dropped": lambda c: {"witness": None},
}


@cache
def certificate(spec):
    """(pentad, certificate JSON) of the seed-0 verdict, built once."""
    p = resolve(spec).build()
    return p, verdict_to_json(decide_regularity(p), p)


@cache
def inconclusive_certificate(kind):
    p, attempts = {"gap": (scalar_pentad(5), 64),
                   "missed": (resolve("matrix_space_example(2)").build(), 0)}[kind]
    return p, verdict_to_json(decide_regularity(p, attempts=attempts), p)


# (factors, m, outcome): the castling pair of gl(1) + factors + sl(m), with
# the outcome both sides share.  gl(1) + sp(2) + so(3) on C^4 (x) C^3 is
# matrix_space_example(2) with the identity pairing; it and its transform on
# C^132 fail at the module partner's kernel, the others at the dual partner.
CASTLING_PAIRS = [
    ([("so", 3)], 1, "Regular"), ([("so", 4)], 1, "Regular"), ([("so", 5)], 2, "Regular"),
    ([("so", 6)], 2, "Regular"), ([("so", 7)], 3, "Regular"),
    ([("sl", 3)], 1, "NotRegular"), ([("sl", 4)], 1, "NotRegular"),
    ([("sl", 5)], 1, "NotRegular"), ([("sl", 5)], 2, "NotRegular"),
    ([("sp", 2)], 1, "NotRegular"), ([("sp", 3)], 1, "NotRegular"), ([("sp", 3)], 2, "Regular"),
    ([("sp", 2), ("so", 3)], 1, "NotRegular"),
]


class TestCastling:
    """Castling transforms keep the generic isotropy, so the verdicts of the
    two sides of a pair agree although their sizes differ."""

    @pytest.mark.parametrize(
        "factors, m, outcome", CASTLING_PAIRS,
        ids=["+".join(f"{k}{n}" for k, n in fs) + f"-m{m}" for fs, m, _ in CASTLING_PAIRS])
    def test_pair_agrees(self, factors, m, outcome):
        sides = castling_pair(factors, m)
        assert sides[0].module_dim < sides[1].module_dim
        verdicts = [decide_regularity(p) for p in sides]
        assert [v.outcome for v in verdicts] == [outcome, outcome]
        assert all(verify_certificate(p, v) for p, v in zip(sides, verdicts))
        assert len({p.algebra.dim - p.module_dim for p in sides}) == 1


def castling_side(factors, m, side):
    return lambda: castling_pair(factors, m)[side]


# name -> pentad factory: the catalog defaults, two larger entries, both sides of
# every castling pair and both pentads with a rational pairing
MIRRORED = {
    **{spec: (lambda spec=spec: resolve(spec).build())
       for spec in [display_name(e) for e in catalog()]
       + ["gl1_so_vector(5)", "matrix_space_example(3)"]},
    **{"+".join(f"{k}{n}" for k, n in fs) + f"-m{m}-side{side}": castling_side(fs, m, side)
       for fs, m, _ in CASTLING_PAIRS for side in (0, 1)},
    "rational_vector": rational_vector_pentad,
    "rational_matrix_space": rational_matrix_space_pentad,
}


class TestMirror:
    """Swapping the module and its dual (oracles.mirror, whose
    Representation runs the homomorphism check on the dual action) keeps
    the regularity verdict, and both certificates replay."""

    def test_cases(self):
        assert len(MIRRORED) == 35

    @pytest.mark.parametrize("name", list(MIRRORED))
    def test_mirror_agrees(self, name):
        sides = [MIRRORED[name]()]
        sides.append(mirror(sides[0]))
        verdicts = [decide_regularity(p, attempts=200) for p in sides]
        assert verdicts[0].outcome == verdicts[1].outcome
        assert all(verify_certificate(p, v) for p, v in zip(sides, verdicts))


# The simple classical factors by the size of their defining module: sl(n)
# and so(n) on n dimensions, sp(n) on 2n (so(2) is abelian and would give a
# second center dimension)
FACTOR_SIZES = {**{("sl", n): n for n in range(2, 25)}, **{("so", n): n for n in range(3, 25)},
                **{("sp", n): 2 * n for n in range(1, 13)}}


@st.composite
def elementary_products(draw, m):
    """A product of a few elementary integer m x m matrices, or its inverse."""
    q = Matrix.identity(m)
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        e = [[int(r == s) for s in range(m)] for r in range(m)]
        # scale row i, or add a multiple of row j to row i
        e[i][j] = draw(st.sampled_from([-2, -1, 2, 3]))
        q = q @ Matrix(e)
    return inverse(q) if draw(st.booleans()) else q


@st.composite
def drawn_pentads(draw):
    """_defining over gl(1) and one or two classical factors, with a module
    of dimension at most 24, under a drawn pairing, and an integer change q
    of the module basis.  Most drawn pairings are not symmetric: under the
    identity pairing, a decision that confuses its two legs still agrees
    with the mirror."""
    first = draw(st.sampled_from(sorted(FACTOR_SIZES)))
    factors = [first]
    fits = sorted(f for f, n in FACTOR_SIZES.items() if n * FACTOR_SIZES[first] <= 24)
    if fits and draw(st.booleans()):
        factors.append(draw(st.sampled_from(fits)))
    m = prod(FACTOR_SIZES[f] for f in factors)
    pairing = draw(elementary_products(m))
    return _defining([("gl", 1)] + factors, pairing), draw(elementary_products(m))


@settings(max_examples=40, deadline=None)
@given(drawn_pentads())
def test_drawn_pentads_keep_the_verdict_under_mirror_and_basis_change(case):
    # The module-side leg of p is the dual-side leg of mirror(p), and a
    # change of module basis moves no orbit, so all three verdicts agree.
    p, q = case
    sides = [p, mirror(p), conjugated(p, q)]
    verdicts = [decide_regularity(side, attempts=200) for side in sides]
    assert len({v.outcome for v in verdicts}) == 1
    assert all(verify_certificate(side, v) for side, v in zip(sides, verdicts))


class TestCertificateTampering:
    @pytest.mark.parametrize("spec, outcome", [
        ("gl1_so_vector(3)", "Regular"), ("matrix_space_example(2)", "NotRegular")])
    def test_untampered_certificate_verifies(self, spec, outcome):
        p, cert = certificate(spec)
        assert cert["outcome"] == outcome
        assert verify_certificate(p, verdict_from_json(cert)) is True

    @pytest.mark.parametrize("kind", ["gap", "missed"])
    def test_untampered_inconclusive_certificate_verifies(self, kind):
        p, cert = inconclusive_certificate(kind)
        assert cert["outcome"] == "Inconclusive"
        assert verify_certificate(p, verdict_from_json(cert)) is True

    @pytest.mark.parametrize("tamper", sorted(INCONCLUSIVE_TAMPERS))
    @pytest.mark.parametrize("kind", ["gap", "missed"])
    def test_inconclusive_certificate(self, kind, tamper):
        p, cert = inconclusive_certificate(kind)
        tampered = {**cert, **INCONCLUSIVE_TAMPERS[tamper](cert)}
        assert tampered != cert
        assert verify_certificate(p, verdict_from_json(tampered)) is False

    @pytest.mark.parametrize("tamper", sorted(REGULAR_TAMPERS))
    def test_regular_certificate(self, tamper):
        p, cert = certificate("gl1_so_vector(3)")
        tampered = {**cert, **REGULAR_TAMPERS[tamper](cert)}
        assert tampered != cert
        if tamper in REJECTED_AT_LOAD:
            with pytest.raises(SerializationError):
                verdict_from_json(tampered)
        else:
            assert verify_certificate(p, verdict_from_json(tampered)) is False

    @pytest.mark.parametrize("tamper", sorted(NOT_REGULAR_TAMPERS))
    def test_not_regular_certificate(self, tamper):
        p, cert = certificate("matrix_space_example(2)")
        tampered = {**cert, **NOT_REGULAR_TAMPERS[tamper](cert)}
        assert tampered != cert
        assert verify_certificate(p, verdict_from_json(tampered)) is False

    def test_regular_replay_proves_genericity_by_the_partner_solve(self, monkeypatch):
        # A unique partner solve against ad_on_dual(x) already makes x
        # generic, so the Regular replay runs no is_generic, and a forged
        # Regular verdict at x = 0 fails at that solve.
        calls = []

        def spy(*args):
            calls.append(args)
            return is_generic(*args)
        monkeypatch.setattr(preh, "is_generic", spy)
        p = resolve("gl1_so_vector(4)").build()
        v = decide_regularity(p)
        assert v.outcome == "Regular"
        assert verify_certificate(p, v) is True
        assert verify_certificate(p, v._replace(x=(0,) * p.module_dim)) is False
        assert calls == []


class TestEngineWorkCounts:
    def test_one_echelon_per_solve(self, monkeypatch):
        p = resolve("matrix_space_example(3)").build()
        engine, real_solve = exact_linalg.sparse_row_space_basis, exact_linalg.solve
        echelons, per_solve = [], []

        def counting_engine(rows):
            echelons.append(1)
            return engine(rows)

        def counting_solve(a, b):
            before = len(echelons)
            res = real_solve(a, b)
            per_solve.append(len(echelons) - before)
            return res

        monkeypatch.setattr(exact_linalg, "sparse_row_space_basis", counting_engine)
        monkeypatch.setattr(preh, "solve", counting_solve)
        monkeypatch.setattr(pentad, "solve", counting_solve)
        v = decide_regularity(p)
        assert verify_certificate(p, v) is True
        # two grading-element solves (decide and verify) and the dual partner
        assert per_solve == [1, 1, 1]

    def test_grading_element_reads_no_single_entries(self, monkeypatch):
        p = resolve("matrix_space_example(3)").build()
        real_entry, reads = Matrix.entry, []

        def counting_entry(self, i, j):
            reads.append((i, j))
            return real_entry(self, i, j)

        monkeypatch.setattr(Matrix, "entry", counting_entry)
        assert grading_element(p).status == "found"
        assert reads == []

    def test_inverse_builds_no_dense_grid(self, monkeypatch):
        # 2I + C for the cyclic shift C: invertible (its eigenvalues are
        # 2 + w for the n-th roots of unity w), with 2n nonzeros and an
        # inverse of n^2.  inverse must read the solved columns by their
        # nonzeros, neither through solve_multi nor through a dense vector.
        n = 240
        m = Matrix.from_nonzeros(
            (tuple(sorted([(i, 2), ((i + 1) % n, 1)])) for i in range(n)), n)

        def refuse(*args):
            raise AssertionError("inverse built a dense grid")

        monkeypatch.setattr(exact_linalg, "solve_multi", refuse)
        monkeypatch.setattr(exact_linalg, "dense_vec", refuse)
        inv = exact_linalg.inverse(m)
        assert m @ inv == inv @ m == Matrix.identity(n)


def count_calls(monkeypatch, home, name):
    """Record each call of home.name, patched wherever a pentads module
    binds it."""
    original, calls = getattr(home, name), []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in ("exact_linalg", "lie", "pentad", "graded", "preh", "serialize", "catalog"):
        mod = importlib.import_module(f"pentads.{module}")
        if mod.__dict__.get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestPipelineWorkCounts:
    def test_each_check_and_trace_gram_once(self, monkeypatch):
        # Catalog build, check_standard, decide_regularity and the certificate
        # of matrix_space_example(3).  One algebra is built from matrices:
        # the sum of gl(1), sp(3) and so(3), from the factors' bases, with no
        # factor built on its own.  The homomorphism axiom is checked once,
        # on the box tensor product, and check_standard does not repeat it;
        # the 25 x 25 trace Gram matrix of the sum is computed once (one
        # sparse product), shared by the catalog's form and the
        # certificate's "trace" descriptor.
        builds = count_calls(monkeypatch, lie, "build_algebra")
        hom_checks = count_calls(monkeypatch, pentad, "homomorphism_failures")
        grams = []
        gram = lie.MatrixLieAlgebra.trace_gram

        def counting_gram(alg):
            grams.append(alg)
            return gram.func(alg)

        counted = cached_property(counting_gram)
        counted.__set_name__(lie.MatrixLieAlgebra, "trace_gram")
        monkeypatch.setattr(lie.MatrixLieAlgebra, "trace_gram", counted)
        p = resolve("matrix_space_example(3)").build()
        assert check_standard(p).ok
        v = decide_regularity(p)
        assert verdict_to_json(v, p)["form"] == "trace"
        assert len(builds) == 1
        assert len(hom_checks) == 1
        assert len(grams) == 1 and grams[0] is p.algebra

    @pytest.mark.parametrize("spec", ["gl1_scalar", "gl2_standard", "gl2_trace",
                                      "gl1_so_vector(3)", "matrix_space_example(2)"])
    def test_one_homomorphism_check_per_catalog_build(self, monkeypatch, spec):
        # each entry's algebra is built once, as the sum, and its module is
        # checked once, on the box tensor product
        builds = count_calls(monkeypatch, lie, "build_algebra")
        hom_checks = count_calls(monkeypatch, pentad, "homomorphism_failures")
        resolve(spec).build()
        assert (len(builds), len(hom_checks)) == (1, 1)

    def test_center_once_per_certified_run(self, monkeypatch, capsys):
        # regularity --verify-certificate reads the center three times (the
        # scalar-center check, and the grading-element solves of the decision
        # and of its replay); the algebra computes it once.
        built = []
        center = lie.MatrixLieAlgebra.center

        def counting_center(alg):
            built.append(alg)
            return center.func(alg)

        counted = cached_property(counting_center)
        counted.__set_name__(lie.MatrixLieAlgebra, "center")
        monkeypatch.setattr(lie.MatrixLieAlgebra, "center", counted)
        code = cli.main(["regularity", "--verify-certificate",
                         "--example", "matrix_space_example(3)"])
        assert code == 0
        assert '"verified": true' in capsys.readouterr().out
        assert len(built) == 1


class TestSymmetryInvariance:
    def test_module_symmetries_preserve_classification(self):
        # transvection on the symplectic side, rotation on the orthogonal
        # side; both fix genericity and the partner classification
        p = resolve("matrix_space_example(2)").build()
        h = h0_of(p)
        j = Matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                              [-1, 0, 0, 0], [0, -1, 0, 0]])
        t = Matrix([[1, 0, -1, 0], [0, 1, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]])
        assert t.transpose() @ j @ t == j
        r = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert r.transpose() @ r == Matrix.identity(3)

        def transform(flat):
            mat = Matrix(tuple(flat[3 * i:3 * i + 3] for i in range(4)))
            return (t @ mat @ r).flat()

        for x in (GENERIC_X2, unit_coords(12, 0)):
            moved = transform(x)
            assert is_generic(p, moved) == is_generic(p, x)
            assert (sl2_partner(p, h, moved).status
                    == sl2_partner(p, h, x).status)
