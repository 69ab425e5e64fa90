"""Tests for the built-in pentad catalog."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from pentads import cli
from pentads.catalog import (
    CatalogError,
    catalog,
    gl1_scalar,
    gl1_so_vector,
    gl2_standard,
    gl2_trace,
    matrix_space_example,
    resolve,
)
from pentads.exact_linalg import Matrix
from pentads.graded import extend
from pentads.lie import standard_symplectic_form
from pentads.pentad import PhiMap, check_standard
from pentads.preh import ad_on_dual, module_partner_map
from pentads.serialize import dumps, pentad_to_json

from oracles import assert_canonical, coords_of, equivariance_failure, pair


def closed_form_phi(pentad, n, v_flat, u_flat):
    """Independent evaluation of the matrix-space Phi-map.

    For 2n x 3 matrices v, u the image decomposes blockwise as the scalar
    Tr(t(v).J.u), the symplectic part -(v.t(u) + u.t(v)).J/2, and the
    orthogonal part (t(v).J.u + t(u).J.v)/2.  Assembled as an ambient
    block-diagonal matrix and converted back to algebra coordinates.
    """
    rows = 2 * n
    v = Matrix(tuple(v_flat[i * 3:(i + 1) * 3] for i in range(rows)))
    u = Matrix(tuple(u_flat[i * 3:(i + 1) * 3] for i in range(rows)))
    j = standard_symplectic_form(n)
    scalar = (v.transpose() @ j @ u).trace()
    sp_part = ((v @ u.transpose() + u @ v.transpose()) @ j).scale(Fraction(-1, 2))
    so_part = (v.transpose() @ j @ u + u.transpose() @ j @ v).scale(Fraction(1, 2))
    size = 1 + rows + 3
    ambient = [[0] * size for _ in range(size)]
    ambient[0][0] = scalar
    for i in range(rows):
        for k in range(rows):
            ambient[1 + i][1 + k] = sp_part.entry(i, k)
    for i in range(3):
        for k in range(3):
            ambient[1 + rows + i][1 + rows + k] = so_part.entry(i, k)
    coords = coords_of(pentad.algebra, Matrix(tuple(tuple(r) for r in ambient)))
    assert coords is not None, "closed form fell outside the algebra"
    return coords


class TestEntries:
    def test_catalog_names(self):
        assert [e.name for e in catalog()] == [
            "gl1_scalar", "gl2_standard", "gl2_trace",
            "gl1_so_vector", "matrix_space_example"]

    def test_every_entry_is_standard(self):
        for entry in catalog():
            report = check_standard(entry.build())
            assert report.ok, (entry.name, report.failures)

    def test_algebra_is_the_representations(self):
        # the pentad holds its algebra once, through its representation
        for entry in catalog():
            p = entry.build()
            assert p.algebra is p.rep.algebra

    def test_builders_are_deterministic(self):
        for entry in catalog():
            a, b = entry.build(), entry.build()
            assert a.rep.action == b.rep.action
            assert a.form == b.form
            assert a.dual.pairing == b.dual.pairing

    def test_dimensions(self):
        p = matrix_space_example(2)
        assert p.algebra.dim == 14
        assert p.module_dim == 12
        q = gl1_so_vector(3)
        assert q.algebra.dim == 4
        assert q.module_dim == 3
        assert gl1_scalar().algebra.dim == 1

    def test_matrix_space_dimensions_scale_with_n(self):
        p = matrix_space_example(3)
        assert p.algebra.dim == 1 + 21 + 3
        assert p.module_dim == 18

    def test_gl2_standard_gram_is_pinned(self):
        third = Fraction(1, 3)
        assert gl2_standard().form == Matrix([
            [Fraction(2, 3), 0, 0, -third],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-third, 0, 0, Fraction(2, 3)],
        ])

    def test_gl2_trace_gram_is_plain(self):
        assert gl2_trace().form == Matrix([
            [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

    def test_parameter_floors(self):
        with pytest.raises(CatalogError):
            gl1_so_vector(1)
        with pytest.raises(CatalogError):
            matrix_space_example(1)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_every_stored_matrix_is_canonical(name):
    # == and hash read the stored nonzeros, so every producer must store
    # them in the one canonical form.
    p = resolve(name).build()
    rng = random.Random(0)
    x, y = (tuple(rng.randint(-9, 9) for _ in range(p.module_dim)) for _ in range(2))
    mats = [*p.algebra.basis, *p.rep.action, *p.dual.action, p.dual.pairing, p.form,
            p.algebra.trace_gram, ad_on_dual(p, x), module_partner_map(p, y),
            *p.phi.module_slices, *p.phi.dual_slices]
    g = extend(p, 3)
    for sign in (1, -1):
        half = g.positive if sign > 0 else g.negative
        for k in range(1, 4):
            # the stored action columns, read as the transposed actions
            mats += half.transposed(k)
            mats += g.action_matrices(sign * k)
            # a stored map is one flat row, in the same canonical form
            for f in half.maps.get(k, ()):
                keys = [j for j, _ in f]
                assert keys == sorted(set(keys)) and all(x for _, x in f)
            if k >= 2:
                mats += g.component_maps(sign * k)
    for m in mats:
        assert_canonical(m)


# sha256 of dumps(pentad_to_json(...)) of each built entry: the catalog's
# bytes themselves, not only the certificates computed from them.
PINNED_PENTADS = {
    "gl1_scalar": "b56f8cdf259e0585b339e9172c9da432250358db25e8dbd355b73bc2a0f0c447",
    "gl2_standard": "468f5cbbdbf814d7b7a076e7e1addaafade3f7745d07c1d7cabd64708b096c81",
    "gl2_trace": "dda6e4af9ef8ced8c95f74d9e5665c6aaa0d8fc5a6e04dc75afda0b30f490c9c",
    "gl1_so_vector": "d68b840e5bbbcd4a437108666ad942bb167c5dc63df64be983000ccfcdc52d8f",
    "matrix_space_example": "4dfdec1d2d805472840e598a00a1764faf3b412b984c8c1bf9755598a32e6ed6",
    "gl1_so_vector(4)": "3491318feaf69ae33be89ed86f1079a1cbefd26228d13747282ed262dff4d3f8",
    "gl1_so_vector(5)": "57490ca354ce7344a67b706726e2781c3a33438acf6465dde7e602f23ddde861",
    "gl1_so_vector(6)": "bfa3cae707e899e3445fcda853f5cdbc0eefe5c8d1dd16ca5ef4a896ad3b8206",
    "gl1_so_vector(7)": "90b5beb97b161cbf44bf1807337547c22c0331111f385c8707737d5dc8328642",
    "gl1_so_vector(8)": "08df82a02c6b45287d859552e14c6f923cc31873c7ee5fadb796fc691896a681",
    "gl1_so_vector(9)": "020a3c67e50b41c49fc41bcd58ff97e780f226cc4b81ae9c1a6c892481b0b920",
    "gl1_so_vector(10)": "04f9242e9f67c55210e9acb19d658f74cfe76ac3ff69315c2df28e71832a2946",
    "gl1_so_vector(11)": "619fab3407b1f0e40ba163bd0b5678d9a25895e92ff3344e0f07dab3d3fe6d98",
    "gl1_so_vector(12)": "1d6942343501d7be9e66ad07d8bb450b51ba92743b4b0998fbb331257107c48a",
    "matrix_space_example(2)": "4dfdec1d2d805472840e598a00a1764faf3b412b984c8c1bf9755598a32e6ed6",
    "matrix_space_example(3)": "a65d76f9b95971f4f79168227e9fd673c5e818932c73a27bd47f231ef34455ba",
    "matrix_space_example(4)": "3eb029280fef3fa2195de6e79beeebc13c5dc6eb238461633c62a92a46e22367",
    "matrix_space_example(5)": "2cbf8001dc03c6185799d9ee71cd5f91132411feb5eb8c7910fe5fd06fc204bf",
}


@pytest.mark.parametrize("spec", sorted(PINNED_PENTADS))
def test_pentad_bytes(spec):
    text = dumps(pentad_to_json(resolve(spec).build()))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PENTADS[spec]


def test_every_entry_is_pinned_at_its_defaults():
    assert {e.name for e in catalog()} <= set(PINNED_PENTADS)


class TestMatrixSpacePhi:
    def test_solver_matches_closed_form(self):
        p = matrix_space_example(2)
        solver = PhiMap(p)
        rng = random.Random(17)
        for _ in range(5):
            v = tuple(rng.randint(-9, 9) for _ in range(12))
            u = tuple(rng.randint(-9, 9) for _ in range(12))
            assert solver.apply(v, u) == closed_form_phi(p, 2, v, u)

    def test_closed_form_at_n3(self):
        p = matrix_space_example(3)
        solver = PhiMap(p)
        rng = random.Random(23)
        v = tuple(rng.randint(-9, 9) for _ in range(18))
        u = tuple(rng.randint(-9, 9) for _ in range(18))
        assert solver.apply(v, u) == closed_form_phi(p, 3, v, u)

    def test_equivariance(self):
        assert equivariance_failure(matrix_space_example(2), trials=5, seed=1) is None

    def test_pairing_is_trace_against_symplectic_twist(self):
        p = matrix_space_example(2)
        rng = random.Random(3)
        v = tuple(rng.randint(-9, 9) for _ in range(12))
        u = tuple(rng.randint(-9, 9) for _ in range(12))
        vm = Matrix(tuple(v[i * 3:(i + 1) * 3] for i in range(4)))
        um = Matrix(tuple(u[i * 3:(i + 1) * 3] for i in range(4)))
        j = standard_symplectic_form(2)
        assert pair(p, v, u) == (vm.transpose() @ j @ um).trace()


class TestResolve:
    def test_bare_name_uses_defaults(self):
        entry = resolve("gl1_so_vector")
        assert (entry.name, entry.parameters) == ("gl1_so_vector", (3,))

    def test_explicit_parameter(self):
        entry = resolve("gl1_so_vector(5)")
        assert entry.parameters == (5,)
        assert entry.build().algebra.dim == 1 + 10

    def test_alternate_spelling_resolves_to_matrix_space(self):
        entry = resolve("paper_example(2)")
        assert entry.name == "matrix_space_example"
        assert entry.parameters == (2,)

    def test_whitespace_tolerated(self):
        assert resolve(" gl1_scalar ").name == "gl1_scalar"
        assert resolve("gl1_so_vector( 4 )").parameters == (4,)

    def test_unknown_name_rejected(self):
        with pytest.raises(CatalogError):
            resolve("e8_adjoint")

    def test_malformed_reference_rejected(self):
        for bad in ("gl1_scalar(", "gl1_so_vector(a)", "gl1_so_vector(3)(4)"):
            with pytest.raises(CatalogError):
                resolve(bad)

    @pytest.mark.parametrize("spec", ["gl1_so_vector(1_2)", "gl1_so_vector(\u0664)",
                                      "matrix_space_example(\uff12)", "gl1_so_vector(4, 1_0)"])
    def test_only_ascii_digits_are_parameters(self, capsys, spec):
        # int() reads "1_2" as 12 and the Arabic-Indic or fullwidth digits
        # as 4 and 2; the parameter grammar is ASCII, like a pentad file's
        message = f"parameters of {spec.split('(')[0]!r} must be integers"
        with pytest.raises(CatalogError) as exc:
            resolve(spec)
        assert str(exc.value) == message
        assert cli.main(["check", "--example", spec]) == 1
        assert json.loads(capsys.readouterr().out) == {"error": message}

    def test_parameters_keep_their_sign(self, capsys):
        assert resolve("gl1_so_vector(+4)").parameters == (4,)
        assert resolve("gl1_so_vector(-5)").parameters == (-5,)
        assert cli.main(["check", "--example", "gl1_so_vector(-5)"]) == 1
        assert json.loads(capsys.readouterr().out) == {"error": "gl1_so_vector needs m >= 2"}

    @pytest.mark.parametrize("spec, message", [
        ("gl1_so_vector(99999999999999999999)", "gl1_so_vector needs m <= 96"),
        ("gl1_so_vector(97)", "gl1_so_vector needs m <= 96"),
        ("matrix_space_example(99999999999999999999)", "matrix_space_example needs n <= 32"),
        ("matrix_space_example(33)", "matrix_space_example needs n <= 32"),
    ])
    def test_parameters_above_the_bound_fail_fast(self, capsys, spec, message):
        # an unbounded parameter used to start building so(m) or sp(n) and
        # run until killed; the bound is checked before anything is built
        start = time.perf_counter()
        with pytest.raises(CatalogError) as exc:
            resolve(spec).build()
        assert str(exc.value) == message
        assert cli.main(["check", "--example", spec]) == 1
        assert json.loads(capsys.readouterr().out) == {"error": message}
        assert time.perf_counter() - start < 1

    def test_extra_parameters_rejected(self):
        with pytest.raises(CatalogError):
            resolve("gl1_scalar(2)")
