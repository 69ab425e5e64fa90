"""Acceptance suite: seven timed end-to-end checks.

Each test prints its own summary line (visible under `pytest -s`); every
comparison is exact equality, with no tolerance anywhere.  The time limits
are generous single-core bounds; blowing one is a real regression.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pentads import cli
from pentads.catalog import catalog, resolve
from pentads.exact_linalg import Matrix, is_zero_vec, linear_combination_apply, rank, vec_scale
from pentads.graded import GradedVector, check_grading, check_minimality, extend, grading_element
from pentads.lie import standard_symplectic_form, unit_coords
from pentads.pentad import PhiMap, random_int_vector
from pentads.preh import (
    decide_regularity,
    is_generic,
    sl2_partner,
)

from oracles import coords_of, equivariance_failure, pair, vec_add

# Known generic point of matrix_space_example(2) (block-identity 4 x 3
# matrix, flattened row-major) and its unique sl2 partner.
GENERIC_X = (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
PARTNER_Y = (0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0)


@contextmanager
def criterion(number: int, limit: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number}: {'PASS' if elapsed < limit else 'FAIL'} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def closed_form_phi(pentad, n, v_flat, u_flat):
    """Blockwise evaluation of the matrix-space bracket, independent of the
    solver: scalar Tr(t(v).J.u), symplectic -(v.t(u)+u.t(v)).J/2, orthogonal
    (t(v).J.u + t(u).J.v)/2, reassembled into algebra coordinates."""
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


def test_criterion_1_matrix_space_certificate(capsys):
    with criterion(1, 10.0):
        code, doc = run_cli(capsys, "regularity", "--example", "paper_example(2)")
        assert code == 0
        assert doc["outcome"] == "NotRegular"
        assert doc["H0"] == ["2"] + ["0"] * 13
        assert doc["ranks"]["dual_partner_injectivity"] == [12, 12]

        p = resolve("paper_example(2)").build()
        v = decide_regularity(p)
        assert v.outcome == "NotRegular"
        assert v.h0 == (2,) + (0,) * 13
        assert v.ranks["dual_partner_injectivity"] == (12, 12)
        assert is_generic(p, v.x)

        h0 = grading_element(p).element
        partner = sl2_partner(p, h0, v.x)
        assert partner.status == "unique"
        assert partner.y == v.y

        assert v.witness["clause"] == "module_partner_kernel"
        w = v.witness["vector"]
        assert not is_zero_vec(w)
        assert p.phi.apply(w, v.y) == (0,) * 14

        partner_matrix = Matrix(tuple(PARTNER_Y[i * 3:(i + 1) * 3] for i in range(4)))
        assert rank(partner_matrix) == 2


def test_criterion_2_closed_form_agreement():
    with criterion(2, 5.0):
        p = resolve("matrix_space_example(2)").build()
        solver = PhiMap(p)
        rng = random.Random(2026)
        for _ in range(25):
            v = random_int_vector(rng, 12)
            u = random_int_vector(rng, 12)
            assert solver.apply(v, u) == closed_form_phi(p, 2, v, u)


def test_criterion_3_pinned_sl2_triple():
    with criterion(3, 5.0):
        p = resolve("paper_example(2)").build()
        h0 = grading_element(p).element
        h = h0.coords
        assert linear_combination_apply(h, p.rep.action, GENERIC_X) == vec_scale(2, GENERIC_X)
        dual_h = p.dual.action[0].scale(h[0])
        for i in range(1, len(h)):
            if h[i]:
                dual_h = dual_h + p.dual.action[i].scale(h[i])
        assert dual_h.apply(PARTNER_Y) == vec_scale(-2, PARTNER_Y)
        assert p.phi.apply(GENERIC_X, PARTNER_Y) == h

        partner = sl2_partner(p, h0, GENERIC_X)
        assert partner.status == "unique"
        assert partner.y == PARTNER_Y
        assert partner.triple is not None  # relations re-verified at construction


def test_criterion_4_regular_controls(capsys):
    with criterion(4, 5.0):
        code, doc = run_cli(capsys, "regularity", "--example", "gl1_scalar")
        assert code == 0
        assert doc["outcome"] == "Regular"
        assert (doc["Y"], doc["H0"], doc["X"]) == (["2"], ["2"], ["1"])

        code, doc = run_cli(capsys, "regularity", "--example", "gl1_so_vector(3)")
        assert code == 0
        assert doc["outcome"] == "Regular"
        assert doc["ranks"]["dual_partner_injectivity"] == [3, 3]
        assert doc["ranks"]["module_partner_injectivity"] == [3, 3]


def test_criterion_5_graded_oracles():
    with criterion(5, 10.0):
        g = extend(resolve("gl2_standard").build(), 2)
        dims = [g.dim(k) for k in range(-2, 3)]
        assert dims == [0, 2, 4, 2, 0]
        assert sum(dims) == 8
        assert check_minimality(g)
        assert check_grading(g, grading_element(g.pentad).element)

        units = [GradedVector(k, unit_coords(g.dim(k), i))
                 for k in (-1, 0, 1) for i in range(g.dim(k))]
        for a in units:
            for b in units:
                ab = g.bracket(a, b)
                ba = g.bracket(b, a)
                assert ab.coords == vec_scale(-1, ba.coords)
        for a in units:
            for b in units:
                for c in units:
                    if abs(a.degree + b.degree + c.degree) > 2:
                        continue
                    total = vec_add(
                        g.bracket(a, g.bracket(b, c)).coords,
                        vec_add(g.bracket(b, g.bracket(c, a)).coords,
                                g.bracket(c, g.bracket(a, b)).coords))
                    assert is_zero_vec(total)

        small = extend(resolve("gl1_scalar").build(), 3)
        assert small.dims == {-3: 0, -2: 0, -1: 1, 0: 1, 1: 1, 2: 0, 3: 0}


def test_criterion_6_property_suites():
    with criterion(6, 60.0):
        for entry in catalog():
            p = entry.build()
            d, m = p.algebra.dim, p.module_dim
            solver = PhiMap(p)
            rng = random.Random(6)
            samples = [(random_int_vector(rng, m), random_int_vector(rng, m))
                       for _ in range(5)]

            # defining identity, every basis element against every sample
            for v, u in samples:
                img = solver.apply(v, u)
                for i in range(d):
                    lhs = p.form.apply(img)[i]
                    rhs = pair(p, p.rep.action[i].apply(v), u)
                    assert lhs == rhs, (entry.name, i)

            assert equivariance_failure(p, trials=5, seed=11) is None, entry.name

            for i in range(d):
                resid = (p.rep.action[i].transpose() @ p.dual.pairing
                         + p.dual.pairing @ p.dual.action[i])
                assert resid.is_zero(), (entry.name, i)

            g = extend(p, 3)
            assert check_grading(g, grading_element(p).element), entry.name

            # The decision is an orbit invariant: seeds move the sampled
            # witnesses, never the verdict.  A fixed seed reproduces the
            # whole certificate bit for bit.
            verdicts = [decide_regularity(p, seed=s) for s in range(5)]
            for v in verdicts[1:]:
                assert v.outcome == verdicts[0].outcome, entry.name
                assert v.h0 == verdicts[0].h0, entry.name
                assert v.ranks == verdicts[0].ranks, entry.name
                if verdicts[0].witness is not None:
                    assert v.witness.get("clause") == verdicts[0].witness.get("clause")
            assert decide_regularity(p, seed=0) == verdicts[0], entry.name
            assert decide_regularity(p, seed=4) == verdicts[4], entry.name


def test_criterion_7_matrix_space_n3():
    with criterion(7, 60.0):
        p = resolve("paper_example(3)").build()
        assert p.algebra.dim == 25
        assert p.module_dim == 18
        v = decide_regularity(p)
        assert v.outcome == "NotRegular"
        assert sl2_partner(p, grading_element(p).element, v.x).status != "none"
