"""The Phi tensor contraction against the per-unit-vector construction.

The oracle below is the dense solver the contraction replaced: one table
W_i = t(pi(b_i)).P per algebra basis element, each apply() a full
matrix-vector product per table followed by G^-1, and the matrices of
phi -> Phi(x (x) phi) and xi -> Phi(xi (x) y) assembled one unit vector
at a time.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentads import preh
from pentads.catalog import catalog, matrix_space_example, resolve
from pentads.exact_linalg import Matrix, inverse, kernel_basis, qnorm, solve
from pentads.graded import grading_element
from pentads.lie import trace_form, unit_coords
from pentads.pentad import PhiMap, StandardPentad, check_standard
from pentads.preh import (ad_on_dual, decide_regularity, find_generic, module_partner_map,
                         sl2_partner, verify_certificate)

from oracles import (assert_canonical, conjugated, display_name, phi_triples,
                     rational_matrix_space_pentad, rational_vector_pentad, triple_ad_on_dual,
                     triple_module_partner_map, vec_dot)


class DenseOracle:
    def __init__(self, p):
        self.m = p.module_dim
        self.gram_inv = inverse(p.form)
        self.tables = tuple(a.transpose() @ p.dual.pairing for a in p.rep.action)

    def apply(self, v, phi):
        t = tuple(vec_dot(v, w.apply(phi)) for w in self.tables)
        return self.gram_inv.apply(t)

    def ad_on_dual(self, x):
        cols = [self.apply(x, unit_coords(self.m, r)) for r in range(self.m)]
        return Matrix(tuple(zip(*cols)))

    def module_partner_map(self, y):
        cols = [self.apply(unit_coords(self.m, a), y) for a in range(self.m)]
        return Matrix(tuple(zip(*cols)))


PENTADS = {display_name(e): e.build() for e in catalog()}
PENTADS["rational_vector"] = rational_vector_pentad()
PENTADS["rational_matrix_space"] = rational_matrix_space_pentad()
ORACLES = {name: DenseOracle(p) for name, p in PENTADS.items()}


def assert_agrees(name, x, y):
    # the legs are D times the oracle's maps, D the table's denominator;
    # apply divides it out
    p, oracle = PENTADS[name], ORACLES[name]
    d = p.phi.denominator
    assert ad_on_dual(p, x) == oracle.ad_on_dual(x).scale(d)
    assert module_partner_map(p, y) == oracle.module_partner_map(y).scale(d)
    assert p.phi.apply(x, y) == oracle.apply(x, y)
    assert list(map(type, p.phi.apply(x, y))) == list(map(type, oracle.apply(x, y)))


class TestFixtures:
    @pytest.mark.parametrize("name", ["rational_vector", "rational_matrix_space"])
    def test_neither_gram_nor_pairing_is_identity(self, name):
        p = PENTADS[name]
        assert check_standard(p).ok
        assert p.form != Matrix.identity(p.algebra.dim)
        assert p.form != trace_form(p.algebra)
        assert p.dual.pairing != Matrix.identity(p.module_dim)
        assert any(type(x) is Fraction for row in p.dual.pairing.entries for x in row)


class TestContractionMatchesOracle:
    @pytest.mark.parametrize("name", sorted(PENTADS))
    def test_unit_and_sampled_vectors(self, name):
        m = PENTADS[name].module_dim
        rng = random.Random(0)
        vectors = [unit_coords(m, k) for k in range(m)]
        vectors += [tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(3)]
        for x, y in zip(vectors, vectors[1:] + vectors[:1]):
            assert_agrees(name, x, y)

    @pytest.mark.parametrize("name", sorted(PENTADS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_drawn_vectors(self, name, data):
        m = PENTADS[name].module_dim
        scalar = st.one_of(st.integers(-20, 20),
                           st.fractions(min_value=-5, max_value=5, max_denominator=7))
        vector = st.one_of(st.just((0,) * m), st.tuples(*[scalar] * m))
        assert_agrees(name, data.draw(vector), data.draw(vector))

    def test_wrong_length_rejected(self):
        p = PENTADS["gl1_so_vector(3)"]
        for leg in (ad_on_dual, module_partner_map):
            for bad in ((1, 0), (1, 0, 0, 0)):
                with pytest.raises(ValueError):
                    leg(p, bad)
        with pytest.raises(ValueError):
            p.phi.apply((1, 0, 0), (1, 0, 0, 0))


def oracle_column(oracle, a, r):
    """Phi(x_a (x) y_r) = G^-1 . (W_i[a][r])_i."""
    return oracle.gram_inv.apply(tuple(w.entries[a][r] for w in oracle.tables))


class TestUnitTable:
    @pytest.mark.parametrize("name", sorted(PENTADS))
    def test_units_are_the_oracle_columns(self, name):
        # column r of module_slices[a] and column a of dual_slices[r] both
        # hold D . Phi(x_a (x) y_r), each slice in stored form
        p, oracle = PENTADS[name], ORACLES[name]
        d, m, denom = p.algebra.dim, p.module_dim, p.phi.denominator
        module, dual = p.phi.module_slices, p.phi.dual_slices
        assert len(module) == len(dual) == m
        for s in (*module, *dual):
            assert s.shape() == (d, m)
            assert_canonical(s)
        for a in range(m):
            for r in range(m):
                want = oracle_column(oracle, a, r)
                for column in (tuple(row[r] for row in module[a].entries),
                               tuple(row[a] for row in dual[r].entries)):
                    got = tuple(qnorm(Fraction(c, denom)) for c in column)
                    assert got == want
                    assert list(map(type, got)) == list(map(type, want))

    @pytest.mark.parametrize("name", sorted(PENTADS))
    def test_one_integer_table_over_the_least_denominator(self, name):
        p, oracle = PENTADS[name], ORACLES[name]
        denom = p.phi.denominator
        assert type(denom) is int and denom > 0
        assert all(type(c) is int for s in (*p.phi.module_slices, *p.phi.dual_slices)
                   for row in s.nonzeros for _, c in row)
        m = p.module_dim
        assert denom == lcm(*(x.denominator for a in range(m) for r in range(m)
                              for x in oracle_column(oracle, a, r)))

    @pytest.mark.parametrize("name", sorted(PENTADS))
    def test_legs_have_integer_rows(self, name):
        # integer vectors (every generic-point candidate is one) contract
        # the integer table into integer rows, which the engine takes as
        # they are
        p = PENTADS[name]
        m = p.module_dim
        rng = random.Random(1)
        vectors = [unit_coords(m, k) for k in range(m)]
        vectors += [tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(3)]
        for v in vectors:
            for leg in (ad_on_dual(p, v), module_partner_map(p, v)):
                assert all(type(x) is int for row in leg.nonzeros for _, x in row)


# catalog entries to conjugate, each with the sizes of its ideals in basis
# order; the trace form is block diagonal on them, so one scale per ideal
# keeps it invariant
CONJUGATED = {spec: (resolve(spec).build(), ideals)
              for spec, ideals in (("gl1_so_vector(4)", (1, 6)),
                                   ("matrix_space_example(2)", (1, 10, 3)))}


@st.composite
def conjugated_pentads(draw):
    """A catalog pentad with its module basis changed by a product Q of
    elementary integer matrices, or by Q^-1, which fills P in with
    rational entries, and its form rescaled on each ideal by a drawn
    rational."""
    p, ideals = CONJUGATED[draw(st.sampled_from(sorted(CONJUGATED)))]
    m = p.module_dim
    q = Matrix.identity(m)
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        e = [[int(r == s) for s in range(m)] for r in range(m)]
        # scale row i, or add a multiple of row j to row i
        e[i][j] = draw(st.sampled_from([-2, -1, 2, 3]))
        q = q @ Matrix(e)
    c = conjugated(p, inverse(q) if draw(st.booleans()) else q)
    scales = [x for size in ideals
              for x in [draw(st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(-2, 3)]))] * size]
    diag = Matrix.from_nonzeros((((i, x),) for i, x in enumerate(scales)), len(scales))
    return StandardPentad(c.rep, c.dual, c.form @ diag)


class TestSlicesMatchTriples:
    """The slice matrices against the (i, r, c) triple table they replaced,
    contracted by its own two loops."""

    @pytest.mark.parametrize("name", sorted(PENTADS))
    def test_dual_slices_swap_the_indices(self, name):
        p = PENTADS[name]
        m = p.module_dim
        module = [s.entries for s in p.phi.module_slices]
        dual = [s.entries for s in p.phi.dual_slices]
        assert all(dual[r][i][a] == module[a][i][r]
                   for a in range(m) for r in range(m) for i in range(p.algebra.dim))
        assert phi_triples(p)[0] == p.phi.denominator

    @settings(max_examples=10, deadline=None)
    @given(p=conjugated_pentads())
    def test_conjugated_slices_are_the_triples(self, p):
        # a dense rational P and a rescaled G^-1, which no catalog entry has
        assert check_standard(p).ok
        denominator, units = phi_triples(p)
        want = {(a, i, r): c for a, entries in enumerate(units) for i, r, c in entries}
        module = {(a, i, r): c for a, s in enumerate(p.phi.module_slices)
                  for i, row in enumerate(s.nonzeros) for r, c in row}
        dual = {(a, i, r): c for r, s in enumerate(p.phi.dual_slices)
                for i, row in enumerate(s.nonzeros) for a, c in row}
        assert module == want == dual
        assert all(type(c) is int for c in module.values())
        assert p.phi.denominator == denominator
        for s in (*p.phi.module_slices, *p.phi.dual_slices):
            assert_canonical(s)

    @pytest.mark.parametrize("name", sorted(PENTADS))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_legs_match_the_triple_loops(self, name, data):
        p = PENTADS[name]
        m = p.module_dim
        scalar = st.one_of(st.integers(-20, 20),
                           st.fractions(min_value=-5, max_value=5, max_denominator=7))
        vector = st.one_of(st.tuples(*[st.integers(-9, 9)] * m), st.tuples(*[scalar] * m))
        x, y = data.draw(vector), data.draw(vector)
        for got, want in ((ad_on_dual(p, x), triple_ad_on_dual(p, x)),
                          (module_partner_map(p, y), triple_module_partner_map(p, y))):
            assert got == want
            assert ([[type(c) for _, c in row] for row in got.nonzeros]
                    == [[type(c) for _, c in row] for row in want.nonzeros])


class TestPipelineMatchesOracle:
    """The legs solve ad_on_dual(x) y = h against h itself and take the
    kernel of module_partner_map(y); both must match the dense oracle, where
    a G.h-for-h mix-up would show."""

    @pytest.mark.parametrize("name", sorted(PENTADS))
    def test_partner_solve_and_kernel(self, name):
        p, oracle = PENTADS[name], ORACLES[name]
        h0 = grading_element(p).element
        x = find_generic(p).x
        expected = solve(oracle.ad_on_dual(x), h0.coords)
        pr = sl2_partner(p, h0, x)
        assert pr.status == expected.status
        assert pr.y == expected.solution
        if pr.y is not None:
            assert (kernel_basis(module_partner_map(p, pr.y))
                    == kernel_basis(oracle.module_partner_map(pr.y)))
        assert verify_certificate(p, decide_regularity(p))

    def test_rescaled_form_moves_the_partner(self):
        # The rational fixtures' forms are not the trace form on the grading
        # element's line, so a right-hand side of G.h instead of h would
        # give a different partner.
        p = PENTADS["rational_vector"]
        h0 = grading_element(p).element.coords
        assert p.form.apply(h0) != h0
        assert decide_regularity(p).outcome == "Regular"


class TestWorkCount:
    def test_one_phi_map_per_pentad(self, monkeypatch):
        inits, applies = [], []
        init, apply = PhiMap.__init__, PhiMap.apply

        def counting_init(self, p):
            inits.append(p)
            init(self, p)

        def counting_apply(self, v, phi):
            applies.append((v, phi))
            return apply(self, v, phi)

        monkeypatch.setattr(PhiMap, "__init__", counting_init)
        monkeypatch.setattr(PhiMap, "apply", counting_apply)
        p = matrix_space_example(3)
        verdict = decide_regularity(p)
        assert verdict.outcome == "NotRegular"
        assert verify_certificate(p, verdict)
        assert len(inits) == 1
        assert len(applies) <= 4

    @pytest.mark.parametrize("spec,outcome", [("gl1_so_vector(4)", "Regular"),
                                              ("matrix_space_example(3)", "NotRegular")])
    def test_legs_contract_the_unit_table(self, monkeypatch, spec, outcome):
        # Every rank, solve and kernel of decide_regularity and its replay
        # goes through the two preh legs: ad_on_dual once per generic-point
        # attempt, once for the partner solve and once in the replay (its
        # partner solve for a Regular verdict, which proves x generic, and
        # is_generic for a NotRegular one); module_partner_map once for the
        # kernel and once in the replay.
        calls = {"ad_on_dual": 0, "module_partner_map": 0, "apply": 0}

        def spy(owner, name):
            original = getattr(owner, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, counting)

        spy(preh, "ad_on_dual")
        spy(preh, "module_partner_map")
        spy(PhiMap, "apply")
        p = resolve(spec).build()
        attempts = find_generic(p).attempts_used
        calls.update(ad_on_dual=0)
        verdict = decide_regularity(p)
        assert verdict.outcome == outcome
        assert verify_certificate(p, verdict)
        assert calls["ad_on_dual"] == attempts + 2
        assert calls["module_partner_map"] == 2
        assert calls["apply"] <= 4
