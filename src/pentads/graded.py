"""Degree-by-degree construction of the graded Lie algebra of a pentad.

Starting from the local part  U_{-1} + g + U_1  every positive component
U_k, k >= 1, is realized inside Hom(U_{-1}, U_{k-1}) as u -> (y -> [u, y]):
U_1 through Phi, which is the bracket U_1 x U_{-1} -> g, and U_{k+1} as the
span of the candidates [x, u] for x in U_1 and u in U_k, the maps
y -> [[x, y], u] + [x, [u, y]].  The negative side runs the same machinery
with the module and its dual swapped, on Phi's slices by dual index,
negated.  Realizing each component as maps makes evaluation against U_{-1}
literally the bracket, so the checks read what construction stored:
minimality (no nonzero vector bracketing to zero with the opposite generator
line) is the independence of the stored maps, which their RREF leads
certify, and the grading is h's stored action below each side's top degree.

Every component is stored by its nonzeros only (see _Half): a basis map as
one flat row, keyed by the pair of its U_{-1} and U_{k-1} indices, which
above degree 1 is exactly a row of the candidate stack's echelon form and
at degree 1 the flat nonzeros of one Phi slice; each action once, by the
nonzeros of its columns; bracket-table and memo entries as (index, value)
pairs.  The components are almost all zeros (the 572 degree-3 maps of
matrix_space_example(2) fill 0.22% of their cells), so construction, the
checks and every bracket walk nonzeros only.  action_matrices and
component_maps build Matrix objects on request.  Phi enters undivided, as
the pentad's integers over its denominator D, which the degree-one maps and
the tables of brackets with U_1 carry.  Brackets recurse on integer
nonzeros over one denominator, which is divided once, at
GradedAlgebra.bracket.

Components can keep growing forever for general input; construction always
truncates at a caller-supplied degree bound.  A zero component shuts down
its side for good, because higher degrees are generated by bracketing with
the degree-one line, so construction stops there and only the nonzero
components are stored.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Sequence

from .exact_linalg import (
    Matrix,
    Q,
    SparseVec,
    Vec,
    _solutions,
    cleared,
    dense_vec,
    linear_combination,
    qnorm,
    ratio,
    row_space_basis,  # noqa: F401  (perfbench's tracer patches this name here)
    sparse_row_space_basis,
)
from .pentad import GradingElement, StandardPentad
from .pentad import grading_element  # noqa: F401  (perfbench's tracer wraps this name here)


class DegreeError(ValueError):
    pass


class _Half:
    """Positive-degree components of one side of the graded algebra.

    The side is given by the algebra's action on its degree-one line U_1
    and on the opposite line U_{-1}, and by its degree-one maps: maps1[a]
    holds the nonzeros of D [x_a, y_r] at coordinate i, keyed i * m + r,
    for the bases x of U_1 and y of U_{-1} and Phi's denominator D (the
    flat nonzeros of one Phi slice).  Every degree k >= 1, degree 1
    included, is held in the same tables, with U_0 = g:

      maps[k][s]      basis vector s of U_k as the map y_r -> [u_s, y_r]
                      into U_{k-1}, by its nonzeros keyed t * m + r for
                      coordinate t of U_{k-1}: the RREF rows of the
                      candidate stack themselves, and at degree 1 maps1;
      columns(k)[i]   algebra basis element i acting on U_k, by the
                      nonzeros of each column, built on first use above
                      degree 1, and the only store of the action tables;
      up[k][a][s]     [x_a, u_s] in U_{k+1}, as (index, value) pairs, times D;
      dual[i]         the matrix of basis element i acting on U_{-1}.

    Each candidate product carries one D, so the candidate stack is D times
    the candidates, with the same RREF.  Every reader (evaluation, the
    actions, the table, the next candidates) is one contraction
    over these nonzeros into a single accumulator; the bracket readers
    (evaluate, up_bracket, columns) keep integers, over D where the tables
    carry it.  Bracket expansions back into generator pairs are solved
    lazily from the up table; they are only needed for general brackets
    whose first argument sits in degree >= 2.  Construction stops at the
    first zero component, which shuts the side down for good.
    """

    def __init__(self, action: Sequence[Matrix], dual: Sequence[Matrix],
                 maps1: Sequence[SparseVec], d: int, max_degree: int):
        self.m = m = len(maps1)
        self.d = d
        self.dims: dict[int, int] = {0: len(action), 1: m}
        self.maps: dict[int, tuple[SparseVec, ...]] = {1: tuple(maps1)}
        self.dual = dual
        self._lines: dict[int, list[tuple[SparseVec, ...]]] = {}
        self._columns: dict[int, list[tuple[SparseVec, ...]]] = {
            1: [a.transpose().nonzeros for a in action]}
        self.up: dict[int, list[list[SparseVec]]] = {}
        self._expansions: dict[int, tuple[list[tuple[tuple[int, int, int], ...]], int]] = {}
        for k in range(1, max_degree):
            if not self.dims[k]:
                break
            self._build_next(k)

    def _build_next(self, k: int) -> None:
        m = self.m
        nk = self.dims[k]
        cands: list[dict[int, Q]] = [{} for _ in range(m * nk)]
        act = self.columns(k)
        # [[x_a, y_r], u_s] = pi([x_a, y_r]) u_s, for every s at once
        for a, unit in enumerate(self.maps[1]):
            for ir, g in unit:
                i, r = divmod(ir, m)
                for s, col in enumerate(act[i]):
                    cand = cands[a * nk + s]
                    for t, x in col:
                        j = t * m + r
                        cand[j] = cand.get(j, 0) + g * x
        # [x_a, [u_s, y_r]], with [u_s, y_r] read off the stored map
        up_prev = self.up[k - 1] if k > 1 else [  # [x_a, b_t] = -pi(b_t) x_a
            [tuple((t, -x) for t, x in cols[a]) for cols in act] for a in range(m)]
        for s, f in enumerate(self.maps[k]):
            for tr, w in f:
                t, r = divmod(tr, m)
                for a in range(m):
                    cand = cands[a * nk + s]
                    for t2, uv in up_prev[a][t]:
                        j = t2 * m + r
                        cand[j] = cand.get(j, 0) + w * uv
        candidates = [{j: x for j, x in cand.items() if x} for cand in cands]
        basis = sparse_row_space_basis(cand.items() for cand in candidates)
        self.dims[k + 1] = len(basis)
        if not basis:
            self.up[k] = [[() for _ in range(nk)] for _ in range(m)]
            return
        self.maps[k + 1] = tuple(basis)
        # The basis is the RREF of the candidate stack, so each candidate's
        # coordinates are plain reads at the pivot columns.
        pivot_of = {row[0][0]: p for p, row in enumerate(basis)}
        table = [tuple((pivot_of[j], cand[j]) for j in sorted(cand) if j in pivot_of)
                 for cand in candidates]
        self.up[k] = [table[a * nk:(a + 1) * nk] for a in range(m)]

    def _build_action(self, degree: int) -> None:
        """(a.f)(y) = [a, f(y)] - f([a, y]) on the stored basis maps, each
        image read in basis coordinates as one column of the action."""
        m = self.m
        maps = self.maps[degree]
        index_of = {f[0][0]: s for s, f in enumerate(maps)}
        out: list[tuple[SparseVec, ...]] = []
        for a_cols, dmat in zip(self.columns(degree - 1), self.dual):
            d_rows = dmat.nonzeros
            columns = []
            for f in maps:
                g = _twist(a_cols, f, d_rows, m)
                # The basis is in RREF, so the coordinates are g's entries
                # at the pivots, found among g's own keys.
                coords = sorted((index_of[j], c) for j, c in g.items() if c and j in index_of)
                # Stability of the component under the algebra is what makes
                # pivot reads valid here, so rebuild and compare to be sure.
                for s, c in coords:
                    for j, x in maps[s]:
                        g[j] = g.get(j, 0) - c * x
                if any(g.values()):
                    raise ArithmeticError("action left the component span")
                columns.append(tuple((s, qnorm(c)) for s, c in coords))
            out.append(tuple(columns))
        self._columns[degree] = out

    def columns(self, k: int) -> list[tuple[SparseVec, ...]]:
        """The algebra basis acting on U_k (k >= 1), by each column's
        nonzeros, built on first use; empty past the last nonzero degree."""
        if k not in self._columns and self.dims.get(k, 0):
            self._build_action(k)
        return self._columns.get(k, [])

    def transposed(self, k: int) -> list[Matrix]:
        """The transposes of the algebra basis acting on U_k (k >= 1), as
        matrices built on request from the stored columns."""
        return [Matrix.from_nonzeros(cols, self.dims[k]) for cols in self.columns(k)]

    def expansions(self, degree: int) -> tuple[list[tuple[tuple[int, int, int], ...]], int]:
        """Each basis vector of U_degree as an integer combination of the
        [x_a, u_s], over one denominator delta for the whole degree: the
        terms (c, a, s) of delta u = sum c [x_a, u_s], and delta.

        Solved once per degree on first use, in U_degree coordinates: column
        a * dim U_{degree-1} + s of the system is the table entry D [x_a, u_s],
        and the right-hand sides are the unit vectors times D.  Index pairs
        refer to the degree-one basis and the U_{degree-1} basis.
        """
        if degree not in self._expansions:
            n, nk = self.dims[degree], self.dims[degree - 1]
            table = Matrix.from_nonzeros((v for row in self.up[degree - 1] for v in row), n)
            sols = _solutions(table.transpose(), (((i, self.d),) for i in range(n)), n)
            assert None not in sols, "basis vector outside candidate span"
            delta = lcm(*(c.denominator for sol in sols for _, c in sol))
            self._expansions[degree] = ([tuple((c.numerator * (delta // c.denominator),
                                                *divmod(pos, nk))
                                               for pos, c in sol)
                                         for sol in sols], delta)
        return self._expansions[degree]

    def evaluate(self, degree: int, f: SparseVec, y: SparseVec) -> Frac:
        """[f, y] for f in U_degree (degree >= 1) and y in U_{-1}, both by
        integer nonzeros: the sum of f_s y_r [u_s, y_r] over D at degree 1,
        through the maps regrouped by r on first use."""
        if degree not in self._lines:
            self._lines[degree] = [
                Matrix.from_flat_nonzeros(f, self.dims[degree - 1], self.m).transpose().nonzeros
                for f in self.maps[degree]]
        return _contract(self._lines[degree], f, y, self.d if degree == 1 else 1)

    def up_bracket(self, k: int, x: SparseVec, u: SparseVec) -> Frac:
        """[x, u] for x in U_1 and u in U_k, k >= 1, both by integer
        nonzeros, read off the table over D."""
        return _contract(self.up[k], x, u, self.d)


def _twist(a_cols: Sequence[SparseVec], f: SparseVec, d_rows: Sequence[SparseVec],
           m: int) -> dict[int, Q]:
    """a.F - F.d for the stored map F: U_{-1} -> U_k with flat nonzeros f,
    keyed by t * m + r like f.

    a acts on U_k and is given by the nonzeros of its columns, d acts on
    U_{-1} and is given by those of its rows; cancelled entries stay in the
    result as zeros.
    """
    out: dict[int, Q] = {}
    for j, c in f:
        t, r = divmod(j, m)
        for t2, x in a_cols[t]:
            j2 = t2 * m + r
            out[j2] = out.get(j2, 0) + x * c
        base = t * m
        for r2, y in d_rows[r]:
            j2 = base + r2
            out[j2] = out.get(j2, 0) - c * y
    return out


# Integer nonzeros over one positive denominator: the value v / d.
Frac = tuple[SparseVec, int]


def _contract(table: Sequence[Sequence[SparseVec]], a: SparseVec, b: SparseVec,
              d: int) -> Frac:
    """The sum of a_i b_j table[i][j] over the nonzeros of a and b, over d,
    where table[i][j] is a vector by its nonzeros.  Only a rational table
    leaves a Fraction in the sum; it is cleared into the denominator."""
    acc: dict[int, Q] = {}
    for i, x in a:
        row = table[i]
        for j, y in b:
            f = x * y
            for p, c in row[j]:
                acc[p] = acc.get(p, 0) + f * c
    items = [(i, x) for i, x in acc.items() if x]
    if all(type(x) is int for _, x in items):
        return tuple(items), d
    nums, e = cleared([x for _, x in items])
    return tuple(zip([i for i, _ in items], nums)), d * e


def _negated(v: Frac) -> Frac:
    return tuple((i, -x) for i, x in v[0]), v[1]


class _Sum:
    """A sum of terms f v / d, kept as integer nonzeros over one running
    denominator that is rescaled only when a term's d does not divide it."""

    __slots__ = ("acc", "d")

    def __init__(self) -> None:
        self.acc: dict[int, int] = {}
        self.d = 1

    def add(self, f: int, v: SparseVec, d: int) -> None:
        if self.d % d:
            r = d // gcd(self.d, d)
            self.acc = {i: x * r for i, x in self.acc.items()}
            self.d *= r
        f *= self.d // d
        acc = self.acc
        for i, x in v:
            acc[i] = acc.get(i, 0) + f * x

    def result(self) -> Frac:
        return tuple((i, x) for i, x in self.acc.items() if x), self.d


class GradedVector(NamedTuple):
    degree: int
    coords: Vec


class GradedAlgebra:
    """The truncated graded Lie algebra of a pentad.

    Degree 0 is the algebra in its own basis; degrees +-1 are the module and
    the dual in theirs; higher components are canonical echelon bases of
    candidate spans.  The positive half's degree-one maps are Phi's module
    slices, flattened.  The negative half swaps the module and the dual:
    [phi_r, v_a] = -Phi(v_a (x) phi_r), so its degree-one maps are Phi's
    dual slices, flattened and negated; PhiMap already holds the table by
    either index.  Only the nonzero dimensions are stored; dims and dim
    read every other degree within the bound as 0.  All brackets are exact,
    in integers over one denominator until the end; general ones recurse
    through the integer expansions, memoized per basis pair.
    """

    def __init__(self, pentad: StandardPentad, max_degree: int):
        if max_degree < 1:
            raise DegreeError("max_degree must be at least 1")
        self.pentad = pentad
        self.max_degree = max_degree
        # Phi's integer slices over its denominator, undivided: by module
        # index for the positive half, by dual index and negated for the
        # negative one
        phi = pentad.phi
        self.positive = _Half(pentad.rep.action, pentad.dual.action,
                              [s.flat_nonzeros() for s in phi.module_slices],
                              phi.denominator, max_degree)
        self.negative = _Half(pentad.dual.action, pentad.rep.action,
                              [tuple((j, -x) for j, x in s.flat_nonzeros())
                               for s in phi.dual_slices],
                              phi.denominator, max_degree)
        self._memo: dict[tuple[int, int, int, int], Frac] = {}
        # the nonzero components only; every other degree reads 0
        self._dims = {0: pentad.algebra.dim}
        for sign, half in ((1, self.positive), (-1, self.negative)):
            self._dims.update((sign * k, n) for k, n in half.dims.items() if k and n)

    @property
    def dims(self) -> dict[int, int]:
        return {k: self._dims.get(k, 0) for k in range(-self.max_degree, self.max_degree + 1)}

    def dim(self, degree: int) -> int:
        if abs(degree) > self.max_degree:
            raise DegreeError(f"degree {degree} exceeds the bound {self.max_degree}")
        return self._dims.get(degree, 0)

    def _half(self, degree: int) -> _Half:
        """The side holding the nonzero degree."""
        return self.positive if degree > 0 else self.negative

    def component_maps(self, degree: int) -> tuple[Matrix, ...]:
        """Basis of U_degree, |degree| >= 2, as maps from the opposite
        degree-one component: row t of a map is coordinate t of its values
        on that component's basis."""
        if abs(degree) < 2:
            raise DegreeError("components below degree 2 are not stored as maps")
        half, k = self._half(degree), abs(degree)
        return tuple(Matrix.from_flat_nonzeros(f, half.dims[k - 1], half.m)
                     for f in half.maps.get(k, ()))

    def action_matrices(self, degree: int) -> list[Matrix]:
        """Matrices of the algebra basis acting on U_degree, built on request:
        ad(b_i) from the structure table at degree 0, else from the stored columns."""
        if degree == 0:
            alg = self.pentad.algebra
            return [alg.ad_basis(i) for i in range(alg.dim)]
        return [t.transpose() for t in self._half(degree).transposed(abs(degree))]

    def bracket(self, a: GradedVector, b: GradedVector) -> GradedVector:
        """[a, b]: each argument is cleared to integers over its own
        denominator, and the integer result is divided once per coordinate."""
        j, k = a.degree, b.degree
        dims = [self.dim(deg) for deg in (j, k, j + k)]
        if len(a.coords) != dims[0] or len(b.coords) != dims[1]:
            raise DegreeError("coordinate length does not match the component")
        (an, ad), (bn, bd) = cleared(a.coords), cleared(b.coords)
        v, d = self._sparse_bracket(j, tuple((i, x) for i, x in enumerate(an) if x),
                                    k, tuple((i, x) for i, x in enumerate(bn) if x))
        d *= ad * bd
        out: list[Q] = [0] * dims[2]
        for i, x in v:
            out[i] = ratio(x, d)
        return GradedVector(j + k, tuple(out))

    def _sparse_bracket(self, j: int, a: SparseVec, k: int, b: SparseVec) -> Frac:
        """[a, b] for integer nonzeros a in U_j and b in U_k, over a
        denominator.  Each case runs on the side of its sign; U_{+-1} x
        U_{-+1} is the evaluation of degree +-1, whose maps are Phi's slices."""
        if not (a and b and self._dims.get(j + k)):
            return (), 1
        if j == 0:
            if k:
                return _contract(self._half(k).columns(abs(k)), a, b, 1)
            n = self._dims[0]
            v, e = cleared(self.pentad.algebra.ad_matrix(dense_vec(a, n)).apply(dense_vec(b, n)))
            return tuple((i, x) for i, x in enumerate(v) if x), e
        if k == 0:
            return _negated(self._sparse_bracket(0, b, j, a))
        one = 1 if j > 0 else -1
        if k == -one:
            return self._half(j).evaluate(abs(j), a, b)
        if abs(j) == 1:
            if j * k > 0:
                return self._half(j).up_bracket(abs(k), a, b)
            return _negated(self._half(k).evaluate(abs(k), b, a))
        # First argument in degree >= 2: expand each basis vector into
        # generator pairs, delta u = sum c [x, u'], and group the terms of
        # [[x, u'], b] = [x, [u', b]] - [u', [x, b]] by generator x, so that
        # the call brackets b with each x and each u' once:
        #   sum over x of [x, sum f [u', b]] - sum f [u', [x, b]].
        half = self._half(j)
        prev = j - one
        expansions, delta = half.expansions(abs(j))
        seen: dict[tuple[int, int], Frac] = {}
        outer: dict[int, _Sum] = {}  # x -> sum f [u', b], in U_{prev+k}
        inner: dict[int, dict[int, int]] = {}  # x -> sum f u', in U_prev
        for s, cs in a:
            for c, x, u in expansions[s]:
                f = cs * c
                if x not in outer:
                    outer[x], inner[x] = _Sum(), {}
                outer[x].add(f, *self._unit_bracket(prev, u, k, b, seen))
                inner[x][u] = inner[x].get(u, 0) + f
        total = _Sum()
        for x, ub_sum in outer.items():
            v, d = ub_sum.result()
            first, e = self._sparse_bracket(one, ((x, 1),), prev + k, v)
            total.add(1, first, d * e)
            xb = self._unit_bracket(one, x, k, b, seen)
            for u, f in inner[x].items():
                if f:
                    self._add_unit_pairs(total, -f, prev, u, one + k, xb)
        v, d = total.result()
        return v, d * delta

    def _unit_bracket(self, j: int, s: int, k: int, b: SparseVec,
                      seen: dict[tuple[int, int], Frac]) -> Frac:
        """[e_s of U_j, b], once per (j, s) for the calls sharing `seen`: a
        degree-one e_s directly, a higher one from the unit-pair memo."""
        got = seen.get((j, s))
        if got is None:
            if abs(j) == 1:
                got = self._sparse_bracket(j, ((s, 1),), k, b)
            else:
                acc = _Sum()
                self._add_unit_pairs(acc, 1, j, s, k, (b, 1))
                got = acc.result()
            seen[j, s] = got
        return got

    def _add_unit_pairs(self, acc: _Sum, f: int, j: int, s: int, k: int, b: Frac) -> None:
        """acc += f [e_s of U_j, b], summed over the nonzeros of b from the
        memoized unit-pair brackets, each kept as (nonzeros, denominator)."""
        bv, bd = b
        for t, bt in bv:
            key = (j, s, k, t)
            got = self._memo.get(key)
            if got is None:
                got = self._memo[key] = self._sparse_bracket(j, ((s, 1),), k, ((t, 1),))
            acc.add(f * bt, got[0], got[1] * bd)


def extend(p: StandardPentad, max_degree: int) -> GradedAlgebra:
    """Build the graded algebra of the pentad up to the given degree."""
    return GradedAlgebra(p, max_degree)


def check_minimality(g: GradedAlgebra) -> bool:
    """No nonzero element of a stored component evaluates to zero.

    A vector of U_k (|k| >= 2) with [v, U_{-sign(k)}] = {0} would be exactly
    a linear dependence among the stored maps.  Every stored basis above
    degree 1 is RREF output of sparse_row_space_basis, so nonempty rows with
    strictly increasing leading columns certify independence; no rank.
    """
    for half in (g.positive, g.negative):
        for k in range(2, len(half.maps) + 1):
            last = -1
            for f in half.maps[k]:
                if not f or f[0][0] <= last:
                    return False
                last = f[0][0]
    return True


def check_grading(g: GradedAlgebra, h: GradingElement) -> bool:
    """ad(h) must act as the scalar 2n on every stored component U_n.

    Degree 0 is ad(h), built from h's nonzeros only.  On each side, h's stored
    action on U_k (the stored columns combined by h, transposed) is compared
    with 2 sign k Id for k = 1 up to one below the side's top degree.  The
    top degree needs no table of its own: on a stored map F of U_top, h acts
    as M F - F D, with M its action one degree down and D its action on the
    evaluation line, the other side's degree-one table, so it acts as
    2 top F once those pass.  No stored map is evaluated.
    """
    return g.pentad.algebra.ad_matrix(h.coords).is_zero() and all(
        linear_combination(h.coords, half.transposed(k))
        == Matrix.identity(half.dims[k]).scale(2 * sign * k)
        for half, sign in ((g.positive, 1), (g.negative, -1))
        for k in range(1, max(len(half.maps), 2)))
