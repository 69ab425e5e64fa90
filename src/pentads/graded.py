"""Degree-by-degree construction of the graded Lie algebra of a pentad.

Starting from the local part  U_{-1} + g + U_1  the positive components are
built inside Hom(U_{-1}, U_k): for x in U_1 and u in U_k the bracket [x, u]
is the map y -> [[x, y], u] + [x, [u, y]], and U_{k+1} is the span of these
candidates.  The negative side runs the same machinery on the mirrored
pentad.  Realizing each component as maps makes evaluation against U_{-1}
literally the bracket, so minimality (no nonzero vector bracketing to zero
with the opposite generator line) is a rank statement about the stored
matrices.

Components can keep growing forever for general input; construction always
truncates at a caller-supplied degree bound.  A zero component shuts down
its side for good, because higher degrees are generated by bracketing with
the degree-one line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import (
    Matrix,
    Q,
    Vec,
    is_zero_vec,
    pivot_columns,
    qnorm,
    rank,
    row_space_basis,
    solve,
    solve_multi,
    vec_add,
    vec_neg,
    vec_scale,
    zero_vec,
)
from .lie import unit_coords
from .pentad import StandardPentad, mirror


class DegreeError(ValueError):
    pass


@dataclass(frozen=True)
class GradingElement:
    """Coordinates of the algebra element acting as the degree on each piece:
    centrally on degree 0, by 2 on the module, by -2 on the dual."""

    coords: Vec


@dataclass(frozen=True)
class GradingElementResult:
    status: str  # "found" | "absent" | "degenerate"
    element: GradingElement | None
    solution_space: tuple[Vec, ...]


def grading_element(p: StandardPentad) -> GradingElementResult:
    """Solve the joint linear system for the grading element.

    Unknown g in algebra coordinates; equations: [g, b_j] = 0 for every
    basis element, pi(g) = 2 Id, and pi*(g) = -2 Id.  The dual rows are
    implied by the others for compatible pentads but keeping them makes the
    result meaningful on broken input too.
    """
    d, m = p.algebra.dim, p.module_dim
    rows = p.algebra.commutation_rows()
    rhs: list[Q] = [0] * len(rows)
    for r in range(m):
        for c in range(m):
            rows.append(tuple(p.rep.action[i].entry(r, c) for i in range(d)))
            rhs.append(2 if r == c else 0)
            rows.append(tuple(p.dual.action[i].entry(r, c) for i in range(d)))
            rhs.append(-2 if r == c else 0)
    res = solve(Matrix(tuple(rows)), tuple(rhs))
    if res.status == "none":
        return GradingElementResult("absent", None, ())
    if res.status == "affine":
        return GradingElementResult("degenerate", GradingElement(res.solution),
                                    tuple(res.kernel))
    return GradingElementResult("found", GradingElement(res.solution), ())


class _Half:
    """Positive-degree components of one side of the graded algebra.

    Degrees 2..max hold, per degree: the basis as matrices U_{-1} -> U_{k-1}
    (in coordinates of the previous component), the bracket table from the
    degree-one line, and the algebra action.  Bracket expansions back into
    generator pairs are solved lazily; they are only needed for general
    brackets whose first argument sits in degree >= 2.
    """

    def __init__(self, pentad: StandardPentad, max_degree: int):
        self.pentad = pentad
        self.max_degree = max_degree
        self.phi = pentad.phi
        m = pentad.module_dim
        self.dims: dict[int, int] = {1: m}
        self.maps: dict[int, tuple[Matrix, ...]] = {}
        self.actions: dict[int, list[Matrix]] = {}
        # up[k][a][s]: coordinates in U_{k+1} of [x_a, u_s]
        self.up: dict[int, list[list[Vec]]] = {}
        self._candidates: dict[int, list[Vec]] = {}
        self._expansions: dict[int, list[tuple[tuple[Q, int, int], ...]]] = {}
        # _phi_units[a][r] = Phi(x_a (x) y_r), column r of G^-1 . M(x_a)
        self._phi_units = [
            self.phi.to_algebra(self.phi.module_contraction(unit_coords(m, a))).transpose().entries
            for a in range(m)]
        for k in range(1, max_degree):
            if self.dims.get(k, 0) == 0:
                self.dims[k + 1] = 0
                continue
            self._build_next(k)

    def _build_next(self, k: int) -> None:
        m = self.pentad.module_dim
        nk = self.dims[k]
        candidates: list[Vec] = []
        for a in range(m):
            up_prev = self.up[k - 1][a] if k > 1 else None
            for s in range(nk):
                cols: list[list[Q]] = []
                for r in range(m):
                    g = self._phi_units[a][r]
                    col = list(self._act_column(k, g, s))
                    if k == 1:
                        # [x_a, [u_s, y_r]] = -pi(Phi(u_s (x) y_r)) x_a
                        h = self._phi_units[s][r]
                        for t, x in enumerate(self._act_column(1, h, a)):
                            if x:
                                col[t] -= x
                    else:
                        # [u_s, y_r] is column r of the stored map
                        w = self.maps[k][s].col(r)
                        for t, wt in enumerate(w):
                            if wt:
                                for t2, uv in enumerate(up_prev[t]):
                                    if uv:
                                        col[t2] += wt * uv
                    cols.append(col)
                # row-major flat of the map matrix (rows: U_k coords, cols: y)
                flat = tuple(qnorm(col[t]) for t in range(nk) for col in cols)
                candidates.append(flat)
        basis = row_space_basis(candidates)
        self._candidates[k + 1] = candidates
        self.dims[k + 1] = len(basis)
        if not basis:
            self.up[k] = [[() for _ in range(nk)] for _ in range(m)]
            return
        self.maps[k + 1] = tuple(
            Matrix(tuple(v[t * m:(t + 1) * m] for t in range(self.dims[k])))
            for v in basis)
        # The basis is the RREF of the candidate stack, so each candidate's
        # coordinates are plain reads at the pivot columns.
        pivots = pivot_columns(basis)
        table: list[list[Vec]] = []
        idx = 0
        for a in range(m):
            row: list[Vec] = []
            for s in range(nk):
                cand = candidates[idx]
                row.append(tuple(cand[p] for p in pivots))
                idx += 1
            table.append(row)
        self.up[k] = table
        # Construction of degree k+2 needs the algebra action on degree k+1;
        # at the truncation bound the table is built on first use instead.
        if k + 1 < self.max_degree:
            self._build_action(k + 1)

    def _act_column(self, k: int, g: Vec, s: int) -> Vec:
        """Column s of the action of g on U_k."""
        mats = self.pentad.rep.action if k == 1 else self.actions[k]
        acc = list(zero_vec(self.dims[k]))
        for i, gi in enumerate(g):
            if not gi:
                continue
            for r, row in enumerate(mats[i].entries):
                x = row[s]
                if x:
                    acc[r] = acc[r] + gi * x
        return tuple(qnorm(x) for x in acc)

    def _build_action(self, degree: int) -> None:
        """(a.f)(y) = [a, f(y)] - f([a, y]) on the stored basis maps."""
        prev = degree - 1
        amats = self.pentad.rep.action if prev == 1 else self.actions[prev]
        dmats = self.pentad.dual.action
        basis_flats = [mp.flat() for mp in self.maps[degree]]
        pivots = pivot_columns(basis_flats)
        sparse_rows = [tuple((j, x) for j, x in enumerate(v) if x)
                       for v in basis_flats]
        out: list[Matrix] = []
        for i in range(self.pentad.algebra.dim):
            cols = []
            for mp in self.maps[degree]:
                g = (amats[i] @ mp - mp @ dmats[i]).flat()
                coords = tuple(g[p] for p in pivots)
                # Stability of the component under the algebra is what makes
                # pivot reads valid here, so rebuild and compare to be sure.
                resid = list(g)
                for c, srow in zip(coords, sparse_rows):
                    if c:
                        for j, x in srow:
                            resid[j] -= c * x
                if any(resid):
                    raise ArithmeticError("action left the component span")
                cols.append(coords)
            out.append(Matrix(tuple(zip(*cols))))
        self.actions[degree] = out

    def action_table(self, k: int) -> list[Matrix]:
        """Matrices of the algebra basis on U_k, built on first use at the
        truncation bound."""
        if k not in self.actions and self.dims.get(k, 0):
            self._build_action(k)
        return self.actions.get(k, [])

    def expansions(self, degree: int) -> list[tuple[tuple[Q, int, int], ...]]:
        """Each basis vector of U_degree as a combination of [x_a, u_s].

        Solved once per degree on first use; index pairs refer to the
        degree-one basis and the U_{degree-1} basis.
        """
        if degree in self._expansions:
            return self._expansions[degree]
        cands = self._candidates[degree]
        nk = self.dims[degree - 1]
        stack = Matrix(tuple(cands)).transpose()
        rhs = Matrix(tuple(mp.flat() for mp in self.maps[degree])).transpose()
        sols = solve_multi(stack, rhs)
        result = []
        for sol in sols:
            assert sol is not None, "basis vector outside candidate span"
            terms = []
            for pos, c in enumerate(sol):
                if c:
                    a_idx, s_idx = divmod(pos, nk)
                    terms.append((c, a_idx, s_idx))
            result.append(tuple(terms))
        self._expansions[degree] = result
        return result

    def evaluate(self, degree: int, f_coords: Vec, y: Vec) -> Vec:
        """[f, y] for f in U_degree (degree >= 2), y in U_{-1}: evaluation."""
        acc = zero_vec(self.dims[degree - 1])
        for s, c in enumerate(f_coords):
            if c:
                acc = vec_add(acc, vec_scale(c, self.maps[degree][s].apply(y)))
        return acc

    def up_bracket(self, k: int, x: Vec, u: Vec) -> Vec:
        """[x, u] for x in the degree-one line and u in U_k, via the table."""
        acc = zero_vec(self.dims.get(k + 1, 0))
        table = self.up.get(k)
        if table is None:
            return acc
        for a, xa in enumerate(x):
            if not xa:
                continue
            for s, us in enumerate(u):
                if us and table[a][s]:
                    acc = vec_add(acc, vec_scale(xa * us, table[a][s]))
        return acc

    def action(self, k: int, g: Vec, v: Vec) -> Vec:
        """[g, v] for v in U_k, k >= 1."""
        if k == 1:
            return self.pentad.rep.apply(g, v)
        acc = zero_vec(self.dims[k])
        mats = self.action_table(k)
        for i, gi in enumerate(g):
            if gi:
                acc = vec_add(acc, vec_scale(gi, mats[i].apply(v)))
        return acc


@dataclass(frozen=True)
class GradedVector:
    degree: int
    coords: Vec


class GradedAlgebra:
    """The truncated graded Lie algebra of a pentad.

    Degree 0 is the algebra in its own basis; degrees +-1 are the module and
    the dual in theirs; higher components are canonical echelon bases of
    candidate spans, positive degrees over the pentad and negative ones over
    its mirror.  All brackets are exact; general ones recurse through stored
    expansions and are memoized per basis pair.
    """

    def __init__(self, pentad: StandardPentad, max_degree: int):
        if max_degree < 1:
            raise DegreeError("max_degree must be at least 1")
        self.pentad = pentad
        self.max_degree = max_degree
        self.positive = _Half(pentad, max_degree)
        self.negative = _Half(mirror(pentad), max_degree)
        self._memo: dict[tuple[int, int, int, int], Vec] = {}
        self._dims = {0: pentad.algebra.dim}
        for k in range(1, max_degree + 1):
            self._dims[k] = self.positive.dims.get(k, 0)
            self._dims[-k] = self.negative.dims.get(k, 0)

    @property
    def dims(self) -> dict[int, int]:
        return dict(sorted(self._dims.items()))

    def dim(self, degree: int) -> int:
        if abs(degree) > self.max_degree:
            raise DegreeError(f"degree {degree} exceeds the bound {self.max_degree}")
        return self._dims[degree]

    def component_maps(self, degree: int) -> tuple[Matrix, ...]:
        """Basis of U_degree as maps, for |degree| >= 2."""
        if abs(degree) < 2:
            raise DegreeError("components below degree 2 are not stored as maps")
        half = self.positive if degree > 0 else self.negative
        return half.maps.get(abs(degree), ())

    def action_matrices(self, degree: int) -> list[Matrix]:
        """Matrices of the algebra basis acting on U_degree."""
        if degree == 0:
            d = self.pentad.algebra.dim
            return [self.pentad.algebra.ad_matrix(unit_coords(d, i)) for i in range(d)]
        if degree == 1:
            return list(self.pentad.rep.action)
        if degree == -1:
            return list(self.pentad.dual.action)
        half = self.positive if degree > 0 else self.negative
        return list(half.action_table(abs(degree)))

    def bracket(self, a: GradedVector, b: GradedVector) -> GradedVector:
        j, k = a.degree, b.degree
        for deg in (j, k, j + k):
            if abs(deg) > self.max_degree:
                raise DegreeError(f"degree {deg} exceeds the bound {self.max_degree}")
        if len(a.coords) != self._dims[j] or len(b.coords) != self._dims[k]:
            raise DegreeError("coordinate length does not match the component")
        return GradedVector(j + k, self._bracket(j, a.coords, k, b.coords))

    def _bracket(self, j: int, a: Vec, k: int, b: Vec) -> Vec:
        target = self._dims[j + k]
        if target == 0 or is_zero_vec(a) or is_zero_vec(b):
            return zero_vec(target)
        if j == 0:
            if k == 0:
                return self.pentad.algebra.bracket_coords(a, b)
            if k > 0:
                return self.positive.action(k, a, b)
            return self.negative.action(-k, a, b)
        if k == 0:
            return vec_neg(self._bracket(0, b, j, a))
        if j == 1:
            if k == -1:
                return self.positive.phi.apply(a, b)
            if k >= 1:
                return self.positive.up_bracket(k, a, b)
            return vec_neg(self.negative.evaluate(-k, b, a))
        if j == -1:
            if k == 1:
                return vec_neg(self.positive.phi.apply(b, a))
            if k <= -1:
                return self.negative.up_bracket(-k, a, b)
            return vec_neg(self.positive.evaluate(k, b, a))
        if j >= 2 and k == -1:
            return self.positive.evaluate(j, a, b)
        if j <= -2 and k == 1:
            return self.negative.evaluate(-j, a, b)
        # first argument in degree >= 2: expand into generator pairs
        acc = zero_vec(target)
        for s, cs in enumerate(a):
            if cs:
                acc = vec_add(acc, vec_scale(cs, self._bracket_unit(j, s, k, b)))
        return acc

    def _bracket_unit(self, j: int, s: int, k: int, b: Vec) -> Vec:
        """[e_s of U_j, b] for |j| >= 2, via [x,[u,b]] - [u,[x,b]]."""
        half = self.positive if j > 0 else self.negative
        one = 1 if j > 0 else -1
        prev = j - one
        m = self.pentad.module_dim
        acc = zero_vec(self._dims[j + k])
        for c, a_idx, u_idx in half.expansions(abs(j))[s]:
            x = unit_coords(m, a_idx)
            u = unit_coords(self._dims[prev], u_idx)
            ub = self._memo_bracket(prev, u_idx, k, b)
            term = self._bracket(one, x, prev + k, ub)
            xb = self._bracket(one, x, k, b)
            term = vec_add(term, vec_neg(self._bracket(prev, u, one + k, xb)))
            acc = vec_add(acc, vec_scale(c, term))
        return acc

    def _memo_bracket(self, j: int, s: int, k: int, b: Vec) -> Vec:
        """[e_s of U_j, b] expanded over the nonzero coordinates of b."""
        acc = zero_vec(self._dims[j + k])
        for t, bt in enumerate(b):
            if not bt:
                continue
            key = (j, s, k, t)
            got = self._memo.get(key)
            if got is None:
                got = self._bracket(j, unit_coords(self._dims[j], s),
                                    k, unit_coords(self._dims[k], t))
                self._memo[key] = got
            acc = vec_add(acc, vec_scale(bt, got))
        return acc


def extend(p: StandardPentad, max_degree: int) -> GradedAlgebra:
    """Build the graded algebra of the pentad up to the given degree."""
    return GradedAlgebra(p, max_degree)


def check_minimality(g: GradedAlgebra) -> bool:
    """No nonzero element of a stored component evaluates to zero.

    A vector of U_k (|k| >= 2) with [v, U_{-sign(k)}] = {0} would be exactly
    a linear dependence among the stored map matrices, so the condition is a
    rank equality on their flattened stack.  Stored bases are echelon rows,
    where strictly increasing leading columns already certify independence;
    anything else falls back to an actual rank computation.
    """
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


def check_grading(g: GradedAlgebra, h: GradingElement) -> bool:
    """ad(h) must act as the scalar 2n on every stored component U_n.

    Degrees 0 and +-1 are read off the defining actions.  For |n| >= 2 the
    stored basis maps F satisfy ad(h) F = M F - F D with M the action of h
    one degree down and D its action on the evaluation line, so the check
    runs against those tables and never forces the top-degree action table
    into existence.
    """
    p = g.pentad
    d = p.algebra.dim
    for j in range(d):
        if not is_zero_vec(p.algebra.bracket_coords(h.coords, unit_coords(d, j))):
            return False
    for degree, mats in ((1, p.rep.action), (-1, p.dual.action)):
        m = p.module_dim
        acc = Matrix.zeros(m, m)
        for hi, mat in zip(h.coords, mats):
            if hi:
                acc = acc + mat.scale(hi)
        if acc != Matrix.identity(m).scale(2 * degree):
            return False
    for half, sign in ((g.positive, 1), (g.negative, -1)):
        dmats = half.pentad.dual.action
        dh = Matrix.zeros(p.module_dim, p.module_dim)
        for hi, mat in zip(h.coords, dmats):
            if hi:
                dh = dh + mat.scale(hi)
        for n in range(2, g.max_degree + 1):
            if half.dims.get(n, 0) == 0:
                continue
            amats = half.pentad.rep.action if n == 2 else half.actions[n - 1]
            mh = Matrix.zeros(half.dims[n - 1], half.dims[n - 1])
            for hi, mat in zip(h.coords, amats):
                if hi:
                    mh = mh + mat.scale(hi)
            for f in half.maps[n]:
                if mh @ f - f @ dh != f.scale(2 * sign * n):
                    return False
    return True
