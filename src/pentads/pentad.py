"""Representations, dual modules, and the Phi-map.

A standard pentad bundles a representation of an algebra, a dual module with
an invertible pairing, and the Gram matrix of a nondegenerate invariant form.
The Phi-map sends a module vector and a dual vector to the unique algebra
element representing their matrix coefficient through the form; it is the
bracket U x dual(U) -> g of the graded algebra built downstream.  The grading
element (central, 2 on the module, -2 on the dual) is solved here for preh and graded.

The homomorphism axiom is checked once, when a Representation is
constructed, on the pairs that involve the algebra's generating set, so
every Representation is a genuine module and check_standard does not
repeat the check.

Sign conventions used throughout the package:
  [a, v] = pi(a) v          for a in g, v in U
  [v, a] = -pi(a) v
  [v, phi] = Phi(v (x) phi) for v in U, phi in the dual
  [phi, v] = -Phi(v (x) phi)
The dual action satisfies <pi(a)v, phi> + <v, pi*(a)phi> = 0 with the
pairing <v, phi> = transpose(v) . P . phi.
"""

from __future__ import annotations

import random
from functools import cached_property
from math import lcm, prod
from typing import Iterator, NamedTuple, Sequence

from .exact_linalg import (
    Frozen,
    Matrix,
    Q,
    SparseVec,
    Vec,
    check_length,
    cleared,
    inverse,
    kernel_basis,
    kronecker,
    linear_combination,
    linear_combination_apply,
    qnorm,
    qstr,
    ratio,
    solve,
)
from .lie import MatrixLieAlgebra, check_form, commutator, direct_sum, index_partners


class PentadError(ValueError):
    pass


class HomomorphismError(PentadError):
    """The action matrices do not respect the bracket."""

    def __init__(self, i: int, j: int):
        super().__init__(
            f"action of [b_{i}, b_{j}] differs from the commutator of the actions")
        self.pair = (i, j)


def homomorphism_failures(algebra: MatrixLieAlgebra, action: Sequence[Matrix],
                          among: Sequence[int] | None = None) -> Iterator[tuple[int, int]]:
    """The pairs i < j, in order, with [pi(b_i), pi(b_j)] != pi([b_i, b_j]);
    given the ascending indices among, only the pairs with i or j in it.

    Only the pairs whose actions share an index (lie.index_partners) or
    whose bracket is nonzero (j a key of structure[i]) are visited, since
    both sides vanish on the others; each side is a flat dict of nonzeros,
    pi([b_i, b_j]) summed over the sparse structure table.
    """
    m = action[0].cols
    maps = [dict(a.nonempty()) for a in action]
    marked = set(range(algebra.dim) if among is None else among)
    for i, (partners, table_row) in enumerate(zip(index_partners(maps), algebra.structure)):
        if i in marked:
            js = partners.union(j for j in table_row if j > i)
        else:
            js = {j for j in among if j > i and (j in partners or j in table_row)}
        for j in sorted(js):
            acc = commutator(maps[i], maps[j], m)
            for k, g in table_row.get(j, ()):
                for r, row in maps[k].items():
                    for t, y in row:
                        acc[r * m + t] = acc.get(r * m + t, 0) - g * y
            if any(acc.values()):
                yield (i, j)


class Representation(Frozen):
    """Action matrices for each algebra basis element, one-to-one.

    The homomorphism property is verified at construction; downstream code
    can therefore treat any Representation instance as a genuine module.
    """

    _fields = ("algebra", "action")

    def __init__(self, algebra: MatrixLieAlgebra, action: tuple[Matrix, ...]):
        self._init(algebra, action)
        self.__post_init__()  # its own method: perfbench's tracer times it by name

    def __post_init__(self):
        if len(self.action) != self.algebra.dim:
            raise PentadError("one action matrix per basis element is required")
        if not self.action:
            raise PentadError("zero-dimensional algebras are not supported here")
        m = self.action[0].rows
        for a in self.action:
            if a.shape() != (m, m):
                raise PentadError("action matrices must be square and equally sized")
        # pi is a homomorphism once it respects every bracket with a
        # generator: the x with pi([x, y]) = [pi(x), pi(y)] for all y form a
        # subalgebra (Jacobi).  Only a failure there pays for the full scan
        # that names the first failing pair.
        if next(homomorphism_failures(self.algebra, self.action,
                                      self.algebra.generators), None) is not None:
            raise HomomorphismError(*next(homomorphism_failures(self.algebra, self.action)))

    @property
    def module_dim(self) -> int:
        return self.action[0].rows


class DualModule(Frozen):
    """Dual action matrices plus the pairing <v, phi> = t(v).P.phi.

    Compatibility with the primal action is not enforced here; it is one of
    the axioms check_standard reports on, so a broken dual module can still
    be constructed and diagnosed.
    """

    _fields = ("action", "pairing")

    def __init__(self, action: tuple[Matrix, ...], pairing: Matrix):
        self._init(action, pairing)
        if not self.action:
            raise PentadError("dual module needs at least one action matrix")
        m = self.pairing.rows
        if self.pairing.cols != m:
            raise PentadError("pairing matrix must be square")
        for a in self.action:
            if a.shape() != (m, m):
                raise PentadError("dual action matrices must match the pairing size")

    @property
    def dim(self) -> int:
        return self.pairing.rows


def dual_representation(rep: Representation, pairing: Matrix | None = None) -> DualModule:
    """Contragredient dual: pi*(a) = -inverse(P) . t(pi(a)) . P, each
    product formed as written; no pairing means the identity."""
    if pairing is None:
        pairing = Matrix.identity(rep.module_dim)
    if pairing.shape() != (rep.module_dim, rep.module_dim):
        raise PentadError("pairing size must match the module dimension")
    try:
        neg_inv = -inverse(pairing)
    except ValueError:
        raise PentadError("pairing is singular; the contragredient dual is not defined") from None
    return DualModule(tuple(neg_inv @ a.transpose() @ pairing for a in rep.action), pairing)


class StandardPentad(Frozen):
    """A representation, its dual module, and the Gram matrix of the form on
    the representation's algebra."""

    _fields = ("rep", "dual", "form")

    def __init__(self, rep: Representation, dual: DualModule, form: Matrix):
        self._init(rep, dual, form)
        if len(self.dual.action) != self.algebra.dim:
            raise PentadError("one dual action matrix per basis element is required")
        if self.dual.dim != self.rep.module_dim:
            raise PentadError("dual dimension must equal the module dimension")
        if self.form.shape() != (self.algebra.dim, self.algebra.dim):
            raise PentadError("form size must match the algebra dimension")

    @property
    def algebra(self) -> MatrixLieAlgebra:
        return self.rep.algebra

    @property
    def module_dim(self) -> int:
        return self.rep.module_dim

    @cached_property
    def phi(self) -> PhiMap:
        """The pentad's Phi-map, built on first use and shared afterwards."""
        return PhiMap(self)


class AxiomFailure(NamedTuple):
    axiom: str
    indices: tuple[int, ...]
    detail: str


class ValidationReport(NamedTuple):
    ok: bool
    failures: tuple[AxiomFailure, ...]
    notes: tuple[str, ...]


def check_standard(p: StandardPentad) -> ValidationReport:
    """Verify every standard-pentad axiom, collecting witnesses for failures.

    The homomorphism axiom is not re-checked: p.rep passed it at construction.
    Dual compatibility is t(pi(b_i)) . P + P . pi*(b_i) = 0, each product
    formed as written, and a failure names the first nonzero entry.
    """
    failures: list[AxiomFailure] = []

    form_report = check_form(p.algebra, p.form)
    if not form_report.symmetric:
        i, j = form_report.symmetry_witness
        failures.append(AxiomFailure(
            "form_symmetric", (i, j),
            f"B(b_{i},b_{j}) = {qstr(p.form.entry(i, j))} but "
            f"B(b_{j},b_{i}) = {qstr(p.form.entry(j, i))}"))
    if not form_report.nondegenerate:
        w = form_report.kernel_witness
        failures.append(AxiomFailure(
            "form_nondegenerate", (),
            "radical contains " + "(" + ", ".join(qstr(x) for x in w) + ")"))
    if not form_report.invariant:
        i, j, k = form_report.invariance_witness
        failures.append(AxiomFailure(
            "form_invariant", (i, j, k),
            f"B([b_{i},b_{j}],b_{k}) != B(b_{i},[b_{j},b_{k}])"))

    ker = kernel_basis(p.dual.pairing)
    if ker:
        failures.append(AxiomFailure(
            "pairing_invertible", (),
            "pairing kernel contains "
            + "(" + ", ".join(qstr(x) for x in ker[0]) + ")"))

    for i, (a, d) in enumerate(zip(p.rep.action, p.dual.action)):
        resid = a.transpose() @ p.dual.pairing + p.dual.pairing @ d
        if not resid.is_zero():
            r, (c, x) = next((r, row[0]) for r, row in enumerate(resid.nonzeros) if row)
            failures.append(AxiomFailure(
                "dual_compatibility", (i,),
                f"t(pi(b_{i})).P + P.pi*(b_{i}) has entry "
                f"{qstr(x)} at ({r}, {c})"))

    notes = (
        "With B nondegenerate, a -> B(a, .) identifies the algebra with its "
        "dual space, so the Phi-map exists and is unique; no separate "
        "existence check is needed.",
    )
    return ValidationReport(not failures, tuple(failures), notes)


class PhiMap:
    """Solver for B(a, Phi(v (x) phi)) = <pi(a)v, phi>, as integer slice
    matrices over one common denominator.

    With G the form's gram matrix, Phi(v (x) phi) = G^-1 . t where
    t_i = <pi(b_i)v, phi> = t(v).W_i.phi and W_i = t(pi(b_i)).P.  Stacking
    the flattened W_i as the rows of a dim x m^2 matrix W, column a m + r of
    the one product G^-1 . W is Phi(x_a (x) y_r).  Its values are scaled by
    the positive integer `denominator` D, the lcm of their denominators, so
    every entry is an int, and regrouped in one pass as dim x m Matrix
    slices read by either index:

      module_slices[a]  D Phi(x_a (x) .), row i and column r holding
                        coordinate i of D Phi(x_a (x) y_r);
      dual_slices[r]    D Phi(. (x) y_r), row i and column a holding the
                        same value.

    They are the only stored form of Phi, and every reader is one shared
    Matrix helper: apply is linear_combination_apply over the module slices
    with one division by D, the regularity legs (preh.ad_on_dual and
    preh.module_partner_map) are linear_combination over either set, and
    the graded construction takes their flat nonzeros as its degree-one
    maps.  Every pentad owns one instance, StandardPentad.phi.
    """

    def __init__(self, p: StandardPentad):
        d, m = p.algebra.dim, p.module_dim
        try:
            ginv = inverse(p.form)
        except ValueError:
            raise PentadError("form is degenerate; the Phi-map is not defined") from None
        table = ginv @ Matrix.from_nonzeros(
            ((a.transpose() @ p.dual.pairing).flat_nonzeros() for a in p.rep.action), m * m)
        self.denominator = den = lcm(*(c.denominator for row in table.nonzeros for _, c in row))
        # module[a][i] and dual[r][i]: the nonzeros of row i of each slice,
        # ascending because each row of the table is ascending in a m + r
        module, dual = ([[[] for _ in range(d)] for _ in range(m)] for _ in range(2))
        for i, row in enumerate(table.nonzeros):
            for col, c in row:
                a, r = divmod(col, m)
                c = c.numerator * (den // c.denominator)
                module[a][i].append((r, c))
                dual[r][i].append((a, c))
        self.module_slices, self.dual_slices = (
            tuple(Matrix.from_nonzeros(map(tuple, rows), m) for rows in slices)
            for slices in (module, dual))

    def apply(self, v: Sequence[Q], phi: Sequence[Q]) -> Vec:
        """Algebra coordinates of Phi(v (x) phi): the inputs' denominators
        are cleared once, the module slices combined by v and applied to phi
        in integers, and the sum divided once."""
        check_length(v, len(self.module_slices))
        check_length(phi, len(self.dual_slices))
        (v, dv), (phi, dphi) = cleared(v), cleared(phi)
        denom = self.denominator * dv * dphi
        return tuple(ratio(x, denom)
                     for x in linear_combination_apply(v, self.module_slices, phi))


class GradingElement(NamedTuple):
    """Coordinates of the algebra element acting as the degree on each piece:
    centrally on degree 0, by 2 on the module, by -2 on the dual."""

    coords: Vec


class GradingElementResult(NamedTuple):
    status: str  # "found" | "absent" | "degenerate"
    element: GradingElement | None
    solution_space: tuple[Vec, ...]


def grading_element(p: StandardPentad) -> GradingElementResult:
    """Solve the joint linear system for the grading element.

    Unknown g in algebra coordinates; equations: [g, b_j] = 0 for every
    basis element, pi(g) = 2 Id, and pi*(g) = -2 Id.  The dual rows are
    implied by the others for compatible pentads but keeping them makes the
    result meaningful on broken input too.

    The commutation rows are solved once, by the algebra's center: g = K z
    with K the canonical center basis (as columns) and z in Q^(dim z(g)),
    so only the action rows remain, as the system A K z = (2 Id, -2 Id) in
    z, one row per matrix cell and side; an empty cell stays as the
    equation 0 = +-2 on the diagonal and is left out off it, where it reads
    0 = 0.  Lifting through K gives exactly the canonical answer of the
    full system [C; A] g = (0, 2 Id, -2 Id).  K is the identity on the
    free columns F of C, and a kernel vector K_f is zero past its own free
    column F_f.  So the full system's pivots are C's pivots plus F_j for
    each pivot j of A K, its solution set is K times the small one, and a
    solution that vanishes on the full system's free columns is K times
    one that vanishes on the small system's: the canonical particular
    solution and the kernel basis are K times those of the small system.
    """
    m = p.module_dim
    center = p.algebra.center
    rows: list[SparseVec] = []
    rhs: list[Q] = []
    for action, lam in ((p.rep.action, 2), (p.dual.action, -2)):
        images = Matrix.from_nonzeros(
            (linear_combination(z, action).flat_nonzeros() for z in center), m * m)
        for cell, row in enumerate(images.transpose().nonzeros):
            diagonal = cell % (m + 1) == 0
            if row or diagonal:
                rows.append(row)
                rhs.append(lam if diagonal else 0)
    res = solve(Matrix.from_nonzeros(rows, len(center)), tuple(rhs))
    if res.status == "none":
        return GradingElementResult("absent", None, ())

    def lift(z: Vec) -> Vec:
        return tuple(qnorm(sum(zf * k[i] for zf, k in zip(z, center)))
                     for i in range(p.algebra.dim))

    element = GradingElement(lift(res.solution))
    if res.status == "affine":
        return GradingElementResult("degenerate", element, tuple(map(lift, res.kernel)))
    return GradingElementResult("found", element, ())


def random_int_vector(rng: random.Random, n: int) -> Vec:
    """Uniform integer entries in [-9, 9]; the shared sampling convention."""
    return tuple(rng.randint(-9, 9) for _ in range(n))


def box_tensor(blocks: Sequence[tuple[int, Sequence[Matrix]]]) -> Representation:
    """Box tensor of the defining modules of (ambient size, basis) blocks,
    over their direct sum.

    A basis element b of block k acts as Id (x) ... (x) b (x) ... (x) Id on
    the row-major tensor module.
    """
    if not blocks:
        raise PentadError("box_tensor needs at least one factor")
    dims = [size for size, _ in blocks]
    return Representation(direct_sum(blocks), tuple(
        kronecker(kronecker(Matrix.identity(prod(dims[:k])), b),
                  Matrix.identity(prod(dims[k + 1:])))
        for k, (_, basis) in enumerate(blocks) for b in basis))
