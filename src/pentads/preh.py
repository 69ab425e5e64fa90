"""Prehomogeneity and regularity decisions with exact certificates.

A pentad is prehomogeneous when some module vector x makes the map
phi -> Phi(x (x) phi) injective; such x are the generic points.  The
regularity test pairs a generic x with the grading element h, solves
Phi(x (x) y) = h for a dual vector y, and asks whether y in turn admits a
unique module-side partner.  Uniqueness on the first leg is injectivity of
phi -> Phi(x (x) phi); on the second it is injectivity of
xi -> Phi(xi (x) y).  Every verdict carries the ranks, kernels, and
witnesses needed to replay those claims independently.

Every rank, partner solve and kernel of both legs is taken on ad_on_dual(x)
and module_partner_map(y): the pentad's integer Phi slices (pentad.PhiMap),
read by module index and by dual index, combined by x and by y with the
shared linear_combination.  Both are D times the maps they stand for,
D = p.phi.denominator: ranks and kernels do not change under that scaling,
and the partner solves run against D h.

Random search only ever certifies positives: failing to sample a generic
point yields Inconclusive, never a negative verdict.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .exact_linalg import (
    Frozen,
    Matrix,
    Vec,
    check_length,
    is_zero_vec,
    kernel_basis,
    linear_combination,
    linear_combination_apply,
    rank,
    solve,
    vec_scale,
)
from .lie import scalar_center_report, unit_coords
from .pentad import GradingElement, StandardPentad, grading_element, random_int_vector


class ScalarCenterError(ValueError):
    """The center does not act on the module by a single nonzero scalar."""


class GradingElementError(ValueError):
    """The pentad admits no (unique) grading element."""


def ad_on_dual(p: StandardPentad, x: Vec) -> Matrix:
    """D times the matrix of phi -> Phi(x (x) phi), D = p.phi.denominator,
    shape (dim algebra) x (dim dual): Phi's module slices combined by x, so
    column r is D Phi(x (x) y_r) and integer x gives integer rows."""
    check_length(x, p.module_dim)
    return linear_combination(x, p.phi.module_slices)


def module_partner_map(p: StandardPentad, y: Vec) -> Matrix:
    """D times the matrix of xi -> Phi(xi (x) y), D = p.phi.denominator,
    shape (dim algebra) x (dim module): Phi's dual slices combined by y, so
    column a is D Phi(x_a (x) y)."""
    check_length(y, p.module_dim)
    return linear_combination(y, p.phi.dual_slices)


def is_generic(p: StandardPentad, x: Vec) -> bool:
    """True iff phi -> Phi(x (x) phi) is injective."""
    return rank(ad_on_dual(p, x)) == p.module_dim


class GenericSearch(NamedTuple):
    """Outcome of the generic-point sampling loop.

    A not_found result is never a proof of non-prehomogeneity: genericity
    is an open condition and the search is a finite random sample.
    """

    status: str  # "found" | "not_found"
    x: Vec | None
    rank: int
    needed: int
    attempts_used: int
    seed: int
    reason: str | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def witness(self) -> dict:  # an Inconclusive verdict's sampling log
        return {"reason": self.reason, "best_rank": self.rank, "needed": self.needed,
                "attempts": self.attempts_used}


def find_generic(p: StandardPentad, attempts: int = 64, seed: int = 0) -> GenericSearch:
    """Sample module vectors until one is generic.

    Unit vectors go first (cheap and often sufficient), then integer
    vectors from the shared sampling convention.  All m unit vectors are
    tried when m < attempts; otherwise only the first attempts // 2, so
    that half the budget is left for random draws, which land on the
    Zariski-open generic set with high probability.  The dual cannot
    embed into a smaller algebra, so that dimension gap short-circuits.
    """
    m, d = p.module_dim, p.algebra.dim
    if m > d:
        return GenericSearch(
            "not_found", None, 0, m, 0, seed,
            f"dual dimension {m} exceeds algebra dimension {d}; "
            "no injective map into the algebra exists")
    rng = random.Random(seed)
    units = m if m < attempts else attempts // 2
    best = 0
    used = 0
    for k in range(attempts):
        x = unit_coords(m, k) if k < units else random_int_vector(rng, m)
        used += 1
        r = rank(ad_on_dual(p, x))
        if r == m:
            return GenericSearch("found", x, r, m, used, seed)
        best = max(best, r)
    return GenericSearch(
        "not_found", None, best, m, used, seed,
        f"no generic point among {used} samples; best rank {best} of {m}")


class Sl2Triple(Frozen):
    """Triple (y, h, x) with [h,x] = 2x, [h,y] = -2y, [x,y] = h.

    All three relations are recomputed at construction; an instance that
    exists is a proof.
    """

    _fields = ("pentad", "y", "h", "x")

    def __init__(self, pentad: StandardPentad, y: Vec, h: Vec, x: Vec):
        self._init(pentad, y, h, x)
        if linear_combination_apply(h, pentad.rep.action, x) != vec_scale(2, x):
            raise ValueError("sl2 relation [h, x] = 2x fails")
        if linear_combination_apply(h, pentad.dual.action, y) != vec_scale(-2, y):
            raise ValueError("sl2 relation [h, y] = -2y fails")
        if pentad.phi.apply(x, y) != tuple(h):
            raise ValueError("sl2 relation [x, y] = h fails")


class PartnerResult(NamedTuple):
    """Classification of the partner system Phi(x (x) y) = h over y."""

    status: str  # "none" | "unique" | "affine"
    y: Vec | None
    kernel: tuple[Vec, ...]
    triple: Sl2Triple | None


def sl2_partner(p: StandardPentad, h: GradingElement, x: Vec) -> PartnerResult:
    """Solve Phi(x (x) y) = h for a dual vector y.

    The grading element makes the eigenvalue relations automatic for every
    x and y, so a unique solution ships as a verified Sl2Triple.  A status
    other than "none" means a nontrivial relative invariant exists.  The
    leg is D times the map, so the system is solved against D h.
    """
    if not isinstance(h, GradingElement):
        raise TypeError("sl2_partner takes the pentad's GradingElement")
    res = solve(ad_on_dual(p, x), vec_scale(p.phi.denominator, h.coords))
    if res.status == "none":
        return PartnerResult("none", None, (), None)
    if res.status == "affine":
        return PartnerResult("affine", res.solution, tuple(res.kernel), None)
    return PartnerResult("unique", res.solution, (),
                         Sl2Triple(p, res.solution, h.coords, x))


class RegularityVerdict(NamedTuple):
    """Decision plus everything needed to replay it.

    ranks maps a claim label to (achieved, needed); witness carries the
    failing clause and its exact evidence for NotRegular, or the sampling
    log for Inconclusive.
    """

    outcome: str  # "Regular" | "NotRegular" | "Inconclusive"
    h0: Vec | None
    x: Vec | None
    y: Vec | None
    ranks: dict
    witness: dict | None
    seed: int
    attempts: int


def decide_regularity(p: StandardPentad, attempts: int = 64, seed: int = 0) -> RegularityVerdict:
    """Decide regularity of the pentad's module.

    Steps: require the scalar-center hypothesis, compute the grading
    element, certify a generic point, solve for its unique dual partner,
    then test the partner's own module-side uniqueness.  The seed moves
    only the generic-point sample; the verdict is an orbit invariant, so
    seeds never disagree on the outcome.
    """
    report = scalar_center_report(p.algebra, p.rep.action)
    if not report.holds:
        raise ScalarCenterError(report.reason)
    gres = grading_element(p)
    if gres.status != "found":
        raise GradingElementError(f"grading element {gres.status}")
    h0 = gres.element
    search = find_generic(p, attempts, seed)
    if not search.found:
        return RegularityVerdict("Inconclusive", h0.coords, None, None, {}, search.witness,
                                 seed, attempts)
    x = search.x
    ranks = {"dual_partner_injectivity": (search.rank, search.needed)}
    pr = sl2_partner(p, h0, x)
    if pr.status == "none":
        return RegularityVerdict(
            "NotRegular", h0.coords, x, None, ranks,
            {"clause": "no_dual_partner"}, seed, attempts)
    if pr.status == "affine":
        # injectivity of ad_on_dual(x) rules this out for a generic x
        raise ArithmeticError("affine partner solution at a certified generic point")
    y = pr.y
    ker = kernel_basis(module_partner_map(p, y))
    if ker:
        return RegularityVerdict(
            "NotRegular", h0.coords, x, y, ranks,
            {"clause": "module_partner_kernel", "vector": ker[0]}, seed, attempts)
    # x itself solves Phi(xi (x) y) = h0, so with a trivial kernel the
    # module-side partner exists and is unique
    ranks["module_partner_injectivity"] = (p.module_dim, p.module_dim)
    return RegularityVerdict("Regular", h0.coords, x, y, ranks, None, seed, attempts)


def verify_certificate(p: StandardPentad, v: RegularityVerdict) -> bool:
    """Replay every claim in a verdict; True when all of them check out."""
    try:
        if v.h0 is None:
            return False
        h0 = tuple(v.h0)
        gres = grading_element(p)
        if gres.status != "found" or gres.element.coords != h0:
            return False
        if v.outcome == "Inconclusive":
            s = find_generic(p, v.attempts, v.seed)
            return (v.x is None and v.y is None and not v.ranks and not s.found
                    and v.witness == s.witness)
        x = tuple(v.x)
        full = (p.module_dim, p.module_dim)
        if v.outcome == "NotRegular":
            if v.ranks != {"dual_partner_injectivity": full} or not is_generic(p, x):
                return False
            clause = v.witness["clause"]
            if clause == "no_dual_partner":
                return sl2_partner(p, GradingElement(h0), x).status == "none"
            if clause == "module_partner_kernel":
                w = tuple(v.witness["vector"])
                y = tuple(v.y)
                return (not is_zero_vec(w)
                        and is_zero_vec(module_partner_map(p, y).apply(w))
                        and p.phi.apply(x, y) == h0)
            return False
        if v.outcome == "Regular":
            if v.witness is not None or v.ranks != {"dual_partner_injectivity": full,
                                                     "module_partner_injectivity": full}:
                return False
            # a unique partner makes ad_on_dual(x) injective, so x is generic, and
            # its Sl2Triple checked that x solves Phi(xi (x) y) = h0: unique is full rank
            pr = sl2_partner(p, GradingElement(h0), x)
            return (pr.status == "unique" and pr.y == tuple(v.y)
                    and rank(module_partner_map(p, pr.y)) == p.module_dim)
        return False
    except (ValueError, KeyError, TypeError):
        return False
