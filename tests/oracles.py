"""Reference code the tests check the library against.

None of it is on the pipeline's path: it reconstructs ambient matrices from
algebra coordinates, reads coordinates back with a dense solve, and checks
the Phi-map's equivariance identity on random samples.
"""

import random

from pentads.exact_linalg import Matrix, solve_multi, vec_add
from pentads.lie import unit_coords
from pentads.pentad import random_int_vector


def matrix_of(alg, coords):
    """The ambient matrix with the given coordinates in alg's basis."""
    if len(coords) != alg.dim:
        raise ValueError("coordinate length does not match dimension")
    acc = Matrix.zeros(alg.ambient_size, alg.ambient_size)
    for c, b in zip(coords, alg.basis):
        if c:
            acc = acc + b.scale(c)
    return acc


def coords_of(alg, m):
    """Coordinates of an ambient matrix in alg's basis, or None outside the span."""
    stack = Matrix(tuple(b.flat() for b in alg.basis)).transpose()
    return solve_multi(stack, Matrix(tuple((x,) for x in m.flat())))[0]


def equivariance_failure(p, trials=20, seed=0):
    """The first failure of Phi(pi(a)v (x) phi) + Phi(v (x) pi*(a)phi) =
    [a, Phi(v (x) phi)] over every basis element a and `trials` seeded random
    (v, phi) pairs, as a readable witness; None when the identity holds."""
    rng = random.Random(seed)
    d, m = p.algebra.dim, p.module_dim
    for t in range(trials):
        v = random_int_vector(rng, m)
        phi = random_int_vector(rng, m)
        base = p.phi.apply(v, phi)
        for i in range(d):
            av = p.rep.action[i].apply(v)
            aphi = p.dual.action[i].apply(phi)
            lhs = vec_add(p.phi.apply(av, phi), p.phi.apply(v, aphi))
            if lhs != p.algebra.bracket_coords(unit_coords(d, i), base):
                return f"basis element {i}, trial {t}: v = {v}, phi = {phi}"
    return None
