"""Bundled example scenarios and lattice builders.

The 4-dimensional scenario couples a one-dimensional block with a
three-dimensional block carrying a rational orthogonal-group action that
preserves the form diag(1, 1, -1). Its generators span the whole block
algebra Q ⊕ M_3(Q) (`Scenario.full_block_algebra`), so its only stable
proper nonzero subspaces are the two coordinate blocks, and `delta_m`,
`stable_subspaces_within` and `protect` measure those two in closed form
instead of running the chain search. It is the canonical nontrivial test
bed for the whole push-out pipeline; the tests force the chain search on it
by patching that flag.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lattice import (Scenario, TorusElement, UnimodularLattice, make_lattice,
                      make_scenario)

F = Fraction


def so21_generators_3d() -> tuple:
    """Three rational generators preserving x² + y² - z²: two boosts, one rotation."""
    b13 = ((F(5, 4), F(0), F(3, 4)),
           (F(0), F(1), F(0)),
           (F(3, 4), F(0), F(5, 4)))
    b23 = ((F(1), F(0), F(0)),
           (F(0), F(5, 4), F(3, 4)),
           (F(0), F(3, 4), F(5, 4)))
    r12 = ((F(3, 5), F(-4, 5), F(0)),
           (F(4, 5), F(3, 5), F(0)),
           (F(0), F(0), F(1)))
    return b13, b23, r12


def sl4_so21_scenario() -> Scenario:
    """Blocks {1} and {2,3,4}; M acts trivially on the first, hyperbolically on the second."""
    gens = []
    for g0 in so21_generators_3d():
        g = [[F(0)] * 4 for _ in range(4)]
        g[0][0] = F(1)
        for i in range(3):
            for j in range(3):
                g[i + 1][j + 1] = g0[i][j]
        gens.append(tuple(tuple(r) for r in g))
    return make_scenario(4, [(0, 1), (1, 4)], gens)


def sl4_torus(t) -> TorusElement:
    """diag(t³, 1/t, 1/t, 1/t) as a block-scalar element of the 4-dim scenario."""
    t = F(t)
    return TorusElement(scalars=(t ** 3, 1 / t), block_dims=(1, 3))


def sl4_torus_lattice(t) -> UnimodularLattice:
    """s_t·Z⁴ for the 4-dim scenario."""
    t = F(t)
    d = (t ** 3, 1 / t, 1 / t, 1 / t)
    return make_lattice([[d[i] if i == j else F(0) for j in range(4)] for i in range(4)])


def diagonal_lattice(*entries) -> UnimodularLattice:
    es = [F(e) for e in entries]
    n = len(es)
    return make_lattice([[es[i] if i == j else F(0) for j in range(n)] for i in range(n)])


def squash_lattice_2d(eps) -> UnimodularLattice:
    """diag(ε, 1/ε)·Z²."""
    eps = F(eps)
    return diagonal_lattice(eps, 1 / eps)


def random_upper_triangular_lattices(n: int, count: int) -> list[UnimodularLattice]:
    """The first `count` seeded random upper-triangular lattices of dimension n.

    One `random.Random(n)` draws, per lattice: n-1 exponents e uniform in
    -3..3 and a last one making their sum 0, the diagonal being 2^e; then,
    row by row, each entry above the diagonal as a/b with a uniform in -4..4
    and b uniform in {1, 2, 3}. The basis vectors are the columns.
    """
    rng = random.Random(n)
    out = []
    for _ in range(count):
        exps = [rng.randint(-3, 3) for _ in range(n - 1)]
        exps.append(-sum(exps))
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = F(2) ** exps[i]
            for j in range(i + 1, n):
                rows[i][j] = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        out.append(make_lattice(rows))
    return out
