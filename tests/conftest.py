import random
from fractions import Fraction

import pytest

from nondiv.lattice import Scenario, TorusElement, UnimodularLattice, make_lattice
from nondiv import ratlin as rl
from reference import rat_right_kernel


def random_torus(rng: random.Random, block_dims) -> TorusElement:
    """Random determinant-1 block-scalar element built from a common rational base."""
    base = Fraction(rng.choice([2, 3, 5]), rng.choice([1, 2, 3]))
    if base == 1:
        base = Fraction(2)
    nb = len(block_dims)
    if nb == 1:
        return TorusElement((Fraction(1),), tuple(block_dims))
    f = [rng.randint(-2, 2) for _ in range(nb - 1)]
    d_last = block_dims[-1]
    exps = [fi * d_last for fi in f]
    exps.append(-sum(fi * di for fi, di in zip(f, block_dims[:-1])))
    return TorusElement(tuple(base ** e for e in exps), tuple(block_dims))


def random_unimodular_int(rng: random.Random, n: int, shears: int = 6, c: int = 2):
    m = [list(r) for r in rl.identity(n)]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        coef = rng.randint(-c, c)
        m[i] = [x + coef * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(r) for r in m)


def random_unimodular_lattice(rng: random.Random, n: int, *, shears: int = 5,
                              dyadic_range: int = 2) -> UnimodularLattice:
    """Unimodular shears times a dyadic diagonal of determinant one."""
    u = random_unimodular_int(rng, n, shears=shears, c=1)
    exps = [rng.randint(-dyadic_range, dyadic_range) for _ in range(n - 1)]
    exps.append(-sum(exps))
    diag = [Fraction(2) ** e for e in exps]
    rows = [[diag[i] * u[i][j] for j in range(n)] for i in range(n)]
    return make_lattice(rows)


def real_coordinate_subspace(lat, coords):
    """Lattice-coordinate subspace for the REAL span of {e_c : c in coords}."""
    n = lat.n
    constraints = [lat.basis[j] for j in range(n) if j not in coords]
    if not constraints:
        from nondiv.lattice import full_subspace
        return full_subspace(n)
    ker = rat_right_kernel(constraints)
    ints, _ = rl.scale_to_int(rl.rat_matrix(ker))
    from nondiv.lattice import subspace_from_rows
    return subspace_from_rows(n, ints)


@pytest.fixture
def rng():
    return random.Random(20260815)


def force_chain_search(monkeypatch):
    """Every scenario takes the chain search: `Scenario.full_block_algebra`
    reads False, so SL4/SO(2,1) enumerates, closes and builds quotients."""
    monkeypatch.setattr(Scenario, "full_block_algebra", property(lambda sc: False))


@pytest.fixture
def chain_search(monkeypatch):
    force_chain_search(monkeypatch)
