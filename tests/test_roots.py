"""The sign-change root engine: `_roots_over` and `rational_roots`.

Roots are checked against polynomials built from planted factors and
against the trial-division finder the engine replaced
(`reference.reference_rational_roots`).
"""

import random
import time
from collections import Counter
from fractions import Fraction

from nondiv.enumeration import _roots_over, delta_m, rational_roots
from nondiv.lattice import Scenario, _frame, standard_lattice

from reference import reference_rational_roots

F = Fraction


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def product(factors):
    p = [1]
    for f in factors:
        p = poly_mul(p, f)
    return p


# irreducible over Q: complex pairs, irrational pairs, a cubic with one real root
IRREDUCIBLE = ([1, 0, 1], [3, 1, 1], [-2, 0, 1], [-7, 0, 3], [-1, 1, 1], [-2, 0, 0, 1])


def planted(rng):
    """(coefficients, planted roots, the kinds of case they cover)."""
    factors, roots, kinds = [], set(), set()
    for _ in range(rng.randint(0, 3)):
        p, q = rng.randint(-9, 9), rng.randint(1, 4)
        mult = rng.choice((1, 1, 2))
        factors += [[-p, q]] * mult
        roots.add(F(p, q))
        kinds |= {"zero"} if p == 0 else set()
        kinds |= {"repeated"} if mult > 1 else set()
    if rng.random() < 0.5:
        factors.append(rng.choice(IRREDUCIBLE))
        kinds.add("irreducible")
    scale = F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((1, 1, 2, 9)))
    kinds |= {"negative"} if scale < 0 else set()
    if scale.denominator > 1:
        kinds.add("fraction")
        coeffs = [scale * c for c in product(factors)]
    else:
        coeffs = [int(scale) * c for c in product(factors)]
    return coeffs, sorted(roots), kinds


def test_rational_roots_match_planted_and_trial_division():
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(400):
        coeffs, roots, kinds = planted(rng)
        assert rational_roots(coeffs) == roots == reference_rational_roots(coeffs), coeffs
        seen.update(kinds | ({"rootless"} if not roots else set()))
    assert min(seen[k] for k in ("zero", "repeated", "irreducible", "negative",
                                 "fraction", "rootless")) >= 10, seen


def test_rational_roots_small_products_exhaustive():
    """Every product of two linear factors with small roots, either sign."""
    lin = [(p, q) for p in range(-8, 9) for q in (1, 2, 3)]
    for i, (p1, q1) in enumerate(lin):
        for p2, q2 in lin[i:]:
            poly = poly_mul([-p1, q1], [-p2, q2])
            want = sorted({F(p1, q1), F(p2, q2)})
            assert rational_roots(poly) == want, poly
            assert rational_roots([-c for c in poly]) == want, poly
            assert rational_roots(poly_mul(poly, [1, 1, 1])) == want, poly


def test_rational_roots_edge_cases():
    assert rational_roots([F(0)]) == rational_roots([0, 0, 0]) == [F(0)]
    assert rational_roots([5]) == rational_roots([F(-3, 2)]) == []
    assert rational_roots([0, 0, 0, 7]) == [F(0)]
    # zero coefficients above the leading one are dropped
    assert rational_roots([-2, 1, 0, 0]) == [F(2)]
    assert rational_roots([1, 0, 1]) == rational_roots([-2, 0, 1]) == []
    # Cauchy: |y| < a + max|p_i| and both ends are attained for a = 1
    for c in range(0, 30):
        assert rational_roots([-c, 1]) == [F(c)]
        assert rational_roots([c, 1]) == [F(-c)]
        assert rational_roots([0, -c, 1]) == sorted({F(0), F(c)})
        assert rational_roots([0, c, 1]) == sorted({F(-c), F(0)})


def test_roots_over_midpoints_and_ends():
    # on (0, 16] every integer is a bisection midpoint or the right end; the
    # roots found are y/a for a = |leading coefficient|
    ys = (0, 1, 4, 8, 12, 15, 16, 17)
    p = product([[-y, 1] for y in ys])
    got = _roots_over(p, 0, 16)
    assert got == [F(y) for y in ys if 0 < y <= 16]
    assert _roots_over([-c for c in p], 0, 16) == got
    assert _roots_over(p, 7, 8) == [F(8)]
    assert _roots_over(p, 8, 9) == []
    # an irrational pair between 1 and 2 is bisected down and rejected
    assert _roots_over(poly_mul(p, [-2, 0, 1]), 0, 16) == got
    # a = 3: the root 5/3 is y = 5, and the integer roots are y = 3·r
    q = poly_mul([-5, 3], product([[0, 1], [-2, 1], [-5, 1], [-6, 1]]))
    assert _roots_over(q, 0, 16) == [F(5, 3), F(2), F(5)]
    assert _roots_over(q, -1, 15) == [F(0), F(5, 3), F(2), F(5)]


def test_generator_eigenvalues_no_factoring_stall():
    """A large prime in a generator costs no trial division (was O(p^1.5))."""
    p = 10 ** 9 + 7
    g = ((F(p ** 3), F(0)), (F(0), F(1, p ** 3)))
    sc = Scenario(n=2, blocks=[(0, 2)], m_generators=(g,))
    lat = standard_lattice(2)
    start = time.perf_counter()
    d = delta_m(lat, sc)
    assert time.perf_counter() - start < 1
    assert _frame(lat, sc).eigenvalues == ((F(1, p ** 3), F(p ** 3)),)
    assert d.witness.rows == ((0, 1),) and d.witness_covol_sq == 1
