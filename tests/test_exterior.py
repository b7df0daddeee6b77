import itertools
import random
from fractions import Fraction

import pytest

from nondiv.errors import DegreeOutOfRange, DependentVectors, ValidationError
from nondiv.exterior import (PureWedge, apply_torus_to_wedge,
                             contraction_constant, wedge_scaling_range)
from nondiv.lattice import TorusElement

from conftest import random_torus
from reference import torus_inverse

F = Fraction


def brute_range(diag, k):
    """Oracle: extremes over all k-subsets of coordinate scalars."""
    prods = set()
    for combo in itertools.combinations(range(len(diag)), k):
        p = F(1)
        for c in combo:
            p *= diag[c]
        prods.add(p)
    return min(prods), max(prods)


def test_range_examples():
    s = TorusElement((F(4), F(1, 4)), (1, 1))
    assert wedge_scaling_range(s, 1) == (F(1, 4), F(4))
    assert wedge_scaling_range(s, 2) == (F(1), F(1))
    st = TorusElement((F(8), F(1, 2)), (1, 3))  # diag(8, 1/2, 1/2, 1/2)
    assert wedge_scaling_range(st, 2) == (F(1, 4), F(4))
    assert wedge_scaling_range(st, 2) == brute_range(st.diagonal(), 2)


def test_range_degree_errors():
    s = TorusElement((F(2), F(1, 2)), (1, 1))
    with pytest.raises(DegreeOutOfRange):
        wedge_scaling_range(s, 0)
    with pytest.raises(DegreeOutOfRange):
        wedge_scaling_range(s, 3)


def test_range_degree_must_be_an_exact_integer():
    s = TorusElement((F(2), F(1, 2)), (1, 1))
    for k, message in ((1.0, "expected an int or Fraction, got float"),
                       (True, "expected an int or Fraction, got bool"),
                       (F(3, 2), "expected an integer, got 3/2")):
        with pytest.raises(ValidationError) as err:
            wedge_scaling_range(s, k)
        assert (err.value.field, err.value.message) == ("k", message)
    assert wedge_scaling_range(s, F(1)) == wedge_scaling_range(s, 1)


@pytest.mark.parametrize("dim", [3, 5])
def test_wedge_of_another_dimension_is_rejected(dim):
    s = TorusElement((F(8), F(1, 2)), (1, 3))  # diag(8, 1/2, 1/2, 1/2)
    v = PureWedge(spanning_vectors=tuple(tuple(F(int(i == j)) for j in range(dim))
                                         for i in range(2)))
    with pytest.raises(ValidationError) as err:
        apply_torus_to_wedge(s, v)
    assert (err.value.field, err.value.message) == (
        "spanning_vectors", f"vectors are {dim}-dimensional, torus element is 4")


def test_contraction_examples():
    ident = TorusElement((F(1), F(1)), (1, 1))
    assert contraction_constant(ident) == 1
    s = TorusElement((F(4), F(1, 4)), (1, 1))
    assert contraction_constant(s) == 4
    st = TorusElement((F(8), F(1, 2)), (1, 3))
    assert contraction_constant(st) == 8
    # attained at degree 3: product of the three smallest scalars is 1/8
    assert wedge_scaling_range(st, 3)[0] == F(1, 8)


def test_top_degree_is_determinant():
    rng = random.Random(31)
    for _ in range(50):
        dims = rng.choice([(1, 1), (1, 2), (2, 1), (1, 1, 2), (1, 3)])
        s = random_torus(rng, dims)
        n = sum(dims)
        assert wedge_scaling_range(s, n) == (F(1), F(1))


def test_inverse_relation():
    rng = random.Random(37)
    for _ in range(50):
        dims = rng.choice([(1, 1), (1, 2), (1, 1, 1), (1, 3)])
        s = random_torus(rng, dims)
        n = sum(dims)
        for k in range(1, n + 1):
            lo, hi = wedge_scaling_range(s, k)
            ilo, ihi = wedge_scaling_range(torus_inverse(s), k)
            assert (ilo, ihi) == (1 / hi, 1 / lo)


def test_range_brackets_concrete_wedges():
    rng = random.Random(41)
    for _ in range(120):
        dims = rng.choice([(1, 1), (1, 2), (1, 1, 1), (1, 3), (2, 2)])
        n = sum(dims)
        s = random_torus(rng, dims)
        k = rng.randint(1, n)
        vecs = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(k)]
        try:
            v = PureWedge(spanning_vectors=tuple(tuple(r) for r in vecs))
        except DependentVectors:
            continue
        sv = apply_torus_to_wedge(s, v)
        lo, hi = wedge_scaling_range(s, k)
        assert lo ** 2 * v.sq_norm <= sv.sq_norm <= hi ** 2 * v.sq_norm
        assert sv.sq_norm >= v.sq_norm / contraction_constant(s) ** 2


def test_range_extremes_match_brute_force():
    rng = random.Random(43)
    for _ in range(60):
        dims = rng.choice([(1, 1), (1, 2), (1, 1, 1), (1, 3)])
        s = random_torus(rng, dims)
        n = sum(dims)
        for k in range(1, n + 1):
            assert wedge_scaling_range(s, k) == brute_range(s.diagonal(), k)


def test_pure_wedge_rejects_dependent():
    with pytest.raises(DependentVectors):
        PureWedge(spanning_vectors=((F(1), F(2)), (F(2), F(4))))


def reference_contraction_constant(s):
    """The per-degree form: max(1, max_k 1/(product of the k smallest scalars))."""
    worst = F(1)
    for k in range(1, len(s.diagonal()) + 1):
        lo, _ = wedge_scaling_range(s, k)
        worst = max(worst, 1 / lo)
    return worst


def test_contraction_constant_matches_per_degree_form():
    rng = random.Random(61)
    shapes = [(1, 1), (2, 1), (1, 3), (2, 2), (1, 1, 1), (1, 2, 1), (3, 1, 2),
              (1, 1, 1, 1), (2, 1, 1, 2), (1, 1, 1, 1, 1)]
    values = set()
    for _ in range(300):
        s = random_torus(rng, rng.choice(shapes))
        got = contraction_constant(s)
        assert got == reference_contraction_constant(s), s
        values.add(got)
    assert F(1) in values and len(values) > 20
