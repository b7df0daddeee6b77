import itertools
import math
import random
from fractions import Fraction

import pytest

from nondiv.errors import DependentVectors, InternalInvariantViolation, ValidationError
from nondiv import ratlin as rl
from nondiv.lattice import RationalSubspace, covolume_sq, make_lattice
from reference import (_rref, fraction_det, int_inverse_unimodular, rat_rank,
                       rat_right_kernel, real_rows, span_contains)


def brute_same_row_span_z(a, b, coeff=4):
    """Oracle: every row of each matrix is an integer combination of the other's rows.

    Brute force over small coefficient boxes; only usable for tiny matrices.
    """
    def covered(rows, target):
        k = len(rows)
        for coeffs in itertools.product(range(-coeff, coeff + 1), repeat=k):
            v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(target))]
            if tuple(v) == tuple(target):
                return True
        return False
    return all(covered(b, r) for r in a if any(r)) and all(covered(a, r) for r in b if any(r))


def test_hnf_example_2x2():
    h, u = rl.hnf([[2, 4], [1, 1]])
    assert h == ((1, 1), (0, 2))
    assert rl.mat_mul(u, [[2, 4], [1, 1]]) == h
    assert abs(fraction_det(u)) == 1
    assert brute_same_row_span_z([[2, 4], [1, 1]], h)


def test_hnf_identity_and_zero():
    h, u = rl.hnf(rl.identity(3))
    assert h == rl.identity(3)
    z = ((0, 0), (0, 0))
    h, u = rl.hnf(z)
    assert h == z
    assert abs(fraction_det(u)) == 1


def test_hnf_shape_conventions():
    rng = random.Random(11)
    for _ in range(200):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(rng.randint(1, 4))]
        h, u = rl.hnf(rows)
        assert rl.mat_mul(u, rows) == h
        assert abs(fraction_det(u)) == 1
        # echelon with positive pivots, reduced above, zero rows trailing
        seen_zero = False
        last_pivot = -1
        for r in h:
            nz = [j for j, x in enumerate(r) if x]
            if not nz:
                seen_zero = True
                continue
            assert not seen_zero
            p = nz[0]
            assert p > last_pivot
            last_pivot = p
            assert r[p] > 0
        pivots = [(i, next(j for j, x in enumerate(r) if x)) for i, r in enumerate(h) if any(r)]
        for i, p in pivots:
            for k in range(i):
                assert 0 <= h[k][p] < h[i][p]
        # idempotence
        h2, _ = rl.hnf(h)
        assert h2 == h


def test_saturate_examples():
    assert rl.saturate([[2, 0], [0, 2]]) == ((1, 0), (0, 1))
    assert rl.saturate([[1, 1, 0]]) == ((1, 1, 0),)
    assert rl.saturate([[2, 2, 0], [0, 0, 3]]) == ((1, 1, 0), (0, 0, 1))


def test_saturate_231_denominator_oracle():
    # each returned vector lies in the Q-span, is integral, and no vector of
    # the span with denominator up to the original index is missed
    sat = rl.saturate([[2, 2, 0], [0, 0, 3]])
    for den in range(1, 7):
        for a in range(-6, 7):
            for b in range(-6, 7):
                v = (Fraction(2 * a, den), Fraction(2 * a, den), Fraction(3 * b, den))
                if all(x.denominator == 1 for x in v):
                    vi = tuple(int(x) for x in v)
                    assert span_contains(sat, vi)
                    # integral member of the span must be an integer combo of sat
                    rrefd, piv = _rref(list(sat) + [vi])
                    assert len(piv) == 2


def test_saturate_idempotent_and_span_preserving():
    rng = random.Random(7)
    for _ in range(150):
        rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        s = rl.saturate(rows)
        assert rl.saturate(s) == s
        assert rat_rank(s) == rat_rank([r for r in rows if any(r)])
        for r in rows:
            assert span_contains(s, r)


def test_saturate_matches_kernel_of_kernel():
    """A span whose HNF has unit pivots is returned as that HNF, which must
    be the bytes of the kernel of the kernel; any other span takes the
    kernel route."""
    def kernel_of_kernel(rows):
        ker = rl.right_kernel_int(rows)
        return rl.right_kernel_int(ker) if ker else rl.identity(len(rows[0]))

    assert rl.saturate([(2, 0)]) == ((1, 0),)
    assert rl.saturate([(1, 1), (1, -1)]) == ((1, 0), (0, 1))
    assert rl.saturate([(0, 0, 0), (0, 0, 0)]) == ()
    rng = random.Random(20261021)
    kinds = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        roll = rng.random()
        if roll < 0.2:  # a dependent row
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        elif roll < 0.4:  # a row scaled off the saturation
            rows[-1] = [rng.choice((2, 3)) * x for x in rows[-1]]
        elif roll < 0.5:
            rows.insert(rng.randint(0, len(rows)), [0] * n)
        rng.shuffle(rows)
        h = rl.hnf_rows(rows)
        kinds[all(next(filter(None, r)) == 1 for r in h if any(r))] += 1
        assert rl.saturate(rows) == kernel_of_kernel(rows), rows
    assert min(kinds.values()) > 300


def test_saturate_divides_rows_by_their_content(monkeypatch):
    """Rows that each carry a common factor span the saturation once divided
    by it, so they take one HNF and no kernel; primitive rows whose HNF has
    a pivot above 1 still take the kernel route."""
    kernels = []
    real_kernel = rl.right_kernel_int
    monkeypatch.setattr(rl, "right_kernel_int", lambda m: kernels.append(m) or real_kernel(m))
    assert rl.saturate([(2, 4, 0), (0, 0, 3)]) == ((1, 2, 0), (0, 0, 1))
    assert rl.saturate([(2, 0), (0, -2)]) == ((1, 0), (0, 1))
    assert rl.saturate([(0, 3, -6)]) == ((0, 1, -2),)
    assert kernels == []
    assert rl.saturate([(1, 1), (1, -1)]) == ((1, 0), (0, 1))
    assert kernels


def test_gram_det_examples():
    assert rl.gram_det([[1, 0, 0], [0, 1, 0]]) == 1
    assert rl.gram_det([[1, 1, 0], [0, 1, 1]]) == 3
    assert rl.gram_det([[2, 0], [0, Fraction(1, 2)]]) == 1
    with pytest.raises(DependentVectors):
        rl.gram_det([[1, 2], [2, 4]])


def test_gram_det_reorder_sign_invariance():
    rng = random.Random(3)
    for _ in range(100):
        k = rng.randint(1, 3)
        vecs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(k)]
        try:
            g = rl.gram_det(vecs)
        except DependentVectors:
            continue
        perm = list(range(k))
        rng.shuffle(perm)
        flipped = [[-x for x in vecs[p]] if rng.random() < 0.5 else vecs[p] for p in perm]
        assert rl.gram_det(flipped) == g


def test_gram_det_cauchy_binet_oracle():
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randint(1, 3)
        n = rng.randint(k, 4)
        vecs = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(k)]
        minors = Fraction(0)
        for cols in itertools.combinations(range(n), k):
            sub = [[v[c] for c in cols] for v in vecs]
            minors += rl.rat_det(sub) ** 2
        try:
            g = rl.gram_det(vecs)
            assert g == minors
        except DependentVectors:
            assert minors == 0


def test_eliminations_match_fraction_reference():
    """`bareiss`, `rat_det`, `gram_det` and `covolume_sq` against Fraction
    Gaussian elimination (`reference.fraction_det`)."""
    rng = random.Random(20261020)
    dependent = singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        b = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        m = [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.25:  # plant a dependent last row
            m[-1] = [2 * x for x in m[0]]
        # bareiss: every leading minor of a positive definite Gram
        if fraction_det(b):
            g = rl.mat_mul(b, rl.transpose(b))
            work = [list(r) for r in g]
            assert rl.bareiss(work, n) == fraction_det(g)
            assert [work[i][i] for i in range(n)] == \
                [fraction_det([r[:i + 1] for r in g[:i + 1]]) for i in range(n)]
        want = fraction_det(m)
        singular += want == 0
        assert rl.rat_det(m) == want
        vecs = m[:rng.randint(1, n)]
        want_g = fraction_det(rl.mat_mul(vecs, rl.transpose(vecs)))
        if want_g == 0:
            dependent += 1
            with pytest.raises(DependentVectors):
                rl.gram_det(vecs)
        else:
            assert rl.gram_det(vecs) == want_g
    assert singular and dependent
    with pytest.raises(InternalInvariantViolation):
        rl.bareiss([[1, 2], [2, 4]], 2)
    # covolume_sq: the Fraction Gram determinant of the real rows
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        basis = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)]
                 for _ in range(n)]
        if fraction_det(basis) == 0:
            continue
        basis[0] = [x / fraction_det(basis) for x in basis[0]]
        lat = make_lattice(basis)
        rows = rl.saturate([[rng.randint(-3, 3) for _ in range(n)]
                            for _ in range(rng.randint(1, n))])
        if not rows:
            continue
        real = real_rows(lat, rows)
        want = fraction_det(rl.mat_mul(real, rl.transpose(real)))
        assert covolume_sq(lat, RationalSubspace(ambient=n, rows=rows)) == want
        checked += 1
    assert checked > 30


def _per_row_scaled(rows):
    """Each row times the lcm of its own denominators, and those scales."""
    out, scales = [], []
    for r in rows:
        d = math.lcm(*(Fraction(x).denominator for x in r))
        out.append(tuple(int(x * d) for x in r))
        scales.append(d)
    return tuple(out), scales


def per_row_rat_det(m):
    """`rl.rat_det` with one denominator per row; the reference."""
    w, scales = _per_row_scaled(m)
    d = fraction_det(w)
    for s in scales:
        d /= s
    return d


def per_row_gram_det(vectors):
    """`rl.gram_det` with one denominator per row; the reference."""
    w, scales = _per_row_scaled(vectors)
    d = fraction_det(rl.mat_mul(w, rl.transpose(w)))
    if d == 0:
        raise DependentVectors("gram determinant is zero")
    return Fraction(d, math.prod(s * s for s in scales))


def test_one_denominator_dets_match_per_row_reference():
    rng = random.Random(20261019)
    signs = set()
    dependent = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9)))
              for _ in range(n)] for _ in range(n)]
        want = per_row_rat_det(m)
        assert rl.rat_det(m) == want
        signs.add((want > 0) - (want < 0))
        vecs = m[:rng.randint(1, n)]
        try:
            want_g = per_row_gram_det(vecs)
        except DependentVectors:
            dependent += 1
            with pytest.raises(DependentVectors):
                rl.gram_det(vecs)
        else:
            assert rl.gram_det(vecs) == want_g
    assert signs == {-1, 0, 1} and dependent
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert rl.rat_det(singular) == per_row_rat_det(singular) == 0
    with pytest.raises(DependentVectors):
        rl.gram_det(singular)


def test_right_kernel_int():
    ker = rl.right_kernel_int([[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert 1 * v[0] + 2 * v[1] + 3 * v[2] == 0
    rng = random.Random(17)
    for _ in range(100):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        ker = rl.right_kernel_int(rows)
        assert len(ker) == 4 - rat_rank(rows)
        for v in ker:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0
        # kernels are saturated
        if ker:
            assert rl.saturate(ker) == ker


def test_xgcd():
    rng = random.Random(19)
    for _ in range(300):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = rl.xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_int_inverse_unimodular():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(2, 4)
        # build a unimodular matrix from elementary row additions
        m = [list(r) for r in rl.identity(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        inv = int_inverse_unimodular(m)
        assert rl.mat_mul(m, inv) == rl.identity(n)
    # determinant -1
    m = ((0, 1, 0), (1, 0, 0), (2, 3, 1))
    inv = int_inverse_unimodular(m)
    assert rl.mat_mul(m, inv) == rl.mat_mul(inv, m) == rl.identity(3)
    for bad in (((1, 2), (2, 4)), ((1, 1), (-1, 1))):  # singular, det 2
        with pytest.raises(ValueError):
            int_inverse_unimodular(bad)


def test_rat_right_kernel():
    ker = rat_right_kernel([[Fraction(1), Fraction(1), Fraction(0)]])
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] == 0 or (v[0] == -v[1])
        assert sum(a * b for a, b in zip((1, 1, 0), v)) == 0


def test_validation():
    with pytest.raises(ValidationError):
        rl.rat_matrix([[0.5]])
    assert rl.rat_matrix([["1/2", 3]]) == ((Fraction(1, 2), Fraction(3)),)


def test_primitive_part():
    assert rl.primitive_part((4, 6, -2)) == (2, 3, -1)
    assert rl.primitive_part((0, 0)) == (0, 0)
