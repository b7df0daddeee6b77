import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

import pytest

import nondiv
from nondiv import enumeration
from nondiv.enumeration import (_as_budget, _Budget, _enumerate_gram,
                                _int_nthroot_floor, _lll, _node_bound, _Quotient,
                                _root_lt, _stable_search,
                                delta_m, lll_reduce_gram, oracle_delta_m,
                                rat_root_upper, short_vectors,
                                stable_subspaces_within)
from nondiv.errors import BudgetExceeded, InternalInvariantViolation, ValidationError
from nondiv.lattice import (Scenario, _quotient_memo, apply_group, covolume_sq,
                            full_subspace, m_closure, make_lattice,
                            make_scenario, standard_lattice,
                            subspace_from_rows, trivial_scenario)
from nondiv.samples import (diagonal_lattice, random_upper_triangular_lattices,
                            sl4_so21_scenario, sl4_torus, sl4_torus_lattice,
                            squash_lattice_2d)
from nondiv import ratlin as rl

from conftest import (random_unimodular_int, random_unimodular_lattice,
                      real_coordinate_subspace)
import reference
from reference import (elimination_state, enumerate_rational_gram, gcd_one,
                       rat_inverse, real_rows, shortest_vector_sq)

F = Fraction


def brute_short_vectors(diag_entries, bound_sq):
    """Box oracle for diagonal lattices: coordinates decouple exactly."""
    n = len(diag_entries)
    limits = []
    for d in diag_entries:
        r = 0
        while (r + 1) ** 2 * d * d <= bound_sq:
            r += 1
        limits.append(r)

    out = []

    def rec(i, acc, left):
        if i == n:
            if any(acc):
                out.append(tuple(acc))
            return
        d = diag_entries[i] ** 2
        t = -limits[i]
        while t <= limits[i]:
            c = t * t * d
            if c <= left:
                rec(i + 1, acc + [t], left - c)
            t += 1

    rec(0, [], F(bound_sq))
    canon = set()
    for v in out:
        for x in reversed(v):
            if x:
                canon.add(v if x > 0 else tuple(-y for y in v))
                break
    norm = lambda v: sum(x * x * d * d for x, d in zip(v, diag_entries))
    return sorted(canon, key=lambda v: (norm(v), v))


def test_short_vectors_examples():
    lat = diagonal_lattice(F(1, 4), F(4))
    got = short_vectors(lat, F(1))
    assert got == [(1, 0), (2, 0), (3, 0), (4, 0)]
    z2 = standard_lattice(2)
    got = short_vectors(z2, F(2))
    assert set(got) == {(0, 1), (1, 0), (-1, 1), (1, 1)}
    # sorted by (norm, lex)
    norms = [z2.vector_norm_sq(v) for v in got]
    assert norms == sorted(norms)


def test_short_vectors_against_box_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([2, 3])
        exps = [rng.randint(-2, 2) for _ in range(n - 1)]
        exps.append(-sum(exps))
        diag = [F(2) ** e for e in exps]
        lat = diagonal_lattice(*diag)
        bound = F(rng.randint(1, 8), rng.randint(1, 2))
        assert short_vectors(lat, bound) == brute_short_vectors(diag, bound)


def rebase(lat, u):
    """Same lattice set presented by the generator combination B·u."""
    return make_lattice(rl.mat_mul(lat.basis, [[F(x) for x in r] for r in u]))


def test_short_vectors_basis_independent():
    # same lattice set, different basis: real vectors must agree
    rng = random.Random(13)
    for _ in range(25):
        n = rng.choice([2, 3])
        lat = random_unimodular_lattice(rng, n)
        lat2 = rebase(lat, random_unimodular_int(rng, n, shears=4, c=1))
        b = F(3, 2)
        reals = lambda lt, vs: sorted(tuple(x) for v in vs
                                      for x in (real_rows(lt, [v])[0],
                                                tuple(-c for c in real_rows(lt, [v])[0])))
        assert reals(lat, short_vectors(lat, b)) == reals(lat2, short_vectors(lat2, b))


def test_shortest_vector_values():
    for n in range(2, 6):
        assert shortest_vector_sq(standard_lattice(n)) == 1
    assert shortest_vector_sq(diagonal_lattice(F(1, 4), F(4))) == F(1, 16)
    eps = F(1, 2 ** 9)
    assert shortest_vector_sq(squash_lattice_2d(eps)) == eps * eps


def complete_family(lat, sc, cap):
    """`stable_subspaces_within` under cap, required complete."""
    subs, complete = stable_subspaces_within(lat, sc, cap)
    assert complete
    return subs


def test_eligible_family_sl4():
    sc = sl4_so21_scenario()
    subs = complete_family(standard_lattice(4), sc, F(1))
    assert [s.rows for s in subs] == [
        ((1, 0, 0, 0),),
        ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ]


def test_eligible_cap_monotone():
    sc = trivial_scenario(3)
    lat = diagonal_lattice(F(1, 2), F(1), F(2))
    small = {s.rows for s in complete_family(lat, sc, F(1, 4))}
    big = {s.rows for s in complete_family(lat, sc, F(1))}
    assert small <= big
    for s in complete_family(lat, sc, F(1)):
        assert 1 <= s.dim < 3


def test_delta_standard_lattices():
    for n in range(2, 6):
        d = delta_m(standard_lattice(n), trivial_scenario(n))
        assert d.delta_sq_vs(F(1)) == 0
        assert d.complete


def test_delta_examples():
    d = delta_m(diagonal_lattice(F(1, 4), F(4)), trivial_scenario(2))
    assert d.delta_sq_vs(F(1, 16)) == 0
    assert d.witness.rows == ((1, 0),)

    sc = sl4_so21_scenario()
    d = delta_m(sl4_torus_lattice(F(1, 2)), sc)
    assert d.delta_sq_vs(F(1, 64)) == 0
    assert d.witness_covol_sq == F(1, 64)
    assert d.witness.rows == ((1, 0, 0, 0),)

    d = delta_m(sl4_torus_lattice(F(2)), sc)
    assert d.delta_sq_vs(F(1, 4)) == 0
    assert d.witness.dim == 3

    # ties break toward lower dimension: V1 beats the full space at covol 1
    d = delta_m(standard_lattice(4), sc)
    assert d.delta_sq_vs(F(1)) == 0
    assert d.witness.rows == ((1, 0, 0, 0),)


def test_delta_full_witness_when_no_small_subspace():
    # generators (5/6, 3/5) and (0, 6/5): every nonzero vector has
    # norm^2 >= 949/900 > 1, so the infimum is attained by the whole space
    lat = make_lattice([[F(5, 6), F(0)], [F(3, 5), F(6, 5)]])
    d = delta_m(lat, trivial_scenario(2))
    assert d.witness.is_full
    assert d.delta_sq_vs(F(1)) == 0
    assert shortest_vector_sq(lat) == F(949, 900)


def test_delta_at_most_shortest_vector():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.choice([2, 3])
        lat = random_unimodular_lattice(rng, n)
        sc = trivial_scenario(n)
        d = delta_m(lat, sc)
        lam1 = shortest_vector_sq(lat)
        # the shortest-vector line is eligible, so delta^2 <= lam1
        assert d.delta_sq_pow <= min(lam1, 1) ** d.lcm_pow


def test_delta_basis_independent():
    rng = random.Random(19)
    sc = sl4_so21_scenario()
    for t in (F(1, 2), F(1, 3), F(3)):
        lat = sl4_torus_lattice(t)
        d1 = delta_m(lat, sc)
        for _ in range(3):
            d2 = delta_m(rebase(lat, random_unimodular_int(rng, 4, shears=4, c=1)), sc)
            assert d1.delta_sq_pow == d2.delta_sq_pow


def test_delta_monotone_in_group():
    # fewer stable subspaces can only raise the infimum
    rng = random.Random(23)
    sc4 = sl4_so21_scenario()
    triv = trivial_scenario(4)
    for _ in range(8):
        u = random_unimodular_int(rng, 4, shears=2, c=1)
        lat = apply_group(u, sl4_torus_lattice(F(1, 2)))
        assert delta_m(lat, triv).delta_sq_pow <= delta_m(lat, sc4).delta_sq_pow


def test_oracle_agreement_diagonal():
    sc = trivial_scenario(2)
    for a in (F(1, 4), F(1, 2), F(2, 3)):
        lat = diagonal_lattice(a, 1 / a)
        d = delta_m(lat, sc)
        o = oracle_delta_m(lat, sc)
        assert d.delta_sq_pow == o.delta_sq_pow


def test_oracle_agreement_sl4_torus_sweep():
    sc = sl4_so21_scenario()
    for t in (F(1, 2), F(1, 3), F(2), F(3)):
        lat = sl4_torus_lattice(t)
        d = delta_m(lat, sc)
        o = oracle_delta_m(lat, sc)
        assert d.delta_sq_pow == o.delta_sq_pow
        assert max(abs(x) for r in d.witness.rows for x in r) <= 2


def test_budget_degrades_to_upper_bound():
    lat = diagonal_lattice(F(1, 8), F(2), F(4))
    sc = trivial_scenario(3)
    exact = delta_m(lat, sc)
    capped = delta_m(lat, sc, budget=3)
    assert not capped.complete
    assert capped.delta_sq_pow >= exact.delta_sq_pow
    assert not stable_subspaces_within(lat, sc, F(1), budget=3)[1]


def test_short_vectors_norm_and_sign_canonical():
    rng = random.Random(29)
    for _ in range(20):
        lat = random_unimodular_lattice(rng, 3)
        vs = short_vectors(lat, F(2))
        assert len(vs) == len(set(vs))
        for v in vs:
            assert lat.vector_norm_sq(v) <= 2
            top = next(x for x in reversed(v) if x)
            assert top > 0
            assert rl.primitive_part(v) == v or v != rl.primitive_part(v)  # multiples allowed


def test_lll_transform_is_unimodular():
    rng = random.Random(31)
    for _ in range(20):
        lat = random_unimodular_lattice(rng, rng.choice([2, 3, 4]))
        u = lll_reduce_gram(reference.gram(lat))
        assert abs(rl.rat_det(u)) == 1
        assert all(isinstance(x, int) for row in u for x in row)


def test_rat_root_upper_bounds():
    rng = random.Random(37)
    for _ in range(200):
        x = F(rng.randint(1, 1000), rng.randint(1, 1000))
        r = rng.randint(2, 6)
        u = rat_root_upper(x, r)
        assert u ** r >= x
        # tight to ~1% even for tiny inputs
        assert float(u) <= float(x) ** (1.0 / r) * 1.02
    tiny = rat_root_upper(F(1, 2 ** 120), 6)
    assert tiny ** 6 >= F(1, 2 ** 120)
    assert tiny <= F(1, 2 ** 19)


def test_eligible_respects_group_restriction():
    # the rotation generator kills coordinate lines inside the 3-block
    sc = sl4_so21_scenario()
    lat = standard_lattice(4)
    subs = complete_family(lat, sc, F(1))
    v2_rows = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert all(s.rows == ((1, 0, 0, 0),) or s.rows == v2_rows for s in subs)
    # under the trivial group the same lattice has many more
    triv = complete_family(lat, trivial_scenario(4), F(1))
    assert len(triv) > len(subs)


def test_delta_deep_squash_performance():
    # caps seeded from a short vector keep badly squashed inputs cheap
    sc = trivial_scenario(3)
    lat = diagonal_lattice(F(1, 2 ** 30), F(3, 2), F(2 ** 31, 3))
    d = delta_m(lat, sc)
    assert d.complete
    assert d.witness.dim == 1
    assert d.witness_covol_sq == F(1, 2 ** 60)


def reference_gso(g):
    """Rational Gram-Schmidt data (mu, d) of an int or Fraction Gram matrix."""
    n = len(g)
    mu = [[F(0)] * n for _ in range(n)]
    d = [F(0)] * n
    for i in range(n):
        for j in range(i):
            s = g[i][j]
            for t in range(j):
                s -= mu[i][t] * mu[j][t] * d[t]
            mu[i][j] = F(s) / d[j]
        mu[i][i] = F(1)
        s = g[i][i]
        for t in range(i):
            s -= mu[i][t] ** 2 * d[t]
        d[i] = s
        if d[i] <= 0:
            raise InternalInvariantViolation("Gram matrix not positive definite")
    return mu, d


def reference_round_half(x):
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def reference_lll(a):
    """Rational LLL that rebuilds u·a·uᵀ and its GSO after every step."""
    n = len(a)
    u = [list(r) for r in rl.identity(n)]

    def gram():
        return rl.mat_mul(rl.mat_mul(u, a), rl.transpose(u))

    mu, d = reference_gso(gram())
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = reference_round_half(mu[k][j])
            if q:
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                mu, d = reference_gso(gram())
        if d[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            mu, d = reference_gso(gram())
            k = max(k - 1, 1)
    return tuple(tuple(r) for r in u)


def assert_lll_matches_reference(g):
    g = rl.rat_matrix(g)
    assert lll_reduce_gram(g) == reference_lll(g), g


def test_lll_matches_reference_random():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 6)
        lat = random_unimodular_lattice(rng, n, shears=rng.randint(3, 10),
                                        dyadic_range=rng.randint(1, 6))
        assert_lll_matches_reference(reference.gram(lat))


def test_lll_matches_reference_deep_squash():
    rng = random.Random(43)
    lat = diagonal_lattice(F(1, 2 ** 30), F(3, 2), F(2 ** 31, 3))
    assert_lll_matches_reference(reference.gram(lat))
    for _ in range(4):
        u = random_unimodular_int(rng, 3, shears=6, c=2)
        assert_lll_matches_reference(reference.gram(rebase(lat, u)))
    squash = rebase(diagonal_lattice(F(1, 2 ** 12), F(2 ** 5), F(2 ** 7)),
                    random_unimodular_int(rng, 3, shears=6, c=2))
    assert_lll_matches_reference(reference.gram(squash))


def test_lll_matches_reference_sl4_quotients():
    rng = random.Random(47)
    sc = sl4_so21_scenario()
    for t in (F(1, 2), F(2), F(4)):
        lat = rebase(sl4_torus_lattice(t), random_unimodular_int(rng, 4, shears=4, c=1))
        subs, complete = stable_subspaces_within(lat, sc, F(4))
        assert complete and subs
        for z_rows in [()] + [s.rows for s in subs]:
            assert_lll_matches_reference(_Quotient(lat, sc, z_rows).gram)


def test_lll_small_and_tie_grams():
    assert_lll_matches_reference([[F(5, 3)]])
    assert lll_reduce_gram(rl.rat_matrix([[5]])) == ((1,),)
    # mu = +1/2 rounds up, mu = -1/2 rounds to 0
    plus = rl.rat_matrix([[2, 1], [1, 2]])
    minus = rl.rat_matrix([[2, -1], [-1, 2]])
    assert reference_lll(plus) == lll_reduce_gram(plus) == ((1, 0), (-1, 1))
    assert reference_lll(minus) == lll_reduce_gram(minus) == ((1, 0), (0, 1))
    for g in (plus, minus):
        assert_lll_matches_reference(g)


def test_lll_rejects_non_positive_definite():
    for g in ([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]]):
        for gram in (g, rl.rat_matrix(g)):
            with pytest.raises(ValidationError) as err:
                lll_reduce_gram(gram)
            assert err.value.field == "gram"
            assert "positive definite" in err.value.message


def assert_gram_rejected(gram, words):
    with pytest.raises(ValidationError) as err:
        lll_reduce_gram(gram)
    assert err.value.field == "gram" and words in err.value.message


def test_lll_rejects_non_square_gram():
    assert_gram_rejected([[4, 1, 0]], "square")


def test_lll_rejects_non_symmetric_gram():
    # one triangle alone would read as the positive definite [[10, 7], [7, 10]]
    assert_gram_rejected([[10, 0], [7, 10]], "symmetric")
    assert_gram_rejected([[F(10), F(7)], [F(7, 2), F(10)]], "symmetric")


def test_lll_rejects_ragged_gram():
    assert_gram_rejected([[2, 1], [1]], "square")
    assert_gram_rejected([[2], [1, 2]], "square")
    assert_gram_rejected([[2, 1], 1], "rows")
    assert_gram_rejected(4, "rows")


@pytest.mark.parametrize("entry", ["1", 1.0, 0.5])
def test_lll_rejects_str_and_float_entries(entry):
    assert_gram_rejected([[2, entry], [entry, 2]], "int or Fraction")
    assert_gram_rejected([[2, 1], [1, entry]], "int or Fraction")


def test_lll_rejects_bool_entries():
    assert_gram_rejected([[True, 0], [0, 1]], "bool")
    assert_gram_rejected([[2, True], [True, 2]], "bool")


def test_lll_rejects_indefinite_gram():
    assert_gram_rejected([[1, 0], [0, -1]], "positive definite")
    assert_gram_rejected(rl.rat_matrix([[1, 3], [3, F(1, 2)]]), "positive definite")


def test_lll_state_is_the_elimination_of_the_reduced_gram():
    """`_lll` on the integer Gram that `lll_reduce_gram` scales its input to:
    the same transform, and the state of the reduced integer Gram."""
    kinds = Counter()
    for g, _, _, _ in enumerator_cases():
        g_int = rl.scale_to_int(g)[0]
        u, state = _lll(g_int)
        assert u == lll_reduce_gram(g)
        assert state == elimination_state(rl.mat_mul(rl.mat_mul(u, g_int), rl.transpose(u)))
        kinds[type(g[0][0])] += 1
    assert kinds[int] == kinds[F] == 120


def fraction_node_bound(cap, covol_sq, scale, r):
    """The node bound as a Fraction, the Hermite factor (4/3)^⌊r/2⌋ apart."""
    return F(4, 3) ** (r // 2) * scale * rat_root_upper(cap / covol_sq, r)


def test_node_bound_is_the_floored_fraction_bound():
    rng = random.Random(97)
    below = above = 0
    for trial in range(2400):
        r = 2 + trial % 11
        size = rng.choice((4, 30, 200, 1000))
        cap = F(rng.randint(1, 2 ** size), rng.randint(1, 2 ** rng.choice((4, 30, 200, 1000))))
        covol_sq = F(rng.randint(1, 2 ** rng.choice((4, 30, 200))), rng.randint(1, 2 ** 30))
        scale = rng.randint(1, 2 ** rng.choice((1, 20, 100)))
        want = fraction_node_bound(cap, covol_sq, scale, r)
        got = _node_bound(cap, covol_sq, scale, r)
        assert type(got) is int and got == want.numerator // want.denominator, \
            (cap, covol_sq, scale, r)
        if cap < covol_sq:
            below += 1
        elif cap > covol_sq:
            above += 1
    assert below > 500 and above > 500
    # r = 1 is the line bound scale·cap/covol², floored
    for cap, covol_sq, scale in ((F(7, 3), F(2, 5), 3), (F(1, 2 ** 90), F(3), 2 ** 95)):
        assert _node_bound(cap, covol_sq, scale, 1) == scale * cap / covol_sq // 1


def test_lll_accepts_int_gram():
    rng = random.Random(53)
    for _ in range(20):
        u = random_unimodular_int(rng, rng.randint(2, 5), shears=8, c=2)
        g = rl.mat_mul(u, rl.transpose(u))
        assert nondiv.lll_reduce_gram(g) == nondiv.lll_reduce_gram(rl.rat_matrix(g))
        assert nondiv.lll_reduce_gram(g) == reference_lll(rl.rat_matrix(g))


def test_int_nthroot_floor_exact():
    rng = random.Random(59)
    cases = [(m, r) for m in (0, 1, 2, 3, 2 ** 1024, 2 ** 3000) for r in (1, 2, 3, 7, 420)]
    for _ in range(300):
        r = rng.randint(1, 420)
        t = rng.randint(1, 1 << max(1, 3000 // r))
        cases += [(t ** r - 1, r), (t ** r, r), (rng.randrange(1 << 3000), r)]
    for m, r in cases:
        t = _int_nthroot_floor(m, r)
        assert t ** r <= m < (t + 1) ** r, (m, r)
    # integer Newton alone lands on the floor: brute force for small m
    for m in range(2000):
        assert _int_nthroot_floor(m, 2) == isqrt(m)
        for r in range(3, 12):
            floor = next(t for t in itertools.count() if (t + 1) ** r > m)
            assert _int_nthroot_floor(m, r) == floor, (m, r)


def test_delta_n7_no_overflow():
    # the lcm(1..7) = 420 power key pushes the seed cap's root past float range
    lat = diagonal_lattice(F(1, 2), 1, 1, 1, 1, 1, 2)
    d = delta_m(lat, trivial_scenario(7))
    assert d.complete
    assert d.witness.rows == ((1, 0, 0, 0, 0, 0, 0),)
    assert d.witness_covol_sq == F(1, 4)


def reference_quotient_gram(lat, v, k):
    """Fraction Schur complement of the leading k×k block of v·gram·vᵀ."""
    g_full = rl.mat_mul(rl.mat_mul(v, reference.gram(lat)), rl.transpose(v))
    if k == 0:
        return g_full
    g11 = [row[:k] for row in g_full[:k]]
    g12 = [row[k:] for row in g_full[:k]]
    g21 = [row[:k] for row in g_full[k:]]
    g22 = [row[k:] for row in g_full[k:]]
    corr = rl.mat_mul(rl.mat_mul(g21, rat_inverse(g11)), g12)
    return tuple(tuple(a - b for a, b in zip(r1, r2))
                 for r1, r2 in zip(g22, corr))


def search_quotients(monkeypatch, lat, sc, cap):
    """Every quotient the chain search builds on lat up to cap, plus Λ/Λ_Y
    for each subspace Y it finds."""
    made = []

    class Recording(_Quotient):
        def __init__(self, *args):
            super().__init__(*args)
            self.lat = args[0]  # for the reference; a quotient keeps no lattice
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(enumeration, "_Quotient", Recording)
        subs, complete = stable_subspaces_within(lat, sc, cap)
    assert complete and subs
    for y in subs:
        Recording(lat, sc, y.rows)
    return made


def assert_quotients_match_reference(quots):
    # D_1 = the first pivot, so k >= 2 is where the exact `// prev` matters
    assert any(q.k > 1 for q in quots)
    for q in quots:
        assert isinstance(q.scale, int) and q.scale > 0
        assert all(isinstance(x, int) for row in q.gram for x in row)
        ref = reference_quotient_gram(q.lat, q.full_basis, q.k)
        got = tuple(tuple(F(x, q.scale) for x in row) for row in q.gram)
        assert got == ref, (q.lat.basis, q.full_basis[:q.k])


def test_quotient_gram_matches_reference_sl4(monkeypatch):
    rng = random.Random(61)
    sc = sl4_so21_scenario()
    quots = []
    for t in (F(1, 2), F(2), F(4)):
        lat = rebase(sl4_torus_lattice(t), random_unimodular_int(rng, 4, shears=4, c=1))
        quots += search_quotients(monkeypatch, lat, sc, F(4))
    assert_quotients_match_reference(quots)


def test_quotient_gram_matches_reference_dyadic_n5(monkeypatch):
    rng = random.Random(67)
    sc = trivial_scenario(5)
    quots = []
    for exps in ((1, -1, 0, 0, 0), (1, 1, -1, -1, 0), (0, -1, 1, -1, 1)):
        lat = rebase(diagonal_lattice(*(F(2) ** e for e in exps)),
                     random_unimodular_int(rng, 5, shears=6, c=1))
        quots += search_quotients(monkeypatch, lat, sc, F(1))
    assert_quotients_match_reference(quots)


def test_quotient_gram_matches_reference_deep_squash(monkeypatch):
    rng = random.Random(71)
    sc = trivial_scenario(3)
    lat = diagonal_lattice(F(1, 2 ** 30), F(3, 2), F(2 ** 31, 3))
    quots = search_quotients(monkeypatch, lat, sc, F(1, 4))
    for _ in range(3):
        quots += search_quotients(
            monkeypatch, rebase(lat, random_unimodular_int(rng, 3, shears=6, c=2)),
            sc, F(1, 4))
    assert_quotients_match_reference(quots)


def reference_lll_gram(lat):
    """(u, u·gram·uᵀ) on the Fraction Gram of lat."""
    g = reference.gram(lat)
    u = lll_reduce_gram(g)
    return u, rl.mat_mul(rl.mat_mul(u, g), rl.transpose(u))


def reference_sqrt_range(c, rd):
    """Integer t range with (t + c)² ≤ rd; may be empty (lo > hi)."""
    if rd < 0:
        return 0, -1
    s = isqrt(rd.numerator // rd.denominator) + 2

    def below_sqrt(y):
        return y <= 0 or y * y <= rd

    base = (-c).__floor__()
    hi = base + s
    while not below_sqrt(hi + c):
        hi -= 1
    lo = base - s
    while not below_sqrt(-(lo + c)):
        lo += 1
    return lo, hi


def reference_enumerate_gram(g, bound, budget, spanning):
    """Fraction Fincke-Pohst on the rational GSO, the same visiting order and
    budget points as _enumerate_gram; each level's t range from a square-root
    walk."""
    n = len(g)
    if bound <= 0:
        return []
    mu, d = reference_gso(g)
    out = []
    x = [0] * n

    def recurse(level, rem, outer_zero):
        budget.consume()
        c = F(0)
        for i in range(level + 1, n):
            if x[i]:
                c += mu[i][level] * x[i]
        lo, hi = reference_sqrt_range(c, rem / d[level])
        if outer_zero:
            lo = max(lo, 0)
            if spanning and level == 0:
                hi = min(hi, 1)
        for t in range(lo, hi + 1):
            if level == 0 and outer_zero and t == 0:
                continue
            x[level] = t
            rem2 = rem - d[level] * (t + c) ** 2
            if level == 0:
                budget.consume()
                out.append((bound - rem2, tuple(x)))
            else:
                recurse(level - 1, rem2, outer_zero and t == 0)
        x[level] = 0

    recurse(n - 1, bound, True)
    return out


def reference_short_vectors(lat, bound_sq):
    u, g = reference_lll_gram(lat)
    raw = reference_enumerate_gram(g, F(bound_sq), _Budget(10 ** 6), spanning=False)
    mapped = sorted(
        (qv, enumeration._canon_sign(tuple(
            sum(xs[i] * u[i][j] for i in range(len(u))) for j in range(lat.n))))
        for qv, xs in raw)
    return [v for _, v in mapped]


def reference_shortest_vector_sq(lat):
    _, g = reference_lll_gram(lat)
    bound = min(g[i][i] for i in range(len(g)))
    return min(qv for qv, _ in reference_enumerate_gram(g, bound, _Budget(10 ** 6),
                                                        spanning=False))


def test_short_vectors_match_fraction_gram_path():
    rng = random.Random(73)
    for _ in range(30):
        lat = random_unimodular_lattice(rng, rng.randint(2, 5),
                                        shears=rng.randint(3, 8),
                                        dyadic_range=rng.randint(1, 4))
        bound = F(rng.randint(1, 12), rng.randint(1, 4))
        assert short_vectors(lat, bound) == reference_short_vectors(lat, bound)
        sv = shortest_vector_sq(lat)
        assert isinstance(sv, F)
        assert sv == reference_shortest_vector_sq(lat)


def test_enumerate_int_gram_matches_fraction_copy():
    rng = random.Random(79)
    for _ in range(30):
        lat = random_unimodular_lattice(rng, rng.randint(2, 5),
                                        shears=rng.randint(3, 8),
                                        dyadic_range=rng.randint(1, 3))
        a, den = lat.int_gram
        u = lll_reduce_gram(a)
        g_int = rl.mat_mul(rl.mat_mul(u, a), rl.transpose(u))
        g_rat = tuple(tuple(F(x, den) for x in row) for row in g_int)
        bound = F(rng.randint(1, 9), rng.randint(1, 3))
        for primitive in (False, True):
            bud_int, bud_rat = _Budget(10 ** 6), _Budget(10 ** 6)
            got = _enumerate_gram((rl.identity(len(g_int)), elimination_state(g_int)),
                                  bound * den, bud_int, primitive)
            want = reference_enumerate_gram(g_rat, bound, bud_rat, primitive)
            if primitive:
                want = gcd_one(want)
            assert [(F(qv, den), x) for qv, x in got] == want
            assert bud_int.used == bud_rat.used


def test_enumerate_gram_yields_int_norms():
    """Each norm `_enumerate_gram` yields is the exact int x·g·xᵀ of its
    integer Gram, under an int bound and under a Fraction one."""
    rng = random.Random(131)
    seen = set()
    for trial in range(60):
        n = 1 + trial % 5
        g = random_pd_gram(rng, n, rational=False)
        if n > 3:
            u = lll_reduce_gram(g)
            g = rl.mat_mul(rl.mat_mul(u, g), rl.transpose(u))
        top = min(g[i][i] for i in range(n)) * rng.randint(1, 4)
        for bound in (top, F(2 * top + 1, 2)):
            for primitive in (False, True):
                for norm, x in _enumerate_gram((rl.identity(n), elimination_state(g)),
                                               bound, _Budget(10 ** 6), primitive):
                    assert type(norm) is int
                    assert norm == sum(x[i] * g[i][j] * x[j]
                                       for i in range(n) for j in range(n))
                    assert 0 < norm <= bound
                    seen.add(type(bound))
    assert seen == {int, F}


def test_enumerate_gram_maps_primitive_vectors_through_the_reduction():
    """`_enumerate_gram` yields, in order, the earlier enumerator's vectors x
    of the reduced Gram mapped to x·u, only those of gcd 1 in primitive
    mode, and spends the same budget. u is an LLL transform (unimodular) or
    an eigen-line style basis u·s of a saturated k-row s, so each mapped
    vector is primitive exactly when x is."""
    rng = random.Random(137)
    seen = set()
    for trial in range(120):
        n = 1 + trial % 5
        g = random_pd_gram(rng, n, rational=False)
        basis = rl.identity(n)
        if trial % 3 == 2 and n > 1:
            # k saturated rows: the leading rows of a unimodular matrix
            basis = random_unimodular_int(rng, n, shears=6, c=2)[:rng.randint(1, n - 1)]
            g = rl.mat_mul(rl.mat_mul(basis, g), rl.transpose(basis))
        u, state = _lll(g)
        comp = rl.mat_mul(u, basis)
        reduced = rl.mat_mul(rl.mat_mul(u, g), rl.transpose(u))
        top = min(reduced[i][i] for i in range(len(u))) * rng.randint(1, 4)
        for bound in (top, F(2 * top + 1, 2)):
            for cap in (rng.randint(1, 20), 10 ** 6):
                for primitive in (False, True):
                    got = run_enumerator(lambda _, *args: _enumerate_gram((comp, state), *args),
                                         None, bound, cap, primitive)
                    want, used = run_enumerator(reference_enumerate_gram,
                                                rl.rat_matrix(reduced), bound, cap, primitive)
                    if want != "exceeded":
                        want = [(qv, tuple(sum(map(mul, x, col)) for col in zip(*comp)))
                                for qv, x in (gcd_one(want) if primitive else want)]
                        assert not primitive or all(gcd(*y) == 1 for _, y in want)
                    assert got == (want, used), (g, basis, bound, cap, primitive)
                    seen.add((type(bound), primitive, want == "exceeded", len(comp) < n))
    assert len(seen) == 16


def test_enumerate_gram_under_no_bound_charges_nothing():
    bud = _Budget(5)
    for bound in (0, F(-1, 2)):
        for primitive in (False, True):
            assert _enumerate_gram(_lll(((2, 1), (1, 2))), bound, bud, primitive) == []
    assert bud.used == 0


def run_enumerator(enum, g, bound, cap, primitive):
    """(output or 'exceeded', budget.used) of one enumeration under cap."""
    bud = _Budget(cap)
    try:
        return enum(g, bound, bud, primitive), bud.used
    except BudgetExceeded:
        return "exceeded", bud.used


def random_pd_gram(rng, n, rational):
    """b·bᵀ for a random nonsingular b with small int or Fraction entries."""
    while True:
        b = [[F(rng.randint(-4, 4), rng.randint(1, 3) if rational else 1)
              for _ in range(n)] for _ in range(n)]
        if rl.rat_det(b):
            g = rl.mat_mul(b, rl.transpose(b))
            return g if rational else tuple(tuple(int(x) for x in r) for r in g)


def enumerator_cases():
    """240 seeded (Gram, searched Gram, bound, caps): a random positive
    definite Gram, int and Fraction in turn, and the Gram the enumerator
    comparison searches, the first one or its LLL reduction."""
    rng = random.Random(83)
    for trial in range(240):
        n = 1 + trial % 6
        rational = trial % 2 == 0
        pd = g = random_pd_gram(rng, n, rational)
        # unreduced Grams only where the node count stays small
        if n > 3 or rng.random() < 0.5:
            u = lll_reduce_gram(g)
            g = rl.mat_mul(rl.mat_mul(u, g), rl.transpose(u))
        # the norm of a lattice vector: the last isqrt lands on a square
        v = [rng.randint(-1, 1) for _ in range(n)]
        bound = sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
        if bound <= 0 or rng.random() < 0.3:
            bound = min(g[i][i] for i in range(n)) * F(rng.randint(2, 6), rng.randint(1, 2))
        yield pd, g, bound, (rng.randint(1, 200), 10 ** 6)


def test_enumerate_matches_reference_enumerator():
    seen_exceeded = seen_complete = 0
    for _, g, bound, caps in enumerator_cases():
        for cap in caps:
            for primitive in (False, True):
                got = run_enumerator(enumerate_rational_gram, g, bound, cap, primitive)
                want = run_enumerator(reference_enumerate_gram, g, bound, cap, primitive)
                if primitive:
                    want = gcd_one(want[0]), want[1]
                assert got == want, (g, bound, cap, primitive)
                if got[0] == "exceeded":
                    seen_exceeded += 1
                else:
                    seen_complete += 1
                    assert all(type(qv) is F for qv, _ in got[0])
    assert seen_exceeded > 50 and seen_complete > 50


def test_bareiss_matches_reference_gso():
    rng = random.Random(89)
    for trial in range(60):
        n = 1 + trial % 6
        g = random_pd_gram(rng, n, rational=False)
        mu, d = reference_gso(g)
        minors = [F(1)]
        for di in d:
            minors.append(minors[-1] * di)
        for k in range(n + 1):
            h = [list(r) for r in g]
            assert rl.bareiss(h, k) == minors[k]
        assert [h[i][i] for i in range(n)] == minors[1:]
        for i in range(n):
            for j in range(i):
                assert h[i][j] == minors[j + 1] * mu[i][j]


def test_bareiss_rejects_non_positive_definite():
    for g in ([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]], [[-1]], [[2, 0], [0, -3]]):
        with pytest.raises(InternalInvariantViolation):
            rl.bareiss([list(r) for r in g], len(g))


def seed_cap(lat, sc):
    """delta_m's seed candidates and the cap it derives from them."""
    u = lll_reduce_gram(lat.int_gram[0])
    seed = m_closure(lat, sc, [tuple(u[0])])
    cap = F(1)
    cands = []
    if not seed.is_full:
        cands.append(seed)
        c_seed = covolume_sq(lat, seed)
        if c_seed < 1:
            cap = rat_root_upper(c_seed, seed.dim)
    return cands, cap


def constant_cap_delta(lat, sc):
    """delta_m's seed and cap, minimized over the constant-cap family of
    `stable_subspaces_within` instead of the per-dimension search: returns
    ((covol², dim, rows) of the minimum, cap, family)."""
    cands, cap = seed_cap(lat, sc)
    family, complete = stable_subspaces_within(lat, sc, cap)
    assert complete
    best = (F(1), lat.n, full_subspace(lat.n).rows)
    for w in cands + family:
        key = (covolume_sq(lat, w), w.dim, w.rows)
        if _root_lt(key, best):
            best = key
    return best, cap, family


# the unipotent scenario of test_lattice.py::test_stable_family_non_semisimple
UNIPOTENT = make_scenario(3, [[0, 2], [2, 3]], [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]])


def per_dimension_cap_inputs():
    rng = random.Random(101)
    for n in range(2, 7):
        for _ in range(8 if n < 6 else 3):
            lat = random_unimodular_lattice(rng, n, shears=n + 2, dyadic_range=2)
            yield lat, trivial_scenario(n)
    for n in (2, 3, 4):
        for lat in random_upper_triangular_lattices(n, 6):
            yield lat, trivial_scenario(n)
    sl4 = sl4_so21_scenario()
    for t in (F(2), F(1, 2), F(4), F(1, 4), F(3, 2), F(2, 3)):
        yield rebase(sl4_torus_lattice(t), random_unimodular_int(rng, 4, shears=4, c=1)), sl4
    for _ in range(10):
        yield random_unimodular_lattice(rng, 3, shears=3, dyadic_range=2), UNIPOTENT


def test_delta_matches_constant_cap_search():
    # a k-dimensional W that beats or ties the seed has covol²(W) <= cap^k, so
    # searching dimension k under cap^k finds the constant-cap minimum
    seen_dims = set()
    cut = 0
    for lat, sc in per_dimension_cap_inputs():
        d = delta_m(lat, sc)
        best, cap, family = constant_cap_delta(lat, sc)
        assert d.complete
        assert (d.witness_covol_sq, d.witness.dim, d.witness.rows) == best
        caps = tuple(cap ** k for k in range(lat.n))
        pairs, complete = _stable_search(lat, sc, caps, None, _as_budget(None))
        assert complete
        assert all(c == covolume_sq(lat, w) for w, c in pairs)
        per_dim = [w for w, _ in pairs]
        assert per_dim == [w for w in family if covolume_sq(lat, w) <= cap ** w.dim]
        seen_dims.update(w.dim for w in per_dim)
        cut += len(family) - len(per_dim)
    # the per-dimension caps are exercised beyond dimension 1 and do cut
    assert {1, 2, 3} <= seen_dims and cut > 0


def test_per_dimension_caps_filter_constant_family():
    # for any caps, the search keeps exactly the constant-cap family's members
    # with covol² <= caps[dim]; closures that jump dimensions need a group
    rng = random.Random(7)
    inputs = [(apply_group(random_unimodular_int(rng, 4, shears=2, c=1),
                           sl4_torus_lattice(t)), sl4_so21_scenario())
              for t in (F(2), F(1, 2), F(3, 2), F(2, 3))]
    inputs += [(random_unimodular_lattice(rng, 3, shears=3, dyadic_range=2), UNIPOTENT)
               for _ in range(12)]
    for lat, sc in inputs:
        family, complete = stable_subspaces_within(lat, sc, F(2))
        assert complete
        covols = sorted({covolume_sq(lat, w) for w in family})
        for _ in range(4 if covols else 0):
            caps = (None,) + tuple(rng.choice(covols) for _ in range(lat.n - 1))
            pairs, complete = _stable_search(lat, sc, caps, None, _as_budget(None))
            assert complete
            assert all(c == covolume_sq(lat, w) for w, c in pairs)
            per_dim = [w for w, _ in pairs]
            assert per_dim == [w for w in family if covolume_sq(lat, w) <= caps[w.dim]]


# -I acts as a scalar on every quotient, as the trivial group does, but with
# a generator: its line search runs inside the quotient enumeration
NEGATION_2 = make_scenario(2, [[0, 2]], [[[-1, 0], [0, -1]]])
NEGATION_4 = make_scenario(4, [[0, 4]], [[[-int(i == j) for j in range(4)]
                                          for i in range(4)]])


# a 2x2 Jordan block beside a scalar block: an action that is not
# semisimple, with an eigen-line space of rank 2 on some quotients
JORDAN_4 = make_scenario(4, [[0, 2], [2, 4]], [[[2, 1, 0, 0], [0, 2, 0, 0],
                                                [0, 0, F(1, 2), 0], [0, 0, 0, F(1, 2)]]])


def drive_moved_lattices(rng):
    """Every lattice that drives from rebased SL4 torus lattices move to;
    each move keeps the frame of the lattice it starts from."""
    sl4 = sl4_so21_scenario()
    for t in (F(1, 4), F(1, 8)):
        lat = rebase(sl4_torus_lattice(t), random_unimodular_int(rng, 4, shears=4, c=1))
        cert = nondiv.drive(lat, sl4, nondiv.PushoutConfig(eta0_override=F(1, 4)))
        for step in cert.steps:
            lat = nondiv.apply_torus(step.expansion.s, lat)
            yield lat, sl4


def one_pass_inputs():
    yield from per_dimension_cap_inputs()
    rng = random.Random(131)
    for sc in (NEGATION_2, NEGATION_4, JORDAN_4):
        for _ in range(6):
            yield random_unimodular_lattice(rng, sc.n, shears=sc.n + 2,
                                            dyadic_range=2), sc
    yield from drive_moved_lattices(rng)


def test_one_pass_search_matches_per_dimension_reference(monkeypatch):
    """One pass per node finds, per target dimension, what one search per
    dimension finds, under delta_m's caps and under protect's (a base
    witness, one cap for every dimension), and never spends more budget."""
    line_searches = [0]
    real_lines = enumeration._stable_quotient_lines

    def lines(quot, t_sq, budget):
        line_searches[0] += 1
        return real_lines(quot, t_sq, budget)

    monkeypatch.setattr(enumeration, "_stable_quotient_lines", lines)
    monkeypatch.setattr(reference, "_stable_quotient_lines", lines)

    def run(search, lat, sc, caps, base):
        line_searches[0] = 0
        bud = _Budget(enumeration.DEFAULT_VECTOR_BUDGET)
        found, complete = search(lat, sc, caps, base, bud)
        assert complete
        return found, bud.used, line_searches[0]

    folded = Counter()
    saved = 0
    for lat, sc in one_pass_inputs():
        d = delta_m(lat, sc)
        cap = seed_cap(lat, sc)[1]
        modes = [(tuple(cap ** k for k in range(lat.n)), None)]
        if not d.witness.is_full:
            modes.append(((2 * d.witness_covol_sq,) * lat.n, d.witness))
        for caps, base in modes:
            got, used, got_lines = run(_stable_search, lat, sc, caps, base)
            want, want_used, want_lines = run(
                reference.per_dimension_stable_search, lat, sc, caps, base)
            assert got == want
            assert used <= want_used
            saved += want_used - used
            # each (Z, dim Z + 1) pair is visited by both; a folded visit
            # finds its lines in the quotient enumeration instead
            assert got_lines <= want_lines
            folded[sc.m_generators] += want_lines - got_lines
    assert saved > 0
    assert folded[()] > 0
    assert folded[NEGATION_2.m_generators] > 0 and folded[NEGATION_4.m_generators] > 0


def test_scalar_generators_fold_without_closures(monkeypatch):
    """Under -I every line is stable: delta_m closes no vector, not even its
    seed, and reads no eigen-line space, and finds what the search that
    closes every vector finds, with the same budget."""
    assert NEGATION_2.scalar_action and NEGATION_4.scalar_action
    assert make_scenario(2, [[0, 2]], [[[1, 0], [0, 1]]]).scalar_action
    assert not any(sc.scalar_action for sc in (JORDAN_4, UNIPOTENT, sl4_so21_scenario()))
    inputs = [(lat, sc) for lat, sc in one_pass_inputs() if sc in (NEGATION_2, NEGATION_4)]
    calls = Counter()
    # the search's own closures (`_m_closure`) count as "m_closure" too
    for name in ("m_closure", "_m_closure", "common_eigenspace_bases"):
        def counted(*args, real=getattr(enumeration, name), name=name.lstrip("_")):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(enumeration, name, counted)

    def run():
        calls.clear()
        out = []
        for lat, sc in inputs:
            bud = _Budget(enumeration.DEFAULT_VECTOR_BUDGET)
            d = delta_m(make_lattice(lat.basis), sc, budget=bud)
            out.append((d, bud.used))
        return out, dict(calls)

    folded, folded_calls = run()
    # fold the trivial group only, so -I closes every vector with m_closure
    monkeypatch.setattr(Scenario, "scalar_action", property(lambda sc: not sc.m_generators))
    unfolded, unfolded_calls = run()
    assert folded == unfolded
    assert len(inputs) == 12
    assert folded_calls == {}
    assert unfolded_calls["m_closure"] == 21 and unfolded_calls["common_eigenspace_bases"] > 0


def test_budget_limited_one_pass_search_finds_a_subset():
    # whatever a search finds before its budget runs out is in the full list
    cut = 0
    for lat, sc in itertools.islice(one_pass_inputs(), 0, None, 5):
        caps = tuple(seed_cap(lat, sc)[1] ** k for k in range(lat.n))
        bud = _Budget(enumeration.DEFAULT_VECTOR_BUDGET)
        full, complete = _stable_search(lat, sc, caps, None, bud)
        assert complete
        if bud.used < 2:
            continue
        part, complete = _stable_search(lat, sc, caps, None, _Budget(bud.used // 2))
        assert not complete
        assert set(part) <= set(full)
        cut += len(full) - len(part)
    assert cut > 0


def test_random_upper_triangular_lattices():
    log2 = lambda x: x.numerator.bit_length() - x.denominator.bit_length()
    lats = random_upper_triangular_lattices(5, 12)
    assert lats[:3] == random_upper_triangular_lattices(5, 3)
    for lat in lats:
        b = lat.basis
        diag = [b[i][i] for i in range(5)]
        assert all(F(2) ** log2(x) == x for x in diag)
        assert all(-3 <= log2(x) <= 3 for x in diag[:4])
        assert all(b[i][j] == 0 for i in range(5) for j in range(i))
        assert all(b[i][j].denominator in (1, 2, 3) and abs(b[i][j].numerator) <= 4
                   for i in range(5) for j in range(i + 1, 5))


def test_delta_upper_triangular_n5_completes():
    # under one cap for every dimension this input exhausted the default
    # budget (about 3 minutes) and returned the same witness with complete=False
    lat = random_upper_triangular_lattices(5, 12)[11]
    d = delta_m(lat, trivial_scenario(5))
    assert d.complete
    assert d.witness.rows == ((1, 0, 0, 0, 0),)
    assert d.witness_covol_sq == F(1, 64)


def test_delta_upper_triangular_n7_fast():
    # about 0.02 s each; under one cap for every dimension N = 7 took minutes
    sc = trivial_scenario(7)
    start = time.perf_counter()
    for lat in random_upper_triangular_lattices(7, 5):
        assert delta_m(lat, sc).complete
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("cap", [0, -1, F(-1, 2)])
def test_stable_subspaces_within_rejects_non_positive_cap(cap):
    with pytest.raises(ValidationError, match="cap_sq"):
        stable_subspaces_within(standard_lattice(2), trivial_scenario(2), cap)


@pytest.mark.parametrize("budget", [True, False, 1.9, "x", F(19, 10)])
def test_delta_rejects_inexact_budget(budget):
    with pytest.raises(ValidationError) as err:
        delta_m(standard_lattice(2), trivial_scenario(2), budget=budget)
    assert err.value.field == "vector_budget"


def test_delta_accepts_int_and_fraction_budget():
    lat, sc = sl4_torus_lattice(F(2)), sl4_so21_scenario()
    want = delta_m(lat, sc)
    assert delta_m(lat, sc, budget=10 ** 4) == want
    assert delta_m(lat, sc, budget=F(10 ** 4)) == want


@pytest.mark.parametrize("bound", [1.5, None, True, "2", 0, F(-1, 2)])
def test_short_vectors_rejects_inexact_bound(bound):
    with pytest.raises(ValidationError) as err:
        short_vectors(standard_lattice(2), bound)
    assert err.value.field == "bound_sq"


@pytest.mark.parametrize("cap", [1.5, None, True, "1"])
def test_stable_subspaces_within_rejects_inexact_cap(cap):
    with pytest.raises(ValidationError) as err:
        stable_subspaces_within(standard_lattice(2), trivial_scenario(2), cap)
    assert err.value.field == "cap_sq"


@pytest.mark.parametrize("cap", [4, 64])
def test_stable_subspaces_within_checks_its_base(cap):
    """A base of another dimension is refused as every entry point refuses
    such a subspace, and a base that is not M-stable is refused at every cap."""
    lat, sc = sl4_torus_lattice(F(1, 4)), sl4_so21_scenario()
    for ambient in (3, 5):
        base = subspace_from_rows(ambient, [[1] + [0] * (ambient - 1)])
        with pytest.raises(ValidationError) as err:
            stable_subspaces_within(lat, sc, cap, base=base)
        assert err.value.field == "ambient"
    with pytest.raises(ValidationError) as err:
        stable_subspaces_within(lat, sc, cap, base=subspace_from_rows(4, [[0, 1, 0, 0]]))
    assert err.value.field == "base"
    # e1 is stable, and SO(2,1) fixes no proper subspace of the 3-block
    assert stable_subspaces_within(lat, sc, cap, base=subspace_from_rows(4, [[1, 0, 0, 0]])) \
        == ([], True)


# -- per-lattice quotients ------------------------------------------------------

def reference_eigen_lines(q):
    """(comp, state) per eigen-line space, each space reduced on its own,
    lines included."""
    if q.sc.m_generators:
        spaces = enumeration.common_eigenspace_bases(
            q.rep_matrices,
            [enumeration._generator_eigenvalues(g, d) for g, d in q.frame.gens], q.rank)
    else:
        spaces = [rl.identity(q.rank)]
    out = []
    for s_e in spaces:
        gram_e = rl.mat_mul(rl.mat_mul(s_e, q.gram), rl.transpose(s_e))
        u = lll_reduce_gram(gram_e)
        out.append((rl.mat_mul(u, s_e), elimination_state(
            rl.mat_mul(rl.mat_mul(u, gram_e), rl.transpose(u)))))
    return tuple(out)


def memo_inputs():
    rng = random.Random(211)
    sl4 = sl4_so21_scenario()
    for t in (F(2), F(1, 2), F(4), F(1, 4)):
        yield rebase(sl4_torus_lattice(t), random_unimodular_int(rng, 4, shears=4, c=1)), sl4
    for _ in range(6):
        yield random_unimodular_lattice(rng, 3, shears=3, dyadic_range=2), UNIPOTENT
    for n in range(2, 6):
        for _ in range(3):
            yield random_unimodular_lattice(rng, n, shears=n + 2, dyadic_range=2), \
                trivial_scenario(n)


def test_memoized_quotients_equal_fresh_ones(chain_search):
    k_seen, spaces_seen = set(), set()
    for lat, sc in memo_inputs():
        d = delta_m(lat, sc)
        stable_subspaces_within(lat, sc, F(1))
        if not d.witness.is_full and d.witness.dim < lat.n - 1:
            stable_subspaces_within(lat, sc, F(1), base=d.witness)
        memo = _quotient_memo(lat, sc)
        assert () in memo
        for z_rows, q in memo.items():
            fresh = _Quotient(make_lattice(lat.basis), sc, z_rows)
            assert (q.gram, q.scale, q.covol_sq) == (fresh.gram, fresh.scale, fresh.covol_sq)
            assert q.covol_sq == (covolume_sq(lat, subspace_from_rows(lat.n, z_rows))
                                  if z_rows else 1)
            assert q.reduced == fresh.reduced
            assert q.eigen_lines == fresh.eigen_lines == reference_eigen_lines(fresh)
            k_seen.add(q.k)
            spaces_seen.update(len(comp) for comp, _ in q.eigen_lines)
    assert {0, 1, 2} <= k_seen and {1, 2} <= spaces_seen


def test_alternating_scenarios_get_their_own_quotients(chain_search):
    rng = random.Random(223)
    lat = rebase(sl4_torus_lattice(F(2)), random_unimodular_int(rng, 4, shears=4, c=1))
    scenarios = (sl4_so21_scenario(), trivial_scenario(4))
    want = [delta_m(make_lattice(lat.basis), sc) for sc in scenarios]
    assert want[0] != want[1]
    for _ in range(2):
        for sc, d in zip(scenarios, want):
            assert delta_m(lat, sc) == d
            memo = _quotient_memo(lat, sc)
            assert memo and all(q.sc is sc for q in memo.values())


def test_search_covolumes_equal_covolume_sq():
    # after delta_m the searches above each found subspace read lat's memo
    checked = 0
    for lat, sc in memo_inputs():
        cap = F(1)
        delta_m(lat, sc)
        pairs, complete = _stable_search(lat, sc, (cap,) * lat.n, None, _as_budget(None))
        assert complete
        for i, (w, c) in enumerate(pairs):
            assert type(c) is F and c == covolume_sq(lat, w)
            checked += 1
            if i < 3 and w.dim < lat.n - 1:
                above, complete = _stable_search(lat, sc, (cap,) * lat.n, w,
                                                 _as_budget(None))
                assert complete
                assert all(type(c) is F and c == covolume_sq(lat, y) for y, c in above)
                checked += len(above)
    assert checked > 1000


def test_line_lift_hnf_equals_saturation():
    # Z saturated and y primitive in Λ/Λ_Z: the HNF of Z + lift(y) is saturated
    rng = random.Random(227)
    for _ in range(300):
        n = rng.randint(2, 6)
        k = rng.randint(0, n - 1)
        z = rl.saturate([tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)])
        quot = _Quotient(standard_lattice(n), trivial_scenario(n), z)
        y = ()
        while not any(y):
            y = rl.primitive_part([rng.randint(-4, 4) for _ in range(n - len(z))])
        rows = rl.hnf(z + (quot.lift(y),))[0]
        assert rows == subspace_from_rows(n, list(z) + [quot.lift(y)]).rows
