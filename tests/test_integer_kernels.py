"""The integer-only kernels against the code they replaced.

Each reference below is the earlier program path, kept verbatim in spirit:
the HNF with its transform, the Fraction inverse, `contains` by saturation,
the projection-kernel chain of `select_index_set` and the Fraction-remainder
Fincke-Pohst enumerator. Outputs (and budget use) must be identical. The
HNF-transform basis completion is checked on outputs only: another
completion reduces another quotient basis, so the budget may differ.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from nondiv import enumeration
from nondiv import ratlin as rl
from nondiv import serialize as se
from nondiv.enumeration import (_Budget, complete_to_basis, delta_m, lll_reduce_gram,
                                stable_subspaces_within)
from nondiv.errors import BudgetExceeded, InternalInvariantViolation, ValidationError
from nondiv.lattice import (covolume_sq, make_lattice, make_scenario,
                            subspace_from_rows, trivial_scenario)
from nondiv.pushout import PushoutConfig, drive, select_index_set
from nondiv.samples import sl4_so21_scenario, sl4_torus_lattice
from reference import (enumerate_rational_gram, fraction_det, gcd_one,
                       hnf_complete_to_basis, rat_inverse, scaled_bareiss, subspace_sum)

from conftest import random_unimodular_lattice
from test_enumeration import one_pass_inputs
from test_pushout_integers import FIXTURE_DRIVES

F = Fraction


# -- basis completion ------------------------------------------------------------

def test_complete_to_basis_keeps_rows():
    """The first k rows of the completion are the saturated rows themselves."""
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
        sub = subspace_from_rows(n, rows)
        v, v_inv, _ = complete_to_basis(sub.rows, n)
        assert v[:sub.dim] == sub.rows
        assert rl.mat_mul(v, v_inv) == rl.identity(n)


def test_complete_to_basis_contract():
    """Rows must have n exact integer entries; no rows complete to (I, I)
    with every column free; zero, dependent or unsaturated rows break an
    invariant."""
    assert complete_to_basis((), 3) == (rl.identity(3), rl.identity(3), (0, 1, 2))
    assert complete_to_basis([[1, F(2)]], 2) == complete_to_basis(((1, 2),), 2)
    for rows, n in [(((1, 0, 0),), 2), (((1, 0),), 3), (((1.0, 0),), 2),
                    (((True, 0),), 2), (((F(1, 2), 1),), 2), (((0, "1"),), 2)]:
        with pytest.raises(ValidationError, match="rows"):
            complete_to_basis(rows, n)
    for rows in [((0, 0),), ((2, 0),), ((1, 0), (1, 0)), ((1, 2), (3, 4)),
                 ((1, 0), (0, 1), (1, 1))]:
        with pytest.raises(InternalInvariantViolation):
            complete_to_basis(rows, 2)


def test_complete_to_basis_shortcut_needs_the_identity_on_pivots(monkeypatch):
    """Only rows that are the identity on their leading columns complete in
    closed form, with their free columns; unit-leading rows not in HNF, and
    a pivot above 1, take the HNF transform and have none, and every
    completion inverts."""
    hnfs = []
    real_hnf = rl.hnf
    monkeypatch.setattr(rl, "hnf", lambda m: hnfs.append(m) or real_hnf(m))
    cases = [(((1, 0, 3), (0, 1, -2)), False), (((0, 1, 5),), False),
             (((0, 0, 1), (1, 0, 0)), False), (((1, 2, 0), (0, 1, 0)), True),
             (((1, 0, 0), (0, 2, 1)), True), (((2, 3, 0),), True)]
    for rows, by_hnf in cases:
        hnfs.clear()
        v, v_inv, free = complete_to_basis(rows, 3)
        assert bool(hnfs) == by_hnf == (free is None), rows
        assert v[:len(rows)] == rows
        assert rl.mat_mul(v, v_inv) == rl.identity(3)
        if by_hnf:
            assert (v, v_inv, free) == hnf_complete_to_basis(rows, 3)
        else:
            assert v[len(rows):] == tuple(rl.identity(3)[j] for j in free)
    # the closed form would complete ((1, 2, 0), (0, 1, 0)) with e_2 and invert to I
    assert complete_to_basis(((1, 2, 0), (0, 1, 0)), 3)[1] != rl.identity(3)


def completion_rows(rng, n, kind):
    """Saturated rows of a proper subspace of Q^n: an HNF with unit pivots
    ("unit"), an HNF with a pivot above 1 ("pivot"), or a unit-pivot HNF of
    two rows or more, sheared out of HNF ("sheared", n ≥ 3)."""
    if kind == "pivot":
        while True:
            sub = subspace_from_rows(n, [[rng.randint(-4, 4) for _ in range(n)]
                                         for _ in range(rng.randint(1, n - 1))])
            if any(next(filter(None, r)) != 1 for r in sub.rows):
                return sub.rows
    k = rng.randint(2 if kind == "sheared" else 1, n - 1)
    pivots = sorted(rng.sample(range(n), k))
    rows = [[int(c == p) if c in pivots else rng.randint(-3, 3) * (c > p) for c in range(n)]
            for p in pivots]
    if kind == "sheared":
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


def test_completions_and_quotients_match_the_hnf_reference(monkeypatch):
    """Against the HNF-transform completion on seeded rows of every kind:
    both complete to a unimodular v with v[:k] = Z, quotients built on
    either have the covol² of Z and Grams of one determinant, and chain
    searches built on either find the same subspaces."""
    rng = random.Random(229)
    kinds = Counter()
    real_complete = enumeration.complete_to_basis
    for _ in range(150):
        kind = rng.choice(("unit", "pivot", "sheared"))
        n = rng.randint(3 if kind == "sheared" else 2, 5)
        z = completion_rows(rng, n, kind)
        kinds[kind] += 1
        lat = random_unimodular_lattice(rng, n, shears=n + 2, dyadic_range=2)
        sc = trivial_scenario(n)
        covol = covolume_sq(lat, subspace_from_rows(n, z))
        quotients = []
        for complete in (real_complete, hnf_complete_to_basis):
            v, v_inv, _ = complete(z, n)
            assert v[:len(z)] == z
            assert rl.mat_mul(v, v_inv) == rl.identity(n)
            # only unit-pivot HNFs leave the HNF transform
            assert kind == "unit" or complete(z, n) == hnf_complete_to_basis(z, n)
            monkeypatch.setattr(enumeration, "complete_to_basis", complete)
            q = enumeration._Quotient(make_lattice(lat.basis), sc, z)
            assert q.covol_sq == covol
            assert [q.lift(e) for e in rl.identity(n - len(z))] == list(v[len(z):])
            quotients.append(q)
        # the Grams differ by a unimodular change of basis: same scale and det
        assert quotients[0].scale == quotients[1].scale
        assert quotients[0].reduced[1][1][-1] == quotients[1].reduced[1][1][-1]
        free = real_complete(z, n)[2]
        if kind == "unit":  # completed by the unit rows off the pivots
            leads = {next(c for c, x in enumerate(r) if x) for r in z}
            assert free == tuple(j for j in range(n) if j not in leads)
        kinds["whole Gram"] += free is None
    assert min(kinds.values()) >= 10 and len(kinds) == 4

    def searches(complete):
        monkeypatch.setattr(enumeration, "complete_to_basis", complete)
        out = []
        for lat, sc in itertools.islice(one_pass_inputs(), 0, None, 3):
            d = delta_m(make_lattice(lat.basis), sc)
            found = stable_subspaces_within(make_lattice(lat.basis), sc,
                                            2 * d.witness_covol_sq)
            out.append((d, found))
        return out

    assert searches(real_complete) == searches(hnf_complete_to_basis)


# -- HNF without its transform ---------------------------------------------------

def test_hnf_rows_matches_hnf_form():
    rng = random.Random(101)
    shapes = set()
    for _ in range(400):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [0] * ncols
        if nrows > 1 and rng.random() < 0.3:
            # a dependent row: rank below min(nrows, ncols)
            i, j = rng.sample(range(nrows), 2)
            c = rng.randint(-3, 3)
            rows[i] = [c * x for x in rows[j]]
        h = rl.hnf(rows)[0]
        assert rl.hnf_rows(rows) == h, rows
        shapes.add((rl.hnf_rank(h) < min(nrows, ncols), any(not any(r) for r in rows)))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


# -- fraction-free inverse --------------------------------------------------------

def test_int_inverse_matches_rat_inverse():
    rng = random.Random(103)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(n)]
        det = fraction_det(m)
        if det == 0:
            try:
                rl.int_inverse(m)
            except ValueError:
                continue
            raise AssertionError(f"singular {m} was inverted")
        adj, d = rl.int_inverse(m)
        assert d == det
        assert tuple(tuple(F(x, d) for x in row) for row in adj) == rat_inverse(m), m
        seen.add((m[0][0] == 0, det < 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# -- containment ------------------------------------------------------------------

def test_contains_matches_saturation_form():
    rng = random.Random(107)
    kinds = set()
    for _ in range(200):
        n = rng.randint(2, 5)
        subs = []
        while len(subs) < 2:
            s = subspace_from_rows(n, [[rng.randint(-3, 3) for _ in range(n)]
                                       for _ in range(rng.randint(1, n))])
            if s.dim:
                subs.append(s)
        w, x = subs
        for a, b in ((w, w), (w, subspace_sum(w, x)), (subspace_sum(w, x), w),
                     (w, x), (x, w)):
            want = rl.saturate(a.rows + b.rows) == a.rows
            assert a.contains(b) == want, (a.rows, b.rows)
            kinds.add(want)
    assert kinds == {True, False}


# -- index sets: the projection-kernel chain ----------------------------------------

def reference_select_index_set(lat, w, sc):
    """The descending kernel chain on w.rows·b_intᵀ with integer kernels."""
    cur = rows = rl.mat_mul(w.rows, rl.transpose(lat.int_basis[0]))
    picked = []
    for i, (a, b) in enumerate(sc.blocks):
        if not cur:
            break
        proj = [row[a:b] for row in cur]
        if not any(any(p) for p in proj):
            continue
        picked.append(i)
        coeffs = rl.right_kernel_int(rl.transpose(proj))
        cur = [row for row in rl.mat_mul(coeffs, cur) if any(row)]
    if cur:
        raise InternalInvariantViolation("projection kernel chain did not reach zero")
    i_cols = [c for i in picked for c in range(*sc.blocks[i])]
    proj_w = [tuple(row[c] for c in i_cols) for row in rows]
    if rl.right_kernel_int(rl.transpose(proj_w)):
        raise InternalInvariantViolation("index-set projection is not injective on W")
    return tuple(picked)


def random_blocks(rng, n):
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    edges = [0] + cuts + [n]
    return [(a, b) for a, b in zip(edges, edges[1:])]


def test_select_index_set_matches_kernel_chain():
    rng = random.Random(109)
    cases = [(sl4_torus_lattice(t), sl4_so21_scenario()) for t in (F(2), F(1, 8))]
    for _ in range(30):
        n = rng.randint(2, 6)
        cases.append((random_unimodular_lattice(rng, n, shears=rng.randint(2, 8)),
                      make_scenario(n, random_blocks(rng, n), ())))
    cases.append((random_unimodular_lattice(rng, 5), trivial_scenario(5)))
    picked_sizes = set()
    for lat, sc in cases:
        n = lat.n
        for _ in range(10):
            w = subspace_from_rows(n, [[rng.randint(-2, 2) for _ in range(n)]
                                       for _ in range(rng.randint(1, n))])
            if not w.dim:
                continue
            got = select_index_set(lat, w, sc)
            assert got == reference_select_index_set(lat, w, sc), (lat.basis, w.rows)
            picked_sizes.add(len(got))
    assert len(picked_sizes) >= 4


# -- enumeration with an integer remainder -----------------------------------------

def reference_enumerate_gram(g, bound, budget, spanning):
    """The Fincke-Pohst of `_enumerate_gram` with the remaining bound a Fraction."""
    n = len(g)
    if bound <= 0:
        return []
    lam, d, den = scaled_bareiss(g)
    scale = [den * d[l] * d[l + 1] for l in range(n)]
    out = []
    x = [0] * n

    def recurse(level, rem, outer_zero):
        budget.consume()
        dl, m = d[level + 1], scale[level]
        num = 0
        for i in range(level + 1, n):
            if x[i]:
                num += lam[i][level] * x[i]
        if rem < 0:
            lo, hi = 0, -1
        else:
            s = isqrt(rem.numerator * m // rem.denominator)
            lo, hi = -((s + num) // dl), (s - num) // dl
        if outer_zero:
            lo = max(lo, 0)
            if spanning and level == 0:
                hi = min(hi, 1)
        for t in range(lo, hi + 1):
            if level == 0 and outer_zero and t == 0:
                continue
            x[level] = t
            y = dl * t + num
            rem2 = rem - F(y * y, m)
            if level == 0:
                budget.consume()
                out.append((bound - rem2, tuple(x)))
            else:
                recurse(level - 1, rem2, outer_zero and t == 0)
        x[level] = 0

    recurse(n - 1, F(bound), True)
    return out


def run_enumerator(enum, g, bound, cap, primitive):
    bud = _Budget(cap)
    try:
        out = enum(g, bound, bud, primitive)
    except BudgetExceeded:
        out = "exceeded"
    return out, bud.used


def test_enumerate_gram_matches_fraction_remainder():
    rng = random.Random(113)
    exceeded = complete = 0
    for trial in range(200):
        n = 1 + trial % 5
        b = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)]
             for _ in range(n)]
        if rl.rat_det(b) == 0:
            continue
        g = rl.mat_mul(b, rl.transpose(b))
        if rng.random() < 0.5:
            u = lll_reduce_gram(g)
            g = rl.mat_mul(rl.mat_mul(u, g), rl.transpose(u))
        bound = min(g[i][i] for i in range(n)) * F(rng.randint(1, 8), rng.randint(1, 3))
        for cap in (rng.randint(1, 150), 10 ** 6):
            for primitive in (False, True):
                got = run_enumerator(enumerate_rational_gram, g, bound, cap, primitive)
                want = run_enumerator(reference_enumerate_gram, g, bound, cap, primitive)
                if primitive:
                    want = gcd_one(want[0]), want[1]
                assert got == want, (g, bound, cap, primitive)
                if got[0] == "exceeded":
                    exceeded += 1
                else:
                    complete += 1
                    assert all(type(qv) is F for qv, _ in got[0])
    assert exceeded > 30 and complete > 30


# -- the search kernels see integers only ----------------------------------------

def all_ints(*rows) -> bool:
    return all(type(x) is int for r in rows for x in r)


def test_search_kernels_take_integer_grams_only(monkeypatch):
    """`_lll` gets an integer Gram and hands on integer (λ, D), and
    `_enumerate_gram` reads integer reductions only, on every search of the
    fixture drives and of delta_m and protect's search above the witness on
    the one-pass inputs (seeded SL4 and the lattices its drives move to,
    UNIPOTENT, a Jordan block, -I and the trivial group); a Fraction Gram
    enters only through `lll_reduce_gram`, scaled once."""
    seen = Counter()
    real_lll, real_enumerate = enumeration._lll, enumeration._enumerate_gram

    def lll(a):
        assert all_ints(*a), a
        u, (lam, d) = out = real_lll(a)
        assert all_ints(*u, *lam, d)
        seen["lll", min(len(a), 3)] += 1
        return out

    def enumerate_gram(reduction, bound, budget, primitive):
        u, (lam, d) = reduction
        assert all_ints(*u, *lam, d)
        seen["enumerate"] += 1
        return real_enumerate(reduction, bound, budget, primitive)

    monkeypatch.setattr(enumeration, "_lll", lll)
    monkeypatch.setattr(enumeration, "_enumerate_gram", enumerate_gram)
    for scen, name in FIXTURE_DRIVES:
        lat = se.load_lattice(f"fixtures/{name}.json")
        sc, cfg = (se.load_scenario(f"fixtures/{scen}.json") if scen
                   else (trivial_scenario(lat.n), PushoutConfig()))
        drive(lat, sc, cfg)
    for lat, sc in one_pass_inputs():
        d = delta_m(lat, sc)
        if not d.witness.is_full:
            stable_subspaces_within(lat, sc, 2 * d.witness_covol_sq, base=d.witness)
    searched = seen.copy()
    g = ((F(5, 3), F(1, 2)), (F(1, 2), F(7, 4)))
    assert lll_reduce_gram(g) == lll_reduce_gram(rl.scale_to_int(g)[0])
    assert seen["lll", 2] == searched["lll", 2] + 2
    # lines, planes and larger spaces were all reduced, and searches enumerated
    assert min(searched["lll", r] for r in (1, 2, 3)) > 0 and searched["enumerate"] > 100
