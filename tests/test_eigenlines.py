"""The integer eigen-line search against the Fraction path it replaced.

`reference_common_eigenspace_bases` is the earlier search: per-quotient
characteristic polynomials and `rat_right_kernel` intersections on the
Fraction conjugation B⁻¹·g·B. `_stable_quotient_lines` saturated each of its
spaces, so the integer search must return exactly those saturated spans, in
the same order, on every quotient a search builds.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import lcm

import pytest

from nondiv import enumeration
from nondiv import ratlin as rl
from nondiv.enumeration import (_generator_eigenvalues, _quotient, _Quotient,
                                char_poly, common_eigenspace_bases, delta_m,
                                stable_subspaces_within)
from nondiv.errors import InternalInvariantViolation
from nondiv.lattice import (_frame, apply_torus, conjugated_generators,
                            make_lattice, make_scenario, trivial_scenario)
from nondiv.pushout import PushoutConfig, drive, dyadic_guard, protect
from nondiv.samples import sl4_so21_scenario, sl4_torus, sl4_torus_lattice

from conftest import (random_unimodular_int, random_unimodular_lattice,
                      real_coordinate_subspace)
from reference import (int_inverse_unimodular, rat_inverse, rat_right_kernel,
                       reference_char_poly, reference_rational_roots)

F = Fraction

UNIPOTENT = make_scenario(3, [[0, 2], [2, 3]], [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]])


# -- the Fraction path --------------------------------------------------------

def reference_conjugated_generators(lat, sc):
    binv = rat_inverse(lat.basis)
    return tuple(rl.rat_matrix(rl.mat_mul(rl.mat_mul(binv, g), lat.basis))
                 for g in sc.m_generators)


def reference_int_generators(lat, sc):
    """Each B⁻¹·g·B scaled by the lcm of its denominators."""
    out = []
    for ghat in reference_conjugated_generators(lat, sc):
        d = lcm(*(x.denominator for row in ghat for x in row))
        out.append(tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                         for row in ghat))
    return tuple(out)


def reference_rep_matrices(quot):
    v, k = quot.full_basis, quot.k
    vinv = int_inverse_unimodular(v)
    reps = []
    for ghat in reference_conjugated_generators(quot.lat, quot.sc):
        m = rl.mat_mul(rl.mat_mul(v, rl.transpose(ghat)), vinv)
        reps.append(tuple(tuple(row[k:]) for row in m[k:]))
    return tuple(reps)


def reference_eigenspace_rows(m, alpha):
    n = len(m)
    shifted = tuple(tuple(m[i][j] - (alpha if i == j else 0) for j in range(n))
                    for i in range(n))
    return rat_right_kernel(rl.transpose(shifted))


def reference_span_intersection(e1, e2):
    constraints = list(rat_right_kernel(e1)) + list(rat_right_kernel(e2))
    if not constraints:
        return e1 if len(e1) <= len(e2) else e2
    return rat_right_kernel(constraints)


def reference_common_eigenspace_bases(mats, dim):
    spaces = [tuple(tuple(F(1 if i == j else 0) for j in range(dim)) for i in range(dim))]
    for m in mats:
        roots = [r for r in reference_rational_roots(reference_char_poly(m)) if r != 0]
        refined = []
        for alpha in roots:
            eig = reference_eigenspace_rows(m, alpha)
            if not eig:
                continue
            for e in spaces:
                inter = reference_span_intersection(e, eig)
                if inter:
                    refined.append(inter)
        spaces = refined
        if not spaces:
            break
    return spaces


def reference_spaces(quot):
    """The saturated spans `_stable_quotient_lines` searched, in order."""
    spaces = reference_common_eigenspace_bases(reference_rep_matrices(quot), quot.rank)
    return [rl.saturate(rl.scale_to_int(rl.rat_matrix(e))[0]) for e in spaces]


def integer_spaces(quot):
    eigenvalues = [_generator_eigenvalues(g, d) for g, d in quot.frame.gens]
    return common_eigenspace_bases(quot.rep_matrices, eigenvalues, quot.rank)


# -- inputs ---------------------------------------------------------------------

def recorded_quotients(monkeypatch, run):
    """Every quotient `run()` builds."""
    made = []

    class Recording(_Quotient):
        def __init__(self, *args):
            super().__init__(*args)
            self.lat = args[0]  # for the reference; a quotient keeps no lattice
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(enumeration, "_Quotient", Recording)
        run()
    return made


def rebased(lat, rng, det_sign):
    """lat on the basis B·u, u unimodular with det u = det_sign."""
    u = [list(r) for r in random_unimodular_int(rng, lat.n, shears=4, c=1)]
    if det_sign < 0:
        u[0] = [-x for x in u[0]]
    return make_lattice(rl.mat_mul(lat.basis, [[F(x) for x in r] for r in u]))


def planted_scenario(rng, jordan: bool):
    """Blocks [0,2) and [2,4); each generator block is P·T·P⁻¹ with T upper
    triangular, rational diagonal of product one, and P integer unimodular.
    With jordan, one block is a single Jordan block."""
    gens = []
    for _ in range(rng.choice((1, 2))):
        a, b = F(rng.choice((2, 3, -2)), rng.choice((1, 2))), F(rng.choice((1, 3)), 2)
        diag = [a, 1 / a, b, 1 / b] if not jordan else [a, a, b, 1 / (a * a * b)]
        if rng.random() < 0.3:
            diag = [F(1)] * 4  # a unipotent generator
        g = [[F(0)] * 4 for _ in range(4)]
        for lo in (0, 2):
            t = [[diag[lo], F(rng.randint(-1, 1) if not jordan else 1)],
                 [F(0), diag[lo + 1]]]
            p = random_unimodular_int(rng, 2, shears=3, c=2)
            blk = rl.mat_mul(rl.mat_mul(p, t), int_inverse_unimodular(p))
            for i in range(2):
                for j in range(2):
                    g[lo + i][lo + j] = blk[i][j]
        gens.append(g)
    return make_scenario(4, [[0, 2], [2, 4]], gens)


def assert_search_matches_reference(quots):
    assert any(q.k > 0 for q in quots)
    for q in quots:
        got = integer_spaces(q)
        assert got == reference_spaces(q), (q.lat.basis, q.full_basis[:q.k])
        for (m, d), ref, gen in zip(q.rep_matrices, reference_rep_matrices(q),
                                    q.frame.gens):
            assert tuple(tuple(F(x, d) for x in row) for row in m) == ref
            roots = {r for r in reference_rational_roots(reference_char_poly(ref)) if r != 0}
            assert roots <= set(_generator_eigenvalues(*gen))


# -- equivalence ------------------------------------------------------------------

def test_eigen_search_matches_reference_sl4(monkeypatch, chain_search):
    rng = random.Random(83)
    sc = sl4_so21_scenario()
    quots = []
    cfg = PushoutConfig(eta0_override=F(1, 4))
    for t in (F(2), F(4), F(1, 2), F(1, 4), F(1, 8)):
        for sign in (1, -1):
            lat = rebased(sl4_torus_lattice(t), rng, sign)
            assert lat.det_sign == sign
            quots += recorded_quotients(monkeypatch, lambda: delta_m(lat, sc))
            quots += recorded_quotients(
                monkeypatch, lambda: stable_subspaces_within(lat, sc, F(4)))
            if t < 1:
                quots += recorded_quotients(monkeypatch, lambda: drive(lat, sc, cfg))
    assert_search_matches_reference(quots)
    # some quotients keep an eigen-line, on others every candidate is skipped
    assert any(integer_spaces(q) for q in quots)
    assert any(not integer_spaces(q) for q in quots)


def test_eigen_search_matches_reference_unipotent(monkeypatch):
    rng = random.Random(5)
    quots = []
    for _ in range(8):
        lat = random_unimodular_lattice(rng, 3, shears=3, dyadic_range=2)
        quots += recorded_quotients(
            monkeypatch, lambda: stable_subspaces_within(lat, UNIPOTENT, F(2)))
    assert_search_matches_reference(quots)


@pytest.mark.parametrize("jordan", [False, True])
def test_eigen_search_matches_reference_planted(monkeypatch, jordan):
    rng = random.Random(89 + jordan)
    quots = []
    for _ in range(6):
        sc = planted_scenario(rng, jordan)
        lat = random_unimodular_lattice(rng, 4, shears=5, dyadic_range=2)
        quots += recorded_quotients(
            monkeypatch, lambda: stable_subspaces_within(lat, sc, F(2)))
    assert_search_matches_reference(quots)


def test_generator_eigenvalues_are_sorted_nonzero_roots():
    g = planted_scenario(random.Random(97), jordan=False).m_generators[0]
    g_int, d = rl.scale_to_int(g)
    assert d > 1  # the roots of g_int's polynomial are divided by d
    roots = _generator_eigenvalues(g_int, d)
    assert list(roots) == sorted(set(roots)) and 0 not in roots
    assert set(roots) == {r for r in reference_rational_roots(reference_char_poly(g))
                          if r != 0}


def test_char_poly_matches_fraction_reference():
    rng = random.Random(103)
    for n in range(1, 7):
        for _ in range(8):
            m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            got = char_poly(m)
            assert all(type(c) is int for c in got)
            assert got == reference_char_poly(m)
    # the integer recurrence checks each of its divisions instead of trusting it
    with pytest.raises(InternalInvariantViolation):
        char_poly(((F(1, 2),),))


def test_each_orbit_fills_its_own_frame_eigenvalues():
    """A frame's eigenvalues are found on its first eigen-line search and
    shared along its torus orbit; a lattice on another orbit finds its own."""
    sc = sl4_so21_scenario()
    want = tuple(tuple(r for r in reference_rational_roots(reference_char_poly(g)) if r != 0)
                 for g in sc.m_generators)
    lat = sl4_torus_lattice(F(2))
    other = rebased(lat, random.Random(107), -1)
    frame, other_frame = _frame(lat, sc), _frame(other, sc)
    moved = apply_torus(sl4_torus(F(1, 2)), lat)
    assert _frame(moved, sc) is frame and other_frame is not frame
    assert frame.eigenvalues is None and other_frame.eigenvalues is None
    _quotient(moved, sc, ()).eigen_lines
    held = frame.eigenvalues
    assert held == want and other_frame.eigenvalues is None
    _quotient(other, sc, ()).eigen_lines
    assert other_frame.eigenvalues == want and other_frame.eigenvalues is not held
    assert frame.eigenvalues is held


def test_int_generators_match_reference():
    rng = random.Random(101)
    sc = sl4_so21_scenario()
    diagonals = [(F(1, 2), F(2, 3), F(3, 5), F(5)),
                 (F(5, 2), F(1, 3), F(6, 5), F(1)),
                 (F(1, 5), F(5, 3), F(3, 2), F(2))]
    for diag in diagonals:
        base = make_lattice([[diag[i] if i == j else 0 for j in range(4)]
                             for i in range(4)])
        for sign in (1, -1):
            for scenario in (sc, planted_scenario(rng, jordan=sign < 0)):
                lat = rebased(base, rng, sign)
                assert lat.det_sign == sign
                got = _frame(lat, scenario).gens
                assert tuple(g for g, _ in got) == reference_int_generators(lat, scenario)
                assert conjugated_generators(lat, scenario) == \
                    reference_conjugated_generators(lat, scenario)
                assert _frame(lat, scenario).gens is got  # held on the instance
    assert _frame(base, trivial_scenario(4)).gens == ()


# -- regression guard -------------------------------------------------------------

def test_drive_factors_each_generator_once(monkeypatch, chain_search):
    """Characteristic polynomials are computed per generator, never per quotient."""
    sc, lat = sl4_so21_scenario(), sl4_torus_lattice(F(1, 8))
    seen = Counter()
    real = enumeration.char_poly

    def counting(m):
        seen[m] += 1
        return real(m)

    monkeypatch.setattr(enumeration, "char_poly", counting)
    cert = drive(lat, sc, PushoutConfig(eta0_override=F(1, 4)))
    assert cert.steps
    assert seen and set(seen) <= {g for g, _ in _frame(lat, sc).gens}
    assert max(seen.values()) == 1


def test_drive_builds_quotient_data_once_per_subspace(monkeypatch, chain_search):
    """Along a drive the torus moves share one frame: the basis is inverted
    once for the generator action, and each stable subspace Z is completed
    to a basis and searched for eigen-lines once."""
    sc, lat = sl4_so21_scenario(), sl4_torus_lattice(F(1, 8))
    completions, searches, inversions = Counter(), Counter(), []
    current, line_searches = [], []
    real_complete = enumeration.complete_to_basis
    real_search = enumeration.common_eigenspace_bases
    real_lines = enumeration._stable_quotient_lines
    real_eigen_lines = _Quotient.eigen_lines.func
    real_inverse = rl.int_inverse

    def complete(rows, n):
        completions[rows] += 1
        return real_complete(rows, n)

    def lines(quot, t_sq, budget):
        line_searches.append(quot.z_rows)
        return real_lines(quot, t_sq, budget)

    # the eigen-line spaces are built where the search first reads them, so
    # each eigenspace search is charged to the Z of the quotient asking
    def eigen_lines(quot):
        current.append(quot.z_rows)
        try:
            return real_eigen_lines(quot)
        finally:
            current.pop()

    hooked_eigen_lines = cached_property(eigen_lines)
    hooked_eigen_lines.__set_name__(_Quotient, "eigen_lines")

    def search(reps, eigenvalues, dim):
        searches[current[-1]] += 1
        return real_search(reps, eigenvalues, dim)

    def inverse(m):
        inversions.append(len(m))
        return real_inverse(m)

    monkeypatch.setattr(enumeration, "complete_to_basis", complete)
    monkeypatch.setattr(enumeration, "_stable_quotient_lines", lines)
    monkeypatch.setattr(_Quotient, "eigen_lines", hooked_eigen_lines)
    monkeypatch.setattr(enumeration, "common_eigenspace_bases", search)
    monkeypatch.setattr(rl, "int_inverse", inverse)
    cert = drive(lat, sc, PushoutConfig(eta0_override=F(1, 4)))
    assert len(cert.steps) == 3
    assert completions and max(completions.values()) == 1
    assert searches and max(searches.values()) == 1
    assert len(line_searches) > len(searches)  # repeated subspaces hit the frame
    # the push-out's other inverses are of Grams on a proper W, never 4x4
    assert inversions.count(4) == 1


def test_delta_m_takes_sl4_lines_from_its_enumeration(monkeypatch, chain_search):
    """Under delta_m's caps a node's line bound is at most the bound of the
    dimension above it, so its stable lines come from the node's one
    enumeration and no eigen-line space is built. protect's one cap for
    every dimension still needs them, from the e1 witness at t = 1/2."""
    sc = sl4_so21_scenario()
    calls = []
    real_search = enumeration.common_eigenspace_bases

    def search(reps, eigenvalues, dim):
        calls.append(dim)
        return real_search(reps, eigenvalues, dim)

    monkeypatch.setattr(enumeration, "common_eigenspace_bases", search)
    rng = random.Random(29)
    for t in (F(2), F(4), F(1, 2), F(1, 4), F(1, 8), F(3, 2)):
        lat = rebased(sl4_torus_lattice(t), rng, 1)
        d = delta_m(lat, sc)
        # the stable subspaces are the two blocks: e1 (covol² t⁶) and e2..e4
        assert d.complete
        assert d.witness == real_coordinate_subspace(lat, {0} if t < 1 else {1, 2, 3})
        assert d.witness_covol_sq == (t ** 6 if t < 1 else t ** -6)
    assert calls == []
    lat = sl4_torus_lattice(F(1, 2))
    d = delta_m(lat, sc)
    assert d.witness.rows == ((1, 0, 0, 0),) and calls == []
    guard = dyadic_guard(F(1, 16), 4)
    assert guard == 2
    protect(lat, sc, PushoutConfig(), guard, eta0_sq=F(1, 16), delta=d)
    assert len(calls) == 1
