"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (Fractions end to end); the timing asserts are there
to catch complexity blowups, not to benchmark.
"""

import json
import math
import random
import time
from fractions import Fraction

from nondiv.cli import main
from nondiv.enumeration import delta_m, oracle_delta_m, stable_subspaces_within
from nondiv.errors import UnexpandableSubspace
from nondiv.exterior import PureWedge, apply_torus_to_wedge
from nondiv.lattice import (apply_torus, covolume_sq,
                            make_lattice, standard_lattice,
                            subspace_from_rows, trivial_scenario)
from nondiv.pushout import (PushoutConfig, Terminated, drive, dyadic_guard,
                            expansion_element, protect, pushout_step)
from nondiv import ratlin as rl
from nondiv import serialize as se
from nondiv.samples import sl4_so21_scenario, sl4_torus_lattice, squash_lattice_2d

from conftest import random_unimodular_int
from reference import real_rows, subspace_intersect, subspace_sum

F = Fraction
SC4 = sl4_so21_scenario()
SEED = 20260815


def lcm_pow(n):
    """L = lcm(1..n), the exponent of the reported delta_sq_pow form."""
    return math.lcm(*range(1, n + 1))


def _prod(xs):
    out = F(1)
    for x in xs:
        out *= x
    return out


def rebase(lat, u):
    """Same lattice, different basis: right-multiply by an integer unimodular u."""
    return make_lattice(rl.mat_mul(lat.basis, [[F(x) for x in r] for r in u]))


def random_rebase(rng, lat):
    return rebase(lat, random_unimodular_int(rng, lat.n, shears=4, c=1))


def _report(num, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"
    print(f"criterion {num} PASS ({elapsed:.2f}s < {limit}s): {detail}")


def test_criterion_1_normalization():
    worst = 0.0
    for n in (2, 3, 4, 5):
        t0 = time.perf_counter()
        d = delta_m(standard_lattice(n), trivial_scenario(n))
        dt = time.perf_counter() - t0
        assert d.delta_sq_pow == 1
        assert d.delta_float == 1.0
        assert d.complete
        assert dt < 1.0
        worst = max(worst, dt)
    _report(1, worst, 1.0, "delta(Z^N) = 1 exactly for N in 2..5")


def _bounded_rational_lattice_3(rng):
    # unimodular with every entry's numerator and denominator at most 16
    picks = [(F(1), F(1), F(1)), (F(1, 2), F(2), F(1)), (F(1, 2), F(1), F(2)),
             (F(2), F(1, 2), F(1)), (F(1, 4), F(2), F(2)), (F(1, 2), F(1, 2), F(4))]
    while True:
        u = random_unimodular_int(rng, 3, shears=4, c=1)
        d = list(rng.choice(picks))
        rng.shuffle(d)
        v = random_unimodular_int(rng, 3, shears=3, c=1)
        dm = [[d[i] if i == j else F(0) for j in range(3)] for i in range(3)]
        b = rl.mat_mul(rl.mat_mul([[F(x) for x in r] for r in u], dm),
                       [[F(x) for x in r] for r in v])
        if all(abs(x.numerator) <= 16 and x.denominator <= 16 for r in b for x in r):
            return make_lattice(b)


def test_criterion_2_oracle_equivalence():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    sc3 = trivial_scenario(3)
    bound = 4
    disagreements = 0
    for _ in range(200):
        lat = _bounded_rational_lattice_3(rng)
        d = delta_m(lat, sc3)
        o = oracle_delta_m(lat, sc3)
        assert d.complete
        if d.delta_sq_pow != o.delta_sq_pow:
            disagreements += 1
        # these inputs keep small witnesses; the oracle itself has no entry bound
        assert max(abs(x) for r in d.witness.rows for x in r) < bound
    for _ in range(50):
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        lat = sl4_torus_lattice(F(2) ** a)
        d = delta_m(lat, SC4)
        o = oracle_delta_m(lat, SC4)
        assert d.complete
        if d.delta_sq_pow != o.delta_sq_pow:
            disagreements += 1
    dt = time.perf_counter() - t0
    assert disagreements == 0
    _report(2, dt, 60.0, "0 disagreements on 200 trivial-group + 50 scenario lattices")


def test_criterion_3_submultiplicativity():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 5)
        u = random_unimodular_int(rng, n, shears=5, c=2)
        scale = [F(2) ** rng.randint(-2, 2) for _ in range(n - 1)]
        scale.append(F(1) / _prod(scale))
        lat = rebase(make_lattice([[scale[i] if i == j else F(0)
                                    for j in range(n)] for i in range(n)]), u)
        w1 = subspace_from_rows(n, [[rng.randint(-3, 3) for _ in range(n)]
                                    for _ in range(rng.randint(1, n - 1))])
        w2 = subspace_from_rows(n, [[rng.randint(-3, 3) for _ in range(n)]
                                    for _ in range(rng.randint(1, n - 1))])
        inter = subspace_intersect(w1, w2)
        lhs = covolume_sq(lat, inter) * covolume_sq(lat, subspace_sum(w1, w2))
        rhs = covolume_sq(lat, w1) * covolume_sq(lat, w2)
        assert lhs <= rhs
        checked += 1
    dt = time.perf_counter() - t0
    _report(3, dt, 30.0, "1000 exact squared-form inequalities hold")


def _random_proper_subspace(rng, lat):
    n = lat.n
    while True:
        k = rng.randint(1, n - 1)
        w = subspace_from_rows(n, [[rng.randint(-2, 2) for _ in range(n)]
                                   for _ in range(k)])
        if w.dim and not w.is_full:
            return w


def test_criterion_4_expansion_bounds():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    cfg = PushoutConfig()
    v1 = subspace_from_rows(4, [(1, 0, 0, 0)])
    v2 = subspace_from_rows(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    checked = 0
    while checked < 500:
        if checked % 10 < 9:
            n = rng.randint(2, 5)
            scale = [F(2) ** rng.randint(-2, 2) for _ in range(n - 1)]
            scale.append(F(1) / _prod(scale))
            lat = random_rebase(rng, make_lattice(
                [[scale[i] if i == j else F(0) for j in range(n)] for i in range(n)]))
            sc = trivial_scenario(n)
            w = _random_proper_subspace(rng, lat)
        else:
            lat = sl4_torus_lattice(F(2) ** rng.choice([-2, -1, 1, 2]))
            sc = SC4
            w = rng.choice([v1, v2])
        try:
            cert = expansion_element(lat, w, sc, cfg)
        except UnexpandableSubspace:
            continue
        diag = cert.s.diagonal()
        real = real_rows(lat, w.rows)
        for _ in range(2):
            coeffs = [rng.randint(-3, 3) for _ in real]
            v = tuple(sum(F(c) * row[j] for c, row in zip(coeffs, real))
                      for j in range(lat.n))
            if not any(v):
                continue
            sv = tuple(d * x for d, x in zip(diag, v))
            assert (sum(x * x for x in sv)
                    >= cert.achieved_c2_sq * sum(x * x for x in v))
        if w.dim >= 2:
            k = rng.randint(2, w.dim)
            wedge = PureWedge(spanning_vectors=tuple(real[:k]))
            swedge = apply_torus_to_wedge(cert.s, wedge)
            assert swedge.sq_norm >= cert.achieved_c2_sq * wedge.sq_norm
        vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(lat.n))
                for _ in range(rng.randint(1, lat.n))]
        try:
            any_wedge = PureWedge(spanning_vectors=tuple(vecs))
        except Exception:
            any_wedge = None
        if any_wedge is not None:
            s_any = apply_torus_to_wedge(cert.s, any_wedge)
            assert s_any.sq_norm * cert.achieved_c1 ** 2 >= any_wedge.sq_norm
        checked += 1
    dt = time.perf_counter() - t0
    _report(4, dt, 60.0, "500 certificates: per-vector, in-span wedge, global floor")


FROZEN_ADVERSARIAL = make_lattice([[F(1, 32), 0, 0],
                                   [F(1, 32), F(1, 4), 0],
                                   [0, F(1, 2), 128]])


def test_criterion_5_protection_contract():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    cfg = PushoutConfig()
    inputs = []
    for t in (F(1, 2), F(1, 4), F(1, 8)):
        inputs.append((sl4_torus_lattice(t), SC4, dyadic_guard(F(1, 16), 4), F(1, 16)))
    inputs.append((FROZEN_ADVERSARIAL, trivial_scenario(3),
                   dyadic_guard(F(1, 16), 3), F(1, 16)))
    for _ in range(20):
        a = rng.randint(5, 10)
        scale = [F(2) ** -a, F(2) ** rng.randint(-1, 1), None]
        scale[2] = F(1) / _prod(scale[:2])
        lat = random_rebase(rng, make_lattice(
            [[scale[i] if i == j else F(0) for j in range(3)] for i in range(3)]))
        inputs.append((lat, trivial_scenario(3), dyadic_guard(F(1, 16), 3), F(1, 16)))
    for lat, sc, guard, eta0_sq in inputs:
        res = protect(lat, sc, cfg, guard, eta0_sq=eta0_sq)
        n = lat.n
        assert len(res.chain) <= n
        assert res.w_infinity.dim < n
        base = res.chain_covol_sq[-1]
        # guard inequality against the independently enumerated family
        fam, complete = stable_subspaces_within(lat, sc, guard * base)
        assert complete
        for w in fam:
            if w.dim > res.w_infinity.dim and w.contains(res.w_infinity):
                assert covolume_sq(lat, w) >= guard * base
        # chain bound in squared form
        for i, cv in enumerate(res.chain_covol_sq):
            assert cv <= guard ** i * res.chain_covol_sq[0]
            assert cv < 1
    # frozen fixture: exact chain under the floor 1/2 guard
    res = protect(FROZEN_ADVERSARIAL, trivial_scenario(3), cfg,
                  dyadic_guard(F(1, 4), 3), eta0_sq=F(1, 4))
    assert res.guard_c == F(203, 128)
    assert tuple(w.dim for w in res.chain) == (1, 2)
    assert res.chain_covol_sq == (F(1, 512), F(9, 16384))
    assert res.chain_covol_sq[1] <= res.guard_c * res.chain_covol_sq[0] < 1
    dt = time.perf_counter() - t0
    _report(5, dt, 30.0, f"{len(inputs)} chains: length <= N, proper, guard certified")


def test_criterion_6_step_growth():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    cases = []
    for _ in range(40):
        k = rng.randint(5, 12)
        cases.append((random_rebase(rng, squash_lattice_2d(F(1, 2 ** k))),
                      trivial_scenario(2), PushoutConfig()))
    for _ in range(40):
        a = rng.randint(26, 34)
        scale = [F(2) ** -a, F(2) ** rng.randint(-2, 2), None]
        scale[2] = F(1) / _prod(scale[:2])
        lat = random_rebase(rng, make_lattice(
            [[scale[i] if i == j else F(0) for j in range(3)] for i in range(3)]))
        cases.append((lat, trivial_scenario(3), PushoutConfig()))
    for _ in range(20):
        t = F(2) ** rng.choice([-3, -2, -1]) if rng.random() < 0.7 else F(2) ** rng.choice([3, 4])
        cases.append((sl4_torus_lattice(t), SC4,
                      PushoutConfig(eta0_override=F(1, 4))))
    grown = 0
    for lat, sc, cfg in cases:
        _, step = pushout_step(lat, sc, cfg)
        assert step.growth_qpow_factor > 1
        assert step.qpow_ratio >= step.growth_qpow_factor
        grown += 1
    dt = time.perf_counter() - t0
    assert grown == 100
    _report(6, dt, 120.0, "100 steps: exact ratio >= a priori factor > 1")


def _independent_step_bound(cert, n):
    big_l = lcm_pow(n)
    factor_min = min(st.growth_qpow_factor for st in cert.steps)
    target = cert.eta0_sq ** big_l
    q = cert.initial_delta.delta_sq_pow
    b = 0
    while q < target:
        q *= factor_min
        b += 1
        assert b <= 10 ** 6
    return b


def test_criterion_7_drive_termination():
    t0 = time.perf_counter()
    expected_sl4 = {F(1, 2): 1, F(1, 4): 2, F(1, 8): 3}
    for t, want in expected_sl4.items():
        cert = drive(sl4_torus_lattice(t), SC4, PushoutConfig(eta0_override=F(1, 4)))
        assert cert.terminated is Terminated.REACHED_ETA0
        assert len(cert.steps) == want
        assert cert.final_delta.delta_sq_pow >= cert.eta0_sq ** lcm_pow(4)
        assert len(cert.steps) <= _independent_step_bound(cert, 4)
    for k in range(0, 13):
        cert = drive(squash_lattice_2d(F(1, 2 ** k)), trivial_scenario(2),
                     PushoutConfig())
        assert cert.terminated is Terminated.REACHED_ETA0
        assert len(cert.steps) == max(0, k - 4)
        if cert.steps:
            assert cert.final_delta.delta_sq_pow >= cert.eta0_sq ** lcm_pow(2)
            assert len(cert.steps) <= _independent_step_bound(cert, 2)
    dt = time.perf_counter() - t0
    _report(7, dt, 60.0, "both families reach the floor within the ceil bound")


def test_criterion_8_cli_roundtrip(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "traj.json"
    code = main(["drive", "--scenario", "fixtures/sl4_so21.json",
                 "--lattice", "fixtures/sl4_t_eighth.json",
                 "--output", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert se.dumps_json(json.loads(text)) == text  # bit-exact re-emission
    doc = se.parse_certificate_json(text)
    assert doc["final"]["delta_sq_pow"] == F(1)
    out2 = tmp_path / "cert.json"
    code = main(["delta", "--scenario", "fixtures/sl4_so21.json",
                 "--lattice", "fixtures/sl4_pushed_t_half.json",
                 "--output", str(out2)])
    assert code == 0
    text2 = out2.read_text(encoding="utf-8")
    assert se.dumps_json(json.loads(text2)) == text2
    assert se.parse_rat(json.loads(text2)["delta_sq_pow"], "x") == F(1, 64) ** 12
    # error fixtures: malformed blocks, wrong determinant, oracle dimension cap
    assert main(["delta", "--scenario", "fixtures/err_overlapping_blocks.json",
                 "--lattice", "fixtures/z4.json"]) == 2
    assert main(["delta", "--lattice", "fixtures/err_bad_determinant.json"]) == 2
    assert main(["oracle", "--lattice", "fixtures/z6.json"]) == 2
    capsys.readouterr()
    dt = time.perf_counter() - t0
    _report(8, dt, 5.0, "certificates re-parse bit-exactly; exit codes 2/2/2")
