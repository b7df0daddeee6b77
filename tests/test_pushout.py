import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from nondiv import enumeration, lattice, pushout
from nondiv import ratlin as rl
from nondiv import serialize as se
from nondiv.cli import main
from nondiv.enumeration import DeltaResult, _shifted, delta_m
from nondiv.errors import (GrowthContractViolated, IncompleteSearch,
                           InternalInvariantViolation, NotBelowEta0, ProtectionFailed,
                           UnexpandableSubspace, ValidationError, WholeSpace)
from nondiv.exterior import PureWedge, apply_torus_to_wedge
from nondiv.lattice import (UnimodularLattice, apply_group, covolume_sq,
                            _frame, make_lattice, standard_lattice,
                            subspace_from_rows, trivial_scenario)
from nondiv.pushout import (ProtectResult, PushoutConfig, Terminated,
                            _sigma_sq_upper, _step_count_bound, drive, dyadic_guard,
                            expansion_element, protect, pushout_step,
                            select_index_set)
from nondiv.samples import (diagonal_lattice, sl4_so21_scenario,
                            sl4_torus_lattice, squash_lattice_2d)

from conftest import random_unimodular_int, random_unimodular_lattice
from reference import (lpower_step_bound, rat_rank, rat_right_kernel, real_rows,
                       reference_char_poly, reference_rational_roots)

F = Fraction

SC4 = sl4_so21_scenario()
Z4 = standard_lattice(4)
V1 = subspace_from_rows(4, [(1, 0, 0, 0)])
V2 = subspace_from_rows(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
CFG_QUARTER = PushoutConfig(eta0_override=F(1, 4))


def test_config_validation():
    with pytest.raises(ValidationError):
        PushoutConfig(lambda_multiplier=F(1))
    with pytest.raises(ValidationError):
        PushoutConfig(eta0_override=F(3, 2))
    with pytest.raises(ValidationError):
        PushoutConfig(max_steps=-1)


@pytest.mark.parametrize("field, value", [
    ("vector_budget", True), ("vector_budget", 1.5), ("vector_budget", "10"),
    ("vector_budget", F(3, 2)),
    ("max_steps", False), ("max_steps", 2.0), ("max_steps", "2"),
    ("lambda_multiplier", 2.5), ("lambda_multiplier", True), ("lambda_multiplier", "2"),
    ("eta0_override", 0.25), ("eta0_override", "1/4"), ("eta0_override", True),
])
def test_config_rejects_inexact_numbers(field, value):
    names = {"eta0_override": "eta0"}
    with pytest.raises(ValidationError) as err:
        PushoutConfig(**{field: value})
    assert err.value.field == names.get(field, field)


@pytest.mark.parametrize("call, field", [
    (lambda: protect(Z4, SC4, CFG_QUARTER, 1.5), "c1c2_sq"),
    (lambda: protect(Z4, SC4, CFG_QUARTER, F(2), eta0_sq=0.0625), "eta0_sq"),
    # protect's floor: in (0, 1), checked before any search
    (lambda: protect(sl4_torus_lattice(F(1, 2)), SC4, PushoutConfig(), F(2), eta0_sq=2),
     "eta0_sq"),
    (lambda: protect(sl4_torus_lattice(F(1, 2)), SC4, PushoutConfig(), F(2), eta0_sq=0),
     "eta0_sq"),
    (lambda: protect(sl4_torus_lattice(F(1, 2)), SC4, PushoutConfig(), F(2), eta0_sq=-1),
     "eta0_sq"),
    (lambda: dyadic_guard(0.0625, 4), "eta0_sq"),
    (lambda: dyadic_guard("1/16", 4), "eta0_sq"),
    # the dimension: an int >= 1, read like every other exact int
    (lambda: dyadic_guard(F(1, 16), 0), "dimension"),
    (lambda: dyadic_guard(F(1, 16), -3), "dimension"),
    (lambda: dyadic_guard(F(1, 16), 1.5), "dimension"),
    (lambda: dyadic_guard(F(1, 16), True), "dimension"),
    (lambda: dyadic_guard(F(1, 16), F(7, 2)), "dimension"),
])
def test_pushout_rejects_inexact_numbers(call, field):
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.field == field


def test_config_accepts_ints_and_fractions():
    cfg = PushoutConfig(lambda_multiplier=3, eta0_override=F(1, 4),
                        max_steps=F(5), vector_budget=F(10 ** 4))
    assert cfg.lambda_multiplier == F(3) and isinstance(cfg.lambda_multiplier, F)
    assert cfg.max_steps == 5 and type(cfg.max_steps) is int
    assert cfg.vector_budget == 10 ** 4 and type(cfg.vector_budget) is int
    assert cfg == PushoutConfig(lambda_multiplier=F(3), eta0_override=F(1, 4),
                                max_steps=5, vector_budget=10 ** 4)
    # None means the default, for every field
    cfg = PushoutConfig(lambda_multiplier=None, eta0_override=None, max_steps=None,
                        vector_budget=None)
    assert cfg == PushoutConfig()
    assert (cfg.lambda_multiplier, cfg.max_steps, cfg.vector_budget) == \
        (F(2), 32, enumeration.DEFAULT_VECTOR_BUDGET)


def test_select_index_set_examples():
    assert select_index_set(Z4, V1, SC4) == (0,)
    assert select_index_set(Z4, V2, SC4) == (1,)
    sc2 = trivial_scenario(2)
    z2 = standard_lattice(2)
    assert select_index_set(z2, subspace_from_rows(2, [(1, 1)]), sc2) == (0,)
    # stable inputs project bijectively: block dims match subspace dims
    assert sum(SC4.block_dims[i] for i in select_index_set(Z4, V2, SC4)) == V2.dim


def test_expansion_certificate_v1():
    c = expansion_element(Z4, V1, SC4, PushoutConfig())
    assert c.index_set == (0,)
    assert c.c_w_sq == 1
    assert c.lam == 8
    assert c.s.scalars == (F(8), F(1, 2))
    assert c.achieved_c1 == 8
    assert c.achieved_c2_sq == 64


def test_expansion_certificate_graph_line():
    sc2 = trivial_scenario(2)
    z2 = standard_lattice(2)
    w = subspace_from_rows(2, [(1, 1)])
    c = expansion_element(z2, w, sc2, PushoutConfig())
    assert c.c_w_sq == 2            # exact top generalized eigenvalue
    assert c.lam == 4
    assert c.s.scalars == (F(4), F(1, 4))
    assert c.achieved_c2_sq == 4
    # the guaranteed bound on the spanning vector itself
    sv_sq = F(16) + F(1, 16)
    assert sv_sq >= c.achieved_c2_sq * 2


def test_expansion_certificate_v2():
    c = expansion_element(Z4, V2, SC4, PushoutConfig())
    assert c.index_set == (1,)
    assert c.lam == 2
    assert c.s.scalars == (F(1, 8), F(2))


def test_expansion_errors():
    from nondiv.lattice import full_subspace
    with pytest.raises(WholeSpace):
        expansion_element(Z4, full_subspace(4), SC4, PushoutConfig())
    with pytest.raises(UnexpandableSubspace):
        # touches both blocks with nothing left to contract
        expansion_element(Z4, subspace_from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
                          SC4, PushoutConfig())


def random_proper_subspace(rng, lat):
    n = lat.n
    for _ in range(40):
        k = rng.randint(1, n - 1)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        sub = subspace_from_rows(n, rows)
        if sub is not None and getattr(sub, "dim", 0) >= 1 and not sub.is_full:
            return sub
    raise AssertionError("generator failed")


def test_expansion_bounds_random():
    rng = random.Random(20260815)
    cfg = PushoutConfig()
    scens = [(standard_lattice(2), trivial_scenario(2)),
             (standard_lattice(3), trivial_scenario(3)),
             (diagonal_lattice(F(1, 2), F(3), F(2, 3)), trivial_scenario(3)),
             (Z4, SC4)]
    checked = 0
    while checked < 60:
        lat, sc = scens[rng.randrange(len(scens))]
        w = random_proper_subspace(rng, lat)
        try:
            cert = expansion_element(lat, w, sc, cfg)
        except UnexpandableSubspace:
            continue
        diag = cert.s.diagonal()
        real = real_rows(lat, w.rows)
        # vectors inside W
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in real]
            v = tuple(sum(F(c) * row[j] for c, row in zip(coeffs, real))
                      for j in range(lat.n))
            if not any(v):
                continue
            sv = tuple(d * x for d, x in zip(diag, v))
            assert (sum(x * x for x in sv)
                    >= cert.achieved_c2_sq * sum(x * x for x in v))
        # wedges spanned inside W
        if w.dim >= 2:
            try:
                wedge = PureWedge(spanning_vectors=tuple(real[:2]))
            except Exception:
                wedge = None
            if wedge is not None:
                swedge = apply_torus_to_wedge(cert.s, wedge)
                assert swedge.sq_norm >= cert.achieved_c2_sq * wedge.sq_norm
        # arbitrary wedges obey the global contraction floor
        vecs = [[F(rng.randint(-3, 3)) for _ in range(lat.n)]
                for _ in range(rng.randint(1, lat.n))]
        try:
            any_wedge = PureWedge(spanning_vectors=tuple(tuple(r) for r in vecs))
        except Exception:
            any_wedge = None
        if any_wedge is not None:
            sw = apply_torus_to_wedge(cert.s, any_wedge)
            assert sw.sq_norm >= any_wedge.sq_norm / cert.achieved_c1 ** 2
        checked += 1


def test_protect_not_needed():
    # Z4's δ² is 1, at or above the floor 1/16: the one outcome drive and
    # pushout_step also give
    with pytest.raises(NotBelowEta0) as err:
        protect(Z4, SC4, CFG_QUARTER, F(2))
    assert err.value.eta0_sq == F(1, 16)
    assert err.value.delta == delta_m(Z4, SC4)


def test_protect_sl4_example():
    lat = sl4_torus_lattice(F(1, 2))
    res = protect(lat, SC4, CFG_QUARTER, F(2))
    assert res.w_infinity.rows == V1.rows
    assert res.chain_covol_sq == (F(1, 64),)
    assert res.guard_c == 2
    # the only eligible competitor outside V1 is V2; joint covolume is 1
    joint = covolume_sq(lat, subspace_from_rows(4, list(V1.rows) + list(V2.rows)))
    assert joint >= res.guard_c * covolume_sq(lat, res.w_infinity)


FROZEN_ADVERSARIAL = make_lattice([
    [F(1, 32), F(0), F(0)],
    [F(1, 32), F(1, 4), F(0)],
    [F(0), F(1, 2), F(128)],
])


def test_protect_chain_runs_two_rounds():
    # frozen instance found by seeded search: the first witness gets absorbed
    # into a cheaper plane before the guard certifies
    sc3 = trivial_scenario(3)
    cfg = PushoutConfig(eta0_override=F(1, 2))
    guard = dyadic_guard(F(1, 4), 3)
    assert guard == F(203, 128)
    res = protect(FROZEN_ADVERSARIAL, sc3, cfg, guard, eta0_sq=F(1, 4))
    assert isinstance(res, ProtectResult)
    assert [w.dim for w in res.chain] == [1, 2]
    assert res.chain_covol_sq == (F(1, 512), F(9, 16384))
    assert res.w_infinity.rows == ((1, 0, 0), (0, 1, 0))
    first = res.chain_covol_sq[0]
    for i, cv in enumerate(res.chain_covol_sq):
        assert cv <= res.guard_c ** (i + 1) * first
        assert cv < 1
    assert len(res.chain) <= 3
    # guard: any eligible W outside the plane joins it in the full space
    assert 1 >= res.guard_c * res.chain_covol_sq[-1]


def test_protect_rejects_inconsistent_floor():
    lat = sl4_torus_lattice(F(1, 2))
    with pytest.raises(ProtectionFailed):
        protect(lat, SC4, CFG_QUARTER, F(128), eta0_sq=F(1, 16))
    with pytest.raises(ValidationError):
        protect(lat, SC4, CFG_QUARTER, F(1))


def test_protect_budget(chain_search):
    lat = sl4_torus_lattice(F(1, 2))
    with pytest.raises(IncompleteSearch):
        protect(lat, SC4, CFG_QUARTER, F(2), budget=2)


def test_pushout_step_sl4():
    lat = sl4_torus_lattice(F(1, 2))
    new_lat, rec = pushout_step(lat, SC4, CFG_QUARTER)
    assert new_lat.basis == Z4.basis
    assert rec.case_tag == "I"
    assert rec.expansion.s.scalars == (F(8), F(1, 2))
    assert rec.growth_qpow_factor == 64
    assert rec.qpow_ratio == F(2) ** 72
    assert rec.eta0_sq == F(1, 16)
    assert rec.delta_after.delta_sq_vs(F(1)) == 0


def test_pushout_step_case_two():
    # pushing the protected line past the second-shortest direction moves
    # the minimizer outside W_infinity
    sc3 = trivial_scenario(3)
    lat = diagonal_lattice(F(1, 4), F(4, 3), F(3))
    new_lat, rec = pushout_step(lat, sc3, PushoutConfig(eta0_override=F(1, 2)))
    assert rec.case_tag == "II"
    assert rec.w_infinity.rows == ((1, 0, 0),)
    assert rec.delta_after.witness.rows == ((0, 1, 0),)
    assert rec.expansion.s.scalars == (F(4), F(1, 2), F(1, 2))
    assert rec.qpow_ratio == F(2 ** 36, 531441)
    assert rec.qpow_ratio >= rec.growth_qpow_factor == 16
    assert new_lat.basis == diagonal_lattice(F(1), F(2, 3), F(3, 2)).basis


def test_drive_path_reads_no_lpower(monkeypatch):
    """No step or drive decision reads delta_sq_pow: with it refused, an SL4
    drive (6 steps at eta0 = 1/4) and a step on a fixture both complete."""
    def refuse(self):
        raise AssertionError("delta_sq_pow read on the drive path")

    monkeypatch.setattr(DeltaResult, "delta_sq_pow", property(refuse))
    cert = drive(sl4_torus_lattice(F(1, 64)), SC4, CFG_QUARTER)
    assert cert.terminated is Terminated.REACHED_ETA0 and len(cert.steps) == 6
    sc, _ = se.load_scenario("fixtures/sl4_so21.json")
    new_lat, rec = pushout_step(se.load_lattice("fixtures/sl4_pushed_t_half.json"),
                                sc, CFG_QUARTER)
    assert new_lat.basis == Z4.basis and rec.case_tag == "I"


def test_pushout_step_not_below_floor():
    with pytest.raises(NotBelowEta0) as e:
        pushout_step(Z4, SC4, CFG_QUARTER)
    assert e.value.eta0_sq == F(1, 16)
    assert e.value.delta_sq_pow == 1
    # the adaptive floor for this scenario sits below delta = 1/8
    with pytest.raises(NotBelowEta0) as e:
        pushout_step(sl4_torus_lattice(F(1, 2)), SC4, PushoutConfig())
    assert e.value.eta0_sq == F(2) ** -48


def test_pushout_step_growth_random_deep():
    rng = random.Random(17)
    sc3 = trivial_scenario(3)
    ran = 0
    for _ in range(12):
        a = rng.randint(26, 34)
        d0 = F(1, 2 ** a)
        r = F(rng.randint(1, 4), rng.randint(1, 4))
        lat = diagonal_lattice(d0, r, 1 / (d0 * r))
        lat = apply_group(random_unimodular_int(rng, 3, shears=3, c=2), lat)
        try:
            _, rec = pushout_step(lat, sc3, PushoutConfig())
        except NotBelowEta0:
            continue
        assert rec.qpow_ratio >= rec.growth_qpow_factor > 1
        ran += 1
    assert ran >= 8


def lpower_grew(d0, d1, c2_sq, n):
    """The former growth test: δ₁^{2L} ≥ min(c₂², 4)^{L/N}·δ₀^{2L}, L = lcm(1..N)."""
    return d1.delta_sq_pow >= min(c2_sq, 4) ** (d0.lcm_pow // n) * d0.delta_sq_pow


def growth_cases(lat, sc, cfg):
    """(lat, sc, cfg, d0, protection, certificate, d1) for each step of a drive.

    The steps are those `drive` takes; a step that fails its growth check
    is kept and ends the list.
    """
    d0 = delta_m(lat, sc, budget=cfg.vector_budget)
    out = []
    for _ in range(cfg.max_steps):
        try:
            pres, cert = pushout._resolve_protection(lat, sc, cfg, d0)
        except NotBelowEta0:
            break
        new_lat = lattice.apply_torus(cert.s, lat)
        d1 = delta_m(new_lat, sc, budget=cfg.vector_budget)
        out.append((lat, sc, cfg, d0, pres, cert, d1))
        if not lpower_grew(d0, d1, cert.achieved_c2_sq, lat.n):
            break
        lat, d0 = new_lat, d1
    return out


def test_growth_decision_matches_lpower(monkeypatch):
    """`_execute_step`'s cross-power growth check decides as the L-power one.

    Each step is re-run with its real δ₁ and with planted δ₁ just below, at
    and just above the a priori threshold, in every witness dimension.
    """
    cases = []
    for scen, lat_file in (("sl4_so21.json", "sl4_t_eighth.json"),
                           ("sl4_so21.json", "sl4_pushed_t_half.json"),
                           (None, "squash_n2_k6.json"),
                           (None, "random_n3_seed20260815.json")):
        lat = se.load_lattice(f"fixtures/{lat_file}")
        sc, cfg = (se.load_scenario(f"fixtures/{scen}") if scen
                   else (trivial_scenario(lat.n), PushoutConfig()))
        cases += growth_cases(lat, sc, cfg)
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        for spread in (4, 6, 8):
            lat = random_unimodular_lattice(rng, n, shears=4, dyadic_range=spread)
            cases += growth_cases(lat, trivial_scenario(n), PushoutConfig(eta0_override=F(1, 2)))
    outcomes = Counter()
    for lat, sc, cfg, d0, pres, cert, d1 in cases:
        n, k0 = lat.n, d0.witness.dim
        # δ₁² is on the threshold when covol₁^{1/k1} = x^{1/r}
        x, r = min(cert.achieved_c2_sq, 4) ** k0 * d0.witness_covol_sq ** n, n * k0
        q = enumeration.rat_root_upper(x, r)
        planted = [d1]
        for k1 in range(1, n):
            w = subspace_from_rows(n, rl.identity(n)[:k1])
            planted += [enumeration.DeltaResult(w, (q * f) ** k1, True)
                        for f in (F(255, 256), F(1), F(257, 256))]
        for d in planted:
            monkeypatch.setattr(pushout, "delta_m", lambda *args, d=d, **kw: d)
            try:
                pushout._execute_step(lat, sc, cfg, d0, pres, cert)
                grew = True
            except GrowthContractViolated:
                grew = False
            assert grew == lpower_grew(d0, d, cert.achieved_c2_sq, n)
            outcomes[grew, d.delta_sq_vs(x, r) == 0] += 1
    assert len(cases) > 30
    assert outcomes[True, True] and outcomes[True, False] and outcomes[False, False]
    # one seeded N = 5 step under eta0_override really fails its check
    assert any(not lpower_grew(d0, d1, cert.achieved_c2_sq, lat.n)
               for lat, _, _, d0, _, cert, d1 in cases)


def lpower_bound(cert):
    """`cert.step_bound` as the former L-power iteration computed it."""
    eta0_max = max(cert.eta0_sq, *(rec.eta0_sq for rec in cert.steps))
    return lpower_step_bound(cert.initial_delta.delta_sq_pow,
                             min(rec.growth_qpow_factor for rec in cert.steps),
                             eta0_max ** cert.initial_delta.lcm_pow)


def test_step_bound_matches_lpower_reference():
    """The root-free step bound equals the L-power one on fixture, SL4 and
    seeded N = 2, 3 drives, and on seeded arguments with m near 1."""
    certs = []
    for scen, lat_file in (("sl4_so21.json", "sl4_t_eighth.json"),
                           ("sl4_so21.json", "sl4_pushed_t_half.json"),
                           (None, "squash_n2_k6.json"),
                           (None, "random_n3_seed20260815.json")):
        lat = se.load_lattice(f"fixtures/{lat_file}")
        sc, cfg = (se.load_scenario(f"fixtures/{scen}") if scen
                   else (trivial_scenario(lat.n), PushoutConfig()))
        certs.append(drive(lat, sc, cfg))
    certs += [drive(sl4_torus_lattice(t), SC4, CFG_QUARTER) for t in (F(1, 4), F(1, 8))]
    rng = random.Random(31)
    for n in (2, 3):
        for spread in (4, 6, 8):
            lat = random_unimodular_lattice(rng, n, shears=4, dyadic_range=spread)
            for cfg in (PushoutConfig(), PushoutConfig(eta0_override=F(1, 2))):
                certs.append(drive(lat, trivial_scenario(n), cfg))
    bounded = [c for c in certs if c.step_bound is not None]
    assert len(bounded) >= 12
    for cert in bounded:
        assert cert.step_bound == lpower_bound(cert)
    for _ in range(300):
        n = rng.randint(2, 4)
        d0 = rng.randint(1, n - 1)
        c0 = F(rng.randint(1, 9), rng.choice((1, 16, 2 ** 10)))
        m = rng.choice((F(101, 100), F(11, 10), F(3, 2), F(257, 256), F(4)))
        eta_sq = F(1, rng.choice((2, 4, 16)))
        big_l = math.lcm(*range(1, n + 1))
        want = lpower_step_bound(c0 ** (big_l // d0), m ** (big_l // n), eta_sq ** big_l)
        assert _step_count_bound(c0, d0, m, eta_sq, n) == want


def test_step_bound_refused_before_any_power():
    """A factor barely above 1 makes the bound ~10⁷ steps: refused at once
    from bit lengths, where the L-power iteration never returned."""
    e = F(1, 571 * 2 ** 12)
    lat = make_lattice([[571 * e, 0], [989 * e, 1 / (571 * e)]])
    cfg = PushoutConfig(lambda_multiplier=F(10 ** 7 + 1, 10 ** 7), eta0_override=F(1, 2))
    t0 = time.perf_counter()
    with pytest.raises(InternalInvariantViolation, match="step bound"):
        drive(lat, trivial_scenario(2), cfg)
    assert time.perf_counter() - t0 < 5


def test_growth_violation_message_is_root_free(monkeypatch):
    """At N = 11 the L-power ratio has over 4 300 digits; the typed error
    names the witnesses' covol² and dims and m instead."""
    n = 11
    lat = diagonal_lattice(F(1, 2), F(2), *[F(1)] * (n - 2))
    sc, cfg = trivial_scenario(n), PushoutConfig()
    d0 = delta_m(lat, sc)
    w = d0.witness
    cert = expansion_element(lat, w, sc, cfg)
    pres = ProtectResult(w, (w,), (d0.witness_covol_sq,), cert.c1c2_sq, F(1, 4))
    monkeypatch.setattr(pushout, "delta_m",
                        lambda *args, **kw: enumeration.DeltaResult(w, F(1, 8), True))
    with pytest.raises(GrowthContractViolated) as err:
        pushout._execute_step(lat, sc, cfg, d0, pres, cert)
    assert "covol^2 1/8, dim 1" in str(err.value) and "covol^2 1/4, dim 1" in str(err.value)
    assert "m = 4" in str(err.value)


def test_drive_standard_lattice_stops_immediately():
    cert = drive(Z4, SC4, CFG_QUARTER)
    assert cert.terminated is Terminated.REACHED_ETA0
    assert cert.steps == ()
    assert cert.final_delta.delta_sq_vs(F(1)) == 0
    assert cert.composed.diagonal() == tuple(F(1) for _ in range(4))


def test_drive_sl4_family():
    expected = {F(1, 2): 1, F(1, 4): 2, F(1, 8): 3}
    for t, nsteps in expected.items():
        cert = drive(sl4_torus_lattice(t), SC4, CFG_QUARTER)
        assert cert.terminated is Terminated.REACHED_ETA0
        assert len(cert.steps) == nsteps
        assert cert.step_bound is not None and len(cert.steps) <= cert.step_bound
        assert cert.eta0_sq == F(1, 16)
        assert cert.final_delta.delta_sq_pow >= cert.eta0_sq ** 12
        assert cert.final_lattice.basis == Z4.basis
        # composed element equals the product of the step elements
        assert cert.composed.scalars == (F(8) ** nsteps, F(1, 2) ** nsteps)


def test_drive_squash_family():
    sc2 = trivial_scenario(2)
    for k, nsteps in ((4, 0), (7, 3), (10, 6), (12, 8)):
        cert = drive(squash_lattice_2d(F(1, 2 ** k)), sc2, PushoutConfig())
        assert cert.terminated is Terminated.REACHED_ETA0
        assert len(cert.steps) == nsteps
        assert cert.eta0_sq == F(1, 256)
        assert cert.final_delta.delta_sq_pow >= cert.eta0_sq ** 2
        if nsteps:
            assert len(cert.steps) <= cert.step_bound == 2 * (k - 4)
            for rec in cert.steps:
                assert rec.growth_qpow_factor == 4
                assert rec.qpow_ratio >= 4


def test_drive_max_steps_ordering():
    # the floor check comes first: a lattice already above it reports success
    # even with no step allowance
    cfg0 = PushoutConfig(eta0_override=F(1, 4), max_steps=0)
    assert drive(Z4, SC4, cfg0).terminated is Terminated.REACHED_ETA0
    cert = drive(sl4_torus_lattice(F(1, 2)), SC4, cfg0)
    assert cert.terminated is Terminated.MAX_STEPS
    assert cert.steps == ()


def test_drive_full_witness_adaptive():
    # no eligible proper subspace below covolume 1: terminal immediately,
    # with no adaptive floor ever fixed
    lat = make_lattice([[F(5, 6), F(0)], [F(3, 5), F(6, 5)]])
    cert = drive(lat, trivial_scenario(2), PushoutConfig())
    assert cert.terminated is Terminated.REACHED_ETA0
    assert cert.steps == ()
    assert cert.eta0_sq is None
    assert cert.final_delta.witness.is_full


def test_drive_incomplete_budget(chain_search):
    cert = drive(sl4_torus_lattice(F(1, 2)), SC4,
                 PushoutConfig(eta0_override=F(1, 4), vector_budget=3))
    assert cert.terminated is Terminated.INCOMPLETE
    assert cert.steps == ()


def test_drive_deterministic():
    lat = sl4_torus_lattice(F(1, 4))
    assert drive(lat, SC4, CFG_QUARTER) == drive(lat, SC4, CFG_QUARTER)


def test_drive_deep_n3():
    sc3 = trivial_scenario(3)
    lat = diagonal_lattice(F(1, 2 ** 30), F(3, 2), F(2 ** 31, 3))
    cert = drive(lat, sc3, PushoutConfig())
    assert cert.terminated is Terminated.REACHED_ETA0
    assert len(cert.steps) <= cert.step_bound
    assert cert.final_delta.delta_sq_pow >= cert.eta0_sq ** 6


# -- the Fraction real-coordinate path the integer one replaced ------------------

def reference_select_index_set(lat, w, sc):
    """Kernel chain on the Fraction real rows, with the RREF kernel and rank."""
    real = real_rows(lat, w.rows)
    cur = [tuple(row) for row in real]
    picked = []
    for i, (a, b) in enumerate(sc.blocks):
        if not cur:
            break
        proj = [row[a:b] for row in cur]
        if all(x == 0 for p in proj for x in p):
            continue
        picked.append(i)
        coeffs = rat_right_kernel(rl.transpose(proj))
        cur = [tuple(sum(cf[j] * cur[j][t] for j in range(len(cur)))
                     for t in range(lat.n)) for cf in coeffs]
        cur = [row for row in cur if any(row)]
    assert not cur
    i_cols = [c for i in picked for c in range(*sc.blocks[i])]
    assert rat_rank([tuple(row[c] for c in i_cols) for row in real]) == w.dim
    return tuple(picked)


def reference_det_poly(g_i, g_c):
    """Coefficients of det(x·g_i - g_c) by exact Lagrange interpolation."""
    k = len(g_i)
    xs = list(range(k + 1))
    ys = []
    for t in xs:
        m = tuple(tuple(t * g_i[r][c] - g_c[r][c] for c in range(k)) for r in range(k))
        ys.append(rl.rat_det(m))
    coeffs = [F(0)] * (k + 1)
    for idx, x0 in enumerate(xs):
        term = [F(1)]
        denom = F(1)
        for j, xj in enumerate(xs):
            if j == idx:
                continue
            term = [F(0)] + term
            for d in range(len(term) - 1):
                term[d] -= xj * term[d + 1]
            denom *= x0 - xj
        scale = ys[idx] / denom
        for d, c in enumerate(term):
            coeffs[d] += scale * c
    return coeffs


def _is_psd(m) -> bool:
    """Exact test for positive semidefiniteness of a symmetric rational matrix."""
    a = [[F(x) for x in row] for row in m]
    while a:
        k = len(a)
        diag = [a[i][i] for i in range(k)]
        if any(d < 0 for d in diag):
            return False
        p = max(range(k), key=lambda i: diag[i])
        if diag[p] == 0:
            return all(x == 0 for row in a for x in row)
        if p != 0:
            a[0], a[p] = a[p], a[0]
            for row in a:
                row[0], row[p] = row[p], row[0]
        piv = a[0][0]
        a = [[a[i][j] - a[i][0] * a[0][j] / piv for j in range(1, k)]
             for i in range(1, k)]
    return True


def reference_sigma_sq_upper(g_i, g_c):
    """Bisection, then a snap to a rational root of the interpolated det(x·g_i - g_c)."""
    if all(x == 0 for row in g_c for x in row):
        return F(0)
    k = len(g_i)

    def ok(x):
        return _is_psd(tuple(tuple(x * g_i[r][c] - g_c[r][c] for c in range(k))
                             for r in range(k)))

    hi = F(1)
    while not ok(hi):
        hi *= 2
    lo = F(0)
    for _ in range(16):
        mid = (lo + hi) / 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    for r in reference_rational_roots(reference_det_poly(g_i, g_c)):
        if lo < r <= hi and ok(r):
            return r
    return hi


def real_grams(lat, w, sc, picked):
    """g_i and g_c of expansion_element, on the Fraction real rows."""
    i_cols = [c for i in picked for c in range(*sc.blocks[i])]
    o_cols = [c for c in range(lat.n) if c not in i_cols]
    real = real_rows(lat, w.rows)
    a = [tuple(row[c] for c in i_cols) for row in real]
    b = [tuple(row[c] for c in o_cols) for row in real]
    return rl.mat_mul(a, rl.transpose(a)), rl.mat_mul(b, rl.transpose(b))


def integer_sigma_sq_upper(g_i, g_c):
    """`_sigma_sq_upper` on rational Grams: both are scaled by one common
    denominator into the integer Grams it takes, which leaves their ratio,
    and with it the bound, unchanged."""
    ints, _ = rl.scale_to_int(tuple(g_i) + tuple(g_c))
    return _sigma_sq_upper(ints[:len(g_i)], ints[len(g_i):])


def test_sigma_sq_upper_matches_interpolation_route():
    rng = random.Random(71)
    snapped = bracketed = 0
    for _ in range(120):
        k = rng.randint(1, 4)
        p = [[F(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
        if rl.rat_det(p) == 0:
            continue
        g_i = rl.mat_mul(p, rl.transpose(p))
        if rng.random() < 0.5:
            # generalized eigenvalues are the planted diagonal: λ_max is rational
            dg = [F(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(k)]
            g_c = rl.mat_mul(rl.mat_mul(p, [[dg[i] if i == j else 0 for j in range(k)]
                                            for i in range(k)]), rl.transpose(p))
        else:
            c = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 3))]
            g_c = rl.mat_mul(rl.transpose(c), c)
        got = integer_sigma_sq_upper(g_i, g_c)
        assert got == reference_sigma_sq_upper(g_i, g_c), (g_i, g_c)
        singular = rl.rat_det([[got * x - y for x, y in zip(ri, rc)]
                               for ri, rc in zip(g_i, g_c)]) == 0
        snapped += singular
        bracketed += not singular
    assert snapped > 20 and bracketed > 10


def reference_sigma_sq_bisect(g_i, g_c):
    """`_sigma_sq_upper` before it shared the root engine: its own integer bisection."""
    if all(x == 0 for row in g_c for x in row):
        return F(0)
    g, s = rl.scale_to_int(g_i)
    adj, det = rl.int_inverse(g)
    m = tuple(tuple(F(s * x, det) for x in row) for row in rl.mat_mul(adj, g_c))
    p = rl.scale_to_int([reference_char_poly(m)])[0][0]
    a = p[-1]

    def ok(x):
        return min(_shifted(p, x.numerator, x.denominator)) >= 0

    hi = F(1)
    while not ok(hi):
        hi *= 2
    lo = F(0)
    for _ in range(16):
        mid = (lo + hi) / 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    y_lo, y_hi = math.floor(a * lo), math.ceil(a * hi)
    while y_hi - y_lo > 1:
        y = (y_lo + y_hi) // 2
        if ok(F(y, a)):
            y_hi = y
        else:
            y_lo = y
    return F(y_hi, a) if _shifted(p, y_hi, a)[0] == 0 else hi


def test_sigma_sq_upper_matches_integer_bisection():
    rng = random.Random(20261019)
    rational = irrational = 0
    for _ in range(300):
        k = rng.randint(1, 4)
        p = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(k)]
             for _ in range(k)]
        if rl.rat_det(p) == 0:
            continue
        g_i = rl.mat_mul(p, rl.transpose(p))
        if rng.random() < 0.5:
            # planted generalized eigenvalues: λ_max = max(dg) is rational
            dg = [F(rng.randint(0, 40), rng.randint(1, 7)) for _ in range(k)]
            g_c = rl.mat_mul(rl.mat_mul(p, [[dg[i] if i == j else 0 for j in range(k)]
                                            for i in range(k)]), rl.transpose(p))
        else:
            c = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(rng.randint(1, k))]
            g_c = rl.mat_mul(rl.transpose(c), c)
        got = integer_sigma_sq_upper(g_i, g_c)
        assert got == reference_sigma_sq_bisect(g_i, g_c), (g_i, g_c)
        if rl.rat_det([[got * x - y for x, y in zip(ri, rc)]
                       for ri, rc in zip(g_i, g_c)]) == 0:
            rational += 1
        else:
            irrational += 1
    assert rational > 50 and irrational > 50, (rational, irrational)


def test_sigma_sq_upper_has_no_factoring_stall():
    """A large prime in the Grams costs no trial division: σ² = 9p² exactly."""
    p = 10 ** 9 + 7
    start = time.perf_counter()
    cert = expansion_element(make_lattice([[F(1, p), F(1, 3)], [0, p]]),
                             subspace_from_rows(2, [(0, 1)]), trivial_scenario(2),
                             PushoutConfig())
    assert time.perf_counter() - start < 1
    assert cert.c_w_sq == 1 + 9 * p ** 2


def rebase(lat, rng):
    u = random_unimodular_int(rng, lat.n, shears=5, c=1)
    return make_lattice(rl.mat_mul(lat.basis, [[F(x) for x in r] for r in u]))


def test_select_index_set_matches_real_rows_route():
    rng = random.Random(73)
    cases = [(rebase(sl4_torus_lattice(t), rng), SC4)
             for t in (F(2), F(4), F(1, 2), F(1, 4), F(1, 8)) for _ in range(2)]
    cases += [(rebase(diagonal_lattice(F(1, 4), F(2, 3), F(6)), rng), trivial_scenario(3)),
              (standard_lattice(3), trivial_scenario(3)),
              (rebase(diagonal_lattice(F(1, 2), F(3), F(1, 3), F(2)), rng),
               trivial_scenario(4)),
              (standard_lattice(4), trivial_scenario(4))]
    cfg = PushoutConfig()
    picked_sets = set()
    for lat, sc in cases:
        for _ in range(12):
            w = random_proper_subspace(rng, lat)
            picked = select_index_set(lat, w, sc)
            assert picked == reference_select_index_set(lat, w, sc), (lat.basis, w.rows)
            picked_sets.add(picked)
            try:
                cert = expansion_element(lat, w, sc, cfg)
            except UnexpandableSubspace:
                continue
            assert cert.c_w_sq == 1 + reference_sigma_sq_upper(*real_grams(lat, w, sc, picked))
    assert len(picked_sets) > 5


# -- certificate reuse -------------------------------------------------------------

def test_drive_reuses_certificate_of_unchanged_w_infinity(monkeypatch, capsys):
    """The self-calibrating loop certifies each (lattice, W∞) once."""
    calls = []
    real = pushout.expansion_element

    def counting(lat, w, sc, cfg):
        calls.append((lat.basis, w.rows))
        return real(lat, w, sc, cfg)

    monkeypatch.setattr(pushout, "expansion_element", counting)
    assert main(["drive", "--lattice", "fixtures/squash_n2_k6.json"]) == 0
    steps = json.loads(capsys.readouterr().out)["steps"]
    assert steps and len(calls) == len(set(calls)) == len(steps) + 1


# -- frame hand-off ------------------------------------------------------------------

FRAME_DRIVES = {
    "sl4-t-eighth": lambda: (sl4_torus_lattice(F(1, 8)), SC4, CFG_QUARTER),
    "sl4-t-4": lambda: (sl4_torus_lattice(F(4)), SC4, PushoutConfig(eta0_override=F(1, 2))),
    "squash-n2-k6": lambda: (se.load_lattice("fixtures/squash_n2_k6.json"),
                             trivial_scenario(2), PushoutConfig()),
}


@pytest.mark.parametrize("name", sorted(FRAME_DRIVES))
def test_frame_hand_off_keeps_certificate_bytes(monkeypatch, name):
    """A drive whose torus moves hand the frame on certifies the same bytes
    as one whose moved lattices each build their own."""
    lat, sc, cfg = FRAME_DRIVES[name]()
    cert = drive(lat, sc, cfg)
    assert cert.steps
    assert _frame(cert.final_lattice, sc).gens is _frame(lat, sc).gens
    real = lattice.apply_torus

    def frameless(s, lat):
        return real(s, UnimodularLattice(basis=lat.basis))

    monkeypatch.setattr(lattice, "apply_torus", frameless)
    monkeypatch.setattr(pushout, "apply_torus", frameless)
    lat, sc, cfg = FRAME_DRIVES[name]()
    plain = drive(lat, sc, cfg)
    if sc.m_generators:
        assert _frame(plain.final_lattice, sc).gens is not _frame(lat, sc).gens
    assert se.dumps_json(se.certificate_to_dict(plain)) == \
        se.dumps_json(se.certificate_to_dict(cert))


@pytest.mark.parametrize("n", [2, 3])
def test_cli_drive_builds_each_quotient_once(monkeypatch, capsys, tmp_path, n):
    """delta_m and every protect search on one lattice share its quotients,
    and protect takes every covolume from the searches."""
    built, lattices, in_protect, measured = Counter(), [], [], []

    class Recording(enumeration._Quotient):
        def __init__(self, lat, sc, z_rows):
            super().__init__(lat, sc, z_rows)
            lattices.append(lat)  # held, so no id is reused
            built[id(lat), z_rows] += 1

    real_protect, real_covolume = pushout.protect, lattice.covolume_sq

    def protecting(*args, **kwargs):
        in_protect.append(True)
        try:
            return real_protect(*args, **kwargs)
        finally:
            in_protect.pop()

    def covolume(lat, w):
        if in_protect:
            measured.append(w)
        return real_covolume(lat, w)

    monkeypatch.setattr(enumeration, "_Quotient", Recording)
    monkeypatch.setattr(pushout, "protect", protecting)
    for mod in (lattice, enumeration, pushout, se):
        if getattr(mod, "covolume_sq", None) is real_covolume:
            monkeypatch.setattr(mod, "covolume_sq", covolume)
    path = "fixtures/squash_n2_k6.json"
    if n == 3:
        # N = 3 is where protect searches above its witness
        path = tmp_path / "squash_n3.json"
        u = random_unimodular_int(random.Random(3), 3, shears=4, c=1)
        squash = diagonal_lattice(F(1, 2 ** 26), F(2), F(2 ** 25))
        path.write_text(se.dumps_json(se.lattice_to_dict(
            make_lattice(rl.mat_mul(squash.basis, u)))), encoding="utf-8")
    assert main(["drive", "--lattice", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["steps"]
    assert built and max(built.values()) == 1
    assert len(set(map(id, lattices))) > 1
    assert measured == []
