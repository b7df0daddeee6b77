"""The push-out step's integer bookkeeping against its Fraction forms.

`enumeration._root_cmp` compares roots by integer cross products,
`pushout._dyadic_exponent` finds ρ = 2^e by shifts, `contraction_constant`
is one Fraction of two integer products, and `TorusElement._trusted` builds
the determinant-one products of `expansion_element` and `compose` without a
second check. `tests/reference.py` keeps the Fraction forms they replaced;
these tests check that every value and every choice is the same.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from nondiv import enumeration
from nondiv import serialize as se
from nondiv.enumeration import _Budget, _root_cmp, delta_m
from nondiv.errors import ValidationError
from nondiv.lattice import TorusElement, make_lattice, trivial_scenario
from nondiv.pushout import PushoutConfig, _dyadic_exponent, drive
from nondiv.samples import sl4_so21_scenario, sl4_torus_lattice

import reference
from conftest import random_unimodular_lattice
from test_enumeration import per_dimension_cap_inputs

F = Fraction


def root_cmp_cases(rng):
    """(c, d, c2, d2) with zeros, exact ties, near ties and 200-bit terms."""
    def small():
        return F(rng.randint(1, 50), rng.randint(1, 50))

    def wide():
        return F(rng.getrandbits(200) | 1, rng.getrandbits(200) | 1)

    def exps():
        return rng.randint(1, 16), rng.randint(1, 16)

    for _ in range(600):
        d, d2 = exps()
        yield small(), d, small(), d2
    for _ in range(400):
        d, d2 = exps()
        yield wide(), d, wide(), d2
    for _ in range(200):
        d, d2 = exps()
        zero = (F(0), d, small(), d2), (small(), d, F(0), d2), (F(0), d, F(0), d2)
        yield rng.choice(zero)
    for _ in range(600):
        # c = x^d and c2 = x^{d2} have equal roots; a neighbour breaks the tie
        d, d2 = exps()
        x = rng.choice((small, wide))()
        c, c2 = x ** d, x ** d2
        yield c, d, c2, d2
        nudge = 1 + F(1, 2 ** rng.randint(1, 400))
        yield (c * nudge, d, c2, d2) if rng.random() < 0.5 else (c, d, c2 / nudge, d2)


def test_root_cmp_matches_fraction_reference():
    signs = []
    for c, d, c2, d2 in root_cmp_cases(random.Random(24)):
        got = _root_cmp(c, d, c2, d2)
        assert got == reference.fraction_root_cmp(c, d, c2, d2), (c, d, c2, d2)
        signs.append(got)
    assert len(signs) >= 2000
    assert {signs.count(x) > 100 for x in (-1, 0, 1)} == {True}


def test_delta_witnesses_match_fraction_key(monkeypatch):
    """delta_m picks the same witness and spends the same budget whichever
    form of the root comparison ranks its candidates."""
    def run(lat, sc):
        bud = _Budget(enumeration.DEFAULT_VECTOR_BUDGET)
        d = delta_m(make_lattice(lat.basis), sc, budget=bud)
        return d.witness, d.witness_covol_sq, d.complete, bud.used

    calls = [0]

    def fraction_key(*args):
        calls[0] += 1
        return reference.fraction_root_cmp(*args)

    inputs = list(per_dimension_cap_inputs())
    got = [run(lat, sc) for lat, sc in inputs]
    monkeypatch.setattr(enumeration, "_root_cmp", fraction_key)
    want = [run(lat, sc) for lat, sc in inputs]
    assert got == want
    assert calls[0] > len(inputs)
    assert len({w.dim for w, *_ in got}) >= 3


def dyadic_cases(rng):
    """(t, k) with t just below, exactly at and just above 2^{e·k}, and at
    random; every t is positive, as λ·C_W² is."""
    for _ in range(1500):
        k, e = rng.randint(1, 8), rng.randint(1, 6)
        power = 2 ** (e * k)
        m = rng.choice((1, 3, 2 ** rng.randint(1, 60) + 1))
        yield rng.choice((F(power), F(power * m + 1, m), F(power * m - 1, m),
                          F(rng.randint(1, 2 ** 40), rng.randint(1, 2 ** 20)))), k


def test_dyadic_exponent_matches_doubling():
    exact = 0
    for t, k in dyadic_cases(random.Random(11)):
        e = _dyadic_exponent(t, k)
        assert F(2) ** e == reference.doubling_rho(t, k), (t, k)
        exact += t == 2 ** (e * k)
    assert exact > 100


FIXTURE_DRIVES = (("sl4_so21", "sl4_t_eighth"), ("sl4_so21", "sl4_t_quarter"),
                  ("sl4_so21", "sl4_pushed_t_half"), ("sl4_so21", "z4"),
                  ("trivial_n2", "squash_n2_k6"), (None, "squash_n2_k6"),
                  (None, "random_n3_seed20260815"), (None, "z6"))


def fixture_and_seeded_drives():
    """(scenario, config, certificate) for a drive from every fixture lattice
    (the CLI's trivial group and default config where no scenario is named)
    and from seeded N = 2, 3 lattices under both floor policies."""
    for scen, name in FIXTURE_DRIVES:
        lat = se.load_lattice(f"fixtures/{name}.json")
        sc, cfg = (se.load_scenario(f"fixtures/{scen}.json") if scen
                   else (trivial_scenario(lat.n), PushoutConfig()))
        yield sc, cfg, drive(lat, sc, cfg)
    cfg = PushoutConfig(eta0_override=F(1, 4))
    yield sl4_so21_scenario(), cfg, drive(sl4_torus_lattice(F(1, 8)), sl4_so21_scenario(), cfg)
    rng = random.Random(37)
    for n in (2, 3):
        for spread in (4, 6, 8, 12, 16):
            lat = random_unimodular_lattice(rng, n, shears=4, dyadic_range=spread)
            for cfg in (PushoutConfig(), PushoutConfig(eta0_override=F(1, 2))):
                yield trivial_scenario(n), cfg, drive(lat, trivial_scenario(n), cfg)


@pytest.fixture(scope="module")
def drives():
    return list(fixture_and_seeded_drives())


def test_expansion_certificates_match_fraction_formulas(drives):
    steps = 0
    for sc, cfg, cert in drives:
        for rec in cert.steps:
            got = rec.expansion
            want = reference.fraction_expansion_certificate(
                sc, got.index_set, got.c_w_sq, cfg.lambda_multiplier)
            for f in dataclasses.fields(got):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert (a, type(a)) == (b, type(b)), f.name
            assert all(type(x) is Fraction for x in got.s.scalars)
            assert got.c1c2_sq == got.achieved_c1 ** 2 * got.achieved_c2_sq
            steps += 1
    assert steps > 40


def test_trusted_torus_products_pass_validation(drives):
    checked = 0
    for _, _, cert in drives:
        for s in [rec.expansion.s for rec in cert.steps] + [cert.composed]:
            assert TorusElement(s.scalars, s.block_dims) == s
            checked += 1
    assert checked > 40
    s = TorusElement((F(2), F(1, 2)), (1, 1))
    with pytest.raises(ValidationError) as err:
        s.compose(TorusElement((F(2), F(1, 8)), (3, 1)))
    assert err.value.field == "block_dims"
