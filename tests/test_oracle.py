"""The exterior-power oracle against `delta_m`.

`oracle_delta_m` enumerates every saturated subspace under its cap through
the compound Gram (`enumeration._saturated_subspaces`), with no bound on the
entries of a witness. It must find `delta_m`'s witness and covol² exactly,
stop on its budget, and refuse what it cannot do up front.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from nondiv import enumeration
from nondiv import ratlin as rl
from nondiv import serialize as se
from nondiv.cli import main
from nondiv.enumeration import (_Budget, _saturated_subspaces, delta_m,
                                oracle_delta_m, short_vectors)
from nondiv.errors import ValidationError
from nondiv.lattice import covolume_sq, make_lattice, trivial_scenario
from nondiv.samples import random_upper_triangular_lattices

from reference import rat_inverse
from test_enumeration import one_pass_inputs

F = Fraction

FIX = Path("fixtures")


def same(lat, sc):
    """delta_m and the oracle agree on witness, covol² and completeness."""
    d, o = delta_m(lat, sc), oracle_delta_m(lat, sc)
    assert d.complete and o.complete
    assert (o.witness, o.witness_covol_sq) == (d.witness, d.witness_covol_sq)
    return o


@pytest.fixture
def up_to_dim_7(monkeypatch):
    """The oracle's dimension cap raised from 5 to 7 for one test."""
    monkeypatch.setattr(enumeration, "ORACLE_MAX_DIM", 7)


def test_oracle_matches_delta_on_search_inputs(up_to_dim_7):
    # per_dimension_cap_inputs and -I, JORDAN_4 and drive-moved SL4
    dims = set()
    for lat, sc in one_pass_inputs():
        same(lat, sc)
        dims.add(lat.n)
    assert dims == {2, 3, 4, 5, 6}


def test_oracle_matches_delta_on_seeded_n6_n7(up_to_dim_7):
    for n in (6, 7):
        for lat in random_upper_triangular_lattices(n, 3):
            same(lat, trivial_scenario(n))


def test_oracle_matches_delta_on_fixtures():
    sl4, _ = se.load_scenario(str(FIX / "sl4_so21.json"))
    checked = 0
    for path in sorted(FIX.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "basis_columns" not in doc or doc.get("dimension", 0) > 5:
            continue
        try:
            lat = se.load_lattice(str(path))
        except ValidationError:
            continue  # the err_* fixtures
        same(lat, trivial_scenario(lat.n))
        if lat.n == 4:
            same(lat, sl4)
        checked += 1
    assert checked >= 6


def test_witness_entries_beyond_the_old_sweep():
    """Seeded n = 3, 4 inputs whose witnesses have entries above 2 (up to
    28): a sweep over HNF entries <= 2 missed seven of them."""
    big = 0
    for n in (3, 4):
        for lat in random_upper_triangular_lattices(n, 12):
            o = same(lat, trivial_scenario(n))
            big += max(abs(x) for r in o.witness.rows for x in r) > 2
    assert big >= 7
    o = oracle_delta_m(random_upper_triangular_lattices(3, 12)[4], trivial_scenario(3))
    assert o.witness.rows == ((1, -4, 8),)


def test_planted_witness_through_the_cli(tmp_path, capsys):
    lat = random_upper_triangular_lattices(3, 12)[4]
    path = tmp_path / "planted.json"
    path.write_text(se.dumps_json(se.lattice_to_dict(lat)), encoding="utf-8")
    code = main(["oracle", "--lattice", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verdict"] == "AGREE"
    assert doc["oracle"]["witness_hnf"] == [[1, -4, 8]] == doc["search"]["witness_hnf"]


def test_oracle_budget():
    lat = random_upper_triangular_lattices(4, 12)[9]
    sc = trivial_scenario(4)
    assert not oracle_delta_m(lat, sc, budget=1).complete
    bud = _Budget()
    assert oracle_delta_m(lat, sc, budget=bud).complete and bud.used > 1
    assert not oracle_delta_m(lat, sc, budget=bud.used - 1).complete
    assert oracle_delta_m(lat, sc, budget=bud.used) == oracle_delta_m(lat, sc)


def test_oracle_bound_is_not_positional():
    with pytest.raises(TypeError):
        oracle_delta_m(make_lattice(rl.identity(3)), trivial_scenario(3), 2)


def test_oracle_refuses_above_dimension_5_before_any_work(monkeypatch):
    def never(*args):
        raise AssertionError("compound Gram built")

    monkeypatch.setattr(enumeration, "_compound", never)
    with pytest.raises(ValidationError) as err:
        oracle_delta_m(make_lattice(rl.identity(6)), trivial_scenario(6))
    assert (err.value.field, err.value.message) == (
        "dimension", "brute-force oracle supports dimension <= 5, got 6")
    with pytest.raises(ValidationError) as err:
        oracle_delta_m(make_lattice(rl.identity(4)), trivial_scenario(3))
    assert err.value.field == "dimension"


def test_saturated_lines_and_hyperplanes_are_short_vectors():
    """k = 1 gives the primitive vectors of Λ under the cap, and k = N - 1
    the hyperplanes orthogonal to the primitive vectors of the dual lattice
    under it: covol²(Λ∩y⊥) = ‖y‖² for unimodular Λ."""
    for n in (3, 4, 5):
        for lat in random_upper_triangular_lattices(n, 4):
            dual = make_lattice(rl.transpose(rat_inverse(lat.basis)))
            for cap in (F(1), F(3, 2)):
                lines = _saturated_subspaces(lat, 1, cap, _Budget())
                want = {v for v in short_vectors(lat, cap) if rl.primitive_part(v) == v}
                assert {sub.rows for sub, _ in lines} == {rl.hnf_rows([v]) for v in want}
                planes = _saturated_subspaces(lat, n - 1, cap, _Budget())
                want = {rl.right_kernel_int([y]): dual.vector_norm_sq(y)
                        for y in short_vectors(dual, cap) if rl.primitive_part(y) == y}
                assert {sub.rows: c for sub, c in planes} == want
                assert all(c == covolume_sq(lat, sub) for sub, c in lines + planes)

