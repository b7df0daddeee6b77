"""The program's span work runs on the integer kernels.

The Fraction references (the RREF family, the Fraction inverse and real
coordinates) live in `tests/reference.py`, outside the package, so no
program path can reach them. A restricted delta, a push-out drive and a CLI
drive run and give their known results.

Values are validated once, where they enter: a CLI drive computes the one
determinant of its lattice file, and a drive from a built lattice computes
no determinant, freezes no matrix and rescales no integer matrix.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from nondiv import ratlin as rl
from nondiv.cli import main
from nondiv.enumeration import delta_m
from nondiv.pushout import PushoutConfig, Terminated, drive
from nondiv.samples import sl4_so21_scenario, sl4_torus_lattice

F = Fraction


def test_delta_without_fraction_spans():
    d = delta_m(sl4_torus_lattice(F(1, 4)), sl4_so21_scenario())
    assert d.complete and d.witness.rows == ((1, 0, 0, 0),)


def test_drive_without_fraction_spans():
    cert = drive(sl4_torus_lattice(F(1, 8)), sl4_so21_scenario(),
                 PushoutConfig(eta0_override=F(1, 4)))
    assert cert.terminated is Terminated.REACHED_ETA0
    assert [rec.case_tag for rec in cert.steps] == ["I"] * 3


def test_cli_drive_without_fraction_spans(capsys):
    assert main(["drive", "--lattice", "fixtures/squash_n2_k6.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terminated"] == "ReachedEta0" and doc["steps"]


@pytest.fixture
def counted(monkeypatch):
    """Calls of `rat_det`, `rat_matrix` and `scale_to_int`, and of
    `scale_to_int` on a matrix of ints."""
    calls = Counter()

    def count(name):
        real = getattr(rl, name)

        def wrapper(m, *args, **kwargs):
            calls[name] += 1
            if name == "scale_to_int" and all(type(x) is int for row in m for x in row):
                calls["scale_to_int on ints"] += 1
            return real(m, *args, **kwargs)
        monkeypatch.setattr(rl, name, wrapper)

    for name in ("rat_det", "rat_matrix", "scale_to_int"):
        count(name)
    return calls


def test_cli_drive_computes_one_determinant(counted, capsys):
    assert main(["drive", "--lattice", "fixtures/squash_n2_k6.json"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"]
    assert counted["rat_det"] == 1


def test_drive_rechecks_no_invariant(counted):
    lat, sc = sl4_torus_lattice(F(1, 8)), sl4_so21_scenario()
    counted.clear()
    cert = drive(lat, sc, PushoutConfig(eta0_override=F(1, 4)))
    assert cert.terminated is Terminated.REACHED_ETA0 and len(cert.steps) == 3
    assert counted["scale_to_int"] > 0
    assert (counted["rat_det"], counted["rat_matrix"], counted["scale_to_int on ints"]) == \
        (0, 0, 0)
