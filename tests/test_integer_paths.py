"""The program's span work runs on the integer kernels.

The Fraction RREF family (`ratlin._rref` under `rat_rank`, `rat_right_kernel`
and `span_contains`), the Fraction inverse `ratlin.rat_inverse` and the
Fraction real coordinates `UnimodularLattice.real_rows` are kept only as the
tests' reference paths. With all of them made to raise, a restricted delta,
a push-out drive and a CLI drive must still run.
"""

import json
from fractions import Fraction

import pytest

from nondiv import ratlin as rl
from nondiv.cli import main
from nondiv.enumeration import delta_m
from nondiv.lattice import UnimodularLattice
from nondiv.pushout import PushoutConfig, Terminated, drive
from nondiv.samples import sl4_so21_scenario, sl4_torus_lattice

F = Fraction


@pytest.fixture
def no_fraction_spans(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a program path used a Fraction span routine")

    monkeypatch.setattr(rl, "_rref", refuse)
    monkeypatch.setattr(rl, "rat_inverse", refuse)
    monkeypatch.setattr(UnimodularLattice, "real_rows", refuse)


def test_delta_without_fraction_spans(no_fraction_spans):
    d = delta_m(sl4_torus_lattice(F(1, 4)), sl4_so21_scenario())
    assert d.complete and d.witness.rows == ((1, 0, 0, 0),)


def test_drive_without_fraction_spans(no_fraction_spans):
    cert = drive(sl4_torus_lattice(F(1, 8)), sl4_so21_scenario(),
                 PushoutConfig(eta0_override=F(1, 4)))
    assert cert.terminated is Terminated.REACHED_ETA0
    assert [rec.case_tag for rec in cert.steps] == ["I"] * 3


def test_cli_drive_without_fraction_spans(no_fraction_spans, capsys):
    assert main(["drive", "--lattice", "fixtures/squash_n2_k6.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terminated"] == "ReachedEta0" and doc["steps"]
