"""The vector budget is defaulted, made exact and checked in one place,
`enumeration._Budget`, whatever its source: a search's `budget` argument,
`PushoutConfig`, a scenario file's `config.vector_budget`, the
`--vector-budget` flag or the `NONDIV_VECTOR_BUDGET` environment variable."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from nondiv import enumeration
from nondiv import serialize as se
from nondiv.cli import ENV_BUDGET, main
from nondiv.enumeration import (DEFAULT_VECTOR_BUDGET, _Budget, delta_m,
                                oracle_delta_m, short_vectors, stable_subspaces_within)
from nondiv.errors import ValidationError
from nondiv.pushout import PushoutConfig, protect, pushout_step

F = Fraction

FIX = "fixtures"
LAT = se.load_lattice(f"{FIX}/sl4_pushed_t_half.json")
SC, _ = se.load_scenario(f"{FIX}/sl4_so21.json")
SCENARIO = json.loads(Path(f"{FIX}/sl4_so21.json").read_text(encoding="utf-8"))
CFG_QUARTER = PushoutConfig(eta0_override=F(1, 4))

# each API source runs one operation on LAT with the budget it is given;
# the eligible (M-stable) subspaces come from `stable_subspaces_within`
API = {
    "delta_m": lambda v: delta_m(LAT, SC, budget=v),
    "oracle_delta_m": lambda v: oracle_delta_m(LAT, SC, budget=v),
    "short_vectors": lambda v: short_vectors(LAT, 1, budget=v),
    "eligible_subspaces": lambda v: stable_subspaces_within(LAT, SC, 1, budget=v),
    "protect": lambda v: protect(LAT, SC, CFG_QUARTER, F(2), budget=v),
    "PushoutConfig": lambda v: pushout_step(
        LAT, SC, PushoutConfig(eta0_override=F(1, 4), vector_budget=v)),
}
CLI = ("file", "flag", "env")


def budget_error(value) -> ValidationError:
    with pytest.raises(ValidationError) as err:
        _Budget(value)
    return err.value


def run_cli(source, value, tmp_path, monkeypatch, capsys):
    """`nondiv delta` on LAT with the budget from one CLI source; None sets
    none. A file carries the value as JSON, the flag and the environment as
    text."""
    scenario = SCENARIO
    argv = ["delta", "--lattice", f"{FIX}/sl4_pushed_t_half.json"]
    monkeypatch.delenv(ENV_BUDGET, raising=False)
    if value is not None:
        if source == "file":
            scenario = {**SCENARIO, "config": {"vector_budget": value}}
        elif source == "flag":
            argv += ["--vector-budget", str(value)]
        else:
            monkeypatch.setenv(ENV_BUDGET, str(value))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    try:
        code = main(argv + ["--scenario", str(path)])
    except SystemExit as e:  # argparse refuses a flag that is not an int
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("value", [0, -1, True, 1.5, "10"])
@pytest.mark.parametrize("source", list(API))
def test_api_budget_rejected_with_one_message(source, value):
    want = budget_error(value)
    with pytest.raises(ValidationError) as err:
        API[source](value)
    assert (err.value.field, err.value.message) == (want.field, want.message)


@pytest.mark.parametrize("source, value", [
    ("file", 0), ("file", -1), ("file", True), ("file", 1.5), ("file", "10"),
    ("flag", 0), ("flag", -1), ("env", 0), ("env", -1),
])
def test_cli_budget_rejected_with_one_message(source, value, tmp_path,
                                              monkeypatch, capsys):
    want = budget_error(value)
    field = f"config.{want.field}" if source == "file" else want.field
    code, out, err = run_cli(source, value, tmp_path, monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"error: {field}: {want.message}\n")


@pytest.mark.parametrize("source, value, names", [
    ("flag", True, "--vector-budget"), ("flag", 1.5, "--vector-budget"),
    ("env", True, ENV_BUDGET), ("env", 1.5, ENV_BUDGET),
])
def test_cli_budget_text_not_an_integer(source, value, names, tmp_path,
                                        monkeypatch, capsys):
    """Text that does not parse as an integer never reaches `_Budget`: the
    CLI exits 2 naming where it came from."""
    code, out, err = run_cli(source, value, tmp_path, monkeypatch, capsys)
    assert code == 2 and out == "" and names in err


@pytest.fixture
def caps_used(monkeypatch):
    """The cap of every budget a search charges."""
    caps = set()
    consume = _Budget.consume

    def recording(self, n=1):
        caps.add(self.cap)
        return consume(self, n)

    monkeypatch.setattr(enumeration._Budget, "consume", recording)
    return caps


@pytest.mark.parametrize("source", list(API))
def test_api_budget_reaches_every_search(source, caps_used):
    default = API[source](None)
    assert caps_used == {DEFAULT_VECTOR_BUDGET}
    caps_used.clear()
    assert API[source](10 ** 4) == API[source](F(10 ** 4)) == default
    assert caps_used == {10 ** 4}


@pytest.mark.parametrize("source", CLI)
def test_cli_budget_reaches_every_search(source, tmp_path, monkeypatch, capsys,
                                         caps_used):
    want = se.dumps_json(se.delta_to_dict(delta_m(LAT, SC, budget=10 ** 4)))
    caps_used.clear()
    assert run_cli(source, 10 ** 4, tmp_path, monkeypatch, capsys) == (0, want, "")
    assert caps_used == {10 ** 4}
    assert run_cli(source, None, tmp_path, monkeypatch, capsys) == (0, want, "")
    assert caps_used == {10 ** 4, DEFAULT_VECTOR_BUDGET}


def test_null_budget_means_the_default(tmp_path):
    assert PushoutConfig(vector_budget=None) == PushoutConfig()
    path = tmp_path / "null.json"
    path.write_text(json.dumps({**SCENARIO, "config": {"vector_budget": None}}),
                    encoding="utf-8")
    assert se.load_scenario(str(path))[1] == PushoutConfig()
