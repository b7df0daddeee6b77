import hashlib
import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from nondiv import cli, enumeration
from nondiv import serialize as se
from nondiv.cli import build_parser, main
from nondiv.enumeration import DeltaResult
from nondiv.errors import OutputTooLarge
from nondiv.lattice import full_subspace, make_lattice, subspace_from_rows

F = Fraction

FIX = "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_sl4_pushed(capsys):
    code, out, err = run(capsys, "delta",
                         "--scenario", f"{FIX}/sl4_so21.json",
                         "--lattice", f"{FIX}/sl4_pushed_t_half.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_sq_pow"] == se.rat_str(F(1, 64) ** 12)
    assert doc["witness_hnf"] == [[1, 0, 0, 0]]
    assert doc["complete"] is True


def test_delta_z4_under_scenario(capsys):
    code, out, _ = run(capsys, "delta",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/z4.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_float"] == 1.0
    assert doc["complete"] is True


def test_drive_z4_zero_rows(capsys):
    code, out, _ = run(capsys, "drive",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/z4.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminated"] == "ReachedEta0"
    assert doc["steps"] == []


def test_oracle_z4(capsys):
    code, out, _ = run(capsys, "oracle", "--lattice", f"{FIX}/z4.json")
    assert code == 0
    assert json.loads(out)["verdict"] == "AGREE"


def test_delta_output_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "delta",
                     "--scenario", f"{FIX}/sl4_so21.json",
                     "--lattice", f"{FIX}/sl4_t_quarter.json",
                     "--output", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    doc = json.loads(text)
    # re-emitting the parsed document must reproduce the bytes
    assert se.dumps_json(doc) == text
    assert se.parse_rat(doc["delta_sq_pow"], "x") == F(1, 4096) ** 12


def test_output_to_missing_directory_is_invalid_input(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "delta", "--lattice", f"{FIX}/z4.json",
                         "--output", str(out_path))
    assert code == 2
    assert err.startswith("error: --output: cannot write") and str(out_path) in err
    assert out == "" and not out_path.parent.exists()


def test_drive_reaches_floor(capsys):
    code, out, _ = run(capsys, "drive",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/sl4_t_eighth.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminated"] == "ReachedEta0"
    assert doc["eta0_sq"] == "1/16"
    assert len(doc["steps"]) == 3
    floats = [doc["initial"]["delta_float"]] + [r["delta_float"] for r in doc["steps"]]
    assert floats == sorted(floats)
    assert doc["composed_torus"] == ["512/1", "1/8"]
    cols = doc["final_basis_columns"]
    assert all(cols[j][i] == ("1/1" if i == j else "0/1")
               for i in range(4) for j in range(4))


def test_drive_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "drive",
                     "--scenario", f"{FIX}/sl4_so21.json",
                     "--lattice", f"{FIX}/sl4_pushed_t_half.json",
                     "--format", "csv", "--output", str(out_path))
    assert code == 0
    raw = out_path.read_bytes()
    assert b"\r\n" in raw
    lines = raw.decode("utf-8").split("\r\n")
    assert lines[0] == "step,delta_num,delta_den_pow,delta_float,case_tag,torus_scalars,witness_hnf"
    row = lines[1].split(",", 5)
    assert row[0] == "1" and row[1] == "1" and row[2] == "1"


def test_drive_max_steps_zero(capsys):
    code, out, _ = run(capsys, "drive",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/sl4_pushed_t_half.json",
                       "--max-steps", "0")
    assert code == 4
    doc = json.loads(out)
    assert doc["terminated"] == "MaxSteps"
    assert doc["steps"] == []


def test_drive_eta0_flag_overrides_config(capsys):
    # floor below the current delta: nothing to do
    code, out, _ = run(capsys, "drive",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/sl4_pushed_t_half.json",
                       "--eta0", "1/16")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == []
    assert doc["eta0_sq"] == "1/256"


def test_drive_eta0_flag_checks_floor_first(tmp_path, capsys):
    # one block touches every coordinate, so W₁ is unexpandable; but
    # δ = 1/64 is above the floor, and that is decided before any certificate
    scenario = tmp_path / "single_block.json"
    scenario.write_text(json.dumps({"dimension": 2, "blocks": [[1, 2]]}), encoding="utf-8")
    code, out, _ = run(capsys, "drive", "--scenario", str(scenario),
                       "--lattice", f"{FIX}/squash_n2_k6.json", "--eta0", "1/1000000")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminated"] == "ReachedEta0"
    assert doc["steps"] == []


def test_drive_budget_flag_incomplete(capsys, chain_search):
    code, out, _ = run(capsys, "drive",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/sl4_pushed_t_half.json",
                       "--vector-budget", "5")
    assert code == 5
    assert json.loads(out)["terminated"] == "IncompleteSearch"


def test_budget_env_and_flag_precedence(capsys, monkeypatch, chain_search):
    monkeypatch.setenv("NONDIV_VECTOR_BUDGET", "5")
    code, _, _ = run(capsys, "delta",
                     "--scenario", f"{FIX}/sl4_so21.json",
                     "--lattice", f"{FIX}/sl4_pushed_t_half.json")
    assert code == 3  # env starves the search, partial result
    code, out, _ = run(capsys, "delta",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/sl4_pushed_t_half.json",
                       "--vector-budget", "100000")
    assert code == 0  # flag wins over env
    assert json.loads(out)["complete"] is True
    monkeypatch.setenv("NONDIV_VECTOR_BUDGET", "junk")
    code, _, err = run(capsys, "delta",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/sl4_pushed_t_half.json")
    assert code == 2 and "NONDIV_VECTOR_BUDGET" in err


def test_delta_incomplete_prints_partial(capsys, chain_search):
    code, out, _ = run(capsys, "delta",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/sl4_pushed_t_half.json",
                       "--vector-budget", "5")
    assert code == 3
    doc = json.loads(out)
    assert doc["complete"] is False
    assert se.parse_rat(doc["delta_sq_pow"], "x") <= 1


def test_delta_block_sums_budget(capsys):
    # SL4/SO(2,1) spans its block algebra: one budget unit per block sum,
    # so a budget of 1 stops after the first of the two, and 2 completes
    argv = ("delta", "--scenario", f"{FIX}/sl4_so21.json",
            "--lattice", f"{FIX}/sl4_pushed_t_half.json", "--vector-budget")
    code, out, _ = run(capsys, *argv, "1")
    assert code == 3 and json.loads(out)["complete"] is False
    code, out, _ = run(capsys, *argv, "2")
    assert code == 0 and json.loads(out)["witness_hnf"] == [[1, 0, 0, 0]]


def test_overlapping_blocks_fixture(capsys):
    code, _, err = run(capsys, "delta",
                       "--scenario", f"{FIX}/err_overlapping_blocks.json",
                       "--lattice", f"{FIX}/z4.json")
    assert code == 2
    assert "[2, 4]" in err and "overlap" in err


def test_bad_determinant_fixture(capsys):
    code, _, err = run(capsys, "delta", "--lattice", f"{FIX}/err_bad_determinant.json")
    assert code == 2
    assert "determinant" in err


def test_oracle_dimension_cap(capsys):
    code, _, err = run(capsys, "oracle", "--lattice", f"{FIX}/z6.json")
    assert code == 2
    assert "dimension" in err


@pytest.mark.parametrize("argv, incomplete", [
    (("--lattice", f"{FIX}/z4.json", "--vector-budget", "1"), ("search", "oracle")),
    # the block sums take 2 units, the oracle's enumerations 15
    (("--scenario", f"{FIX}/sl4_so21.json", "--lattice", f"{FIX}/sl4_pushed_t_half.json",
      "--vector-budget", "2"), ("oracle",)),
])
def test_oracle_budget_exhaustion_is_incomplete(tmp_path, capsys, argv, incomplete):
    """An exhausted budget on either side is no disagreement: the partial
    document says INCOMPLETE and the exit code is 3, as for delta."""
    code, out, err = run(capsys, "oracle", *argv)
    doc = json.loads(out)
    assert (code, err, doc["verdict"]) == (3, "", "INCOMPLETE")
    assert [k for k in ("search", "oracle") if not doc[k]["complete"]] == list(incomplete)
    path = tmp_path / "oracle.json"
    assert run(capsys, "oracle", *argv, "--output", str(path)) == (3, "INCOMPLETE\n", "")
    assert path.read_text(encoding="utf-8") == out


def test_oracle_agreement(capsys):
    code, out, _ = run(capsys, "oracle",
                       "--lattice", f"{FIX}/random_n3_seed20260815.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "AGREE"
    assert doc["search"]["delta_sq_pow"] == doc["oracle"]["delta_sq_pow"]


def test_oracle_sl4_scenario(capsys):
    code, out, _ = run(capsys, "oracle",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/sl4_pushed_t_half.json")
    assert code == 0
    assert json.loads(out)["verdict"] == "AGREE"


def test_oracle_disagreement_exits_1(capsys, monkeypatch):
    """An oracle that differs from the search is reported as DISAGREE with
    exit code 1, the whole document still written."""
    wrong = DeltaResult(witness=subspace_from_rows(4, [[1, 0, 0, 0]]),
                        witness_covol_sq=F(1, 4), complete=True)
    monkeypatch.setattr(cli, "oracle_delta_m", lambda lat, sc, budget: wrong)
    code, out, err = run(capsys, "oracle", "--lattice", f"{FIX}/z4.json")
    doc = json.loads(out)
    assert (code, err, doc["verdict"]) == (1, "", "DISAGREE")
    assert doc["oracle"]["witness_hnf"] == [[1, 0, 0, 0]]
    assert doc["search"]["delta_float"] == 1.0


def test_shortvec_budget_exhaustion_exits_3(capsys):
    code, out, err = run(capsys, "shortvec", "--lattice", f"{FIX}/squash_n2_k6.json",
                         "--vector-budget", "1")
    assert (code, out, err) == (3, "", "error: enumeration budget of 1 exceeded\n")


def test_shortvec_squash(capsys):
    code, out, _ = run(capsys, "shortvec",
                       "--lattice", f"{FIX}/squash_n2_k6.json",
                       "--bound-sq", "1/256")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["vectors"][0]["coords"] == [1, 0]
    assert doc["vectors"][0]["norm_sq"] == "1/4096"


def test_csv_rejected_outside_drive(capsys):
    code, _, err = run(capsys, "delta", "--lattice", f"{FIX}/z4.json",
                       "--format", "csv")
    assert code == 2
    assert "format" in err


def test_seed_echoed(capsys):
    code, out, _ = run(capsys, "delta", "--lattice", f"{FIX}/z4.json",
                       "--seed", "7")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_malformed_json_diagnostic(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"dimension": 2,\n  "basis_columns": [[}', encoding="utf-8")
    code, _, err = run(capsys, "delta", "--lattice", str(p))
    assert code == 2
    assert "line 2" in err


def test_unknown_config_field(tmp_path, capsys):
    p = tmp_path / "sc.json"
    p.write_text(json.dumps({
        "dimension": 2, "blocks": [[1, 1], [2, 2]], "m_generators": [],
        "config": {"etaO": "1/4"}}), encoding="utf-8")
    code, _, err = run(capsys, "delta", "--scenario", str(p),
                       "--lattice", f"{FIX}/squash_n2_k6.json")
    assert code == 2
    assert "config.etaO" in err


def test_det_minus_one_lattice_file_round_trips(tmp_path):
    doc = {"dimension": 2, "basis_columns": [["0/1", "2/1"], ["1/2", "0/1"]],
           "determinant": "-1/1"}
    path = tmp_path / "det_minus_one.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    lat = se.load_lattice(str(path))
    ref = make_lattice([[0, F(1, 2)], [2, 0]])
    assert (lat.basis, lat.det_sign, lat.int_gram) == (ref.basis, -1, ref.int_gram)
    assert se.lattice_to_dict(lat) == se.lattice_to_dict(ref) == doc
    path.write_text(se.dumps_json(se.lattice_to_dict(lat)), encoding="utf-8")
    assert se.load_lattice(str(path)) == lat


@pytest.mark.parametrize("key", ["lambda_multiplier", "eta0", "max_steps", "vector_budget"])
def test_null_config_key_means_its_default(tmp_path, capsys, key):
    # null and a missing key drive the SL4 fixture to the same certificate
    with open(f"{FIX}/sl4_so21.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    outs = []
    for value in ("null", "missing"):
        cfg = dict(doc["config"])
        if value == "null":
            cfg[key] = None
        else:
            del cfg[key]
        p = tmp_path / f"{value}.json"
        p.write_text(json.dumps({**doc, "config": cfg}), encoding="utf-8")
        code, out, err = run(capsys, "drive", "--scenario", str(p),
                             "--lattice", f"{FIX}/sl4_t_eighth.json")
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


LATTICE_N2 = {"dimension": 2, "basis_columns": [["1", "0"], ["0", "1"]],
              "determinant": "1"}
SCENARIO_N2 = {"dimension": 2, "blocks": [[1, 1], [2, 2]], "m_generators": []}


# JSON true/false load as Python bools, which are ints; none is a number here
@pytest.mark.parametrize("kind,doc,field", [
    ("lattice", {**LATTICE_N2, "basis_columns": [[True, "0"], ["0", True]],
                 "determinant": True}, "basis_columns[0][0]"),
    ("lattice", {**LATTICE_N2, "determinant": True}, "determinant"),
    ("lattice", {**LATTICE_N2, "dimension": True}, "dimension"),
    ("lattice", {"dimension": 1, "basis_columns": [["1"]], "determinant": "1"},
     "dimension"),
    ("scenario", {**SCENARIO_N2, "dimension": True}, "dimension"),
    ("scenario", {**SCENARIO_N2, "blocks": [[True, 1], [2, 2]]}, "blocks"),
    ("scenario", {**SCENARIO_N2, "m_generators": [[[True, 0], [0, 1]]]},
     "m_generators[0][0][0]"),
    ("scenario", {**SCENARIO_N2, "config": {"max_steps": True}}, "config.max_steps"),
    ("scenario", {**SCENARIO_N2, "config": {"vector_budget": False}},
     "config.vector_budget"),
    ("scenario", {**SCENARIO_N2, "config": {"eta0": True}}, "config.eta0"),
    # exponents are rejected before Fraction expands them, even with a valid value
    ("scenario", {**SCENARIO_N2, "config": {"eta0": "1e3000000"}}, "config.eta0"),
    ("scenario", {**SCENARIO_N2, "config": {"lambda_multiplier": "2.5E-1"}},
     "config.lambda_multiplier"),
    ("lattice", {**LATTICE_N2, "basis_columns": [["1e0", "0"], ["0", "1"]]},
     "basis_columns[0][0]"),
    ("lattice", {**LATTICE_N2, "determinant": "1E+0"}, "determinant"),
    # raw file bytes: json.loads refuses integer literals over 4 300 digits
    ("lattice", b'{"dimension": 2, "basis_columns": [[' + b"9" * 5001
     + b', "0"], ["0", "1"]], "determinant": "1"}', "4300-digit limit"),
    ("lattice", b"\xff" + json.dumps(LATTICE_N2).encode(), "not UTF-8"),
    # a bad value is echoed cut short
    ("lattice", {**LATTICE_N2, "basis_columns": [["9" * 5001, "0"], ["0", "1"]]},
     "basis_columns[0][0]"),
    # a string's digit run over the limit names it, as a JSON literal does
    ("lattice", {**LATTICE_N2, "basis_columns": [["1/" + "3" * 5001, "0"], ["0", "1"]]},
     "4300-digit limit"),
    # every refusal of the loaders' own shape checks
    ("lattice", {k: v for k, v in LATTICE_N2.items() if k != "determinant"},
     "lattice.determinant: missing required field"),
    ("scenario", {k: v for k, v in SCENARIO_N2.items() if k != "blocks"},
     "scenario.blocks: missing required field"),
    ("scenario", {**SCENARIO_N2, "blocks": []}, "blocks: expected a nonempty list"),
    ("scenario", {**SCENARIO_N2, "blocks": [[1, 2], [3, 2]]},
     "blocks: range [3, 2] is empty"),
    ("scenario", {**SCENARIO_N2, "blocks": [[1, 1]]}, "blocks: ranges cover 1..1"),
    ("scenario", {**SCENARIO_N2, "m_generators": [[["1", "0"]]]},
     "m_generators[0]: expected an 2x2 matrix"),
    ("scenario", {**SCENARIO_N2, "m_generators": 5}, "m_generators: expected a list"),
    ("scenario", {**SCENARIO_N2, "torus": "diagonal"}, "torus: unsupported torus family"),
    ("scenario", {**SCENARIO_N2, "config": []}, "config: expected an object"),
    ("lattice", {**LATTICE_N2, "basis_columns": [["1", "0"]]},
     "basis_columns: expected 2 columns of length 2"),
    ("lattice", {**LATTICE_N2, "basis_columns": [["2", "0"], ["0", "1"]], "determinant": "2"},
     "determinant: basis must be unimodular, got 2"),
], ids=["basis-bools", "determinant-bool", "lattice-dimension-bool",
        "lattice-dimension-1", "scenario-dimension-bool", "blocks-bool",
        "generator-bool", "max-steps-bool", "vector-budget-bool", "eta0-bool",
        "eta0-exponent", "multiplier-exponent", "basis-exponent",
        "determinant-exponent", "integer-literal-digits", "not-utf8",
        "long-value-echo", "string-digits", "missing-determinant", "missing-blocks",
        "blocks-empty", "block-empty-range", "blocks-short", "generator-shape",
        "generators-not-list", "torus-family", "config-not-object", "basis-shape",
        "determinant-not-unimodular"])
def test_file_field_rejected(tmp_path, capsys, kind, doc, field):
    argv = ["drive"]
    for k, d in {"scenario": SCENARIO_N2, "lattice": LATTICE_N2, kind: doc}.items():
        p = tmp_path / f"{k}.json"
        p.write_bytes(d if isinstance(d, bytes) else json.dumps(d).encode())
        argv += [f"--{k}", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert field in err
    assert len(err) < 200 and "Traceback" not in err


def test_delta_generator_with_large_prime_no_factoring_stall(tmp_path, capsys):
    """The generator's eigenvalues p³ and 1/p³ cost no trial division."""
    p = 10 ** 9 + 7
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"dimension": 2, "blocks": [[1, 2]], "m_generators": [
        [[str(p ** 3), "0"], ["0", f"1/{p ** 3}"]]]}), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "delta", "--scenario", str(path),
                       "--lattice", f"{FIX}/squash_n2_k6.json")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["witness_hnf"] == [[1, 0]]


def test_parse_rat_accepts_plain_forms():
    assert se.parse_rat(5, "x") == 5
    assert se.parse_rat(" -3/4 ", "x") == F(-3, 4)
    assert se.parse_rat("0.25", "x") == F(1, 4)
    assert se.parse_rat("-.5", "x") == F(-1, 2)


def test_scenario_lattice_dimension_mismatch(capsys):
    code, _, err = run(capsys, "delta",
                       "--scenario", f"{FIX}/sl4_so21.json",
                       "--lattice", f"{FIX}/squash_n2_k6.json")
    assert code == 2
    assert "dimension" in err


def test_isomorphy_warning_on_explicit_scenario(capsys):
    code, _, err = run(capsys, "delta",
                       "--scenario", f"{FIX}/trivial_n2.json",
                       "--lattice", f"{FIX}/squash_n2_k6.json")
    assert code == 0
    assert "isomorphic" in err
    # the built-in fallback stays quiet
    code, _, err = run(capsys, "delta", "--lattice", f"{FIX}/squash_n2_k6.json")
    assert code == 0
    assert err == ""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nondiv", "delta", "--lattice", f"{FIX}/z4.json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["delta_sq_pow"] == "1/1"


def test_drive_trivial_squash_family(capsys):
    # unit blocks, no group: every coordinate line is eligible
    code, out, _ = run(capsys, "drive",
                       "--scenario", f"{FIX}/trivial_n2.json",
                       "--lattice", f"{FIX}/squash_n2_k6.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminated"] == "ReachedEta0"
    assert doc["eta0_sq"] == "1/256"
    s = F(1)
    for row in doc["steps"]:
        s *= se.parse_rat(row["torus_scalars"][0], "s")
    b = [[se.parse_rat(x, "b") for x in col] for col in doc["final_basis_columns"]]
    assert b[0][0] == F(1, 64) * s


def diagonal_lattice_file(tmp_path, diag):
    n = len(diag)
    path = tmp_path / f"diag_n{n}.json"
    cols = [[se.rat_str(diag[j]) if i == j else "0" for i in range(n)] for j in range(n)]
    path.write_text(json.dumps({"dimension": n, "basis_columns": cols,
                                "determinant": "1/1"}), encoding="utf-8")
    return str(path)


def test_delta_sq_pow_at_the_digit_limit_is_written(tmp_path, capsys):
    # (1/4)^2520 at N = 10 has 1 518 digits
    path = diagonal_lattice_file(tmp_path, [F(1, 2), F(2)] + [F(1)] * 8)
    code, out, _ = run(capsys, "delta", "--lattice", path)
    assert code == 0
    assert json.loads(out)["delta_sq_pow"] == se.rat_str(F(1, 4) ** 2520)


@pytest.mark.parametrize("command,diag,field", [
    ("delta", [F(1, 2), F(2)] + [F(1)] * 9, "delta.delta_sq_pow"),
    ("delta", [F(1, 2), F(2)] + [F(1)] * 10, "delta.delta_sq_pow"),
    ("drive", [F(1, 2), F(2)] + [F(1)] * 10, "initial.delta_sq_pow"),
    ("delta", [F(1, 2 ** 200), F(2 ** 200), F(1), F(1), F(1)], "delta.delta_sq_pow"),
], ids=["delta-n11", "delta-n12", "drive-n12", "delta-n5-2^200"])
def test_oversized_output_exits_typed_and_writes_nothing(tmp_path, capsys, command,
                                                         diag, field):
    # (1/4)^27720 at N = 11 and 12, and (2^-400)^60 at N = 5, are over the
    # 4 300-digit limit of int -> str
    path = diagonal_lattice_file(tmp_path, diag)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--lattice", path)
    assert time.perf_counter() - start < 5
    assert code == 6
    assert out == ""
    assert err == (f"error: {field}: over the {sys.get_int_max_str_digits()}"
                   "-digit limit for decimal output\n")
    target = tmp_path / "out.json"
    assert run(capsys, command, "--lattice", path, "--output", str(target))[0] == 6
    assert not target.exists()


def test_oversized_output_prints_no_traceback(tmp_path):
    path = diagonal_lattice_file(tmp_path, [F(1, 2), F(2)] + [F(1)] * 9)
    proc = subprocess.run([sys.executable, "-m", "nondiv", "delta", "--lattice", path],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 6
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "delta.delta_sq_pow" in proc.stderr


def test_digit_limit_refuses_exactly_what_int_to_str_refuses():
    """rat_str and the delta_sq_pow pre-check, which never builds a power it
    refuses, agree with str() on both sides of the limit."""
    saved = sys.get_int_max_str_digits()
    limit = 640  # the smallest limit the interpreter accepts
    try:
        sys.set_int_max_str_digits(limit)
        assert se.rat_str(10 ** limit - 1) == f"{10 ** limit - 1}/1"
        with pytest.raises(OutputTooLarge, match="x: over the 640-digit limit"):
            se.rat_str(F(1, 10 ** limit), "x")
        small = (F(1, 2), F(3), F(2, 3), F(5, 7 ** 3), F(10 ** 20 - 1, 3 ** 40))
        # with N = 2 the exponent L/dim is 1 or 2: powers of 640 and 641 digits
        edge = (F(10 ** 639), F(10 ** 640), F(2 ** 2126), F(1, 2 ** 2127),
                F(2 ** 1063), F(1, 2 ** 1064))
        checked = set()
        for n in range(2, 13):
            for witness in (subspace_from_rows(n, [[1] + [0] * (n - 1)]),
                            full_subspace(n)):
                for c in small + (edge if n == 2 else ()):
                    d = DeltaResult(witness=witness, witness_covol_sq=c, complete=True)
                    try:
                        str(d.delta_sq_pow.numerator), str(d.delta_sq_pow.denominator)
                        fits = True
                    except ValueError:
                        fits = False
                    if fits:
                        assert (se.delta_to_dict(d)["delta_sq_pow"]
                                == f"{d.delta_sq_pow.numerator}/{d.delta_sq_pow.denominator}")
                    else:
                        with pytest.raises(OutputTooLarge, match="delta.delta_sq_pow"):
                            se.delta_to_dict(d)
                    checked.add((fits, c in edge))
        assert checked == {(True, False), (False, False), (True, True), (False, True)}
    finally:
        sys.set_int_max_str_digits(saved)


# sha256 of the stdout of each run; certificate bytes must not change
FIXTURE_DIGESTS = [
    (("delta", "--scenario", "sl4_so21.json", "--lattice", "sl4_t_quarter.json"),
     "ca98bb8d70c5f92638dddfef451d0ff32ce31e376f37dcad3e7f1679d443bbe9"),
    (("drive", "--scenario", "sl4_so21.json", "--lattice", "sl4_t_eighth.json"),
     "be15176e80b3bc382748950e658a53b87ead57f21f6742d42522e8f772bcdecd"),
    (("drive", "--format", "csv", "--scenario", "sl4_so21.json",
      "--lattice", "sl4_pushed_t_half.json"),
     "b58fac1c1bbb356ee9480646d2cf1a8c1f9173dbcd8b08d2f73614ca89cc2f7e"),
    (("drive", "--lattice", "squash_n2_k6.json"),
     "2bd21d6c967b1b5cdb872c0acf2cc4da5b48e32e6d8ef4d36c2bdeb162083220"),
    (("drive", "--lattice", "random_n3_seed20260815.json"),
     "f703fb7b1d0cfada335476115dc83e5bed9810dc573b4dff7f3349682e568af8"),
    # the trivial group's chain search
    (("delta", "--lattice", "z4.json"),
     "8bb2687950d3f68a5d2afa8c6aae7636f523c9033c6fd1b0cbe4101d54e82062"),
    (("delta", "--lattice", "z6.json"),
     "8582d7dea2ca7a6ba374c94ee9d7c38b819ede4aa0374a5f902081128889577e"),
    (("delta", "--scenario", "trivial_n2.json", "--lattice", "squash_n2_k6.json"),
     "94c83b3050fcac329516df5655452698275c2fc88e063c212bff8b7429743ba7"),
    (("delta", "--lattice", "random_n3_seed20260815.json"),
     "206f62818fccb80134c521e0b40d4b8f415bf5d7665805c2150515128ca69c79"),
    # the chain search under a non-scalar action: closures and eigen-lines
    (("delta", "--scenario", "unipotent_n3.json", "--lattice", "random_n3_seed20260815.json"),
     "206f62818fccb80134c521e0b40d4b8f415bf5d7665805c2150515128ca69c79"),
    (("drive", "--scenario", "unipotent_n3.json", "--lattice", "random_n3_seed20260815.json"),
     "fc479179dfc9cb54f25c09684815b0983568cb966b5013752d73d3bf185b6404"),
]


def test_unipotent_fixture_runs_closures_and_eigen_lines(capsys, monkeypatch):
    """The unipotent fixture keeps a non-scalar action on the chain search:
    its delta closes 3 vectors and searches one quotient for eigen-lines."""
    calls = Counter()
    for name in ("_m_closure", "_stable_quotient_lines"):
        real = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name,
                            lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    code, _, _ = run(capsys, "delta", "--scenario", f"{FIX}/unipotent_n3.json",
                     "--lattice", f"{FIX}/random_n3_seed20260815.json")
    assert (code, calls) == (0, Counter(_m_closure=3, _stable_quotient_lines=1))


def digest_ids(cases):
    """command-lattice per case; a case repeating an earlier one's adds its
    scenario."""
    ids = []
    for argv, _ in cases:
        name = f"{argv[0]}-{argv[-1][:-5]}"
        ids.append(name if name not in ids else f"{name}-{argv[2][:-5]}")
    return ids


@pytest.mark.parametrize("argv,digest", FIXTURE_DIGESTS, ids=digest_ids(FIXTURE_DIGESTS))
def test_fixture_certificate_digests(capsys, argv, digest):
    argv = [f"{FIX}/{a}" if a.endswith(".json") else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_parser_is_built_once_and_runs_do_not_share_arguments(tmp_path, capsys):
    assert build_parser() is build_parser()
    csv_path = tmp_path / "traj.csv"
    sl4 = ("--scenario", f"{FIX}/sl4_so21.json", "--lattice", f"{FIX}/sl4_pushed_t_half.json")
    code, out, _ = run(capsys, "drive", *sl4, "--eta0", "1/16", "--format", "csv",
                       "--output", str(csv_path))
    assert code == 0 and out == ""
    written = csv_path.read_bytes()
    assert written.startswith(b"step,")
    # neither --eta0 nor --format nor --output carries over to the next runs
    code, out, _ = run(capsys, "drive", *sl4, "--max-steps", "0")
    assert code == 4
    assert json.loads(out)["terminated"] == "MaxSteps"
    code, out, _ = run(capsys, "delta", *sl4)
    assert code == 0
    assert json.loads(out)["witness_hnf"] == [[1, 0, 0, 0]]
    code, out, _ = run(capsys, "drive", *sl4, "--eta0", "1/16")
    assert code == 0
    assert json.loads(out)["eta0_sq"] == "1/256"
    assert csv_path.read_bytes() == written
