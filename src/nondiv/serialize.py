"""Scenario and lattice file formats plus certificate emission.

All decision-bearing numbers travel as exact rational strings "num/den" in
lowest terms with a positive denominator; floats appear only in *_float
convenience fields. Lattice files carry the basis column by column (one
generator per column) together with its determinant, which is verified
once, on load; the loaded lattice carries it.

A number over the interpreter's limit of decimal digits
(`sys.get_int_max_str_digits()`, 4 300 by default) cannot be written, so
emission raises `OutputTooLarge` naming the field before any text exists.
`delta_sq_pow` = covol²^{L/dim} is refused from covol²'s bit lengths, so an
oversized power is never built.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from typing import Any

from . import ratlin as rl
from .errors import OutputTooLarge, ValidationError
from .lattice import Scenario, UnimodularLattice, make_scenario
from .pushout import PushoutConfig, PushoutCertificate, Terminated

F = Fraction

CSV_HEADER = ["step", "delta_num", "delta_den_pow", "delta_float",
              "case_tag", "torus_scalars", "witness_hnf"]


def _refuse_digits(field: str, n: int) -> None:
    """OutputTooLarge unless |n| has at most the interpreter's limit of
    decimal digits. Below 2^b an integer has at most ⌊b·log₁₀2⌋ + 1 digits,
    and 30103/10⁵ > log₁₀2, so the bit length clears nearly every number;
    only one within a digit of the limit is compared with 10^limit."""
    limit = sys.get_int_max_str_digits()
    n = abs(n)
    if limit and n.bit_length() * 30103 // 100000 >= limit and n >= 10 ** limit:
        raise OutputTooLarge(field, limit)


def rat_str(x, field: str = "value") -> str:
    x = F(x)
    _refuse_digits(field, x.numerator)
    _refuse_digits(field, x.denominator)
    return f"{x.numerator}/{x.denominator}"


def _delta_sq_pow_str(d, field: str) -> str:
    """rat_str(d.delta_sq_pow), refused before the power is built when it
    is sure to be too long: c^e with c ≥ 2^(b−1) has at least
    ⌊(b−1)·e·log₁₀2⌋ + 1 digits, and 30102/10⁵ < log₁₀2."""
    limit = sys.get_int_max_str_digits()
    c, e = d.witness_covol_sq, d.lcm_pow // d.witness.dim
    for part in (c.numerator, c.denominator):
        if limit and (part.bit_length() - 1) * e * 30102 // 100000 >= limit:
            raise OutputTooLarge(field, limit)
    return rat_str(d.delta_sq_pow, field)


def _is_int(x) -> bool:
    """An integer JSON value; JSON true/false load as bools and are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_rat(s, field: str) -> Fraction:
    if _is_int(s):
        return F(s)
    if isinstance(s, str):
        return rl.rational_from_str(s, field)
    raise ValidationError(field, f"expected a rational like 'p/q', got {rl.clip(s)}")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where}.{key}", "missing required field")
    return doc[key]


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(path, str(e))
    except json.JSONDecodeError as e:
        raise ValidationError(path, f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        raise ValidationError(path, f"not UTF-8 text at byte {e.start}") from None
    except ValueError:  # int() refuses literals over the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValidationError(path, f"integer literal over the {limit}-digit limit") from None


def _parse_blocks(raw, n: int):
    """1-based inclusive [start, end] ranges covering 1..n in order."""
    if not isinstance(raw, list) or not raw:
        raise ValidationError("blocks", "expected a nonempty list of [start, end] ranges")
    spans = []
    for item in raw:
        if (not isinstance(item, list) or len(item) != 2
                or not all(_is_int(x) for x in item)):
            raise ValidationError("blocks", f"range {item!r} is not a pair of integers")
        spans.append(tuple(item))
    expected = 1
    for a, b in spans:
        if a != expected:
            what = "overlaps the previous range" if a < expected else "leaves a gap"
            raise ValidationError("blocks", f"range [{a}, {b}] {what}; expected start {expected}")
        if b < a:
            raise ValidationError("blocks", f"range [{a}, {b}] is empty")
        expected = b + 1
    if expected != n + 1:
        raise ValidationError("blocks", f"ranges cover 1..{expected - 1}, dimension is {n}")
    return [(a - 1, b) for a, b in spans]  # 0-based half-open


def _parse_matrix(raw, n: int, field: str):
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(r, list) or len(r) != n for r in raw)):
        raise ValidationError(field, f"expected an {n}x{n} matrix")
    return tuple(tuple(parse_rat(x, f"{field}[{i}][{j}]")
                       for j, x in enumerate(row)) for i, row in enumerate(raw))


def load_scenario(path: str) -> tuple[Scenario, PushoutConfig]:
    doc = load_json(path)
    n = _require(doc, "dimension", "scenario")
    if not _is_int(n) or n < 2:
        raise ValidationError("dimension", f"expected an integer >= 2, got {n!r}")
    blocks = _parse_blocks(_require(doc, "blocks", "scenario"), n)
    gens_raw = doc.get("m_generators", [])
    if not isinstance(gens_raw, list):
        raise ValidationError("m_generators", "expected a list of matrices")
    gens = [_parse_matrix(g, n, f"m_generators[{i}]") for i, g in enumerate(gens_raw)]
    torus = doc.get("torus", "full-block-scalar")
    if torus != "full-block-scalar":
        raise ValidationError("torus", f"unsupported torus family {torus!r}")
    sc = make_scenario(n, blocks, gens)
    cfg_raw = doc.get("config", {})
    if not isinstance(cfg_raw, dict):
        raise ValidationError("config", "expected an object")
    known = {"lambda_multiplier", "eta0", "max_steps", "vector_budget"}
    for key in cfg_raw:
        if key not in known:
            raise ValidationError(f"config.{key}", "unknown config field")
    # integers and null pass straight through: PushoutConfig checks them,
    # once, and null means the default
    kwargs: dict[str, Any] = {k: cfg_raw[k] for k in ("max_steps", "vector_budget")
                              if k in cfg_raw}
    if cfg_raw.get("lambda_multiplier") is not None:
        kwargs["lambda_multiplier"] = parse_rat(cfg_raw["lambda_multiplier"],
                                                "config.lambda_multiplier")
    if cfg_raw.get("eta0") is not None:
        kwargs["eta0_override"] = parse_rat(cfg_raw["eta0"], "config.eta0")
    try:
        return sc, PushoutConfig(**kwargs)
    except ValidationError as e:
        raise ValidationError(f"config.{e.field}", e.message) from None


def load_lattice(path: str) -> UnimodularLattice:
    doc = load_json(path)
    n = _require(doc, "dimension", "lattice")
    if not _is_int(n) or n < 2:
        raise ValidationError("dimension", f"expected an integer >= 2, got {n!r}")
    cols = _require(doc, "basis_columns", "lattice")
    if (not isinstance(cols, list) or len(cols) != n
            or any(not isinstance(c, list) or len(c) != n for c in cols)):
        raise ValidationError("basis_columns", f"expected {n} columns of length {n}")
    rows = tuple(tuple(parse_rat(cols[j][i], f"basis_columns[{j}][{i}]")
                       for j in range(n)) for i in range(n))
    det = rl.rat_det(rows)
    recorded = parse_rat(_require(doc, "determinant", "lattice"), "determinant")
    if det != recorded:
        raise ValidationError("determinant",
                              f"recorded {rat_str(recorded)} but basis has {rat_str(det)}")
    if det not in (1, -1):
        raise ValidationError("determinant", f"basis must be unimodular, got {rat_str(det)}")
    return UnimodularLattice._trusted(rows, det.numerator)


def lattice_to_dict(lat: UnimodularLattice, field: str = "basis_columns") -> dict:
    n = lat.n
    return {
        "dimension": n,
        "basis_columns": [[rat_str(lat.basis[i][j], field) for i in range(n)]
                          for j in range(n)],
        "determinant": rat_str(lat.det_sign),
    }


def delta_to_dict(d, field: str = "delta") -> dict:
    return {
        "delta_sq_pow": _delta_sq_pow_str(d, f"{field}.delta_sq_pow"),
        "lcm_pow": d.lcm_pow,
        "delta_float": d.delta_float,
        "witness_hnf": [list(r) for r in d.witness.rows],
        "witness_covol_sq": rat_str(d.witness_covol_sq, f"{field}.witness_covol_sq"),
        "complete": d.complete,
    }


def trajectory_rows(cert: PushoutCertificate) -> list[dict]:
    rows = []
    for i, rec in enumerate(cert.steps, start=1):
        d = rec.delta_after
        rows.append({
            "step": i,
            "delta_sq_pow": _delta_sq_pow_str(d, f"steps[{i}].delta_sq_pow"),
            "delta_float": d.delta_float,
            "witness_hnf": [list(r) for r in d.witness.rows],
            "torus_scalars": [rat_str(x, f"steps[{i}].torus_scalars")
                              for x in rec.expansion.s.scalars],
            "case_tag": rec.case_tag,
        })
    return rows


_TERMINAL_NAMES = {
    Terminated.REACHED_ETA0: "ReachedEta0",
    Terminated.MAX_STEPS: "MaxSteps",
    Terminated.INCOMPLETE: "IncompleteSearch",
}


def certificate_to_dict(cert: PushoutCertificate) -> dict:
    return {
        "terminated": _TERMINAL_NAMES[cert.terminated],
        "eta0_sq": None if cert.eta0_sq is None else rat_str(cert.eta0_sq, "eta0_sq"),
        "initial": delta_to_dict(cert.initial_delta, "initial"),
        "final": delta_to_dict(cert.final_delta, "final"),
        "steps": trajectory_rows(cert),
        "composed_torus": [rat_str(x, "composed_torus") for x in cert.composed.scalars],
        "step_bound": cert.step_bound,
        "final_basis_columns": lattice_to_dict(
            cert.final_lattice, "final_basis_columns")["basis_columns"],
    }


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def certificate_to_csv(cert: PushoutCertificate) -> str:
    """One row per step; nested fields flattened with ';' and '|' separators."""
    buf = io.StringIO()
    w = csv.writer(buf)  # default CRLF record separator
    w.writerow(CSV_HEADER)
    for row in trajectory_rows(cert):
        num, den = row["delta_sq_pow"].split("/")
        w.writerow([
            row["step"],
            num,
            den,
            repr(row["delta_float"]),
            row["case_tag"],
            ";".join(row["torus_scalars"]),
            "|".join(",".join(str(x) for x in r) for r in row["witness_hnf"]),
        ])
    return buf.getvalue()


def parse_certificate_json(text: str) -> dict:
    """Re-parse an emitted certificate, restoring exact rationals."""
    doc = json.loads(text)
    out = dict(doc)
    if doc.get("eta0_sq") is not None:
        out["eta0_sq"] = parse_rat(doc["eta0_sq"], "eta0_sq")
    for key in ("initial", "final"):
        if key in doc:
            d = dict(doc[key])
            d["delta_sq_pow"] = parse_rat(d["delta_sq_pow"], f"{key}.delta_sq_pow")
            d["witness_covol_sq"] = parse_rat(d["witness_covol_sq"],
                                              f"{key}.witness_covol_sq")
            out[key] = d
    if "steps" in doc:
        steps = []
        for row in doc["steps"]:
            r = dict(row)
            r["delta_sq_pow"] = parse_rat(r["delta_sq_pow"], "steps.delta_sq_pow")
            r["torus_scalars"] = [parse_rat(x, "steps.torus_scalars")
                                  for x in r["torus_scalars"]]
            steps.append(r)
        out["steps"] = steps
    if "composed_torus" in doc:
        out["composed_torus"] = [parse_rat(x, "composed_torus")
                                 for x in doc["composed_torus"]]
    return out
