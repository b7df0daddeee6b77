"""Command line front end.

Subcommands:
  delta     restricted minimal covolume with an exact witness
  drive     iterate push-out steps until the covolume floor is reached
  oracle    cross-check delta against an exterior-power enumeration (N <= 5)
  shortvec  enumerate lattice vectors below a squared-length bound

Exit codes: 0 success (oracle: agreement), 1 oracle disagreement, 2 invalid
input (an unwritable --output included), 3 enumeration budget exhausted
(partial output still emitted; for oracle, on either side), 4 drive stopped
at the step cap, 5 drive could not certify a search complete, 6 a number in
the result is over the interpreter's limit of decimal digits (nothing is
written).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import ratlin as rl
from . import serialize as se
from .enumeration import delta_m, oracle_delta_m, short_vectors
from .errors import BudgetExceeded, NondivError, OutputTooLarge, ValidationError
from .lattice import check_dimensions, trivial_scenario
from .pushout import PushoutConfig, Terminated, drive

ENV_BUDGET = "NONDIV_VECTOR_BUDGET"

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_MAX_STEPS = 4
EXIT_INCOMPLETE = 5
EXIT_TOO_LARGE = 6


def _load_inputs(args):
    """(lattice, scenario, config), the config checking every run setting.
    Budget: the flag, then the environment, then the scenario, then the default."""
    lat = se.load_lattice(args.lattice)
    if args.scenario is not None:
        sc, cfg = se.load_scenario(args.scenario)
        check_dimensions(lat, sc)
        for w in sc.isomorphy_warnings():
            print(f"warning: {w}", file=sys.stderr)
    else:
        # fallback: trivial group, unit blocks; its isomorphy warnings are
        # vacuous (no generators to compare), so they are not surfaced
        sc, cfg = trivial_scenario(lat.n), PushoutConfig()
    updates = {}
    if args.vector_budget is not None:
        updates["vector_budget"] = args.vector_budget
    elif (env := os.environ.get(ENV_BUDGET)) is not None:
        try:
            updates["vector_budget"] = int(env)
        except ValueError:
            raise ValidationError(ENV_BUDGET, f"expected an integer, got {rl.clip(env)}")
    if getattr(args, "max_steps", None) is not None:
        updates["max_steps"] = args.max_steps
    if getattr(args, "eta0", None) is not None:
        updates["eta0_override"] = se.parse_rat(args.eta0, "--eta0")
    return lat, sc, dataclasses.replace(cfg, **updates)


def _emit(text: str, path) -> None:
    """Write text to path, or to stdout; an unwritable path is invalid input."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError("--output", f"cannot write {path}: {e.strerror or e}")


def _require_json(args) -> None:
    if args.format != "json":
        raise ValidationError("--format",
                              "csv output is only defined for drive trajectories")


def _with_seed(doc: dict, args) -> dict:
    if args.seed is not None:
        doc["seed"] = args.seed
    return doc


def cmd_delta(args) -> int:
    _require_json(args)
    lat, sc, cfg = _load_inputs(args)
    d = delta_m(lat, sc, budget=cfg.vector_budget)
    _emit(se.dumps_json(_with_seed(se.delta_to_dict(d), args)), args.output)
    return EXIT_OK if d.complete else EXIT_BUDGET


def cmd_drive(args) -> int:
    lat, sc, cfg = _load_inputs(args)
    cert = drive(lat, sc, cfg)
    if args.format == "csv":
        _emit(se.certificate_to_csv(cert), args.output)
    else:
        _emit(se.dumps_json(_with_seed(se.certificate_to_dict(cert), args)),
              args.output)
    return {Terminated.REACHED_ETA0: EXIT_OK,
            Terminated.MAX_STEPS: EXIT_MAX_STEPS,
            Terminated.INCOMPLETE: EXIT_INCOMPLETE}[cert.terminated]


def cmd_oracle(args) -> int:
    _require_json(args)
    lat, sc, cfg = _load_inputs(args)
    o = oracle_delta_m(lat, sc, budget=cfg.vector_budget)  # refuses N > 5 first
    d = delta_m(lat, sc, budget=cfg.vector_budget)
    if not (d.complete and o.complete):
        verdict, code = "INCOMPLETE", EXIT_BUDGET
    elif d.delta_sq_vs(o.witness_covol_sq, o.witness.dim) == 0:
        verdict, code = "AGREE", EXIT_OK
    else:
        verdict, code = "DISAGREE", EXIT_DISAGREE
    doc = _with_seed({
        "verdict": verdict,
        "search": se.delta_to_dict(d, "search"),
        "oracle": se.delta_to_dict(o, "oracle"),
    }, args)
    _emit(se.dumps_json(doc), args.output)
    if args.output:
        print(verdict)
    return code


def cmd_shortvec(args) -> int:
    _require_json(args)
    lat, sc, cfg = _load_inputs(args)
    bound_sq = se.parse_rat(args.bound_sq, "--bound-sq")
    try:
        vecs = short_vectors(lat, bound_sq, budget=cfg.vector_budget)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    doc = _with_seed({
        "bound_sq": se.rat_str(bound_sq, "bound_sq"),
        "count": len(vecs),
        "vectors": [{"coords": list(v),
                     "norm_sq": se.rat_str(norm, "norm_sq"),
                     "norm_float": math.sqrt(norm)}
                    for v in vecs for norm in [lat.vector_norm_sq(v)]],
    }, args)
    _emit(se.dumps_json(doc), args.output)
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and every `parse_args` fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="nondiv",
        description="Restricted minimal covolume certificates and push-out drives "
                    "on unimodular lattices, in exact rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", metavar="FILE",
                       help="scenario JSON (blocks, group generators, config); "
                            "defaults to the trivial group with unit blocks")
        p.add_argument("--lattice", metavar="FILE", required=True,
                       help="lattice JSON with a column-major basis")
        p.add_argument("--output", metavar="FILE",
                       help="write the result here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int,
                       help="echoed into the output; commands are deterministic")
        p.add_argument("--vector-budget", type=int, dest="vector_budget",
                       metavar="N", help="enumeration node cap (overrides "
                       f"{ENV_BUDGET} and the scenario config)")

    p = sub.add_parser("delta", help="exact restricted minimal covolume")
    common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("drive", help="push out until the covolume floor holds")
    common(p)
    p.add_argument("--max-steps", type=int, dest="max_steps", metavar="K")
    p.add_argument("--eta0", metavar="P/Q",
                   help="covolume floor in (0, 1); overrides the scenario config")
    p.set_defaults(func=cmd_drive)

    p = sub.add_parser("oracle", help="cross-check delta against an exhaustive enumeration")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("shortvec", help="lattice vectors below a length bound")
    common(p)
    p.add_argument("--bound-sq", dest="bound_sq", default="1", metavar="P/Q",
                   help="squared length bound (default 1)")
    p.set_defaults(func=cmd_shortvec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e.field}: {e.message}", file=sys.stderr)
        return EXIT_INVALID
    except OutputTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except NondivError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
