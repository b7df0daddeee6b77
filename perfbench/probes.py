"""Known-defect probes: each runs once, untimed, outside every workload.

A probe passes when the program handles its input correctly. Both probes
reproduce defects that are open at the time the benchmark was defined, so
they are expected to report `fail` until those defects are fixed; they never
count toward a workload's `failed` ops.

  probe.n7_overflow  delta_m(diag(1/2,1,1,1,1,1,2), trivial_scenario(7)) must
                     return or raise a typed NondivError, not OverflowError.
  probe.lost_trace   `drive` under the single-block scenario on
                     fixtures/squash_n2_k6.json must emit a certificate
                     instead of exiting 2 ("invalid input") with none.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path


def probe_n7_overflow(workdir: Path) -> tuple[bool, str]:
    from nondiv import NondivError, delta_m, trivial_scenario
    from nondiv.samples import diagonal_lattice
    try:
        d = delta_m(diagonal_lattice(F(1, 2), 1, 1, 1, 1, 1, 2), trivial_scenario(7))
    except NondivError as e:
        return True, f"raised {type(e).__name__}"
    except OverflowError as e:
        return False, f"OverflowError: {e}"
    return True, f"delta_sq_pow={d.delta_sq_pow}"


def probe_lost_trace(workdir: Path) -> tuple[bool, str]:
    from nondiv.cli import main
    scenario = workdir / "single_block.json"
    scenario.write_text(json.dumps({"dimension": 2, "blocks": [[1, 2]]}), encoding="utf-8")
    lattice = Path(__file__).resolve().parent.parent / "fixtures" / "squash_n2_k6.json"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["drive", "--scenario", str(scenario), "--lattice", str(lattice)])
    detail = f"exit {code}, {len(out.getvalue())} bytes of certificate"
    return code != 2 and bool(out.getvalue()), detail


PROBES = {"probe.n7_overflow": probe_n7_overflow,
          "probe.lost_trace": probe_lost_trace}


def run_probes() -> dict[str, tuple[bool, str]]:
    """Run every probe once (nondiv must be importable); name -> (passed, detail)."""
    workdir = Path(__file__).resolve().parent / ".work" / f"probes-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return {name: probe(workdir) for name, probe in PROBES.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
