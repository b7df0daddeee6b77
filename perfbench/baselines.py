"""Measure the workload table of ROADMAP item 1 and write perfbench/baseline.json.

    python3 perfbench/baselines.py

Each row is the median wall time of `REPEATS` runs in this process, with
the Python version and CPU model. The criterion-6 cases are regenerated
with the acceptance test's seed and draw order, so they are the same inputs.
"""

from __future__ import annotations

import io
import json
import platform
import random
import statistics
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from time import perf_counter

import run

REPEATS = 3
CRITERION_6_SEED = 20260815


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def criterion_6_cases(workloads):
    """The acceptance test's 40 N=2, 40 N=3 and 20 SL4 push-out step inputs."""
    from nondiv import PushoutConfig, make_lattice, trivial_scenario
    from nondiv.samples import (diagonal_lattice, sl4_so21_scenario, sl4_torus_lattice,
                                squash_lattice_2d)

    rng = random.Random(CRITERION_6_SEED)
    n2, n3, sl4 = [], [], []
    for _ in range(40):
        k = rng.randint(5, 12)
        basis = workloads._rebase(squash_lattice_2d(F(1, 2 ** k)).basis, rng, 4)
        n2.append((make_lattice(basis), trivial_scenario(2), PushoutConfig()))
    for _ in range(40):
        a = rng.randint(26, 34)
        mid = F(2) ** rng.randint(-2, 2)
        base = diagonal_lattice(F(2) ** -a, mid, 1 / (F(2) ** -a * mid))
        basis = workloads._rebase(base.basis, rng, 4)
        n3.append((make_lattice(basis), trivial_scenario(3), PushoutConfig()))
    sc4 = sl4_so21_scenario()
    for _ in range(20):
        t = (F(2) ** rng.choice([-3, -2, -1]) if rng.random() < 0.7
             else F(2) ** rng.choice([3, 4]))
        sl4.append((sl4_torus_lattice(t), sc4, PushoutConfig(eta0_override=F(1, 4))))
    return n2, n3, sl4


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    _, workloads = run.import_package()
    from nondiv import delta_m, pushout_step, trivial_scenario
    from nondiv.cli import main as cli_main
    from nondiv.samples import diagonal_lattice, sl4_so21_scenario, sl4_torus_lattice

    sc4 = sl4_so21_scenario()
    n2, n3, sl4 = criterion_6_cases(workloads)

    def steps(cases):
        return lambda: [pushout_step(*c) for c in cases]

    def cli_drive():
        with redirect_stdout(io.StringIO()):
            code = cli_main(["drive", "--scenario", str(run.ROOT / "fixtures/sl4_so21.json"),
                             "--lattice", str(run.ROOT / "fixtures/sl4_t_eighth.json")])
        if code != 0:
            raise RuntimeError(f"CLI drive exited {code}")

    rows = {}
    for t in (4, 8, 16):
        rows[f"delta_m sl4_torus_lattice({t})"] = lambda t=t: delta_m(sl4_torus_lattice(t), sc4)
    rows["criterion 6: 20 SL4 pushout_step cases"] = steps(sl4)
    rows["40 N=2 squash pushout_steps"] = steps(n2)
    rows["40 N=3 deep-squash pushout_steps"] = steps(n3)
    rows["CLI drive fixtures/sl4_t_eighth.json"] = cli_drive
    for n in (5, 6):
        diag = [F(1, 2)] + [1] * (n - 2) + [2]
        rows[f"delta_m trivial_scenario({n}) diag(1/2,1,...,2)"] = (
            lambda n=n, diag=diag: delta_m(diagonal_lattice(*diag), trivial_scenario(n)))

    out = {"python": platform.python_version(), "cpu": cpu_model(),
           "repeats": REPEATS, "seconds": {}}
    for label, fn in rows.items():
        out["seconds"][label] = timed(fn)
        print(f"{label:48s} {out['seconds'][label]:8.3f} s", flush=True)
    (run.HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
