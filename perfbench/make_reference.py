"""Write perfbench/reference.json: the exact outputs the benchmark checks against.

    python3 perfbench/make_reference.py

For every workload it records
  * `delta_sq_pow` per delta op type, computed on the un-rebased lattice;
    a rebase must not change it, so every seed is checked against it;
  * one output digest per op of the default seed's op list.

Run it only when the program's exact outputs are meant to change; the
outputs (witness HNF, delta_sq_pow, certificate bytes) are otherwise fixed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    _, workloads = run.import_package()
    from nondiv.enumeration import delta_m
    from nondiv.serialize import rat_str

    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    workdir = run.HERE / ".work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl in workloads.WORKLOADS.items():
            expected = {label: delta_m(lat, wl.scenario).delta_sq_pow
                        for label, lat in wl.base_lattices().items()}
            ops = wl.make_ops(workloads.DEFAULT_SEED, str(workdir))
            runner = run.Runner(wl, ops, None, expected)
            for i in range(len(ops)):
                runner.run(i)
            if runner.failed:
                print(f"error: {runner.failed} ops of {name} failed", file=sys.stderr)
                return 1
            doc["workloads"][name] = {
                "delta_sq_pow": {k: rat_str(v) for k, v in expected.items()},
                "digests": [runner.first[i] for i in range(len(ops))],
            }
            print(f"{name}: {len(ops)} ops, {sum(runner.latencies):.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
