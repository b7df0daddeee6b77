"""Fast smoke run of the harness: tiny op counts, every metric, the probes.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json untraced and traced with `--seconds 0`
(one round of the mix, or one traced pass), and fails unless each run is
correct and emits exactly the metrics BENCHMARK.json names, with their units,
as finite numbers. Then runs the known-defect probes and fails unless each
reports a result.
"""

from __future__ import annotations

import math
import sys

import run
from probes import PROBES, run_probes
from summary import bench_spec, run_workload


def main() -> int:
    spec = bench_spec()
    problems = []
    for wl in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            doc = run_workload(wl["name"], 1, 0, trace)
            got = doc["metrics"]
            where = f"{wl['name']} trace={trace}"
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                problems.append(f"{where}: {doc['failed']} of {doc['attempted']} ops failed")
            names = [m["name"] for m in wanted]
            if sorted(got) != sorted(names):
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(names))} "
                                "emitted or missing against BENCHMARK.json")
            for m in wanted:
                v = got.get(m["name"])
                if v is None:
                    continue
                if v["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {v['unit']} != {m['unit']}")
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{where}: {m['name']} value {v['value']!r}")
            print(f"{where}: {doc['attempted']} ops, {len(got)} metrics")

    run.import_package()
    results = run_probes()
    if sorted(results) != sorted(PROBES):
        problems.append(f"probes ran {sorted(results)}")
    for name, (passed, detail) in results.items():
        print(f"{name}: {'pass' if passed else 'fail'} ({detail})")

    for p in problems:
        print(f"SMOKE FAIL: {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
