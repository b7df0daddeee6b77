"""Every benchmark metric for every workload, in one command.

    python3 perfbench/summary.py [--seed 1] [--seconds 30]

Runs each workload of BENCHMARK.json in its own process, once untraced (the
end-to-end metrics) and once traced (the per-layer metrics), then the
known-defect probes. Prints each metric with its unit, `failed_ratio`
(failed / attempted ops), the raw timings in seconds, and the tracing
overhead (untraced minus traced ops per kref). Exits 1 if any op of any run failed its exact-output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
from probes import run_probes

RUN_TIMEOUT_S = 600


def bench_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {name} (trace {trace}) exited {proc.returncode}")
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    doc = json.loads(lines[-1])
    doc["notes"] = [ln for ln in lines[:-1] if ln.startswith("#")]
    return doc


def main(argv=None) -> int:
    spec = bench_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)

    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        print(f"== {name}: {wl['why']}")
        plain = run_workload(name, args.seed, args.seconds, 0)
        traced = run_workload(name, args.seed, args.seconds, 1)
        for note in plain["notes"]:
            print(f"   {note}")
        for doc in (plain, traced):
            ok = ok and doc["correct"]
            ratio = doc["failed"] / doc["attempted"]
            print(f"   {'traced' if doc is traced else 'untraced'}: "
                  f"attempted {doc['attempted']}, failed {doc['failed']}, "
                  f"failed_ratio {ratio:.4f}")
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = (plain if m in spec["end_to_end"] else traced)["metrics"][m["name"]]
            print(f"   {m['name']:44s} {got['value']:14.6g} {got['unit']}")
        overhead = (plain["metrics"]["ops_per_kref"]["value"]
                    - traced["metrics"]["trace.ops_per_kref"]["value"])
        print(f"   {'tracing overhead (ops_per_kref - trace.ops_per_kref)':44s} "
              f"{overhead:14.6g} 1/kref")

    run.import_package()
    results = run_probes()
    print("== probes (known defects; a fail here does not fail the benchmark)")
    for name, (passed, detail) in results.items():
        print(f"   {name:44s} {'pass' if passed else 'fail'}  ({detail})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
