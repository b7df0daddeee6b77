"""nondiv benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload sl4-closure --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from `src/` of the
same checkout. Set-up (imports, input generation and fixture files, one
warm-up op) is repeated `SETUP_REPEATS` times and reported as the median
`setup_s`; it is kept out of the op timings. The loop then runs whole rounds
of the workload's op mix until `--seconds` have passed. Each op is timed
alone, and its output is checked outside the timed region.

Op times are reported in units of a reference kernel (`ref`), not seconds.
On a shared 2-core Intel Xeon host the CPU speed wanders by about 20% over
tens of seconds, and a fixed CPU-bound kernel timed in 30 s windows spreads
just as much as the ops do.
So before every op the loop times `reference_kernel`, which is pure
`fractions` arithmetic and uses no code of the program, and each op time is
divided by the run's mean kernel time. A change to the program moves these
figures; a change in machine speed cancels out. The raw figures in seconds
are printed on the line before the result.

`--trace 0` reports the end-to-end metrics. `--trace 1` installs the span
wrappers of `tracing.py`, repeats one fixed traced pass (the first
`TRACE_ROUNDS` rounds) until `--seconds` have passed, and reports the
per-layer metrics per traced pass, so call counts repeat exactly.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 when every op passed its checks, 1 when any failed, and
2 when the benchmark could not start (for instance, no `src/nondiv`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10   # the tail percentile is the highest with this many samples above it


class DigestMismatch(Exception):
    pass


def _fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import nondiv from this checkout's src/; (seconds taken, workloads module)."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import nondiv
    except ImportError as e:
        _fail(f"cannot import nondiv from {ROOT / 'src'}: {e}")
    if Path(nondiv.__file__).resolve().parent != ROOT / "src" / "nondiv":
        _fail(f"nondiv imported from {nondiv.__file__}, not from {ROOT / 'src'}")
    import workloads
    return perf_counter() - t0, workloads


def load_reference(name: str):
    """(digests, expected deltas) stored for the default seed."""
    doc = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    entry = doc["workloads"][name]
    from nondiv.serialize import parse_rat
    expected = {k: parse_rat(v, k) for k, v in entry["delta_sq_pow"].items()}
    return entry["digests"], expected


def reference_kernel():
    """Fixed exact work, about 5 ms: Gauss-Jordan inversion of three 6x6
    Hilbert-type rational matrices with `fractions.Fraction`. It shares no
    code with the program, so only the machine's speed changes its time."""
    n = 6
    for shift in range(3):
        a = [[Fraction(1, i + j + 1 + shift) for j in range(n)]
             + [Fraction(int(i == k)) for k in range(n)] for i in range(n)]
        for c in range(n):
            a[c] = [x / a[c][c] for x in a[c]]
            for r in range(n):
                if r != c:
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND above it."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, 1)   # 1-based nearest rank
    return xs[rank - 1], 100.0 * rank / n, n


class Runner:
    """Runs ops, times them and the reference kernel, and checks every output."""

    def __init__(self, wl, ops, refs, expected, tracer=None):
        self.wl, self.ops, self.refs, self.expected = wl, ops, refs, expected
        self.tracer = tracer
        self.first: dict[int, str] = {}
        self.latencies: list[float] = []
        self.kernel: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0

    def run(self, idx: int):
        op = self.ops[idx]
        self.attempted += 1
        t0 = perf_counter()
        reference_kernel()
        self.kernel.append(perf_counter() - t0)
        try:
            call = self.wl.prepare(op)
            if self.tracer:
                with self.tracer.op("cli.main" if op.kind == "cli" else "op"):
                    t0 = perf_counter()
                    result = call()
                    dt = perf_counter() - t0
            else:
                t0 = perf_counter()
                result = call()
                dt = perf_counter() - t0
            digest = self.wl.verify(op, result, self.expected)
            want = self.refs[idx] if self.refs else self.first.setdefault(idx, digest)
            if digest != want:
                raise DigestMismatch(f"output digest {digest} != reference {want}")
        except Exception:  # every failure is counted and reported, the run goes on
            self.failed += 1
            if self.failed <= 3:
                print(f"# op {idx} ({op.label}) failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return
        if op.kind == "cli":
            self.bytes_out += len(result[1].encode("utf-8"))
        self.latencies.append(dt)

    def loop(self, n_ops: int, unit: int, seconds: float) -> int:
        """Run ops 0..n_ops-1 cyclically, in whole units of `unit` ops, until
        `seconds` have passed; the number of units run."""
        start = perf_counter()
        i = 0
        while True:
            self.run(i % n_ops)
            i += 1
            if i % unit == 0 and perf_counter() - start >= seconds:
                return i // unit

    @property
    def ref_s(self) -> float:
        """The run's mean reference-kernel time: one `ref`."""
        return statistics.fmean(self.kernel)

    def ops_per_kref(self) -> float:
        return 1000 * len(self.latencies) * self.ref_s / sum(self.latencies)


def end_to_end(runner: Runner, setup_s: float) -> dict:
    lat = runner.latencies
    tail_s, pct, n = tail(lat)
    ref = runner.ref_s
    print(f"# {n} timed ops; op_tail is p{pct:.1f} of {n} samples; 1 ref = {ref * 1e3:.3f} ms; "
          f"raw: {len(lat) / sum(lat):.4f} ops/s, p50 {statistics.median(lat) * 1e3:.2f} ms, "
          f"tail {tail_s * 1e3:.2f} ms")
    return {
        "ops_per_kref": (runner.ops_per_kref(), "1/kref"),
        "op_p50_ref": (statistics.median(lat) / ref, "ref"),
        "op_tail_ref": (tail_s / ref, "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner: Runner, passes: int) -> dict:
    from tracing import CHILD, END, START
    tr = runner.tracer
    calls, self_s = tr.totals()

    def per_pass(x):
        return x / passes

    steps = calls["pushout.step"]
    rechecks = tr.rechecks()
    m = {
        "lattice.m_closure.calls": calls["lattice.m_closure"],
        "lattice.m_closure.self_s": self_s["lattice.m_closure"],
        "lattice.covolume_sq.calls": tr.calls["lattice.covolume_sq"],
        "lattice.is_m_stable.calls": tr.calls["lattice.is_m_stable"],
        "ratlin.span_contains.calls": tr.calls["ratlin.span_contains"],
        "ratlin.rat_rank.calls": tr.calls["ratlin.rat_rank"],
        "ratlin.hnf.calls": tr.calls["ratlin.hnf"],
        "ratlin.mat_mul.calls": tr.calls["ratlin.mat_mul"],
        "ratlin.self_s": tr.module_s,
        "enumeration.lll_reduce_gram.calls": calls["enumeration.lll_reduce_gram"],
        "enumeration.lll_reduce_gram.self_s": self_s["enumeration.lll_reduce_gram"],
        "enumeration.enumerate.calls": calls["enumeration.enumerate"],
        "enumeration.enumerate.vectors": tr.vectors,
        "enumeration.enumerate.self_s": self_s["enumeration.enumerate"],
        "enumeration.quotient.calls": calls["enumeration.quotient"],
        "enumeration.quotient.self_s": self_s["enumeration.quotient"],
        "enumeration.rational_roots.calls": calls["enumeration.rational_roots"],
        "enumeration.rational_roots.self_s": self_s["enumeration.rational_roots"],
        "enumeration.common_eigenspace_bases.self_s":
            self_s["enumeration.common_eigenspace_bases"],
        "enumeration.delta_m.calls": calls["enumeration.delta_m"],
        "pushout.protect.calls": calls["pushout.protect"],
        "pushout.protect.self_s": self_s["pushout.protect"],
        "pushout.expansion_element.calls": calls["pushout.expansion_element"],
        "pushout.expansion_element.self_s": self_s["pushout.expansion_element"],
        "pushout.recheck.calls": len(rechecks),
        "pushout.recheck.self_s": sum(r[END] - r[START] - r[CHILD] for r in rechecks),
        "pushout.recheck.total_s": sum(r[END] - r[START] for r in rechecks),
        "pushout.steps": steps,
        "exterior.self_s": self_s["exterior"],
        "serialize.load.self_s": self_s["serialize.load"],
        "serialize.emit.self_s": self_s["serialize.emit"],
        "serialize.bytes_out": runner.bytes_out,
        "cli.self_s": self_s["cli.main"],
    }
    units = {"calls": "count", "self_s": "s", "total_s": "s", "vectors": "count",
             "steps": "count", "bytes_out": "bytes"}
    out = {k: (per_pass(v), units[k.rsplit(".", 1)[1]]) for k, v in m.items()}
    out["lattice.m_closure.distinct_ratio"] = (
        len(tr.closures) / calls["lattice.m_closure"] if calls["lattice.m_closure"] else 0.0,
        "ratio")
    out["pushout.protect_per_step"] = (
        calls["pushout.protect"] / steps if steps else 0.0, "ratio")
    out["trace.ops_per_kref"] = (runner.ops_per_kref(), "1/kref")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_s, workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    refs, expected = load_reference(wl.name)
    if args.seed != workloads.DEFAULT_SEED:
        refs = None

    workdir = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            ops = wl.make_ops(args.seed, str(workdir))
            warm = Runner(wl, [wl.warmup(str(workdir))], None, expected)
            warm.run(0)
            if warm.failed:
                _fail("the warm-up op failed")
            setups.append(import_s + perf_counter() - t0)

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        runner = Runner(wl, ops, refs, expected, tracer)
        try:
            round_len = len(ops) // wl.ROUNDS
            if tracer:
                n = wl.TRACE_ROUNDS * round_len
                metrics = per_layer(runner, runner.loop(n, n, args.seconds))
            else:
                runner.loop(len(ops), round_len, args.seconds)
                metrics = end_to_end(runner, statistics.median(setups))
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
