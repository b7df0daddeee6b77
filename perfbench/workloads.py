"""Seeded workloads, the ops they run, and the exact checks on each result.

A workload is a fixed op mix: one *round* lists every op type of the mix in
a fixed order and proportion. The seed varies only the inputs inside the
mix (random unimodular rebases, and where the mix allows, one scale exponent
or the output format), never the mix itself, so every seed stresses the same
layers in the same proportions. `make_ops` builds `ROUNDS` rounds; a run
cycles through them. Every op gets a fresh lattice object and a cleared
generator cache, so a repeated input costs what its first run did.

Checks, applied to every op of every seed:
  * invariants: the search is complete, a drive reaches its floor with each
    step's exact growth at least its a priori factor, the CLI exits 0, and
    a delta equals the value of the un-rebased lattice (delta is a lattice
    invariant, so a rebase must not change it);
  * byte identity: the output digest equals the stored reference digest for
    the default seed, and for any other seed the digest of the same input's
    first run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F

import nondiv
from nondiv import ratlin as rl
from nondiv import serialize as se
from nondiv.cli import main as cli_main
from nondiv.lattice import (conjugated_generators, covolume_sq, make_lattice,
                            trivial_scenario)
from nondiv.pushout import PushoutConfig, Terminated
from nondiv.samples import (diagonal_lattice, sl4_so21_scenario,
                            sl4_torus_lattice, squash_lattice_2d)

DEFAULT_SEED = 1


class CheckFailed(Exception):
    """An op's output broke an invariant or differs from its reference."""


@dataclass(frozen=True)
class Op:
    kind: str            # "delta" | "drive" | "cli"
    label: str           # op type within the mix
    basis: tuple         # lattice basis rows
    eta0: F | None = None
    argv: tuple = ()


def _unimodular(rng: random.Random, n: int, shears: int) -> list[list[int]]:
    """Identity after up to `shears` random unit row operations."""
    m = [list(r) for r in rl.identity(n)]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-1, 1)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def _rebase(basis, rng: random.Random, shears: int) -> tuple:
    """The same lattice on another basis: basis · U with U unimodular."""
    u = _unimodular(rng, len(basis), shears)
    return rl.rat_matrix(rl.mat_mul(basis, [[F(x) for x in r] for r in u]))


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:32]


def _lattice_file(basis, path: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(se.dumps_json(se.lattice_to_dict(make_lattice(basis))))
    return path


class Workload:
    name = ""
    ROUNDS = 1          # rounds in one seed's op list
    TRACE_ROUNDS = 1    # rounds in one traced pass
    scenario = None

    def round(self, rng: random.Random, r: int, workdir: str) -> list[Op]:
        """Round number r of the mix; ops that read files get them in workdir."""
        raise NotImplementedError

    def warmup(self, workdir: str) -> Op:
        raise NotImplementedError

    def base_lattices(self) -> dict:
        """Un-rebased lattice per delta op label, for the expected delta values."""
        return {}

    def make_ops(self, seed: int, workdir: str) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for r in range(self.ROUNDS):
            ops.extend(self.round(rng, r, workdir))
        return ops

    # -- running and checking -------------------------------------------

    def prepare(self, op: Op):
        """Untimed: build the op's inputs and return the call to time."""
        conjugated_generators.cache_clear()
        if op.kind == "cli":
            return lambda: _run_cli(op.argv)
        # looked up at call time, so a traced run reaches the wrapped entry points
        lat = make_lattice(op.basis)
        if op.kind == "delta":
            return lambda: (lat, nondiv.delta_m(lat, self.scenario))
        cfg = PushoutConfig(eta0_override=op.eta0)
        return lambda: (lat, nondiv.drive(lat, self.scenario, cfg))

    def verify(self, op: Op, result, expected_delta: dict) -> str:
        """Check the invariants of one result and return its digest."""
        if op.kind == "delta":
            return _check_delta(*result, expected_delta.get(op.label))
        if op.kind == "drive":
            return _check_drive(result[1])
        return _check_cli(op, *result)


def _run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _check_delta(lat, d, expected: F | None) -> str:
    _require(d.complete, "delta search incomplete")
    if expected is not None:
        _require(d.delta_sq_pow == expected, "delta differs from the un-rebased lattice's")
    covol = covolume_sq(lat, d.witness)
    _require(covol == d.witness_covol_sq, "witness covolume mismatch")
    _require(covol ** (d.lcm_pow // d.witness.dim) == d.delta_sq_pow,
             "delta_sq_pow is not the witness's covolume power")
    return _digest(json.dumps({"witness_hnf": [list(r) for r in d.witness.rows],
                               "delta_sq_pow": se.rat_str(d.delta_sq_pow)}))


def _check_drive(cert) -> str:
    _require(cert.terminated is Terminated.REACHED_ETA0, f"drive ended {cert.terminated}")
    _require(cert.initial_delta.complete and cert.final_delta.complete,
             "drive delta incomplete")
    _require(len(cert.steps) >= 1, "drive took no step")
    for st in cert.steps:
        _require(st.qpow_ratio >= st.growth_qpow_factor, "step grew less than its factor")
    _require(cert.final_delta.delta_sq_pow >= cert.eta0_sq ** cert.final_delta.lcm_pow,
             "final delta below the floor")
    return _digest(se.dumps_json(se.certificate_to_dict(cert)))


def _check_cli(op: Op, code: int, out: str) -> str:
    _require(code == 0, f"CLI exit code {code}")
    if "csv" in op.argv:
        rows = list(csv.reader(io.StringIO(out)))
        _require(rows[0] == se.CSV_HEADER, "CSV header")
        deltas = [F(int(r[1]), int(r[2])) for r in rows[1:]]
    else:
        doc = se.parse_certificate_json(out)
        _require(doc["terminated"] == "ReachedEta0", f"drive ended {doc['terminated']}")
        _require(doc["initial"]["complete"] and doc["final"]["complete"],
                 "drive delta incomplete")
        _require(doc["final"]["delta_sq_pow"] >= doc["eta0_sq"] ** doc["final"]["lcm_pow"],
                 "final delta below the floor")
        deltas = [s["delta_sq_pow"] for s in doc["steps"]]
    _require(len(deltas) >= 1, "drive took no step")
    _require(all(a < b for a, b in zip(deltas, deltas[1:])), "delta did not grow each step")
    return _digest(out)


# -- the workloads ----------------------------------------------------------

class Sl4Closure(Workload):
    """delta_m and drive on the SL4 / SO(2,1) scenario, where M-closure dominates."""

    name = "sl4-closure"
    ROUNDS = 10
    TRACE_ROUNDS = 2
    scenario = sl4_so21_scenario()
    # (kind, t, eta0). delta at t=2 three times and the t=4 drive twice, so
    # that the median and the tail each land inside a cluster of op costs.
    MIX = [("delta", F(2), None)] * 3 + [("delta", F(4), None)] + [
        ("drive", F(4), F(1, 2))] * 2 + [
        ("drive", F(1, 2), F(1, 4)), ("drive", F(1, 4), F(1, 4)), ("drive", F(1, 8), F(1, 4))]

    def round(self, rng, r, workdir):
        return [Op(kind, f"{kind} t={t}", _rebase(sl4_torus_lattice(t).basis, rng, 4), eta0)
                for kind, t, eta0 in self.MIX]

    def warmup(self, workdir):
        return Op("delta", "delta t=2", sl4_torus_lattice(2).basis)

    def base_lattices(self):
        return {"delta t=2": sl4_torus_lattice(2), "delta t=4": sl4_torus_lattice(4)}


class SquashCli(Workload):
    """CLI drives of N=2 squashes and N=3 deep squashes, trivial group."""

    name = "squash-cli"
    ROUNDS = 10
    TRACE_ROUNDS = 1
    scenario = trivial_scenario(2)

    def round(self, rng, r, workdir):
        # N=3 twice per round (json and csv), so the median is an N=3 drive.
        # The N=3 middle scale 2^e walks through e = -2..2 in a fixed order,
        # because it changes the drive's length; the seed draws the rebases.
        specs = [(f"n2 k={k}", squash_lattice_2d(F(1, 2 ** k)).basis,
                  rng.choice(("json", "csv"))) for k in range(5, 13)]
        for a in range(26, 35):
            for j, fmt in enumerate(("json", "csv")):
                mid = F(2) ** ((a + 2 * r + j) % 5 - 2)
                specs.append((f"n3 a={a}", diagonal_lattice(F(1, 2 ** a), mid,
                                                            2 ** a / mid).basis, fmt))
        ops = []
        for i, (label, basis, fmt) in enumerate(specs):
            rebased = _rebase(basis, rng, 4)
            path = _lattice_file(rebased, os.path.join(workdir, f"r{r:02d}-{i:02d}.json"))
            ops.append(Op("cli", label, rebased,
                          argv=("drive", "--lattice", path, "--format", fmt)))
        return ops

    def warmup(self, workdir):
        basis = squash_lattice_2d(F(1, 64)).basis
        path = _lattice_file(basis, os.path.join(workdir, "warmup.json"))
        return Op("cli", "n2 k=6", basis, argv=("drive", "--lattice", path, "--format", "json"))


class TrivialHd(Workload):
    """delta_m in dimension 5 with the trivial group: LLL and enumeration dominate."""

    name = "trivial-hd"
    ROUNDS = 30
    TRACE_ROUNDS = 6
    scenario = trivial_scenario(5)
    # Exponents e of the dyadic diagonal 2^e: m=1 has one +1 and one -1, m=2
    # two of each. Op cost depends on where they sit, so the rounds walk
    # through every arrangement in a fixed order and the seed draws only
    # the shears.
    M1 = sorted(set(itertools.permutations((1, -1, 0, 0, 0))))
    M2 = sorted(set(itertools.permutations((1, 1, -1, -1, 0))))

    def round(self, rng, r, workdir):
        exps = [("m=1", self.M1[r % len(self.M1)]),
                ("m=2", self.M2[2 * r % len(self.M2)]),
                ("m=2", self.M2[(2 * r + 1) % len(self.M2)])]
        return [Op("delta", label, _rebase(diagonal_lattice(*(F(2) ** x for x in e)).basis,
                                           rng, 3))
                for label, e in exps]

    def warmup(self, workdir):
        return Op("delta", "m=1", diagonal_lattice(F(1, 2), 1, 1, 1, 2).basis)

    def base_lattices(self):
        return {"m=1": diagonal_lattice(F(1, 2), 1, 1, 1, 2),
                "m=2": diagonal_lattice(F(1, 2), F(1, 2), 1, 2, 2)}


WORKLOADS = {w.name: w for w in (Sl4Closure(), SquashCli(), TrivialHd())}
