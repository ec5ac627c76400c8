"""The three benchmark workloads: inputs from a seed, one call, output checks.

Every workload calls a public entry point of ``hmm_spde`` and nothing else.
A *job* is a fixed ensemble of calls, one per seed derived from the
benchmark seed; the package receives only those seeds and the configs below.
Each call's outputs are checked and hashed, and the job digest is the
SHA-256 of the per-call digests in order.

* ``strong_m``: the C05 replica sweep (``strong_error_experiment`` over
  M = 1, 4, 16, 64 on p1, K = 63).  Noise-bound: every estimator call keys
  one Philox stream per replica and maps each Gaussian through ``ndtri``;
  g = 0 leaves the spectral layer nearly idle.  Low M exposes per-seed
  solver overhead, high M the vectorised replica arithmetic.
* ``averaging``: the C09 direct-solver trend (``averaging_experiment`` over
  eps = 0.1, 0.03, 0.01 on p1, K = 15) plus its Gauss-Hermite reference.
  Transform-bound on single K = 15 rows: three DST-I calls and one f call
  per coupled step; noise is drawn in bulk and is a small share.
* ``cli_ensemble``: in-process ``hmm-spde hmm run`` on p2 (g = 4 sin y),
  K = 63, M = 16 over many seeds, the "parallelize externally" pattern.
  Batched (16, 63) transforms and g calls per micro step, many small keyed
  noise draws, plus argparse and CSV/JSON writing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Checked:
    """Outcome of checking one call: operations checked, failed, digest."""

    ops: int
    failed: int
    digest: bytes
    problems: tuple[str, ...] = ()
    bytes_written: int = 0


def derive_seeds(workload: str, bench_seed: int, count: int) -> list[int]:
    """Package seeds for one job, a pure function of (workload, bench seed)."""
    rng = random.Random(f"perfbench/{workload}/{bench_seed}")
    return [rng.getrandbits(62) for _ in range(count)]


def macro_steps(T: float, macro_dt: float) -> int:
    """n_0: whole macro steps in [0, T]."""
    return math.floor(T / macro_dt + 1e-12)


def replica_steps(T: float, macro_dt: float, M: int, n_T: int, N: int) -> int:
    """n_0 * M * m_0 replica micro steps of one run, with m_0 = n_T + N - 1."""
    return macro_steps(T, macro_dt) * M * (n_T + N - 1)


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _report_bytes(report) -> bytes:
    rows = np.array([[r.value, r.error, r.mc_stderr, r.n_samples] for r in report.rows])
    fit = np.array([report.slope, report.ci_low, report.ci_high, report.n_rows_used])
    return rows.tobytes() + fit.tobytes()


def _check_rows(report, values, n_samples, label) -> list[str]:
    """One problem string per failed sweep row (empty when all pass)."""
    problems = []
    if len(report.rows) != len(values):
        return [f"{label}: {len(report.rows)} rows, expected {len(values)}"] * len(values)
    for row, v in zip(report.rows, values):
        if row.value != v:
            problems.append(f"{label}: row value {row.value} != {v}")
        elif row.n_samples != n_samples:
            problems.append(f"{label}: row {v} has n_samples {row.n_samples} != {n_samples}")
        elif not _finite(row.error, row.mc_stderr) or row.error < 0:
            problems.append(f"{label}: row {v} not finite ({row.error}, {row.mc_stderr})")
    return problems


class StrongM:
    name = "strong_m"
    entry = "experiments.strong_error_experiment"
    calls_per_job = 8
    sweep_values = (1, 4, 16, 64)
    config = dict(problem="p1", K=63, T=0.3, macro_dt=0.1, tau=1e-4, N=1, n_T=50,
                  epsilon=1e-6, n_seeds=2)
    ops_per_call = len(sweep_values)
    step_unit = "replica micro steps"
    step_counter = "micro.replica_steps"

    def steps_per_call(self) -> int:
        c = self.config
        return c["n_seeds"] * sum(
            replica_steps(c["T"], c["macro_dt"], M, c["n_T"], c["N"])
            for M in self.sweep_values
        )

    def invoke(self, pkg, seed: int, out_dir: Path):
        return pkg.experiments.strong_error_experiment(
            sweep="M", sweep_values=self.sweep_values, seed=seed, **self.config
        )

    def check(self, report, seed: int, out_dir: Path) -> Checked:
        problems = _check_rows(report, [float(v) for v in self.sweep_values],
                               self.config["n_seeds"], self.name)
        digest = hashlib.sha256(_report_bytes(report)).digest()
        return Checked(self.ops_per_call, len(problems), digest, tuple(problems))


class Averaging:
    name = "averaging"
    entry = "experiments.averaging_experiment"
    calls_per_job = 8
    eps_values = (1e-1, 3e-2, 1e-2)
    # tau_direct and the reference step size the call to ~0.1 s so that a run
    # holds enough calls for a p90 with ten samples beyond it
    config = dict(problem="p1", K=15, T=0.5, tau_direct=0.1, n_seeds=2,
                  reference_fine_dt=0.5 / 64)
    ops_per_call = 2 * len(eps_values)
    step_unit = "coupled steps"
    step_counter = "direct.steps"

    def steps_per_call(self) -> int:
        c = self.config
        eps = np.asarray(sorted(self.eps_values, reverse=True), float)
        # same arithmetic as run_direct: ceil(T/dt) with dt = eps * tau_direct
        return c["n_seeds"] * sum(
            math.ceil(c["T"] / (e * c["tau_direct"]) - 1e-12) for e in eps
        )

    def invoke(self, pkg, seed: int, out_dir: Path):
        return pkg.experiments.averaging_experiment(
            eps_values=self.eps_values, seed=seed, **self.config
        )

    def check(self, rep, seed: int, out_dir: Path) -> Checked:
        values = sorted(self.eps_values, reverse=True)
        n = self.config["n_seeds"]
        problems = (_check_rows(rep.strong, values, n, "averaging")
                    + _check_rows(rep.weak, values, n, "averaging_weak"))
        gap = np.array([rep.strong.meta["richardson_gap"]])
        if not _finite(gap):
            problems.append("averaging: reference Richardson gap not finite")
        payload = _report_bytes(rep.strong) + _report_bytes(rep.weak) + gap.tobytes()
        return Checked(self.ops_per_call, min(len(problems), self.ops_per_call),
                       hashlib.sha256(payload).digest(), tuple(problems))


class CliEnsemble:
    name = "cli_ensemble"
    entry = "cli.main"
    calls_per_job = 16
    flags = dict(problem="p2", K=63, epsilon=1e-4, dt=0.05, ddt=1e-6, M=16, N=8,
                 nT=25, T=0.5)
    ops_per_call = 1
    step_unit = "replica micro steps"
    step_counter = "micro.replica_steps"

    def steps_per_call(self) -> int:
        f = self.flags
        return replica_steps(f["T"], f["dt"], f["M"], f["nT"], f["N"])

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        argv = ["hmm", "run"]
        for k, v in self.flags.items():
            argv += [f"--{k}", str(v)]
        return argv + ["--seed", str(seed), "--out-dir", str(out_dir)]

    def invoke(self, pkg, seed: int, out_dir: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            return pkg.cli.main(self.argv(seed, out_dir))

    def check(self, status, seed: int, out_dir: Path) -> Checked:
        n_0 = macro_steps(self.flags["T"], self.flags["dt"])
        K = self.flags["K"]
        try:
            csv_bytes = (out_dir / "hmm_trajectory.csv").read_bytes()
            json_bytes = (out_dir / "hmm_cost.json").read_bytes()
        except OSError as exc:
            return Checked(1, 1, b"", (f"cli output missing: {exc}",))
        problems = [] if status == 0 else [f"cli returned {status}"]
        lines = csv_bytes.decode().splitlines()
        if len(lines) != n_0 + 2:
            problems.append(f"trajectory has {len(lines) - 1} rows, expected {n_0 + 1}")
        else:
            table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            if table.shape != (n_0 + 1, K + 2) or not _finite(table):
                problems.append("trajectory table malformed or not finite")
        cost = json.loads(json_bytes)
        want = self.steps_per_call()
        if cost.get("total_micro_steps") != want:
            problems.append(f"total_micro_steps {cost.get('total_micro_steps')} != {want}")
        if cost.get("seed") != seed:
            problems.append(f"cost file seed {cost.get('seed')} != {seed}")
        return Checked(1, int(bool(problems)), hashlib.sha256(csv_bytes + json_bytes).digest(),
                       tuple(problems), len(csv_bytes) + len(json_bytes))


WORKLOADS = {w.name: w for w in (StrongM(), Averaging(), CliEnsemble())}
