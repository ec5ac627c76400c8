"""Job timing, output checks, per-layer aggregation and the result line.

``run.py`` pins the thread pools and calls :func:`main`; the self-tests in
``test_perfbench.py`` call the pieces below directly.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGEST_FILE = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 4

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "run_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# per-layer metrics of the result line: each is an exact count or ratio of
# counts, or a time that is nonzero on every workload
PER_LAYER_UNITS = {
    "noise.draw_calls": "count",
    "noise.normals": "count",
    "noise.draw_s": "s",
    "noise.ns_per_normal": "ns",
    "spectral.transform_calls": "count",
    "spectral.transform_rows": "count",
    "spectral.transform_s": "s",
    "spectral.us_per_call": "us",
    "spectral.euler_s": "s",
    "coefficients.f_calls": "count",
    "coefficients.g_calls": "count",
    "coefficients.points": "count",
    "coefficients.s": "s",
    "micro.step_calls": "count",
    "micro.replica_steps": "count",
    "micro.rows_per_call": "rows",
    "micro.self_s": "s",
    "hmm.macro_steps": "count",
    "hmm.window_share": "frac",
    "direct.steps": "count",
    "averaging.oracle_calls": "count",
    "experiments.solves": "count",
    "cli.invocations": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "frac",
}
# self times of layers only some workloads use: they read exactly 0 on the
# others, so they are reported in the notes and the trace file only
NOTE_ONLY_UNITS = {
    "hmm.self_s": "s",
    "direct.self_s": "s",
    "averaging.s": "s",
    "experiments.self_s": "s",
    "cli.self_s": "s",
}


def import_package():
    """Import hmm_spde from this checkout's src/, never from site-packages."""
    if not (SRC / "hmm_spde" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'hmm_spde'}; "
                         "run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("hmm_spde")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported hmm_spde from {pkg.__file__}, not {SRC}")
    for mod in ("hmm", "micro", "direct", "averaging", "experiments", "cli"):
        importlib.import_module(f"hmm_spde.{mod}")
    return pkg


class Bench:
    """One workload's fixed job: the calls' seeds and output directories."""

    def __init__(self, pkg, workload, bench_seed: int, run_dir: Path):
        self.pkg = pkg
        self.w = workload
        seeds = workloads.derive_seeds(workload.name, bench_seed, workload.calls_per_job + 1)
        self.warmup_seed = seeds.pop()
        self.seeds = seeds
        self.slots = [run_dir / f"call{i:02d}" for i in range(len(seeds))]
        for slot in self.slots:
            slot.mkdir(parents=True, exist_ok=True)
        self.steps_per_job = workload.steps_per_call() * len(seeds)

    def warm_up(self) -> None:
        """One call outside the job, so lazy set-up finishes before timing.
        Its output is not checked; the job's calls are."""
        try:
            self.w.invoke(self.pkg, self.warmup_seed, self.slots[0])
        except Exception:  # the job's calls will fail and be counted
            traceback.print_exc()

    def run_job(self, tracer: spans.Tracer | None = None) -> dict:
        """Run the job once, timing each call; check the outputs afterwards."""
        for slot in self.slots:
            for f in slot.iterdir():
                f.unlink()
        results, latencies = [], []
        t_job = time.perf_counter()
        for seed, slot in zip(self.seeds, self.slots):
            t = time.perf_counter()
            try:
                if tracer is None:
                    out = self.w.invoke(self.pkg, seed, slot)
                else:
                    out = tracer.call(self.w.entry, self.w.invoke, self.pkg, seed, slot)
            except Exception:  # a call that raises fails its operations
                traceback.print_exc()
                out = None
            latencies.append(time.perf_counter() - t)
            results.append(out)
        wall = time.perf_counter() - t_job

        ops = failed = written = 0
        digests, problems = [], []
        failure = workloads.Checked(self.w.ops_per_call, self.w.ops_per_call, b"",
                                    ("call or check raised",))
        for out, seed, slot in zip(results, self.seeds, self.slots):
            c = failure
            if out is not None:
                try:
                    c = self.w.check(out, seed, slot)
                except Exception:  # malformed output fails its operations
                    traceback.print_exc()
            ops += c.ops
            failed += c.failed
            written += c.bytes_written
            digests.append(c.digest)
            problems += c.problems
        return dict(wall=wall, latencies=latencies, ops=ops, failed=failed,
                    digest=hashlib.sha256(b"".join(digests)).hexdigest(),
                    problems=problems, bytes_written=written)


def measure(bench: Bench, seconds: float) -> list[dict]:
    """Repeat the untraced job until ``seconds`` have passed (at least once)."""
    deadline = time.perf_counter() + seconds
    jobs = [bench.run_job()]
    while time.perf_counter() < deadline:
        jobs.append(bench.run_job())
    return jobs


def traced_job(bench: Bench, tracer: spans.Tracer) -> dict:
    """Run the job once with wrappers installed; add its counts and solves."""
    before = Counter(tracer.counts)
    first_solve = tracer.solve_id + 1
    patches = spans.install(tracer, bench.pkg)
    try:
        job = bench.run_job(tracer)
    finally:
        patches.restore()
    tracer.counts["cli.bytes_written"] += job["bytes_written"]
    job["counts"] = dict(Counter(tracer.counts) - before)
    job["solves"] = (first_solve, tracer.solve_id + 1)
    return job


def tally(jobs: list[dict], expected_digest: str) -> tuple[int, int, list[str]]:
    """Operations checked and failed.  A job whose digest differs from the
    expected one fails all its operations."""
    attempted = failed = 0
    problems: list[str] = []
    for job in jobs:
        attempted += job["ops"]
        if job["digest"] != expected_digest:
            failed += job["ops"]
            problems.append(f"job digest {job['digest'][:16]} != expected "
                            f"{expected_digest[:16]}")
        else:
            failed += job["failed"]
        problems += job["problems"]
    return attempted, failed, problems


def expected_digest(workload: str, bench_seed: int, first_job: dict) -> str:
    """The committed digest at the default seed, else the run's first job."""
    if bench_seed == DEFAULT_SEED:
        return json.loads(DIGEST_FILE.read_text())["digests"][workload]
    return first_job["digest"]


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args, pkg, pinned: tuple[str, ...]) -> dict:
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hmm_spde": pkg.__version__,
        "threads": {v: os.environ.get(v) for v in pinned},
        "git_commit": git_commit(),
    }


def probe_setup(args) -> float:
    """setup_s of a fresh interpreter that only sets up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def job_time(per_call: np.ndarray) -> float:
    """Time of the job from a (repeats, calls) matrix of per-call times: the
    sum over calls of each call's 90th percentile across repeats.

    The shared host alternates between a contended and an uncontended speed
    within seconds, and the share of fast moments differs from run to run;
    medians follow that share, while the 90th percentile stays on the
    steadier contended speed (see README.md, "Statistics")."""
    return float(np.percentile(per_call, 90, axis=0).sum())


def end_to_end(args, bench: Bench, setup_s: float):
    """Untraced jobs for ``--seconds``: the end-to-end metrics."""
    if spans.installed_wrappers(bench.pkg):
        raise SystemExit("perfbench: wrappers installed in an untraced run")
    jobs = measure(bench, args.seconds)
    attempted, failed, problems = tally(
        jobs, expected_digest(args.workload, args.seed, jobs[0]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    latencies = np.array([j["latencies"] for j in jobs])
    wall = job_time(latencies)
    lat_ms = 1e3 * latencies.ravel()
    values = {
        "wall_s": wall,
        "steps_per_s": bench.steps_per_job / wall,
        "run_p90_ms": float(np.percentile(lat_ms, 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "run_p50_ms": float(np.percentile(lat_ms, 50)),
        "job_median_s": statistics.median(j["wall"] for j in jobs),
        "jobs": len(jobs),
        "calls_per_job": len(bench.seeds),
        "latency_samples": int(lat_ms.size),
        "samples_beyond_p90": int((lat_ms > values["run_p90_ms"]).sum()),
        "steps_per_job": bench.steps_per_job,
        "step_unit": bench.w.step_unit,
        "setup_samples_s": setups,
        "digest": jobs[0]["digest"],
    }
    return values, END_TO_END_UNITS, notes, attempted, failed, problems


def self_time_by_call(tracer: spans.Tracer, jobs: list[dict]) -> dict[str, np.ndarray]:
    """Per span name, a (jobs, calls) matrix of self times; one solve is one call."""
    cols = tracer.columns()
    _, self_t = spans.self_times(cols)
    n_names = len(tracer.names)
    n_solves = tracer.solve_id + 1
    per_solve = np.bincount(cols["solve"] * n_names + cols["code"], weights=self_t,
                            minlength=n_solves * n_names).reshape(n_solves, n_names)
    rows = np.array([np.arange(*j["solves"]) for j in jobs])
    return {name: per_solve[rows, code] for code, name in enumerate(tracer.names)}


def span_problems(cols: dict[str, np.ndarray]) -> list[str]:
    """Self times must be non-negative and within the parent's span."""
    dur, self_t = spans.self_times(cols)
    parent = cols["parent"]
    child = parent >= 0
    problems = []
    if (self_t < -1e-9).any():
        problems.append("a span has negative self time")
    if (self_t[child] > dur[parent[child]] + 1e-9).any():
        problems.append("a span's self time exceeds its parent span")
    return problems


def per_layer(args, bench: Bench):
    """Untraced and traced jobs in turn: the per-layer metrics.

    Alternating puts both kinds of job under the same machine conditions,
    so their ratio is the tracing overhead."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        if spans.installed_wrappers(bench.pkg):
            raise SystemExit("perfbench: wrappers installed for an untraced job")
        untraced.append(bench.run_job())
        traced.append(traced_job(bench, tracer))

    expected = expected_digest(args.workload, args.seed, untraced[0])
    attempted, failed, problems = tally(untraced + traced, expected)
    counts = traced[0]["counts"]
    checks = span_problems(tracer.columns())
    if spans.installed_wrappers(bench.pkg):
        checks.append("wrappers left installed after the traced jobs")
    if any(j["counts"] != counts for j in traced):
        checks.append("per-layer counts differ between traced jobs")
    stepped = counts.get(bench.w.step_counter, 0)
    if stepped != bench.steps_per_job:
        checks.append(f"traced {bench.w.step_counter} {stepped} != "
                      f"expected {bench.steps_per_job}")
    if checks:
        failed = attempted
        problems += checks

    by_name = self_time_by_call(tracer, traced)
    layer_names: dict[str, list[str]] = {}
    for name in tracer.names:
        layer_names.setdefault(spans.layer_of(name), []).append(name)

    def names_s(*names) -> float:
        """Self time of these spans in one job, the way wall_s times a job."""
        present = [by_name[n] for n in names if n in by_name]
        return job_time(sum(present)) if present else 0.0

    def layer_s(layer) -> float:
        return names_s(*layer_names.get(layer, ()))

    def c(name):
        return counts.get(name, 0)

    draw_s = layer_s("noise")
    transform_s = names_s("spectral.to_grid", "spectral.to_spectral")
    untraced_s = job_time(np.array([j["latencies"] for j in untraced]))
    traced_s = job_time(np.array([j["latencies"] for j in traced]))
    values = {
        "noise.draw_calls": c("noise.draw_calls"),
        "noise.normals": c("noise.normals"),
        "noise.draw_s": draw_s,
        "noise.ns_per_normal": 1e9 * draw_s / max(c("noise.normals"), 1),
        "spectral.transform_calls": c("spectral.transform_calls"),
        "spectral.transform_rows": c("spectral.transform_rows"),
        "spectral.transform_s": transform_s,
        "spectral.us_per_call": 1e6 * transform_s / max(c("spectral.transform_calls"), 1),
        "spectral.euler_s": names_s("spectral.implicit_euler_step"),
        "coefficients.f_calls": c("coefficients.f_calls"),
        "coefficients.g_calls": c("coefficients.g_calls"),
        "coefficients.points": c("coefficients.points"),
        "coefficients.s": layer_s("coefficients"),
        "micro.step_calls": c("micro.step_calls"),
        "micro.replica_steps": c("micro.replica_steps"),
        "micro.rows_per_call": c("micro.replica_steps") / max(c("micro.step_calls"), 1),
        "micro.self_s": layer_s("micro"),
        "hmm.macro_steps": c("hmm.macro_steps"),
        "hmm.window_share": (c("hmm.window_replica_steps")
                             / max(c("hmm.estimator_replica_steps"), 1)),
        "direct.steps": c("direct.steps"),
        "averaging.oracle_calls": c("averaging.oracle_calls"),
        "experiments.solves": c("experiments.solves"),
        "cli.invocations": c("cli.invocations"),
        "cli.bytes_written": c("cli.bytes_written"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    layers = {layer: layer_s(layer) for layer in sorted(layer_names)}
    notes = {
        "untraced_jobs": len(untraced),
        "traced_jobs": len(traced),
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "spans": len(tracer.code),
        "counts_per_job": dict(sorted(counts.items())),
        "self_s_per_job_by_layer": layers,
        "largest_self_time_layer": max(layers, key=layers.get),
        "note_only": {name: {"value": layer_s(spans.layer_of(name)), "unit": unit}
                      for name, unit in NOTE_ONLY_UNITS.items()},
        "digest": untraced[0]["digest"],
        "traced_digest": traced[0]["digest"],
    }
    trace_file = OUT_DIR / f"trace-{args.workload}.npz"
    np.savez_compressed(trace_file, names=np.array(tracer.names), **tracer.columns())
    notes["trace_file"] = str(trace_file.relative_to(ROOT))
    return values, PER_LAYER_UNITS, notes, attempted, failed, problems


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="hmm-spde benchmark: one workload per run")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(started: float, pinned: tuple[str, ...], argv=None) -> int:
    """Run one workload.  ``started`` is when the process began setting up,
    ``pinned`` the thread-pool variables ``run.py`` set before numpy loaded."""
    args = parse_args(argv)
    pkg = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    try:
        bench = Bench(pkg, workloads.WORKLOADS[args.workload], args.seed, run_dir)
        bench.warm_up()
        setup_s = time.perf_counter() - started
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(args, pkg, pinned)
        if args.trace:
            values, units, notes, attempted, failed, problems = per_layer(args, bench)
        else:
            values, units, notes, attempted, failed, problems = end_to_end(
                args, bench, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    notes["failed_frac"] = failed / attempted
    for msg in problems[:20]:
        print(f"problem: {msg}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.6g}")
    for name, value in values.items():
        print(f"{name:26s} {value:.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "notes": notes, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0
