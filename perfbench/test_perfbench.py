"""Self-tests of the benchmark: tracing, digests and the result contract.

    python -m pytest perfbench -q

These import the package from ``src/`` as the benchmark does.  They run
full jobs, so they take about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import spans
import workloads

PKG = harness.import_package()
NAMES = sorted(workloads.WORKLOADS)


def _bench(name, seed, tmp_path):
    return harness.Bench(PKG, workloads.WORKLOADS[name], seed, tmp_path / name)


def _traced_jobs(bench, n=2):
    tracer = spans.Tracer()
    return tracer, [harness.traced_job(bench, tracer) for _ in range(n)]


def test_untraced_run_installs_no_wrapper():
    assert spans.installed_wrappers(PKG) == []
    patches = spans.install(spans.Tracer(), PKG)
    try:
        assert "hmm.draw_increments" in spans.installed_wrappers(PKG)
        assert "cli.run_hmm" in spans.installed_wrappers(PKG)
    finally:
        patches.restore()
    assert spans.installed_wrappers(PKG) == []


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_and_digests_match(name, tmp_path):
    bench = _bench(name, harness.DEFAULT_SEED, tmp_path)
    untraced = bench.run_job()
    committed = json.loads(harness.DIGEST_FILE.read_text())["digests"][name]
    assert untraced["failed"] == 0, untraced["problems"]
    assert untraced["digest"] == committed

    tracer, traced = _traced_jobs(bench)
    assert traced[0]["counts"] == traced[1]["counts"]
    assert all(j["digest"] == untraced["digest"] for j in traced)
    assert traced[0]["counts"][bench.w.step_counter] == bench.steps_per_job
    assert spans.installed_wrappers(PKG) == []


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_passes_checks_with_other_digest(name, tmp_path):
    job = _bench(name, 12345, tmp_path).run_job()
    committed = json.loads(harness.DIGEST_FILE.read_text())["digests"][name]
    assert job["failed"] == 0 and job["ops"] > 0, job["problems"]
    assert job["digest"] != committed


def test_self_times_nonnegative_and_within_parent(tmp_path):
    tracer, _ = _traced_jobs(_bench("cli_ensemble", 3, tmp_path))
    cols = tracer.columns()
    dur, self_t = spans.self_times(cols)
    child = cols["parent"] >= 0
    assert child.any() and (~child).any()
    assert (self_t >= -1e-9).all()
    assert (self_t[child] <= dur[cols["parent"][child]] + 1e-9).all()
    # children of one solve sit inside a span of the same solve
    assert (cols["solve"][child] == cols["solve"][cols["parent"][child]]).all()
    assert harness.span_problems(cols) == []


def test_self_times_subtract_children():
    cols = {
        "start": np.array([0.0, 1.0, 4.0, 4.5]),
        "end": np.array([10.0, 3.0, 6.0, 5.0]),
        "parent": np.array([-1, 0, 0, 2], dtype=np.int32),
    }
    dur, self_t = spans.self_times(cols)
    np.testing.assert_allclose(dur, [10.0, 2.0, 2.0, 0.5])
    np.testing.assert_allclose(self_t, [6.0, 2.0, 1.5, 0.5])


def _run(cwd, *args):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, units", [("0", harness.END_TO_END_UNITS),
                                          ("1", harness.PER_LAYER_UNITS)])
def test_result_line_matches_benchmark_json(trace, units):
    done = _run(harness.ROOT, "--workload", "cli_ensemble", "--seed", "7",
                "--seconds", "2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    listed = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == units


def test_fails_without_package_source(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "strong_m", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
