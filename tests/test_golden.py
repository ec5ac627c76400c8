"""Golden SHA-256 digests of seeded results.

The reproducibility contract says one seed and config give one result bit
for bit.  Same-process reruns cannot catch a change that moves every run the
same way, so ``golden_digests.json`` records the digests of a few fixed
(seed, config) results together with the Python, numpy and scipy versions
they were recorded with.  ``ndtri`` and the DST-I kernel may round
differently in other releases, so the check skips when numpy or scipy
differ from the record in major.minor.  The raw Philox words come before
``ndtri`` and depend on no release's rounding, so their case never skips.

The ``cli_*`` cases pin the files one ``hmm-spde`` call writes: CSV files
byte for byte, JSON files by content, a rate report's without its
``runtime_seconds``.

To re-record after a deliberate change of results::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import hmm_spde.noise as noise_mod
from hmm_spde import cli
from hmm_spde.averaging import (
    fbar_sampled,
    gaussian_shifted,
    make_gaussian_fbar,
    reference_solution,
)
from hmm_spde.coefficients import preset
from hmm_spde.direct import run_direct
from hmm_spde.experiments import (
    averaging_experiment,
    default_x0,
    macro_order_experiment,
    sample_stationary_linear,
    strong_error_experiment,
    warmup_bias_experiment,
    weak_error_experiment,
)
from hmm_spde.hmm import HmmParams, run_hmm
from hmm_spde.micro import run_micro
from hmm_spde.noise import NoiseStreamKey, _blocks_per_step, _philox_words, standard_normals
from hmm_spde.spectral import laplacian_spec

RECORD = Path(__file__).with_name("golden_digests.json")
K = 15


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _report_arrays(report) -> tuple[np.ndarray, np.ndarray]:
    rows = [[r.value, r.error, r.mc_stderr, r.n_samples] for r in report.rows]
    fit = [report.slope, report.ci_low, report.ci_high, report.n_rows_used]
    return np.array(rows), np.array(fit)


def _report_digest(report) -> str:
    return _digest(*_report_arrays(report))


def _standard_normals():
    return _digest(
        standard_normals(NoiseStreamKey(2024, replica=5, step=13), 63, count=16),
        standard_normals(NoiseStreamKey(2**40 + 1, replica=2, step=2**64 + 7), 15, count=3),
        standard_normals(NoiseStreamKey(9, replica=1, stream_tag=2), 5),
    )


def _philox_raw_words():
    # the keys of _standard_normals: a step inside one 64-bit counter word,
    # a step past 2**64, a stream tag
    h = hashlib.sha256()
    for key, K, count in ((NoiseStreamKey(2024, replica=5, step=13), 63, 16),
                          (NoiseStreamKey(2**40 + 1, replica=2, step=2**64 + 7), 15, 3),
                          (NoiseStreamKey(9, replica=1, stream_tag=2), 5, 1)):
        blocks = _blocks_per_step(K)
        bg = np.random.Philox(key=_philox_words(key), counter=key.step * blocks)
        h.update(bg.random_raw(count * 4 * blocks).astype("<u8").tobytes())
    return h.hexdigest()


def _run_hmm(problem):
    op = laplacian_spec(K)
    params = HmmParams(epsilon=1e-3, macro_dt=0.1, micro_dt=1e-3 * 0.05, T=0.3,
                       N=2, M=3, n_T=4)
    # p1 starts its replicas from the stationary law, the others at zero
    y0 = (sample_stationary_linear(31, params.tau, op, params.M) if problem == "p1"
          else np.zeros(K))
    run = run_hmm(default_x0(K), y0, preset(problem), op, op, params, seed=17)
    return _digest(run.trajectory, run.final_micro_states)


def _run_direct(problem="p2", seed=23):
    op = laplacian_spec(K)
    run = run_direct(default_x0(K), np.zeros(K), preset(problem), op, op,
                     epsilon=0.1, dt=0.005, T=0.1, seed=seed)
    return _digest(run.trajectory_X, run.final_Y)


def _reference_solution_p3():
    op = laplacian_spec(K)
    spec = preset("p3")
    fbar = make_gaussian_fbar(spec, gaussian_shifted(op, spec.linear_drift))
    ref = reference_solution(default_x0(K), fbar, op, T=0.2, fine_dt=0.2 / 16)
    return _digest(ref.field, np.array([ref.richardson_gap]))


def _run_micro(problem="p2", steps=40, warmup=5):
    # 16-step noise chunks: pins the chunk split as well
    op = laplacian_spec(K)
    saved, noise_mod._CHUNK_STEPS = noise_mod._CHUNK_STEPS, 16
    try:
        res = run_micro(np.zeros(K), default_x0(K), steps, NoiseStreamKey(29, replica=1),
                        preset(problem), op, 0.05, warmup=warmup)
    finally:
        noise_mod._CHUNK_STEPS = saved
    return _digest(res.y, res.f_window_mean, res.mode_mean,
                   res.mode_second_moment)


def _fbar_sampled():
    res = fbar_sampled(preset("p2"), default_x0(K), laplacian_spec(K), 0.01, 640,
                       NoiseStreamKey(31, replica=1))
    return _digest(res.field, res.grid_values, res.grid_stderr)


def _strong_error_experiment():
    return _report_digest(strong_error_experiment(
        sweep="M", sweep_values=(1, 2, 4), K=K, T=0.2, n_T=10, n_seeds=4, seed=5))


def _weak_error_experiment():
    return _report_digest(weak_error_experiment(
        sweep_values=(0.04, 0.02, 0.01), K=7, T=0.2, warmup_time=0.2, n_seeds=4,
        seed=6))


def _averaging_experiment():
    rep = averaging_experiment(eps_values=(0.1, 0.05), K=7, T=0.1, tau_direct=0.05,
                               n_seeds=3, seed=8, reference_fine_dt=0.1 / 16)
    return _digest(*_report_arrays(rep.strong), *_report_arrays(rep.weak),
                   np.array([rep.strong.meta["richardson_gap"]]))


def _macro_order_experiment():
    rep = macro_order_experiment(K=7, T=0.2, dt_list=[0.1, 0.05, 0.025], fine_factor=4)
    return _digest(*_report_arrays(rep), np.array([rep.meta["richardson_gap"]]))


def _warmup_bias_experiment():
    return _report_digest(warmup_bias_experiment(n_T_values=(1, 2, 3), K=7, M=64,
                                                 seed=9))


def _cli(argv, *files):
    """Digest of the named files that one CLI call writes."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([*argv, "--out-dir", tmp])
        for name in files:
            data = Path(tmp, name).read_bytes()
            if name.endswith(".json"):
                payload = json.loads(data)
                payload.pop("runtime_seconds", None)  # wall time of the call
                data = json.dumps(payload, sort_keys=True).encode()
            h.update(name.encode())
            h.update(data)
    return h.hexdigest()


CASES = {
    "standard_normals": _standard_normals,
    "run_hmm_p1": lambda: _run_hmm("p1"),
    "run_hmm_p2": lambda: _run_hmm("p2"),
    "run_hmm_p3": lambda: _run_hmm("p3"),
    "run_direct": _run_direct,
    "run_direct_p1": lambda: _run_direct("p1"),
    "run_direct_p3": lambda: _run_direct("p3"),
    # g != 0 on the seed axis, with the trajectory recorded
    "run_direct_p2_seeds": lambda: _run_direct("p2", seed=(23, 24, 25)),
    "run_micro": _run_micro,
    # g = 0 and a warm-up that ends inside the second noise chunk
    "run_micro_p1": lambda: _run_micro("p1", steps=45, warmup=20),
    "fbar_sampled": _fbar_sampled,
    "reference_solution_p3": _reference_solution_p3,
    "strong_error_experiment": _strong_error_experiment,
    "weak_error_experiment": _weak_error_experiment,
    "averaging_experiment": _averaging_experiment,
    "macro_order_experiment": _macro_order_experiment,
    "warmup_bias_experiment": _warmup_bias_experiment,
    "philox_raw_words": _philox_raw_words,
    "cli_hmm_run": lambda: _cli(
        ["hmm", "run", "--problem", "p2", "--K", str(K), "--T", "0.2", "--dt", "0.05",
         "--ddt", "5e-5", "--epsilon", "1e-3", "--N", "2", "--M", "4", "--nT", "3",
         "--seed", "11"], "hmm_trajectory.csv", "hmm_cost.json"),
    "cli_direct_run": lambda: _cli(
        ["direct", "run", "--problem", "p2", "--K", str(K), "--T", "0.1",
         "--epsilon", "0.1", "--dt", "0.005", "--seed", "23"],
        "direct_trajectory.csv", "direct_cost.json"),
    "cli_fbar_p1": lambda: _cli(["fbar", "--problem", "p1", "--K", str(K)], "fbar.csv"),
    "cli_fbar_p2": lambda: _cli(
        ["fbar", "--problem", "p2", "--K", str(K), "--tau", "0.01", "--window", "640",
         "--seed", "3"], "fbar.csv"),
    "cli_rates_invariant_tau": lambda: _cli(
        ["rates", "--experiment", "invariant_tau"], "invariant_tau.csv",
        "invariant_tau.json"),
}
# no ndtri or DST-I call: the same words on every numpy and scipy release
VERSION_FREE = {"philox_raw_words"}


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _major_minor(version: str) -> tuple[str, ...]:
    return tuple(version.split(".")[:2])


def _record() -> dict:
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    record = _record()
    for lib, now in (("numpy", np.__version__), ("scipy", scipy.__version__)):
        if name not in VERSION_FREE and _major_minor(now) != _major_minor(record["versions"][lib]):
            pytest.skip(f"digests were recorded with {lib} {record['versions'][lib]}, "
                        f"this is {lib} {now}: rounding may differ")
    assert CASES[name]() == record["digests"][name]


def test_record_covers_every_case():
    assert sorted(_record()["digests"]) == sorted(CASES)


if __name__ == "__main__":
    payload = {"versions": _versions(),
               "digests": {name: CASES[name]() for name in sorted(CASES)}}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
