"""Rate experiments: error sweeps, log-log slope fits, CSV/JSON reports.

Every experiment is a pure function of its configuration and seed: sub-seeds
are derived with :func:`hmm_spde.noise.mix_seed`, aggregation order is fixed,
and reports are bit-reproducible.  Slope fits only use sweep points whose
Monte-Carlo standard error is below a third of the measured error, so noise-
dominated rows never steer a rate estimate.  The fits evaluate
``scipy.stats.linregress``'s formulas in numpy and take the t quantile from
``scipy.special``; the package never imports ``scipy.stats``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtrit

from .averaging import (
    _check_samples,
    _mean_stderr,
    gaussian_discrete,
    gaussian_nu,
    gaussian_shifted,
    make_gaussian_fbar,
    reference_solution,
    run_averaged,
)
from .coefficients import CoefficientSpec, preset
from .hmm import HmmParams, run_hmm
from .direct import run_direct
from .micro import _f_block, discrete_stationary_variances, run_micro
from .micro import step_replicas  # noqa: F401  unused; perfbench/spans.py wraps it here by name
from .noise import NoiseStreamKey, mix_seed, standard_normals
from .spectral import (
    OperatorSpec,
    grid_points,
    laplacian_spec,
    to_grid,
    to_spectral,
)
from .spectral import _check_positive, _whole_steps

__all__ = [
    "SweepRow",
    "RateReport",
    "fit_loglog_slope",
    "fit_semilog_slope",
    "invariant_law_tau_sweep",
    "macro_order_experiment",
    "strong_error_experiment",
    "warmup_bias_experiment",
    "weak_error_experiment",
    "averaging_experiment",
    "AveragingReport",
    "sample_stationary_linear",
    "default_x0",
    "INIT_STREAM_TAG",
]

# replica initial states drawn from the stationary law use this stream tag
INIT_STREAM_TAG = 2


@dataclass(frozen=True)
class SweepRow:
    value: float
    error: float
    mc_stderr: float
    n_samples: int


@dataclass(frozen=True)
class RateReport:
    experiment: str
    sweep_variable: str
    rows: tuple[SweepRow, ...]
    slope: float
    ci_low: float
    ci_high: float
    n_rows_used: int
    runtime_seconds: float
    fit_kind: str = "loglog"
    meta: dict = field(default_factory=dict)


def _fit_slope(values, errors, stderrs, log_x: bool):
    """Least-squares slope of log(error) against value (or log value).

    Rows with error <= 0 or mc_stderr >= error/3 are excluded.  Returns
    (slope, ci_low, ci_high, used_mask) with a 95% confidence interval
    (nan bounds when fewer than 3 usable rows).

    The slope, its standard error and the t quantile are
    ``scipy.stats.linregress``'s and ``scipy.stats.t.ppf``'s expressions in
    their order, so the results equal theirs bit for bit, edge cases
    included.  Importing ``scipy.stats`` would load scipy.linalg, optimize
    and spatial and more than double the start-up of every process.
    """
    values = np.asarray(values, float)
    errors = np.asarray(errors, float)
    stderrs = np.asarray(stderrs, float)
    used = (errors > 0) & (stderrs < errors / 3.0)
    n = int(used.sum())
    if n < 2:
        return math.nan, math.nan, math.nan, used
    lx = np.log(values[used]) if log_x else values[used]
    ly = np.log(errors[used])
    if lx.max() == lx.min():
        raise ValueError("Cannot calculate a linear regression "
                         "if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=1).flat
    slope = ssxym / ssxm
    if n < 3:
        return float(slope), math.nan, math.nan, used
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    half = stdtrit(n - 2, 0.975) * np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return float(slope), float(slope - half), float(slope + half), used


def fit_loglog_slope(values, errors, stderrs):
    """Power-law exponent: slope of log(error) vs log(value)."""
    return _fit_slope(values, errors, stderrs, log_x=True)


def fit_semilog_slope(values, errors, stderrs):
    """Exponential rate: slope of log(error) vs value."""
    return _fit_slope(values, errors, stderrs, log_x=False)


def _make_report(name, sweep_variable, values, errors, stderrs=0.0, n_samples=1, *,
                 t0, meta, fit_kind="loglog"):
    """One row per sweep value; ``stderrs`` and ``n_samples`` broadcast over
    the rows (a deterministic sweep keeps the defaults 0 and 1)."""
    errors, stderrs, n_samples = np.broadcast_arrays(errors, stderrs, n_samples)
    slope, lo, hi, used = _fit_slope(values, errors, stderrs, fit_kind == "loglog")
    rows = tuple(
        SweepRow(float(v), float(e), float(s), int(n))
        for v, e, s, n in zip(values, errors, stderrs, n_samples)
    )
    return RateReport(
        experiment=name,
        sweep_variable=sweep_variable,
        rows=rows,
        slope=slope,
        ci_low=lo,
        ci_high=hi,
        n_rows_used=int(used.sum()),
        runtime_seconds=time.perf_counter() - t0,
        fit_kind=fit_kind,
        meta=meta,
    )


def default_x0(K: int) -> np.ndarray:
    """Smooth default initial slow field: 0.5 e_1 + 0.25 e_2."""
    x0 = np.zeros(K)
    x0[0] = 0.5
    if K >= 2:
        x0[1] = 0.25
    return x0


def _setup(problem: str, K: int):
    """(op, coeffs, fbar, x0): the K-mode Laplacian, which serves as both A
    and B, the preset's coefficients, their quadrature oracle under
    :func:`_oracle_measure` and :func:`default_x0`."""
    op = laplacian_spec(K)
    coeffs = preset(problem)
    fbar = make_gaussian_fbar(coeffs, _oracle_measure(coeffs, op))
    return op, coeffs, fbar, default_x0(K)


def _strong_error(finals: np.ndarray, ref: np.ndarray):
    """E|X - ref| over the seeds' final fields X, and its standard error."""
    # per-seed norms: an axis-wise norm sums in another order
    return _mean_stderr([np.linalg.norm(x - ref) for x in finals])


def _weak_error(finals: np.ndarray, ref: np.ndarray):
    """|E cos<X, e_1> - cos<ref, e_1>| over the seeds' final fields X, and
    the standard error of the mean."""
    mean, stderr = _mean_stderr([np.cos(x[0]) for x in finals])
    return abs(mean - np.cos(ref[0])), stderr


def _hmm_sweep(swept, x0, y0, coeffs, op, seed: int, n_seeds: int, score, ref):
    """(errors, stderrs): ``score`` against ``ref`` of the final fields of
    ``n_seeds`` multiscale runs per swept :class:`HmmParams`.

    The seeds mix_seed(seed, i, s) of the i-th params run as one batched
    :func:`run_hmm` call, which equals the per-seed runs bit for bit, from
    the fast start ``y0(params, seeds)``.
    """
    scores = []
    for i, params in enumerate(swept):
        seeds = [mix_seed(seed, i, s) for s in range(n_seeds)]
        run = run_hmm(x0, y0(params, seeds), coeffs, op, op, params, seeds)
        scores.append(score(run.X_final, ref))
    return np.array(scores).T


def _check_sweep(name: str, values, count: bool = False) -> None:
    """Every experiment's entry rule for its sweep: not empty, and whole numbers
    from 1 for a ``count`` (int() would run 1.5 as 1), else positive and finite."""
    if len(values) == 0:
        raise ValueError(f"{name} sweep is empty")
    for v in values:
        if not count:
            _check_positive(name, v)
        elif not float(v).is_integer():
            raise ValueError(f"{name} sweep values must be whole numbers, got {v}")
        elif v < 1:
            raise ValueError(f"{name} sweep values must be >= 1, got {v}")


def sample_stationary_linear(
    seed: int, tau: float, op_b: OperatorSpec, M: int
) -> np.ndarray:
    """Draw M fields from the exact stationary law of the g = 0 fast chain."""
    v = discrete_stationary_variances(tau, op_b)
    key = NoiseStreamKey(seed, replica=1, stream_tag=INIT_STREAM_TAG)
    z = standard_normals(key, op_b.mode_count, count=M).reshape(M, op_b.mode_count)
    return np.sqrt(v) * z


def invariant_law_tau_sweep(K: int, tau_list, drift_shift: float = 0.0) -> RateReport:
    """Exact trace discrepancy between the discrete and continuous invariant
    covariances of the linear fast chain, against the effective step tau.

    With drift_shift = c >= 0 the chain is y' = R_tau(y - tau c y + sqrt(tau) z):
    per mode the discrete stationary variance is tau / ((1+tau mu)^2 - (1-c tau)^2)
    against the continuous 1/(2 (mu + c)); c = 0 recovers the pure-noise chain.
    No Monte Carlo.  An empty sweep or a bad tau raises ValueError."""
    t0 = time.perf_counter()
    _check_sweep("tau", tau_list)
    taus = np.asarray(sorted(tau_list, reverse=True), float)
    if drift_shift < 0:
        raise ValueError("drift_shift must be nonnegative")
    op_b = laplacian_spec(K)
    mu = op_b.eigenvalues
    c = drift_shift
    if c > 0 and taus.max() * c >= 1:
        raise ValueError("need c * tau < 1 for a well-defined stationary law")
    errs = np.array(
        [
            np.sum(
                1.0 / (2.0 * (mu + c))
                - tau / (op_b.euler_denominator(tau) ** 2 - (1.0 - c * tau) ** 2)
            )
            for tau in taus
        ]
    )
    return _make_report("invariant_tau", "tau", taus, errs, t0=t0,
                        meta={"K": K, "drift_shift": c})


def macro_order_experiment(
    K: int = 63,
    T: float = 0.5,
    dt_list=None,
    problem: str = "p1",
    fine_factor: int = 64,
    x0: np.ndarray | None = None,
) -> RateReport:
    """Deterministic order of the coarse scheme against a fine reference.

    Integrates the averaged equation with the quadrature-oracle coefficient
    over a dyadic dt sweep; the reference uses dt_min/fine_factor and its
    Richardson gap is reported in the metadata.  Any problem with a Gaussian
    oracle runs (g = 0 or a linear g); another raises ValueError.  T must be
    positive and finite, every dt positive and a divisor of T, and an empty
    sweep raises ValueError.
    """
    t0 = time.perf_counter()
    if fine_factor < 1:
        raise ValueError(f"fine_factor must be >= 1, got {fine_factor}")
    _check_positive("T", T)
    if dt_list is None:
        dt_list = [T / 8, T / 16, T / 32, T / 64, T / 128]
    _check_sweep("dt", dt_list)
    dts = np.asarray(sorted(dt_list, reverse=True), float)
    steps = [_whole_steps(T, dt) for dt in dts]
    op, _, fbar, default = _setup(problem, K)
    if x0 is None:
        x0 = default

    fine_dt = min(dt_list) / fine_factor
    ref = reference_solution(x0, fbar, op, T, fine_dt)
    errs = []
    for dt, n in zip(dts, steps):
        xbar = run_averaged(x0, fbar, op, dt, n)[-1]
        errs.append(np.linalg.norm(xbar - ref.field))
    return _make_report(
        "macro_order", "dt", dts, errs, t0=t0,
        meta={"K": K, "T": T, "richardson_gap": ref.richardson_gap, "problem": problem},
    )


def _oracle_measure(coeffs: CoefficientSpec, op_b: OperatorSpec):
    """Gaussian invariant law when one exists for these coefficients."""
    if not coeffs.has_g:
        return gaussian_nu(op_b)
    if coeffs.linear_drift is not None:
        return gaussian_shifted(op_b, coeffs.linear_drift)
    raise ValueError(f"no Gaussian averaging oracle for coefficients {coeffs.name!r}")


def strong_error_experiment(
    sweep: str = "M",
    sweep_values=(1, 4, 16, 64),
    problem: str = "p1",
    K: int = 63,
    T: float = 0.3,
    macro_dt: float = 0.1,
    tau: float = 1e-4,
    N: int = 1,
    M: int = 1,
    n_T: int = 50,
    epsilon: float = 1e-6,
    n_seeds: int = 64,
    seed: int = 2024,
) -> RateReport:
    """Trajectory error of the multiscale run against the oracle-averaged
    scheme at the same coarse step, swept over one of {M, N, n_T, tau}.

    Measures E|X_{n0} - Xbar_{n0}| over ``n_seeds`` independent runs per
    sweep value.  Each replica's fast field starts at the exact discrete
    stationary law of the g = 0 chain (a problem with g != 0 raises
    ValueError), isolating the Monte-Carlo fluctuation term from warm-up
    bias.  The seeds of one sweep value run as one batched :func:`run_hmm`
    call, which equals the per-seed runs bit for bit.  ``n_seeds`` that is
    not an integer or is below 2 (no standard error), an empty sweep, an M,
    N or n_T not a whole number from 1, or a bad tau raises ValueError.
    """
    t0 = time.perf_counter()
    if sweep not in ("M", "N", "n_T", "tau"):
        raise ValueError(f"sweep must be one of M, N, n_T, tau; got {sweep!r}")
    _check_samples("n_seeds", n_seeds)
    _check_sweep(sweep, sweep_values, count=sweep != "tau")
    _check_positive("tau", tau)
    op, coeffs, fbar, x0 = _setup(problem, K)
    if coeffs.has_g:
        raise ValueError(f"the stationary start needs g = 0; {problem!r} has g != 0")

    # the swept parameter changes neither macro_dt nor n_0: one reference
    base = HmmParams(epsilon=epsilon, macro_dt=macro_dt, micro_dt=epsilon * tau, T=T,
                     N=N, M=M, n_T=n_T)
    xbar = run_averaged(x0, fbar, op, base.macro_dt, base.n_0)[-1]
    swept = [replace(base, **({"micro_dt": epsilon * float(v)} if sweep == "tau"
                              else {sweep: int(v)}))
             for v in sweep_values]

    def stationary(params, seeds):
        return np.stack([sample_stationary_linear(s, params.tau, op, params.M)
                         for s in seeds])

    return _make_report(
        f"strong_{sweep.lower()}", sweep, sweep_values,
        *_hmm_sweep(swept, x0, stationary, coeffs, op, seed, n_seeds, _strong_error, xbar),
        n_seeds, t0=t0,
        meta={"problem": problem, "K": K, "T": T, "macro_dt": macro_dt, "tau": tau,
              "N": N, "M": M, "n_T": n_T, "seed": seed, "stationary_init": True},
    )


def warmup_bias_experiment(
    n_T_values=(1, 2, 3, 4, 5, 6),
    problem: str = "p1",
    K: int = 15,
    tau: float = 0.05,
    M: int = 65536,
    displacement: float = 0.8,
    seed: int = 77,
) -> RateReport:
    """Bias of the window estimator against its own equilibrium mean as the
    warm-up length grows (window N = 1).

    Replicas start at the exact stationary law displaced by ``displacement``
    along mode 1, so the estimator mean relaxes at the slowest mode's squared
    autoregression factor: the fitted log-bias slope per step should match
    2 ln a_1, a_1 = 1/(1 + tau mu_1).  The reference is the quadrature oracle
    under the discrete equilibrium law (exact for g = 0); referencing the
    continuous-law coefficient instead would bury the exponential tail under
    the O(sqrt(tau)) invariant-law mismatch, which is a separate error term
    with its own experiment.  F is read at the replicas by the window rule
    of :func:`~hmm_spde.micro.run_micro` (an f that ignores y has no bias),
    and the stderr column propagates the per-point replica spread through
    the same H norm as the error.  The replicas warm up as one (M, K)
    :func:`~hmm_spde.micro.run_micro` stack with an empty window, on one
    stream of M K numbers per step.  ``M`` that is not an integer or is below
    2 (no standard error), a non-finite ``displacement``, an empty sweep, an
    n_T not a whole number from 1 or a non-finite state raises ValueError.
    """
    t0 = time.perf_counter()
    _check_sweep("n_T", n_T_values, count=True)
    _check_samples("M", M)
    if not math.isfinite(displacement):
        raise ValueError(f"displacement must be finite, got {displacement}")
    op_b = laplacian_spec(K)
    coeffs = preset(problem)
    if coeffs.has_g:
        raise ValueError("warm-up bias experiment needs the g = 0 oracle")
    measure = gaussian_discrete(op_b, tau)
    x0 = default_x0(K)
    fbar_grid = to_grid(make_gaussian_fbar(coeffs, measure)(x0))

    xi = grid_points(K)
    x_grid = to_grid(x0)

    errors, stderrs = [], []
    for ip, nt in enumerate(n_T_values):
        point_seed = mix_seed(seed, ip)
        y = sample_stationary_linear(point_seed, tau, op_b, M)
        y[:, 0] += displacement
        y = run_micro(y, x0, int(nt), NoiseStreamKey(point_seed, replica=1), coeffs, op_b,
                      tau, warmup=int(nt) + 1).y
        mean_grid, se_grid = _mean_stderr(_f_block(coeffs, xi, x_grid, to_grid(y)))
        bias = np.linalg.norm(to_spectral(mean_grid - fbar_grid))
        noise = math.sqrt(float(np.sum(se_grid**2)) / (K + 1))
        errors.append(bias)
        stderrs.append(noise)

    a1 = 1.0 / float(op_b.euler_denominator(tau)[0])
    return _make_report(
        "strong_nt", "n_T", n_T_values, errors, stderrs, M, t0=t0,
        meta={"problem": problem, "K": K, "tau": tau, "M": M,
              "displacement": displacement, "seed": seed,
              "reference_rate_per_step": -2.0 * math.log(a1)},
        fit_kind="semilogy",
    )


def weak_error_experiment(
    sweep_values=(0.04, 0.02, 0.01),
    sweep: str = "tau",
    problem: str = "p3",
    K: int = 15,
    T: float = 0.3,
    macro_dt: float = 0.1,
    tau: float = 0.01,
    warmup_time: float = 3.0,
    epsilon: float = 1e-6,
    n_seeds: int = 64,
    seed: int = 4242,
) -> RateReport:
    """Law-level error |E Phi(X_{n0}) - Phi(Xbar_{n0})| of Phi(x) = cos(<x, e_1>),
    swept over tau or n_T.

    For the tau sweep the warm-up keeps n_T * tau = ``warmup_time`` fixed so
    the equilibration bias stays flat while the invariant-law mismatch scales.
    Desk-scale budgets make this noisy; the stderr column and the fit filter
    report that honestly.  The seeds of one sweep value run as one batched
    :func:`run_hmm` call, which equals the per-seed runs bit for bit.
    ``n_seeds`` that is not an integer or is below 2 (no standard error), an
    empty sweep, or a bad n_T, tau or ``warmup_time`` raises ValueError.
    """
    t0 = time.perf_counter()
    if sweep not in ("tau", "n_T"):
        raise ValueError(f"sweep must be 'tau' or 'n_T', got {sweep!r}")
    _check_samples("n_seeds", n_seeds)
    _check_sweep(sweep, sweep_values, count=sweep == "n_T")
    _check_positive("tau", tau)
    _check_positive("warmup_time", warmup_time)
    op, coeffs, fbar, x0 = _setup(problem, K)

    # the swept parameter changes neither macro_dt nor n_0: one reference
    base = HmmParams(epsilon=epsilon, macro_dt=macro_dt, micro_dt=epsilon * tau, T=T)
    xbar = run_averaged(x0, fbar, op, base.macro_dt, base.n_0)[-1]
    swept = [replace(base, micro_dt=epsilon * float(v),
                     n_T=max(1, int(round(warmup_time / float(v)))))
             if sweep == "tau" else replace(base, n_T=int(v))
             for v in sweep_values]

    return _make_report(
        "weak_" + sweep.lower(), sweep, sweep_values,
        *_hmm_sweep(swept, x0, lambda params, seeds: np.zeros(K), coeffs, op, seed,
                    n_seeds, _weak_error, xbar),
        n_seeds, t0=t0,
        meta={"problem": problem, "K": K, "T": T, "macro_dt": macro_dt,
              "warmup_time": warmup_time, "seed": seed, "functional": "cos_inner"},
    )


@dataclass(frozen=True)
class AveragingReport:
    strong: RateReport
    weak: RateReport


def averaging_experiment(
    eps_values=(1e-1, 3e-2, 1e-2),
    problem: str = "p1",
    K: int = 15,
    T: float = 0.5,
    tau_direct: float = 0.002,
    n_seeds: int = 32,
    seed: int = 913,
    reference_fine_dt: float | None = None,
) -> AveragingReport:
    """Distance between the resolved two-scale system and the averaged flow
    as the scale separation epsilon shrinks.

    The direct solver runs at dt = epsilon * tau_direct (fixed effective fast
    step) so its discretization bias stays flat across the sweep; the
    averaged reference comes from fine deterministic integration with the
    quadrature oracle.  Reports the trajectory (strong) error and the weak
    error of cos(<x, e_1>) against epsilon.  The whole sweep is one
    :func:`run_direct` call: its rows are (epsilon, seed) pairs with per-row epsilon and dt,
    stepped in lock step, and each row equals its single run bit for bit.
    ``n_seeds`` that is not an integer or is below 2 (no standard error),
    an empty sweep, or a bad epsilon or ``tau_direct`` raises ValueError.
    """
    t0 = time.perf_counter()
    _check_samples("n_seeds", n_seeds)
    _check_sweep("epsilon", eps_values)
    _check_positive("tau_direct", tau_direct)
    eps_arr = np.asarray(sorted(eps_values, reverse=True), float)
    op, coeffs, fbar, x0 = _setup(problem, K)
    if reference_fine_dt is None:
        reference_fine_dt = T / 2048
    ref = reference_solution(x0, fbar, op, T, reference_fine_dt)

    eps_rows = np.repeat(eps_arr, n_seeds)
    run = run_direct(x0, np.zeros(K), coeffs, op, op, eps_rows, eps_rows * tau_direct,
                     T, [mix_seed(seed, ip, s) for ip in range(eps_arr.size)
                         for s in range(n_seeds)], trajectory=False)
    finals = run.final_X.reshape(eps_arr.size, n_seeds, K)

    meta = {"problem": problem, "K": K, "T": T, "tau_direct": tau_direct,
            "seed": seed, "richardson_gap": ref.richardson_gap,
            "functional": "cos_inner"}
    strong, weak = (
        _make_report(name, "epsilon", eps_arr,
                     *np.array([score(x, ref.field) for x in finals]).T, n_seeds,
                     t0=t0, meta=meta)
        for name, score in (("averaging", _strong_error), ("averaging_weak", _weak_error))
    )
    return AveragingReport(strong=strong, weak=weak)
