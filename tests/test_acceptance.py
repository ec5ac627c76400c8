"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use
fixed seeds, so outcomes are deterministic; tolerances are stated inline with
each criterion.
"""

import math
import time

import numpy as np
import pytest

import hmm_spde as hs
from hmm_spde.coefficients import CoefficientSpec
from hmm_spde.experiments import default_x0
from hmm_spde.spectral import grid_points, h_norm, to_grid

PI2 = np.pi**2


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] C{number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_c01_linear_fast_invariant_law():
    # G = 0, K = 63, tau = 0.01: stationary variance of modes {1, 2, 5, 20}
    # over 1e6 steps within 4 standard errors of 1/(2 mu_k + tau mu_k^2)
    t0 = time.perf_counter()
    K, tau = 63, 0.01
    op = hs.laplacian_spec(K)
    warmup, window = 20_000, 1_000_000
    res = hs.run_micro(
        np.zeros(K), default_x0(K), warmup + window, hs.derive_key(101, 0, 0, 1),
        hs.preset("p1"), op, tau, warmup=warmup + 1, track_mode_moments=True,
    )
    assert res.window_size == window
    worst = 0.0
    ok = True
    for k in (1, 2, 5, 20):
        v_th = hs.discrete_stationary_variances(tau, op)[k - 1]
        v_emp = res.mode_second_moment[k - 1] - res.mode_mean[k - 1] ** 2
        a = 1 / (1 + tau * op.eigenvalues[k - 1])
        se = v_th * math.sqrt(2 * (1 + a**2) / (1 - a**2) / window)
        dev = abs(v_emp - v_th) / se
        worst = max(worst, dev)
        ok = ok and dev <= 4.0
    report(1, "linear-fast invariant law", ok,
           f"worst deviation {worst:.2f} sigma of 4, {time.perf_counter()-t0:.1f}s")


def test_c02_pathwise_contraction():
    # preset p2, tau in {0.01, 0.1}, 1e4 steps, 16 seed pairs driven by the
    # same noise: |r_m|^2 <= rho^m |r_0|^2 at every step, zero violations
    t0 = time.perf_counter()
    K = 31
    op = hs.laplacian_spec(K)
    spec = hs.preset("p2", alpha=4.0)
    pairs, steps = 16, 10_000
    xi = grid_points(K)
    x_grid = to_grid(default_x0(K))
    violations = 0
    checked = 0
    for tau in (0.01, 0.1):
        rho = hs.contraction_factor(tau, spec.lipschitz_g_y, op.smallest_eigenvalue)
        log_rho = math.log(rho)
        res_mult = 1 / (1 + tau * op.eigenvalues)
        y = hs.standard_normals(hs.derive_key(202, 0, 0, 1, stream_tag=2),
                                pairs * 2 * K).reshape(pairs, 2, K)
        log_r0 = np.log(np.sum((y[:, 0] - y[:, 1]) ** 2, axis=1))
        for m in range(1, steps + 1):
            incr = hs.standard_normals(
                hs.derive_key(203, 0, m - 1, 1), pairs * K
            ).reshape(pairs, 1, K) * math.sqrt(tau)
            y = hs.step_replicas(y, x_grid, xi, incr, res_mult, tau, spec)
            r_sq = np.sum((y[:, 0] - y[:, 1]) ** 2, axis=1)
            with np.errstate(divide="ignore"):
                log_r = np.log(r_sq)
            violations += int(np.sum(log_r > m * log_rho + log_r0 + 1e-9))
            checked += pairs
    report(2, "pathwise contraction", violations == 0,
           f"{violations} violations in {checked} checks, {time.perf_counter()-t0:.1f}s")


def test_c03_invariant_law_tau_order():
    # analytic covariance-trace error, K = 4095, tau in {1e-2..1e-5}:
    # log-log slope 0.5 +/- 0.05, no Monte Carlo
    t0 = time.perf_counter()
    rep = hs.invariant_law_tau_sweep(K=4095, tau_list=(1e-2, 1e-3, 1e-4, 1e-5))
    ok = abs(rep.slope - 0.5) <= 0.05
    report(3, "invariant-law tau order", ok,
           f"slope {rep.slope:.4f} in 0.5+/-0.05, CI [{rep.ci_low:.3f}, {rep.ci_high:.3f}], "
           f"{time.perf_counter()-t0:.2f}s")


def test_c04_macrosolver_order():
    # (a) preset p1 with the quadrature oracle: slope >= 0.9 over the dyadic
    # dt sweep; (b) with fbar = 0 the measured error against the heat
    # semigroup matches the per-mode resolvent-vs-exponential closed form
    # to 1e-12
    t0 = time.perf_counter()
    rep = hs.macro_order_experiment(K=63, T=0.5)
    ok_slope = rep.slope >= 0.9

    K, T = 63, 0.5
    op = hs.laplacian_spec(K)
    x0 = default_x0(K)
    worst_gap = 0.0
    for dt in (T / 8, T / 32, T / 128):
        n = int(round(T / dt))
        xbar = hs.run_averaged(x0, lambda x: np.zeros(K), op, dt, n)[-1]
        measured = h_norm(xbar - hs.apply_semigroup(x0, T, op))
        closed = h_norm(
            x0 * ((1 + dt * op.eigenvalues) ** (-n) - np.exp(-op.eigenvalues * T))
        )
        worst_gap = max(worst_gap, abs(measured - closed))
    ok = ok_slope and worst_gap < 1e-12
    report(4, "deterministic macrosolver order", ok,
           f"slope {rep.slope:.3f} >= 0.9, closed-form gap {worst_gap:.1e} < 1e-12, "
           f"{time.perf_counter()-t0:.1f}s")


def test_c05_fluctuation_scaling_in_replicas():
    # preset p1: E|X_n0 - Xbar_n0| against M in {1, 4, 16, 64}, 64 seeds per
    # point, log-log slope -0.5 +/- 0.15
    t0 = time.perf_counter()
    rep = hs.strong_error_experiment(
        sweep="M", sweep_values=(1, 4, 16, 64), n_seeds=64, seed=2024
    )
    ok = abs(rep.slope - (-0.5)) <= 0.15
    report(5, "replica fluctuation scaling", ok,
           f"slope {rep.slope:.4f} in -0.5+/-0.15, CI [{rep.ci_low:.3f}, {rep.ci_high:.3f}], "
           f"{time.perf_counter()-t0:.1f}s")


def test_c06_warmup_bias_decay():
    # preset p1 with displaced fast initial data: estimator bias decays
    # exponentially in n_T; fitted rate within 25% of the slowest mode's
    # AR(1) rate -2 ln a_1
    t0 = time.perf_counter()
    rep = hs.warmup_bias_experiment(seed=77)
    target = rep.meta["reference_rate_per_step"]
    rate = -rep.slope
    ok = abs(rate - target) <= 0.25 * target
    report(6, "warm-up bias decay", ok,
           f"rate {rate:.4f} vs AR(1) rate {target:.4f} (dev {abs(rate-target)/target:.1%} "
           f"of 25%), {time.perf_counter()-t0:.1f}s")


def test_c07_averaged_coefficient_oracle():
    # f = cos(y), G = 0, xi = 1/2, K = 63: quadrature equals the
    # characteristic-function value exp(-sigma^2/2) within 1e-6, and the
    # sampled estimator agrees within 4 standard errors
    t0 = time.perf_counter()
    K = 63
    op = hs.laplacian_spec(K)
    spec = CoefficientSpec(
        name="cos_only", f=lambda xi, x, y: np.cos(y) + 0 * xi * x, g=None,
        sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0,
    )
    measure = hs.gaussian_nu(op)
    i_mid = K // 2  # xi = 32/64 = 1/2 exactly
    quad = to_grid(hs.make_gaussian_fbar(spec, measure)(np.zeros(K)))[i_mid]
    sigma2 = hs.pointwise_variance(measure, 0.5)
    exact = math.exp(-sigma2 / 2)
    gap = abs(quad - exact)
    ok_quad = gap < 1e-6

    # tau small enough that the discrete-equilibrium bias O(sqrt(tau)) sits
    # well inside the Monte-Carlo band
    tau = 2e-4
    sampled = hs.fbar_sampled(
        spec, np.zeros(K), op, tau, 400_000, hs.derive_key(707, 0, 0, 1), batches=16
    )
    dev = abs(sampled.grid_values[i_mid] - exact)
    ok_sampled = dev <= 4 * sampled.grid_stderr[i_mid]
    report(7, "averaged-coefficient oracle",
           ok_quad and ok_sampled,
           f"quadrature gap {gap:.2e} < 1e-6, sampled dev "
           f"{dev / sampled.grid_stderr[i_mid]:.2f} sigma of 4, "
           f"{time.perf_counter()-t0:.1f}s")


def test_c08_collapse_identity():
    # y-independent f: the multiscale trajectory equals the averaged scheme
    # to 1e-12 for every tested (N, M, n_T)
    t0 = time.perf_counter()
    K = 15
    op = hs.laplacian_spec(K)
    spec = CoefficientSpec(
        name="xonly",
        f=lambda xi, x, y: np.sin(np.pi * xi) * np.exp(-np.square(x)) + 0 * y,
        g=None, sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0,
    )
    x0 = default_x0(K)
    fbar = lambda x: hs.eval_F(spec, x, np.zeros(K))
    worst = 0.0
    for N, M, nt in [(1, 1, 1), (4, 1, 2), (1, 5, 3), (3, 2, 2), (2, 4, 5)]:
        params = hs.HmmParams(
            epsilon=1e-3, macro_dt=0.05, micro_dt=1e-3 * 0.02, T=0.25,
            N=N, M=M, n_T=nt,
        )
        run = hs.run_hmm(x0, np.zeros(K), spec, op, op, params, seed=42)
        traj = hs.run_averaged(x0, fbar, op, params.macro_dt, params.n_0)
        worst = max(worst, float(np.abs(run.trajectory - traj).max()))
    report(8, "collapse identity", worst < 1e-12,
           f"max trajectory gap {worst:.2e} < 1e-12, {time.perf_counter()-t0:.1f}s")


def test_c09_averaging_trend():
    # direct solver vs averaged reference: strong error over
    # eps in {1e-1, 3e-2, 1e-2}, K = 15, T = 0.5, 32 seeds: slope >= 0.3
    t0 = time.perf_counter()
    rep = hs.averaging_experiment(
        eps_values=(1e-1, 3e-2, 1e-2), K=15, T=0.5, n_seeds=32, seed=913
    )
    ok = rep.strong.slope >= 0.3
    report(9, "averaging principle trend", ok,
           f"strong slope {rep.strong.slope:.4f} >= 0.3 "
           f"(weak slope {rep.weak.slope:.4f}), {time.perf_counter()-t0:.1f}s")


def test_c10_cost_model():
    # exact micro-step accounting on every run, and the cost ratio against
    # the direct scheme halves when epsilon halves at fixed tolerance
    t0 = time.perf_counter()
    K = 7
    op = hs.laplacian_spec(K)
    ok_counts = True
    for N, M, nt, dt, T in [(1, 1, 1, 0.1, 0.5), (4, 3, 2, 0.05, 0.3), (2, 7, 5, 0.1, 1.0)]:
        params = hs.HmmParams(
            epsilon=1e-3, macro_dt=dt, micro_dt=1e-3 * 0.01, T=T, N=N, M=M, n_T=nt
        )
        run = hs.run_hmm(default_x0(K), np.zeros(K), hs.preset("p1"), op, op,
                         params, seed=1)
        ok_counts = ok_counts and (
            run.cost.total_micro_steps == params.n_0 * M * (nt + N - 1)
        )
    tol = 0.05
    params = hs.choose_params(tol, 1e-4, "weak")
    r1 = hs.cost_compare(params, tol, 1e-4, "weak")
    r2 = hs.cost_compare(params, tol, 5e-5, "weak")
    ok_ratio = math.isclose(r2, r1 / 2, rel_tol=1e-12)
    report(10, "cost model", ok_counts and ok_ratio,
           f"micro-step identity exact, ratio halves ({r1:.3e} -> {r2:.3e}), "
           f"{time.perf_counter()-t0:.1f}s")
