import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtrit

from hmm_spde.averaging import (
    gaussian_nu,
    gaussian_shifted,
    make_gaussian_fbar,
    reference_solution,
    run_averaged,
)
from hmm_spde.coefficients import CoefficientSpec, preset
from hmm_spde.direct import run_direct
from hmm_spde.experiments import (
    TestFunctional,
    _oracle_measure,
    averaging_experiment,
    default_x0,
    fit_loglog_slope,
    fit_semilog_slope,
    invariant_law_tau_sweep,
    macro_order_experiment,
    sample_stationary_linear,
    strong_error_experiment,
    warmup_bias_experiment,
    weak_error_experiment,
)
from hmm_spde.hmm import HmmParams, run_hmm
from hmm_spde.micro import discrete_stationary_variances
from hmm_spde.noise import mix_seed
from hmm_spde.spectral import laplacian_spec

PI2 = np.pi**2


class TestSlopeFits:
    def test_recovers_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x**-0.5
        slope, lo, hi, used = fit_loglog_slope(x, y, np.zeros(4))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert used.all()
        assert lo <= slope <= hi

    def test_recovers_exponential_rate(self):
        n = np.arange(1.0, 7.0)
        y = 0.3 * np.exp(-0.8 * n)
        slope, *_ = fit_semilog_slope(n, y, np.zeros(6))
        assert slope == pytest.approx(-0.8, abs=1e-12)

    def test_noise_dominated_rows_excluded(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x**-0.5
        se = np.array([0.0, 0.0, 0.0, y[3]])  # last row: stderr == error
        slope, lo, hi, used = fit_loglog_slope(x, y, se)
        assert used.tolist() == [True, True, True, False]
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_zero_error_rows_excluded(self):
        x = np.array([1.0, 2.0, 4.0])
        y = np.array([1.0, 0.0, 0.25])
        slope, *_ , used = fit_loglog_slope(x, y, np.zeros(3))
        assert used.tolist() == [True, False, True]

    def test_too_few_rows(self):
        slope, lo, hi, used = fit_loglog_slope(
            np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.zeros(2)
        )
        assert math.isnan(slope)


def _scipy_fit(values, errors, stderrs, log_x):
    """The fit as scipy.stats computes it: the reference for the package's."""
    used = (errors > 0) & (stderrs < errors / 3.0)
    n = int(used.sum())
    if n < 2:
        return math.nan, math.nan, math.nan
    lx = np.log(values[used]) if log_x else values[used]
    res = stats.linregress(lx, np.log(errors[used]))
    if n < 3:
        return res.slope, math.nan, math.nan
    t = stats.t.ppf(0.975, n - 2)
    return res.slope, res.slope - t * res.stderr, res.slope + t * res.stderr


_X4 = np.array([1.0, 2.0, 4.0, 8.0])


@st.composite
def _fit_rows(draw):
    n = draw(st.integers(3, 12))
    values = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n, unique=True))
    errors = draw(st.lists(st.floats(1e-8, 1e2), min_size=n, max_size=n))
    # ratios at or above 1/3 drop the row from the fit
    ratios = draw(st.lists(st.sampled_from([0.0, 0.1, 0.33, 1 / 3, 0.5]),
                           min_size=n, max_size=n))
    errors = np.array(errors)
    return np.array(values), errors, errors * np.array(ratios)


class TestSlopeFitParity:
    """The package fits without scipy.stats; its numbers equal scipy.stats's."""

    @settings(max_examples=200, deadline=None)
    @given(rows=_fit_rows(), log_x=st.booleans())
    # exact power laws: r rounds past +1 and past -1 and is clipped
    @example(rows=(_X4, 3.0 * _X4, np.zeros(4)), log_x=True)
    @example(rows=(_X4, 0.3 / _X4, np.zeros(4)), log_x=True)
    def test_equals_linregress_and_t_ppf(self, rows, log_x):
        values, errors, stderrs = rows
        fit = fit_loglog_slope if log_x else fit_semilog_slope
        try:
            expected = _scipy_fit(values, errors, stderrs, log_x)
        except ValueError as exc:  # every usable x maps to one log value
            with pytest.raises(ValueError, match=str(exc)):
                fit(values, errors, stderrs)
            return
        slope, lo, hi, _ = fit(values, errors, stderrs)
        np.testing.assert_array_equal([slope, lo, hi], expected)

    def test_t_quantile_equals_t_ppf(self):
        df = np.arange(1, 500)
        np.testing.assert_array_equal(stdtrit(df, 0.975), stats.t.ppf(0.975, df))

    def test_identical_x_rejected_like_linregress(self):
        x, y = np.array([2.0, 2.0, 2.0]), np.array([0.5, 0.3, 0.1])
        with pytest.raises(ValueError) as ref:
            stats.linregress(np.log(x), np.log(y))
        with pytest.raises(ValueError) as ours:
            fit_loglog_slope(x, y, np.zeros(3))
        assert str(ours.value) == str(ref.value)

    @pytest.mark.parametrize("level", [0.5, 0.1, 3.0])
    def test_constant_errors(self, level):
        slope, lo, hi, used = fit_loglog_slope(
            np.array([1.0, 2.0, 4.0]), np.full(3, level), np.zeros(3))
        assert slope == 0.0 and math.isnan(lo) and math.isnan(hi)
        assert used.all()

    def test_two_rows_nan_ci(self):
        slope, lo, hi, used = fit_loglog_slope(
            np.array([1.0, 2.0]), np.array([0.5, 0.3]), np.zeros(2))
        assert slope == stats.linregress(np.log([1.0, 2.0]), np.log([0.5, 0.3])).slope
        assert math.isnan(lo) and math.isnan(hi)


class TestFunctionals:
    def test_cos_inner_bounded_and_smooth(self):
        K = 8
        h = np.zeros(K)
        h[0] = 1.0
        phi = TestFunctional(kind="cos_inner", h=h)
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(50):
            x = rng.standard_normal(K) * 3
            assert abs(phi(x)) <= 1.0
            # directional finite-difference first derivative bounded by |h|
            d = rng.standard_normal(K)
            d /= np.linalg.norm(d)
            fd = (phi(x + eps * d) - phi(x - eps * d)) / (2 * eps)
            assert abs(fd) <= np.linalg.norm(h) + 1e-4

    def test_exp_neg_norm2_bounded_and_smooth(self):
        K = 6
        phi = TestFunctional(kind="exp_neg_norm2")
        rng = np.random.default_rng(1)
        eps = 1e-6
        for _ in range(50):
            x = rng.standard_normal(K)
            assert 0 < phi(x) <= 1.0
            d = rng.standard_normal(K)
            d /= np.linalg.norm(d)
            fd = (phi(x + eps * d) - phi(x - eps * d)) / (2 * eps)
            # |grad| = 2 |x| exp(-|x|^2) <= sqrt(2/e)
            assert abs(fd) <= math.sqrt(2 / math.e) + 1e-4

    def test_mode_projection_linear(self):
        K = 4
        h = np.zeros(K)
        h[2] = 1.0
        phi = TestFunctional(kind="mode_projection", h=h)
        assert phi(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(3.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TestFunctional(kind="bogus")(np.zeros(2))


class TestInvariantTauSweep:
    def test_per_mode_error_positive_and_monotone(self):
        rep = invariant_law_tau_sweep(K=255, tau_list=(1e-2, 1e-3, 1e-4))
        errs = [r.error for r in rep.rows]
        assert all(e > 0 for e in errs)
        assert errs[0] > errs[1] > errs[2]  # decreasing with tau

    def test_slope_near_half_with_many_modes(self):
        rep = invariant_law_tau_sweep(K=4095, tau_list=(1e-2, 1e-3, 1e-4, 1e-5))
        assert rep.slope == pytest.approx(0.5, abs=0.05)
        assert rep.runtime_seconds < 1.0

    def test_deterministic(self):
        a = invariant_law_tau_sweep(K=63, tau_list=(1e-2, 1e-3))
        b = invariant_law_tau_sweep(K=63, tau_list=(1e-2, 1e-3))
        assert a.rows == b.rows

    def test_linear_drift_variant_same_order(self):
        # the p3-style chain (g = -c y) keeps the half-order covariance
        # discrepancy; its tau -> 0 variances match the shifted Gaussian law
        rep = invariant_law_tau_sweep(K=4095, tau_list=(1e-2, 1e-3, 1e-4, 1e-5),
                                      drift_shift=1.0)
        assert rep.slope == pytest.approx(0.5, abs=0.07)
        assert all(r.error > 0 for r in rep.rows)

    def test_zero_drift_reduces_to_base_case(self):
        a = invariant_law_tau_sweep(K=31, tau_list=(1e-2, 1e-3))
        b = invariant_law_tau_sweep(K=31, tau_list=(1e-2, 1e-3), drift_shift=0.0)
        assert a.rows == b.rows


class TestMacroOrder:
    def test_first_order_on_smooth_data(self):
        rep = macro_order_experiment(K=15, T=0.5, fine_factor=32)
        assert rep.slope >= 0.9
        assert rep.meta["richardson_gap"] < min(r.error for r in rep.rows) / 10

    def test_single_step_finite(self):
        rep = macro_order_experiment(K=7, T=0.25, dt_list=[0.25], fine_factor=64)
        assert np.isfinite(rep.rows[0].error)

    def test_g_preset_rejected(self):
        with pytest.raises(ValueError):
            macro_order_experiment(problem="p2")

    def test_dt_that_does_not_divide_T_rejected(self):
        # round(0.25 / 0.1) = 2 steps would end at 0.2, short of the reference's T
        with pytest.raises(ValueError, match=r"dt=0\.1 .*T=0\.25"):
            macro_order_experiment(K=7, T=0.25, dt_list=[0.125, 0.1], fine_factor=4)


class TestWarmupBias:
    def test_rate_matches_ar1(self):
        rep = warmup_bias_experiment(M=8192, n_T_values=(1, 2, 3, 4), seed=5)
        target = rep.meta["reference_rate_per_step"]
        assert -rep.slope == pytest.approx(target, rel=0.25)
        assert rep.fit_kind == "semilogy"

    def test_deterministic(self):
        a = warmup_bias_experiment(M=512, n_T_values=(1, 2), seed=9)
        b = warmup_bias_experiment(M=512, n_T_values=(1, 2), seed=9)
        assert a.rows == b.rows


class TestStrongError:
    def test_tiny_sweep_structure_and_determinism(self):
        kw = dict(sweep="M", sweep_values=(1, 4), K=15, n_seeds=8, seed=3,
                  n_T=20, tau=1e-3)
        a = strong_error_experiment(**kw)
        b = strong_error_experiment(**kw)
        assert a.rows == b.rows
        assert a.rows[0].error > a.rows[1].error  # more replicas, less error
        assert all(r.n_samples == 8 for r in a.rows)

    def test_y_independent_f_error_vanishes(self, monkeypatch):
        # collapse property seen through the experiment harness: patch the
        # preset registry with a y-independent f and the error is zero
        import hmm_spde.experiments as exp_mod

        spec = CoefficientSpec(
            name="p1",
            f=lambda xi, x, y: np.sin(np.pi * xi) * np.exp(-np.square(x)) + 0 * y,
            g=None, sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0,
        )
        monkeypatch.setattr(exp_mod, "preset", lambda name: spec)
        rep = strong_error_experiment(sweep="M", sweep_values=(1, 2), K=7,
                                      n_seeds=2, seed=0, n_T=3, tau=1e-3)
        assert all(r.error < 1e-12 for r in rep.rows)

    def test_invalid_sweep_rejected(self):
        with pytest.raises(ValueError):
            strong_error_experiment(sweep="Q")

    def test_g_nonzero_rejected_before_any_work(self, monkeypatch):
        # replicas start from the stationary law of the g = 0 chain; p3 has
        # a Gaussian oracle but g = -y, so it must fail before any run
        import hmm_spde.experiments as exp_mod

        def no_work(*args, **kwargs):
            raise AssertionError("the experiment started work")

        monkeypatch.setattr(exp_mod, "run_hmm", no_work)
        with pytest.raises(ValueError, match="g = 0"):
            strong_error_experiment(problem="p3", K=7, n_seeds=2)

    def test_rows_equal_per_seed_loop(self):
        # the batched seeds give the same rows, bit for bit, as one run_hmm
        # call per seed; at this K and seed an axis-wise norm over the stack
        # changes the rows, so this also pins the per-seed norm
        K, T, tau, n_T, n_seeds, seed = 15, 0.2, 1e-3, 5, 3, 11
        sweep_values = (1, 3)
        rep = strong_error_experiment(sweep="M", sweep_values=sweep_values, K=K, T=T,
                                      tau=tau, n_T=n_T, n_seeds=n_seeds, seed=seed)
        op = laplacian_spec(K)
        coeffs = preset("p1")
        fbar = make_gaussian_fbar(coeffs, gaussian_nu(op), quad_order=40)
        x0 = default_x0(K)
        for ip, M in enumerate(sweep_values):
            params = HmmParams(epsilon=1e-6, macro_dt=0.1, micro_dt=1e-6 * tau, T=T,
                               N=1, M=M, n_T=n_T)
            xbar = run_averaged(x0, fbar, op, params.macro_dt, params.n_0)[-1]
            errs = np.empty(n_seeds)
            for s in range(n_seeds):
                run_seed = mix_seed(seed, ip, s)
                y0 = sample_stationary_linear(run_seed, params.tau, op, M)
                run = run_hmm(x0, y0, coeffs, op, op, params, run_seed)
                errs[s] = np.linalg.norm(run.X_final - xbar)
            assert rep.rows[ip].error == errs.mean()
            assert rep.rows[ip].mc_stderr == errs.std(ddof=1) / math.sqrt(n_seeds)


class TestWeakError:
    def test_odd_f_zero_weak_error(self):
        # F odd in y, G = 0, mode-projection observable: E X_n equals the
        # pure-decay scheme, so the weak error is zero-mean estimator noise
        K = 7
        op = laplacian_spec(K)
        spec = CoefficientSpec(
            name="odd", f=lambda xi, x, y: np.sin(y), g=None,
            sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0,
        )
        params = HmmParams(epsilon=1.0, macro_dt=0.1, micro_dt=0.05, T=0.3,
                           N=2, M=2, n_T=2)
        x0 = default_x0(K)
        h = np.zeros(K)
        h[0] = 1.0
        phi = TestFunctional(kind="mode_projection", h=h)
        xbar = run_averaged(x0, lambda x: np.zeros(K), op, 0.1, params.n_0)[-1]
        R = 400
        vals = np.empty(R)
        for s in range(R):
            y0 = sample_stationary_linear(mix_seed(1, s), params.tau, op, params.M)
            run = run_hmm(x0, y0, spec, op, op, params, mix_seed(2, s))
            vals[s] = phi(run.X_final)
        assert abs(vals.mean() - phi(xbar)) <= 4 * vals.std(ddof=1) / math.sqrt(R)

    def test_tiny_run_structure(self):
        rep = weak_error_experiment(sweep_values=(0.05, 0.02), K=7, n_seeds=4,
                                    seed=1, warmup_time=0.5, T=0.2)
        assert len(rep.rows) == 2
        assert rep.meta["functional"] == "cos_inner"

    def test_nt_sweep_mode(self):
        rep = weak_error_experiment(sweep="n_T", sweep_values=(2, 5), K=7,
                                    n_seeds=4, seed=1, tau=0.02, T=0.2)
        assert rep.sweep_variable == "n_T"

    def test_rows_equal_per_seed_loop(self):
        # the batched seeds give the same rows, bit for bit, as one run_hmm
        # call per seed
        K, T, warmup_time, n_seeds, seed = 15, 0.2, 0.2, 3, 7
        sweep_values = (0.04, 0.02)
        rep = weak_error_experiment(sweep_values=sweep_values, K=K, T=T,
                                    warmup_time=warmup_time, n_seeds=n_seeds, seed=seed)
        op = laplacian_spec(K)
        coeffs = preset("p3")
        fbar = make_gaussian_fbar(coeffs, gaussian_shifted(op, coeffs.lipschitz_g_y),
                                  quad_order=40)
        x0 = default_x0(K)
        h = np.zeros(K)
        h[0] = 1.0
        phi = TestFunctional(kind="cos_inner", h=h)
        for ip, tau in enumerate(sweep_values):
            params = HmmParams(epsilon=1e-6, macro_dt=0.1, micro_dt=1e-6 * tau, T=T,
                               N=1, M=1, n_T=max(1, int(round(warmup_time / tau))))
            phi_bar = phi(run_averaged(x0, fbar, op, params.macro_dt, params.n_0)[-1])
            vals = np.empty(n_seeds)
            for s in range(n_seeds):
                run = run_hmm(x0, np.zeros(K), coeffs, op, op, params,
                              mix_seed(seed, ip, s))
                vals[s] = phi(run.X_final)
            assert rep.rows[ip].error == abs(vals.mean() - phi_bar)
            assert rep.rows[ip].mc_stderr == vals.std(ddof=1) / math.sqrt(n_seeds)


class TestAveraging:
    def test_tiny_structure(self):
        rep = averaging_experiment(eps_values=(0.1, 0.03), K=7, T=0.1,
                                   tau_direct=0.02, n_seeds=4, seed=2)
        assert len(rep.strong.rows) == 2
        assert len(rep.weak.rows) == 2
        assert rep.strong.meta["richardson_gap"] >= 0
        # error grows with separation parameter on a clean sweep
        assert rep.strong.rows[0].value > rep.strong.rows[1].value

    def test_deterministic(self):
        kw = dict(eps_values=(0.1,), K=7, T=0.1, tau_direct=0.02, n_seeds=3, seed=4)
        a = averaging_experiment(**kw)
        b = averaging_experiment(**kw)
        assert a.strong.rows == b.strong.rows
        assert a.weak.rows == b.weak.rows

    @pytest.mark.parametrize("K", [7, 15])
    def test_rows_equal_per_seed_loop(self, K):
        # the batched seeds give the same rows, bit for bit, as one
        # run_direct call per seed; at K = 15 this also pins the per-seed
        # norm (an axis-wise norm over the stack changes these bits)
        T, tau_direct, n_seeds, seed = 0.1, 0.02, 3, 2
        eps_values = (0.1, 0.03)
        rep = averaging_experiment(eps_values=eps_values, K=K, T=T,
                                   tau_direct=tau_direct, n_seeds=n_seeds, seed=seed)
        op = laplacian_spec(K)
        coeffs = preset("p1")
        fbar = make_gaussian_fbar(coeffs, gaussian_nu(op), quad_order=40)
        x0 = default_x0(K)
        ref = reference_solution(x0, fbar, op, T, T / 2048)
        h = np.zeros(K)
        h[0] = 1.0
        phi = TestFunctional(kind="cos_inner", h=h)
        for ip, eps in enumerate(sorted(eps_values, reverse=True)):
            dist = np.empty(n_seeds)
            phis = np.empty(n_seeds)
            for s in range(n_seeds):
                run = run_direct(x0, np.zeros(K), coeffs, op, op, eps, eps * tau_direct,
                                 T, mix_seed(seed, ip, s))
                dist[s] = np.linalg.norm(run.trajectory_X[-1] - ref.field)
                phis[s] = phi(run.trajectory_X[-1])
            strong, weak = rep.strong.rows[ip], rep.weak.rows[ip]
            assert strong.error == dist.mean()
            assert strong.mc_stderr == dist.std(ddof=1) / math.sqrt(n_seeds)
            assert weak.error == abs(phis.mean() - phi(ref.field))
            assert weak.mc_stderr == phis.std(ddof=1) / math.sqrt(n_seeds)

    def test_refining_dt_does_not_move_estimates(self):
        # at fixed eps, halving the direct step changes the strong-error
        # estimate by less than the combined Monte-Carlo spread: the
        # discretization is not polluting the averaging measurement
        kw = dict(eps_values=(0.1,), K=7, T=0.2, n_seeds=16, seed=6)
        coarse = averaging_experiment(tau_direct=0.01, **kw).strong.rows[0]
        fine = averaging_experiment(tau_direct=0.005, **kw).strong.rows[0]
        gap = abs(coarse.error - fine.error)
        assert gap <= 4 * math.hypot(coarse.mc_stderr, fine.mc_stderr)


class TestSeedBudget:
    @pytest.mark.parametrize("n_seeds", [1, 0])
    @pytest.mark.parametrize("experiment", [
        strong_error_experiment, weak_error_experiment, averaging_experiment,
    ])
    def test_fewer_than_two_seeds_rejected_before_any_work(self, monkeypatch,
                                                            experiment, n_seeds):
        # one seed has no standard error: the stderrs came out nan, the fit
        # dropped every row and the report gave slope nan without an error
        import hmm_spde.experiments as exp_mod

        def no_work(name):
            raise AssertionError("the experiment started work")

        monkeypatch.setattr(exp_mod, "preset", no_work)
        with pytest.raises(ValueError, match=f"^n_seeds must be >= 2 .* got {n_seeds}$"):
            experiment(n_seeds=n_seeds)


class TestStationaryInit:
    def test_matches_declared_variances(self):
        op = laplacian_spec(6)
        tau = 0.02
        draws = sample_stationary_linear(7, tau, op, 40_000)
        v = discrete_stationary_variances(tau, op)
        emp = draws.var(axis=0, ddof=1)
        # 4 sigma for iid Gaussian variance estimates
        assert np.all(np.abs(emp - v) <= 4 * v * np.sqrt(2 / 40_000))


class TestOracleMeasure:
    """The Gaussian oracle follows the declared ``linear_drift``, not the name."""

    op = laplacian_spec(7)

    def test_presets(self):
        np.testing.assert_array_equal(
            _oracle_measure(preset("p1"), self.op).mode_variances,
            gaussian_nu(self.op).mode_variances)
        np.testing.assert_array_equal(
            _oracle_measure(preset("p3", c=2.0), self.op).mode_variances,
            gaussian_shifted(self.op, 2.0).mode_variances)
        with pytest.raises(ValueError, match="no Gaussian averaging oracle"):
            _oracle_measure(preset("p2"), self.op)

    def test_nonlinear_spec_named_p3_gets_no_oracle(self):
        spec = replace(preset("p2"), name="p3")
        with pytest.raises(ValueError, match="no Gaussian averaging oracle"):
            _oracle_measure(spec, self.op)

    def test_linear_drift_under_another_name_gets_the_oracle(self):
        spec = replace(preset("p3", c=0.5), name="custom", lipschitz_g_y=3.0)
        np.testing.assert_array_equal(
            _oracle_measure(spec, self.op).mode_variances,
            gaussian_shifted(self.op, 0.5).mode_variances)

    def test_linear_drift_survives_replace(self):
        # the benchmark's traced presets rebuild specs with dataclasses.replace
        spec = replace(preset("p3", c=1.5), f=preset("p1").f)
        assert spec.linear_drift == 1.5
        assert preset("p1").linear_drift is None and preset("p2").linear_drift is None
