import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmm_spde.hmm as hmm_mod
import hmm_spde.micro as micro_mod
import hmm_spde.noise as noise_mod
from hmm_spde.coefficients import CoefficientSpec, preset
from hmm_spde.hmm import (
    CostReport,
    HmmParams,
    choose_params,
    cost_compare,
    run_hmm,
)
from hmm_spde.micro import discrete_stationary_variances
from hmm_spde.averaging import reference_solution, run_averaged
from hmm_spde.coefficients import eval_F
from hmm_spde.experiments import _setup, default_x0, fit_loglog_slope, sample_stationary_linear
from hmm_spde.noise import NoiseStreamKey, mix_seed, standard_normals
from hmm_spde.spectral import (
    grid_points,
    h_norm,
    implicit_euler_step,
    laplacian_spec,
    to_grid,
    to_spectral,
)

PI2 = np.pi**2
P1 = preset("p1")


def small_params(**kw):
    base = dict(epsilon=1e-3, macro_dt=0.1, micro_dt=1e-3 * 0.05, T=0.3, N=2, M=2, n_T=2)
    base.update(kw)
    return HmmParams(**base)


def y_independent_spec():
    return CoefficientSpec(
        name="xonly",
        f=lambda xi, x, y: np.sin(np.pi * xi) * np.exp(-np.square(x)) + 0 * y,
        g=None,
        sup_f=1.0,
        sup_g=0.0,
        lipschitz_g_y=0.0,
    )


def y_free_spec():
    # the same F with no y at all: f's values carry no replica or window axis
    return dataclasses.replace(
        y_independent_spec(), name="yfree",
        f=lambda xi, x, y: np.sin(np.pi * xi) * np.exp(-np.square(x)),
    )


class TestHmmParams:
    def test_derived_quantities(self):
        p = HmmParams(epsilon=0.01, macro_dt=0.1, micro_dt=0.001, T=1.0, N=5, M=3, n_T=4)
        assert p.tau == pytest.approx(0.1)
        assert p.n_0 == 10
        assert p.m_0 == 8  # n_T + N - 1

    def test_horizon_must_be_whole_macro_steps(self):
        # before: n_0 = floor(T / macro_dt) = 3, and the run ended at 0.9
        with pytest.raises(ValueError,
                           match=r"^T 1\.0 is not a whole number of macro_dt 0\.3 steps$"):
            HmmParams(epsilon=1.0, macro_dt=0.3, micro_dt=0.001, T=1.0)

    @pytest.mark.parametrize("value", [1.5, 2.0])
    @pytest.mark.parametrize("name", ["N", "M", "n_T"])
    def test_counts_must_be_integers(self, name, value):
        # before: M=1.5 passed and the run died in numpy with "'float' object
        # cannot be interpreted as an integer"
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number >= 1, got"):
            HmmParams(epsilon=1.0, macro_dt=0.1, micro_dt=0.01, T=1.0, **{name: value})
        assert getattr(HmmParams(epsilon=1.0, macro_dt=0.1, micro_dt=0.01, T=1.0,
                                 **{name: np.int64(2)}), name) == 2

    def test_minimum_counts(self):
        with pytest.raises(ValueError):
            HmmParams(epsilon=1.0, macro_dt=0.1, micro_dt=0.01, T=1.0, N=0)
        with pytest.raises(ValueError):
            HmmParams(epsilon=1.0, macro_dt=0.1, micro_dt=0.01, T=1.0, M=0)
        with pytest.raises(ValueError):
            HmmParams(epsilon=1.0, macro_dt=0.1, micro_dt=0.01, T=1.0, n_T=0)

    def test_tau_cap(self):
        with pytest.raises(ValueError, match="tau"):
            HmmParams(epsilon=0.001, macro_dt=0.1, micro_dt=0.01, T=1.0)  # tau = 10

    def test_tau_cap_message_and_edge(self):
        with pytest.raises(ValueError, match=r"^effective micro step tau=1\.5 exceeds 1\.0$"):
            HmmParams(epsilon=0.02, macro_dt=0.1, micro_dt=0.03, T=1.0)
        assert HmmParams(epsilon=0.02, macro_dt=0.1, micro_dt=0.02, T=1.0).tau == 1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["epsilon", "macro_dt", "micro_dt", "T"])
    def test_bad_scale_rejected_by_name(self, name, value):
        # before: macro_dt=nan failed in run_hmm, T=inf raised OverflowError,
        # epsilon=nan and micro_dt=nan surfaced as non-finite states
        kw = dict(epsilon=1.0, macro_dt=0.1, micro_dt=0.01, T=1.0)
        kw[name] = value
        with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got"):
            HmmParams(**kw)

    def test_infinite_step_count_rejected(self):
        # before: HmmParams(T=1e308).n_0 raised OverflowError
        with pytest.raises(ValueError,
                           match=r"^step count T/macro_dt = 1e\+308/0\.05 is not finite$"):
            HmmParams(epsilon=1.0, macro_dt=0.05, micro_dt=0.01, T=1e308)


def estimate_block0(x, states, p, seed, coeffs, op):
    """Ftilde and carried (M, K) states of macro step 0 of seed ``seed``'s
    run from the frozen field x: the kernel fed from the run's own streams."""
    noise = hmm_mod._increments((seed,), p, x.shape[-1])
    ft, y = hmm_mod.estimate_ftilde(x[None], np.asarray(states, float)[None], p, noise,
                                    coeffs, op)
    return ft[0], y[0]


class TestEstimateFtilde:
    def test_y_independent_f_exact(self):
        # constant average: Ftilde equals F(x) for any (N, M, n_T) and every
        # seed row, also for an f that ignores y (before: Ftilde = F/M)
        K = 15
        op = laplacian_spec(K)
        X = np.stack([default_x0(K), -0.5 * default_x0(K)])
        for spec in (y_independent_spec(), y_free_spec()):
            expected = eval_F(spec, X, np.zeros(K))
            for N, M, nt in [(1, 1, 1), (3, 2, 2), (5, 4, 1)]:
                p = small_params(N=N, M=M, n_T=nt)
                noise = hmm_mod._increments((11, 12), p, K)
                ft, new_states = hmm_mod.estimate_ftilde(X, np.zeros((2, M, K)), p, noise,
                                                         spec, op)
                np.testing.assert_allclose(ft, expected, atol=1e-13)
                assert new_states.shape == (2, M, K)

    def test_window_variance_matches_ar1_oracle(self):
        # g = 0, F(x, y) = y, stationary start: per-mode variance of Ftilde is
        # the AR(1) window-average covariance sum over the window, divided by M
        spec_y = CoefficientSpec(
            name="ident", f=lambda xi, x, y: y, g=None,
            sup_f=np.inf, sup_g=0.0, lipschitz_g_y=0.0,
        )
        K = 8
        op = laplacian_spec(K)
        tau = 0.05
        N, nt, M = 6, 2, 3
        p = HmmParams(epsilon=1.0, macro_dt=0.1, micro_dt=tau, T=0.1, N=N, M=M, n_T=nt)
        v = discrete_stationary_variances(tau, op)
        a = 1 / (1 + tau * op.eigenvalues)
        R = 3000
        x0 = default_x0(K)
        samples = np.empty((R, K))
        for rr in range(R):
            y0 = sample_stationary_linear(mix_seed(4, rr), tau, op, M)
            ft, _ = estimate_block0(x0, y0, p, mix_seed(5, rr), spec_y, op)
            samples[rr] = ft
        window = range(nt, nt + N)
        for k in (0, 2):
            cov_sum = sum(
                v[k] * a[k] ** abs(m1 - m2) for m1 in window for m2 in window
            )
            oracle = cov_sum / (N**2 * M)
            emp = samples[:, k].var(ddof=1)
            assert abs(emp - oracle) <= 4 * oracle * math.sqrt(2 / R)
        # stationary mean is zero
        assert abs(samples[:, 0].mean()) <= 4 * samples[:, 0].std() / math.sqrt(R)

    def test_duplicated_replicas_average_to_one(self):
        # two replicas fed the same noise and states collapse to the M = 1
        # estimator: averaging duplicates must not pretend to reduce variance
        from hmm_spde.micro import step_replicas
        from hmm_spde.spectral import grid_points, to_grid, to_spectral

        K = 8
        op = laplacian_spec(K)
        tau = 0.05
        steps = 5
        key = NoiseStreamKey(3, replica=1)
        incr = standard_normals(key, K, count=steps) * np.sqrt(tau)
        xi = grid_points(K)
        x = default_x0(K)
        x_grid = to_grid(x)
        res = 1 / (1 + tau * op.eigenvalues)
        y_single = np.zeros((1, K))
        y_dup = np.zeros((2, K))
        f_single = np.zeros(K)
        f_dup = np.zeros(K)
        for m in range(steps):
            y_single = step_replicas(y_single, x_grid, xi, incr[m], res, tau, P1)
            y_dup = step_replicas(y_dup, x_grid, xi, incr[m], res, tau, P1)
            f_single += P1.f(xi, x_grid, to_grid(y_single)).sum(axis=0)
            f_dup += P1.f(xi, x_grid, to_grid(y_dup)).sum(axis=0)
        np.testing.assert_allclose(
            to_spectral(f_dup / (2 * steps)), to_spectral(f_single / steps), rtol=1e-13
        )

    def test_bounded_by_sup_f(self):
        K = 15
        op = laplacian_spec(K)
        p = small_params()
        rng = np.random.default_rng(10)
        for trial in range(5):
            states = rng.standard_normal((p.M, K))
            ft, _ = estimate_block0(default_x0(K), states, p, trial, P1, op)
            assert h_norm(ft) <= P1.sup_f


class TestMacroStep:
    # the slow update X_{n+1} = S_dt (X_n + dt * Ftilde_n) that run_hmm makes
    def test_zero_forcing_resolvent_decay(self):
        K = 4
        op = laplacian_spec(K)
        p = small_params()
        out = implicit_euler_step(np.ones(K), np.zeros(K), p.macro_dt, op)
        np.testing.assert_allclose(out, 1 / (1 + p.macro_dt * op.eigenvalues), rtol=1e-14)

    def test_first_mode_halves(self):
        K = 2
        op = laplacian_spec(K)
        p = small_params(macro_dt=1 / PI2, T=1 / PI2)
        out = implicit_euler_step(np.array([1.0, 0.0]), np.zeros(K), p.macro_dt, op)
        assert out[0] == pytest.approx(0.5, rel=1e-14)

    def test_per_step_norm_bound(self):
        # |X_{n+1}| <= (|X_n| + dt sup_f) / (1 + lambda dt) for bounded forcing
        K = 15
        op = laplacian_spec(K)
        p = small_params()
        rng = np.random.default_rng(11)
        X = rng.standard_normal(K)
        for trial in range(10):
            f = rng.standard_normal(K)
            f = f / h_norm(f) * P1.sup_f  # forcing at the norm bound
            out = implicit_euler_step(X, f, p.macro_dt, op)
            bound = (h_norm(X) + p.macro_dt * P1.sup_f) / (1 + PI2 * p.macro_dt)
            assert h_norm(out) <= bound * (1 + 1e-12)
            X = out


class TestRunHmm:
    def test_zero_f_pure_decay_independent_of_micro(self):
        K = 6
        op = laplacian_spec(K)
        zero_spec = CoefficientSpec(
            name="zero",
            f=lambda xi, x, y: np.zeros(np.broadcast_shapes(np.shape(xi), np.shape(y))),
            g=None, sup_f=0.0, sup_g=0.0, lipschitz_g_y=0.0,
        )
        x0 = default_x0(K)
        outs = []
        for N, M, nt in [(1, 1, 1), (4, 3, 2)]:
            p = small_params(N=N, M=M, n_T=nt)
            run = run_hmm(x0, np.zeros(K), zero_spec, op, op, p, seed=5)
            outs.append(run.X_final)
            expected = x0 / (1 + p.macro_dt * op.eigenvalues) ** p.n_0
            np.testing.assert_allclose(run.X_final, expected, rtol=1e-13)
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-14)

    def test_collapse_to_averaged_scheme(self):
        # y-independent F: multiscale trajectory equals the averaged scheme
        K = 15
        op = laplacian_spec(K)
        spec = y_independent_spec()
        x0 = default_x0(K)
        fbar = lambda x: eval_F(spec, x, np.zeros(K))
        for N, M, nt in [(1, 1, 1), (3, 2, 2), (2, 4, 3)]:
            p = small_params(N=N, M=M, n_T=nt)
            run = run_hmm(x0, np.zeros(K), spec, op, op, p, seed=2)
            traj = run_averaged(x0, fbar, op, p.macro_dt, p.n_0)
            assert np.abs(run.trajectory - traj).max() < 1e-12

    def test_cost_identity(self):
        K = 4
        op = laplacian_spec(K)
        for N, M, nt in [(1, 1, 1), (5, 3, 2), (2, 7, 4)]:
            p = small_params(N=N, M=M, n_T=nt)
            run = run_hmm(default_x0(K), np.zeros(K), P1, op, op, p, seed=1)
            assert run.cost.total_micro_steps == p.n_0 * M * (nt + N - 1)
            assert run.cost.cost_per_unit_time == pytest.approx(
                M * (nt + N - 1) / p.macro_dt
            )

    def test_deterministic_in_seed(self):
        K = 8
        op = laplacian_spec(K)
        p = small_params()
        a = run_hmm(default_x0(K), np.zeros(K), P1, op, op, p, seed=42)
        b = run_hmm(default_x0(K), np.zeros(K), P1, op, op, p, seed=42)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)
        np.testing.assert_array_equal(a.final_micro_states, b.final_micro_states)

    def test_different_seeds_differ(self):
        K = 8
        op = laplacian_spec(K)
        p = small_params()
        a = run_hmm(default_x0(K), np.zeros(K), P1, op, op, p, seed=1)
        b = run_hmm(default_x0(K), np.zeros(K), P1, op, op, p, seed=2)
        assert not np.array_equal(a.X_final, b.X_final)

    def test_trajectory_uniformly_bounded(self):
        # |X_n| <= |x0| + sup_f / lambda_1 pathwise for bounded F
        K = 15
        op = laplacian_spec(K)
        p = small_params(T=1.0)
        x0 = default_x0(K) * 3
        run = run_hmm(x0, np.zeros(K), P1, op, op, p, seed=3)
        norms = np.linalg.norm(run.trajectory, axis=1)
        assert norms.max() <= h_norm(x0) + P1.sup_f / PI2 + 1e-12

    def test_weak_only_warns(self):
        spec = CoefficientSpec(
            name="wd_only", f=lambda xi, x, y: np.cos(y),
            g=lambda xi, x, y: 12.0 * np.sin(y),
            sup_f=1.0, sup_g=12.0, lipschitz_g_y=12.0,
            potential=lambda xi, x, y: -12.0 * np.cos(y),
        )
        K = 6
        op = laplacian_spec(K)
        p = small_params(N=1, M=1, n_T=1)
        with pytest.warns(UserWarning, match="weak dissipativity"):
            run_hmm(default_x0(K), np.zeros(K), spec, op, op, p, seed=0)

    def test_no_dissipativity_rejected(self):
        spec = CoefficientSpec(
            name="bad", f=lambda xi, x, y: np.cos(y),
            g=lambda xi, x, y: 20.0 * y,
            sup_f=1.0, sup_g=np.inf, lipschitz_g_y=20.0,
        )
        K = 4
        op = laplacian_spec(K)
        with pytest.raises(ValueError, match="dissipativity"):
            run_hmm(default_x0(K), np.zeros(K), spec, op, op, small_params(), seed=0)

    def test_zero_step_run_rejected(self):
        # before: HmmParams took n_0 = 0 and run_hmm rejected it
        with pytest.raises(ValueError, match=r"^T 0\.3 is not a whole number of macro_dt 0\.5 "):
            small_params(macro_dt=0.5, T=0.3)

    def test_per_replica_initial_states(self):
        K = 5
        op = laplacian_spec(K)
        p = small_params(M=3)
        y0 = sample_stationary_linear(9, p.tau, op, 3)
        run = run_hmm(default_x0(K), y0, P1, op, op, p, seed=1)
        assert run.final_micro_states.shape == (3, K)
        with pytest.raises(ValueError):
            run_hmm(default_x0(K), y0[:2], P1, op, op, p, seed=1)

    def test_seed_pair_distance_shrinks_with_replicas(self):
        # trajectories from two seeds differ by the Monte-Carlo fluctuation of
        # the estimator, so the gap contracts roughly 4x from M = 1 to M = 16
        K = 15
        op = laplacian_spec(K)
        x0 = default_x0(K)
        gaps = {}
        for M in (1, 16):
            p = small_params(M=M, N=1, n_T=30, micro_dt=1e-3 * 1e-3, T=0.3)
            d = []
            for pair in range(8):
                runs = []
                for side in (0, 1):
                    s = mix_seed(70, M, pair, side)
                    y0 = sample_stationary_linear(s, p.tau, op, M)
                    runs.append(run_hmm(x0, y0, P1, op, op, p, seed=s))
                d.append(h_norm(runs[0].X_final - runs[1].X_final))
                assert d[-1] > 0  # distinct seeds produce distinct paths
            gaps[M] = np.mean(d)
        ratio = gaps[1] / gaps[16]
        assert 2.0 <= ratio <= 8.0  # 1/sqrt(M) scaling, wide desk-scale band

    def test_one_kernel_call_per_macro_step(self, monkeypatch):
        # run_hmm steps through the module-level kernel, params third: the
        # benchmark's tracer wraps hmm.estimate_ftilde by name and reads
        # params from its third positional argument
        K = 7
        op = laplacian_spec(K)
        p = small_params(M=3)
        coeffs = preset("p2")
        plain = run_hmm(default_x0(K), np.zeros(K), coeffs, op, op, p, [8, 9])
        calls = []
        kernel = hmm_mod.estimate_ftilde

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(hmm_mod, "estimate_ftilde", counting)
        run = run_hmm(default_x0(K), np.zeros(K), coeffs, op, op, p, [8, 9])
        assert len(calls) == p.n_0
        assert all(args[2] is p for args in calls)
        np.testing.assert_array_equal(run.trajectory, plain.trajectory)
        np.testing.assert_array_equal(run.final_micro_states, plain.final_micro_states)


def estimate_ftilde_per_step(X, Y, params, noise, coeffs, op_b):
    """Reference: the macro-step kernel with one f call per window step,
    added into the sum as soon as the step is taken."""
    K = X.shape[-1]
    tau = params.tau
    xi = grid_points(K)
    x_grid = to_grid(X)[:, None, :]
    res = 1.0 / op_b.euler_denominator(tau)
    f_sum = np.zeros(X.shape)
    y_grid = None
    for m in range(1, params.m_0 + 1):
        Y = hmm_mod.step_replicas(Y, x_grid, xi, next(noise), res, tau, coeffs, y_grid)
        if m >= params.n_T:
            y_grid = to_grid(Y)
            f_sum += coeffs.f(xi, x_grid, y_grid).sum(axis=1)
    return to_spectral(f_sum / (params.M * params.N)), Y


class TestWindowBlocks:
    # block steps 1 give one f call per window step, 3 blocks that split
    # N = 5 and 8 unevenly, None the default (the whole window in one block)
    @pytest.mark.parametrize("block_steps", [1, 3, None])
    @pytest.mark.parametrize("problem", ["p1", "p2"])
    def test_blocks_equal_per_step_kernel(self, monkeypatch, problem, block_steps):
        K = 5
        op = laplacian_spec(K)
        calls = []
        spec = preset(problem)
        coeffs = dataclasses.replace(spec, f=lambda *a: calls.append(1) or spec.f(*a))
        rng = np.random.default_rng(21)
        for S, M, nt, N in itertools.product((1, 3), (1, 4), (1, 3), (1, 5, 8)):
            p = small_params(N=N, M=M, n_T=nt)
            seeds = [5, 2**40 + 3, 17][:S]
            if block_steps is not None:
                monkeypatch.setattr(micro_mod, "_WINDOW_BLOCK", block_steps * S * M * K)
            X = rng.standard_normal((S, K))
            Y = want_Y = 0.3 * rng.standard_normal((S, M, K))
            noise = hmm_mod._increments(seeds, p, K)
            want_noise = hmm_mod._increments(seeds, p, K)
            for _ in range(p.n_0):
                del calls[:]
                ft, Y = hmm_mod.estimate_ftilde(X, Y, p, noise, coeffs, op)
                assert len(calls) == -(-N // (block_steps or N))  # one f call per block
                want, want_Y = estimate_ftilde_per_step(X, want_Y, p, want_noise, spec, op)
                np.testing.assert_array_equal(ft, want)
                np.testing.assert_array_equal(Y, want_Y)


def nan_g_spec():
    return CoefficientSpec(
        name="nan_g", f=lambda xi, x, y: np.cos(y),
        g=lambda xi, x, y: np.full(np.broadcast_shapes(np.shape(xi), np.shape(y)), np.nan),
        sup_f=1.0, sup_g=1.0, lipschitz_g_y=0.0,
    )


class TestNoiseLayout:
    # S M = 6 streams and m0 = 4: _CHUNK_STEPS 1 and 7 give 1-step chunks,
    # 20 gives 3-step chunks that straddle macro blocks, the default one block
    @pytest.mark.parametrize("chunk", [1, 7, 20, None])
    @pytest.mark.parametrize("problem", ["p1", "p2"])
    def test_macro_step_reads_its_own_blocks(self, monkeypatch, problem, chunk):
        # every increment that run_hmm hands to micro step m of macro step n
        # is step n*m0 + m of replica j's stream, for every seed, however the
        # streams are read in chunks
        K = 5
        op = laplacian_spec(K)
        p = small_params(M=3, N=3, n_T=2)
        seeds = [4, 2**40 + 1]
        if chunk is not None:
            monkeypatch.setattr(noise_mod, "_CHUNK_STEPS", chunk)
        handed = []

        def recording_step(y, x_grid, xi, increment, *rest):
            handed.append(increment.copy())
            return step_replicas(y, x_grid, xi, increment, *rest)

        step_replicas = hmm_mod.step_replicas
        monkeypatch.setattr(hmm_mod, "step_replicas", recording_step)
        run_hmm(default_x0(K), np.zeros(K), preset(problem), op, op, p, seeds)
        m0 = p.m_0
        assert len(handed) == p.n_0 * m0
        for s, seed in enumerate(seeds):
            for n in range(p.n_0):
                for m in range(m0):
                    for j in range(1, p.M + 1):
                        key = NoiseStreamKey(seed, replica=j, step=n * m0 + m)
                        want = standard_normals(key, K) * np.sqrt(p.tau)
                        np.testing.assert_array_equal(handed[n * m0 + m][s, j - 1], want)


class TestSeedAxis:
    SEEDS = [3, 2**33 + 7, 3, mix_seed(1, 2)]  # a duplicate and a seed >= 2^33

    @pytest.mark.parametrize("per_seed_y0", [False, True])
    @pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
    def test_rows_equal_single_seed_runs(self, problem, per_seed_y0):
        K = 7
        op = laplacian_spec(K)
        coeffs = preset(problem)
        p = small_params(M=3)
        S = len(self.SEEDS)
        if per_seed_y0:
            y0 = np.stack([sample_stationary_linear(mix_seed(5, s), p.tau, op, p.M)
                           for s in range(S)])
        else:
            y0 = 0.1 * np.arange(K)
        batch = run_hmm(default_x0(K), y0, coeffs, op, op, p, self.SEEDS)
        assert batch.trajectory.shape == (p.n_0 + 1, S, K)
        assert batch.X_final.shape == (S, K)
        assert batch.final_micro_states.shape == (S, p.M, K)
        assert batch.cost.total_micro_steps == S * p.n_0 * p.M * p.m_0
        assert batch.seed == tuple(self.SEEDS)
        for s, seed in enumerate(self.SEEDS):
            one = run_hmm(default_x0(K), y0[s] if per_seed_y0 else y0, coeffs, op, op,
                          p, seed)
            np.testing.assert_array_equal(batch.trajectory[:, s], one.trajectory)
            np.testing.assert_array_equal(batch.final_micro_states[s],
                                          one.final_micro_states)

    def test_per_replica_y0_shared_by_seeds(self):
        K = 5
        op = laplacian_spec(K)
        p = small_params(M=2)
        y0 = sample_stationary_linear(9, p.tau, op, p.M)
        batch = run_hmm(default_x0(K), y0, P1, op, op, p, [1, 2])
        for s, seed in enumerate([1, 2]):
            one = run_hmm(default_x0(K), y0, P1, op, op, p, seed)
            np.testing.assert_array_equal(batch.trajectory[:, s], one.trajectory)
        with pytest.raises(ValueError, match="shapes"):
            run_hmm(default_x0(K), np.stack([y0]), P1, op, op, p, seed=1)

    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5),
        chunk=st.integers(1, 9),
    )
    def test_any_seeds_any_chunk_split(self, seeds, chunk):
        K = 4
        op = laplacian_spec(K)
        p = small_params(M=2, N=2, n_T=3)
        singles = [run_hmm(default_x0(K), np.zeros(K), P1, op, op, p, s) for s in seeds]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(noise_mod, "_CHUNK_STEPS", chunk)
            batch = run_hmm(default_x0(K), np.zeros(K), P1, op, op, p, seeds)
        assert batch.cost.total_micro_steps == len(seeds) * p.n_0 * p.M * p.m_0
        for s, one in enumerate(singles):
            np.testing.assert_array_equal(batch.trajectory[:, s], one.trajectory)
            np.testing.assert_array_equal(batch.final_micro_states[s],
                                          one.final_micro_states)

    def test_empty_seed_sequence_rejected(self):
        K = 3
        op = laplacian_spec(K)
        with pytest.raises(ValueError, match="empty"):
            run_hmm(default_x0(K), np.zeros(K), P1, op, op, small_params(), seed=[])

    def test_non_finite_state_raises(self):
        K = 3
        op = laplacian_spec(K)
        p = small_params(M=2)
        with pytest.raises(ValueError, match=r"seed\(s\) \[4\] in macro step 0, "
                                             r"replica\(s\) \[0, 1\]"):
            run_hmm(default_x0(K), np.zeros(K), nan_g_spec(), op, op, p, seed=4)
        with pytest.raises(ValueError, match=r"seed\(s\) \[4, 8\] in macro step 0, "
                                             r"replica\(s\) \[0, 1\]$"):
            run_hmm(default_x0(K), np.zeros(K), nan_g_spec(), op, op, p, seed=[4, 8])


class TestChooseParams:
    def test_weak_regime_reference_point(self):
        # tol = 0.01, r = kappa = 0: dt = 0.01, tau = 1e-4, N = M = 1,
        # n_T tau = ln(100) so n_T = 46052
        p = choose_params(0.01, epsilon=1e-5, regime="weak")
        assert p.macro_dt == pytest.approx(0.01, rel=1e-12)
        assert p.tau == pytest.approx(1e-4, rel=1e-9)
        assert p.N == 1 and p.M == 1
        assert p.n_T == 46052

    def test_strong_regime_m1_branch(self):
        # tol = 0.1, r = kappa = 0: N = tol^{-3} = 1000, M = 1
        p = choose_params(0.1, epsilon=1e-4, regime="strong")
        assert p.M == 1
        assert p.N == 1000
        assert p.tau == pytest.approx(0.01, rel=1e-9)
        assert p.n_T == math.ceil(math.log(10.0) / 0.01)

    def test_strong_regime_n1_branch(self):
        p = choose_params(0.1, epsilon=1e-4, regime="strong", strong_branch="N1")
        assert p.N == 1
        assert p.M == 10  # tol^{1/(1-r) - 2} = 0.1^{-1}

    def test_tol_near_one_everything_small(self):
        p = choose_params(0.9, epsilon=0.01, regime="weak")
        assert p.macro_dt == pytest.approx(0.5)  # 1 / ceil(1 / 0.9)
        assert p.N == 1 and p.M == 1
        assert p.n_T <= 2

    def test_macro_dt_capped_at_horizon(self):
        p = choose_params(0.5, epsilon=0.01, regime="weak", T=0.2)
        assert p.macro_dt == pytest.approx(0.2)
        assert p.n_0 == 1

    def test_chat_from_contraction(self):
        op = laplacian_spec(8)
        p_default = choose_params(0.05, 1e-4, "weak")
        p_sd = choose_params(0.05, 1e-4, "weak", coeffs=preset("p2", alpha=4.0), op_b=op)
        # contraction rate c = -ln(rho)/(2 tau) < mu - L_g but > 1, so fewer
        # warm-up steps than the default c_hat = 1
        assert p_sd.n_T < p_default.n_T

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            choose_params(1.0, 1e-3, "weak")
        with pytest.raises(ValueError):
            choose_params(0.1, 1e-3, "strong", r=0.5)
        with pytest.raises(ValueError):
            choose_params(0.1, 1e-3, "weak", kappa=0.5)
        with pytest.raises(ValueError):
            choose_params(0.1, 1e-3, "medium")
        # before: T=0 raised ZeroDivisionError and T=-1 "math domain error"
        for T in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^T must be positive and finite, got"):
                choose_params(0.3, 1e-3, "weak", T=T)

    @settings(max_examples=200, deadline=None)
    @given(tol=st.floats(1e-150, 1, exclude_max=True), T=st.floats(0.01, 10))
    def test_macro_dt_divides_T(self, tol, T):
        # from about tol 1e-154 down, tau = tol^2 leaves no finite warm-up
        # count: see test_tiny_tol_rejected
        p = choose_params(tol, 1e-3, "weak", T=T)  # HmmParams' check passed
        assert abs(p.n_0 * p.macro_dt - T) <= 1e-9 * T
        assert p.macro_dt <= min(tol, T) * (1 + 1e-9)

    def test_dividing_dt_kept(self):
        # 0.27 / 0.09 = 3.0000000000000004: a plain ceil takes 4 steps of 0.0675
        p = choose_params(0.09, 1e-3, "weak", T=0.27)
        assert p.n_0 == 3
        assert p.macro_dt == pytest.approx(0.09, rel=1e-15)

    @pytest.mark.parametrize("regime", ["weak", "strong"])
    @pytest.mark.parametrize("tol", [1e-160, 1e-200])
    def test_tiny_tol_rejected(self, tol, regime):
        # before: OverflowError or ZeroDivisionError
        with pytest.raises(ValueError, match=f"^tol {tol} is too small"):
            choose_params(tol, 1e-3, regime)

    # the mean strong error of a run with choose_params(tol) stays under
    # ERROR_PER_TOL * tol, and falls at least at first order in tol
    ERROR_PER_TOL = 0.5
    MIN_SLOPE = 1.0

    @pytest.mark.parametrize("branch", ["M1", "N1"])
    def test_tol_is_delivered(self, branch):
        # p1, K = 15, 32 seeds, zero fast start: each run ends at T, where it
        # is compared with the averaged flow at fine step T / 256; the error
        # is fitted against the dt that choose_params delivers
        op, coeffs, fbar, x0 = _setup("p1", 15)
        tols = (0.3, 0.2, 0.1)
        dts, errors, stderrs = [], [], []
        for i, tol in enumerate(tols):
            p = choose_params(tol, 1e-4, "strong", T=0.5, coeffs=coeffs, op_b=op,
                              strong_branch=branch)
            seeds = [mix_seed(11, i, s) for s in range(32)]
            run = run_hmm(x0, np.zeros(15), coeffs, op, op, p, seeds)
            dts.append(p.macro_dt)
            t_end = p.T
            ref = reference_solution(x0, fbar, op, T=t_end, fine_dt=t_end / 256).field
            norms = [np.linalg.norm(x - ref) for x in run.X_final]
            errors.append(np.mean(norms))
            stderrs.append(np.std(norms, ddof=1) / math.sqrt(len(norms)))
            assert errors[-1] / tol <= self.ERROR_PER_TOL, (tol, errors[-1])
        slope = fit_loglog_slope(dts, errors, stderrs)[0]
        assert slope >= self.MIN_SLOPE, (errors, slope)


class TestCostCompare:
    def test_ratio_halves_with_epsilon(self):
        p = choose_params(0.05, 1e-4, "weak")
        r1 = cost_compare(p, 0.05, 1e-4, "weak")
        r2 = cost_compare(p, 0.05, 5e-5, "weak")
        assert r2 == pytest.approx(r1 / 2, rel=1e-12)

    def test_weak_formula_value(self):
        tol, eps = 0.1, 1e-4
        p = choose_params(tol, eps, "weak")
        ratio = cost_compare(p, tol, eps, "weak")
        hmm_cost = p.M * p.m_0 / p.macro_dt
        direct_cost = tol**-2 / eps
        assert ratio == pytest.approx(hmm_cost / direct_cost, rel=1e-12)
        assert ratio < 1  # multiscale wins at this scale separation

    def test_ratio_can_exceed_one(self):
        p = choose_params(0.1, 1.0, "weak")
        assert cost_compare(p, 0.1, 1.0, "weak") > 1

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        # before: 0 and inf raised ZeroDivisionError, -1 gave a ratio of -23.1
        # and nan gave nan
        p = choose_params(0.1, 1e-4, "weak")
        with pytest.raises(ValueError, match="^epsilon must be positive and finite, got"):
            cost_compare(p, 0.1, epsilon, "weak")

    def test_kappa_margin_guard(self):
        p = choose_params(0.1, 1e-4, "strong")
        with pytest.raises(ValueError):
            cost_compare(p, 0.1, 1e-4, "strong", kappa=0.25)

    @pytest.mark.parametrize("bad", [dict(kappa=-1.0), dict(kappa=0.5), dict(kappa=np.nan),
                                     dict(tol=1.5), dict(tol=0.0), dict(regime="both")])
    def test_rejects_what_choose_params_rejects(self, bad):
        # before: kappa = -1 gave a ratio of 0.00158, and kappa = 1/2 failed
        # with another message than choose_params'
        p = choose_params(0.1, 1e-3, "strong")
        kw = dict(tol=0.1, epsilon=1e-3, regime="strong", kappa=0.0) | bad
        with pytest.raises(ValueError) as chosen:
            choose_params(**kw)
        with pytest.raises(ValueError) as compared:
            cost_compare(p, **kw)
        assert str(compared.value) == str(chosen.value)
