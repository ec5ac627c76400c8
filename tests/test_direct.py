from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmm_spde.direct as direct_mod
import hmm_spde.noise as noise_mod
from hmm_spde.averaging import run_averaged
from hmm_spde.coefficients import CoefficientSpec, eval_F, eval_G, preset
from hmm_spde.direct import DIRECT_STREAM_TAG, run_direct
from hmm_spde.micro import discrete_stationary_variances
from hmm_spde.experiments import default_x0
from hmm_spde.noise import NoiseStreamKey, mix_seed, standard_normals
from hmm_spde.spectral import laplacian_spec

P1 = preset("p1")


def zero_spec():
    return CoefficientSpec(
        name="zero",
        f=lambda xi, x, y: np.zeros(np.broadcast_shapes(np.shape(xi), np.shape(y))),
        g=None, sup_f=0.0, sup_g=0.0, lipschitz_g_y=0.0,
    )


class TestDirectStep:
    def test_double_resolvent_decay(self):
        # epsilon = 1, F = G = 0, one step: both components decay by their
        # own resolvent factors, Y after adding its noise increment
        K = 4
        op = laplacian_spec(K)
        x = np.array([1.0, 0.5, 0.0, 0.0])
        y = np.array([0.0, 0.0, 2.0, -1.0])
        dt = 0.05
        run = run_direct(x, y, zero_spec(), op, op, epsilon=1.0, dt=dt, T=dt, seed=12)
        noise = standard_normals(NoiseStreamKey(12, replica=1, stream_tag=DIRECT_STREAM_TAG), K)
        np.testing.assert_allclose(run.final_X, x / (1 + dt * op.eigenvalues), rtol=1e-14)
        np.testing.assert_allclose(run.final_Y, (y + np.sqrt(dt) * noise)
                                   / (1 + dt * op.eigenvalues), rtol=1e-14)
        np.testing.assert_array_equal(run.trajectory_X[-1], run.final_X)
        assert run.cost == 1

    def test_both_updates_read_the_pre_update_fields(self):
        # f reads y and g reads x: each step must use the old X and Y in both
        K, dt, eps, n = 5, 0.01, 0.1, 4
        tau = dt / eps
        op = laplacian_spec(K)
        spec = CoefficientSpec(
            name="cross", f=lambda xi, x, y: np.sin(y) + 0 * x,
            g=lambda xi, x, y: np.cos(x) - y, sup_f=1.0, sup_g=np.inf, lipschitz_g_y=1.0,
        )
        x, y = default_x0(K), 0.5 * np.ones(K)
        run = run_direct(x, y, spec, op, op, epsilon=eps, dt=dt, T=n * dt, seed=7)
        noise = standard_normals(NoiseStreamKey(7, replica=1, stream_tag=DIRECT_STREAM_TAG), K,
                                 count=n) * np.sqrt(tau)
        for z in noise:
            x, y = ((x + dt * eval_F(spec, x, y)) / (1 + dt * op.eigenvalues),
                    (y + tau * eval_G(spec, x, y) + z) / (1 + tau * op.eigenvalues))
        np.testing.assert_allclose(run.final_X, x, rtol=1e-12)
        np.testing.assert_allclose(run.final_Y, y, rtol=1e-12)


class TestRunDirect:
    def test_cost_is_step_count(self):
        K = 4
        op = laplacian_spec(K)
        run = run_direct(default_x0(K), np.zeros(K), P1, op, op,
                         epsilon=0.5, dt=0.1, T=1.0, seed=0)
        assert run.cost == 10
        assert run.trajectory_X.shape == (11, K)
        run2 = run_direct(default_x0(K), np.zeros(K), P1, op, op,
                          epsilon=0.5, dt=0.15, T=1.0, seed=0)
        assert run2.cost == 7  # ceil(1.0 / 0.15)

    def test_dt_dividing_T_up_to_rounding_ends_at_T(self):
        # before: ceil(T/dt - 1e-12) took 4 steps of 0.333333333333 and
        # ended at 1.333333333332, though 3 steps reach T to a relative 1e-12
        K = 4
        op = laplacian_spec(K)
        run = run_direct(default_x0(K), np.zeros(K), P1, op, op,
                         epsilon=1.0, dt=0.333333333333, T=1.0, seed=0)
        assert run.cost == 3
        assert run.trajectory_X.shape == (4, K)

    @pytest.mark.parametrize("tau_direct, counts", [
        (0.1, (50, 167, 500)),  # the averaging benchmark workload
        (0.002, (2500, 8334, 25000)),  # C09
    ])
    def test_averaging_sweep_step_counts(self, tau_direct, counts):
        # the per-row dt = eps * tau_direct of averaging_experiment at T = 0.5:
        # 0.5 / 0.003 is not whole and takes ceil, the others take T/dt
        op = laplacian_spec(1)
        eps = [0.1, 0.03, 0.01]
        run = run_direct(np.zeros(1), np.zeros(1), P1, op, op, eps,
                         [e * tau_direct for e in eps], 0.5, [1, 2, 3], trajectory=False)
        assert run.cost == sum(counts)

    def test_operator_mode_count_must_match(self):
        # a one-mode operator would broadcast its eigenvalue over 15 modes
        K = 15
        for op_a, op_b in ((laplacian_spec(1), laplacian_spec(K)),
                           (laplacian_spec(K), laplacian_spec(1))):
            with pytest.raises(ValueError, match="mode counts"):
                run_direct(default_x0(K), np.zeros(K), P1, op_a, op_b,
                           epsilon=0.1, dt=0.01, T=0.05, seed=0)

    @pytest.mark.parametrize("name, value, row", [
        ("epsilon", np.inf, 0), ("epsilon", [0.1, np.nan], 1), ("epsilon", [0.1, 0.0], 1),
        ("dt", np.inf, 0), ("dt", [0.01, -0.01], 1), ("dt", [np.inf, 0.01], 0),
        ("epsilon", -1.0, 0), ("dt", 0.0, 0), ("dt", [0.01, np.nan], 1),
    ])
    def test_bad_epsilon_or_dt_rejected_per_row(self, name, value, row):
        K = 3
        op = laplacian_spec(K)
        kw = dict(epsilon=0.1, dt=0.01, T=0.05, seed=[1, 2])
        kw[name] = value
        with pytest.raises(ValueError, match=rf"^{name} must be positive .* in row {row}$"):
            run_direct(default_x0(K), np.zeros(K), P1, op, op, **kw)

    @pytest.mark.parametrize("T", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_horizon_rejected(self, T):
        K = 3
        op = laplacian_spec(K)
        with pytest.raises(ValueError, match="^T must be positive and finite"):
            run_direct(default_x0(K), np.zeros(K), P1, op, op,
                       epsilon=0.1, dt=0.01, T=T, seed=1)

    def test_infinite_step_count_rejected(self):
        # before: T/dt overflowed to inf and math.ceil raised OverflowError
        K = 3
        op = laplacian_spec(K)
        with pytest.raises(ValueError, match=r"^step count T/dt = 1e\+308/0\.01 is not finite$"):
            run_direct(default_x0(K), np.zeros(K), P1, op, op,
                       epsilon=0.1, dt=[1.0, 0.01], T=1e308, seed=[1, 2])

    def test_one_slow_update_per_coupled_step(self, monkeypatch):
        # rows of different dt share each step's one implicit_euler_step call,
        # made through the module global the benchmark's tracer wraps
        K = 4
        op = laplacian_spec(K)
        args = (default_x0(K), np.zeros(K), P1, op, op, [0.1, 0.05, 0.1, 0.2],
                [0.005, 0.01, 0.004, 0.01], 0.1, [1, 2, 3, 4])
        plain = run_direct(*args, trajectory=False)
        calls = []
        step = direct_mod.implicit_euler_step

        def counting(*a, **kw):
            calls.append(a[2])
            return step(*a, **kw)

        monkeypatch.setattr(direct_mod, "implicit_euler_step", counting)
        run = run_direct(*args, trajectory=False)
        assert len(calls) == 25  # ceil(T / min dt) coupled steps
        assert [len(dt) for dt in calls] == [4] * 10 + [2] * 10 + [1] * 5  # live rows
        np.testing.assert_array_equal(run.final_X, plain.final_X)
        np.testing.assert_array_equal(run.final_Y, plain.final_Y)

    def test_per_row_sequence_must_fit_the_seeds(self):
        K = 3
        op = laplacian_spec(K)
        kw = dict(epsilon=0.1, dt=0.01, T=0.05)
        for name, value, seed in (("epsilon", [0.1, 0.2], [1, 2, 3]), ("dt", [0.01], [1, 2]),
                                  ("dt", [0.01], 1), ("epsilon", [0.1, 0.2], 1)):
            with pytest.raises(ValueError, match=f"^{name} needs one value per seed"):
                run_direct(default_x0(K), np.zeros(K), P1, op, op,
                           **{**kw, name: value, "seed": seed})

    def test_underresolved_fast_scale_warns(self):
        K = 3
        op = laplacian_spec(K)
        with pytest.warns(UserWarning, match="underresolved"):
            run_direct(default_x0(K), np.zeros(K), P1, op, op,
                       epsilon=0.01, dt=0.01, T=0.05, seed=0)

    def test_deterministic_in_seed(self):
        K = 6
        op = laplacian_spec(K)
        kw = dict(epsilon=0.1, dt=0.01, T=0.2, seed=33)
        a = run_direct(default_x0(K), np.zeros(K), P1, op, op, **kw)
        b = run_direct(default_x0(K), np.zeros(K), P1, op, op, **kw)
        np.testing.assert_array_equal(a.trajectory_X, b.trajectory_X)
        np.testing.assert_array_equal(a.final_Y, b.final_Y)

    def test_chunked_equals_unchunked(self, monkeypatch):
        # one seed (7-step chunks) and three seeds (7 // 3 = 2-step chunks)
        K = 4
        op = laplacian_spec(K)
        for seed in (5, [5, 6, 7]):
            kw = dict(epsilon=0.1, dt=0.01, T=0.3, seed=seed)
            with monkeypatch.context() as m:
                full = run_direct(default_x0(K), np.zeros(K), P1, op, op, **kw)
                m.setattr(noise_mod, "_CHUNK_STEPS", 7)
                chunked = run_direct(default_x0(K), np.zeros(K), P1, op, op, **kw)
            np.testing.assert_array_equal(full.trajectory_X, chunked.trajectory_X)
            np.testing.assert_array_equal(full.final_Y, chunked.final_Y)

    def test_final_fields_and_no_trajectory(self):
        K = 5
        op = laplacian_spec(K)
        for seed in (9, [9, 10]):
            kw = dict(epsilon=0.1, dt=0.01, T=0.15, seed=seed)
            full = run_direct(default_x0(K), np.zeros(K), P1, op, op, **kw)
            bare = run_direct(default_x0(K), np.zeros(K), P1, op, op,
                              trajectory=False, **kw)
            np.testing.assert_array_equal(full.final_X, full.trajectory_X[-1])
            assert bare.trajectory_X is None
            np.testing.assert_array_equal(bare.final_X, full.final_X)
            np.testing.assert_array_equal(bare.final_Y, full.final_Y)
            assert bare.cost == full.cost

    def test_y_independent_f_matches_averaged_scheme(self):
        # decoupled slow equation: the X trajectory equals the deterministic
        # scheme with the same step
        K = 15
        op = laplacian_spec(K)
        spec = CoefficientSpec(
            name="xonly",
            f=lambda xi, x, y: np.sin(np.pi * xi) * np.exp(-np.square(x)) + 0 * y,
            g=None, sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0,
        )
        x0 = default_x0(K)
        dt, T = 0.02, 0.2
        run = run_direct(x0, np.zeros(K), spec, op, op, epsilon=0.5, dt=dt, T=T, seed=4)
        fbar = lambda x: eval_F(spec, x, np.zeros(K))
        traj = run_averaged(x0, fbar, op, dt, 10)
        assert np.abs(run.trajectory_X - traj).max() < 1e-12

    def test_fast_marginal_matches_micro_law(self):
        # g = 0: the fast component is the same AR(1) recursion as the frozen
        # chain with tau = dt/epsilon; match mean and variance at the endpoint
        # over independent seeds within 4 sigma
        K = 4
        op = laplacian_spec(K)
        eps, dt = 0.2, 0.02
        tau = dt / eps
        steps = 60
        R = 600
        finals = np.empty((R, K))
        for r in range(R):
            run = run_direct(default_x0(K), np.zeros(K), P1, op, op,
                             epsilon=eps, dt=dt, T=steps * dt, seed=mix_seed(8, r))
            finals[r] = run.final_Y
        a1 = 1 / (1 + tau * op.eigenvalues[0])
        v_inf = discrete_stationary_variances(tau, op)[0]
        v_m = v_inf * (1 - a1 ** (2 * steps))
        emp_v = finals[:, 0].var(ddof=1)
        assert abs(finals[:, 0].mean()) <= 4 * np.sqrt(v_m / R)
        assert abs(emp_v - v_m) <= 4 * v_m * np.sqrt(2 / R)

    def test_direct_noise_disjoint_from_hmm_noise(self):
        # one master seed drives both solvers through different stream tags
        from hmm_spde.hmm import HmmParams, run_hmm

        K = 4
        op = laplacian_spec(K)
        p = HmmParams(epsilon=0.2, macro_dt=0.02, micro_dt=0.004, T=0.04, N=1, M=1, n_T=1)
        hmm_run = run_hmm(default_x0(K), np.zeros(K), P1, op, op, p, seed=123)
        dir_run = run_direct(default_x0(K), np.zeros(K), P1, op, op,
                             epsilon=0.2, dt=0.004, T=0.04, seed=123)
        assert not np.array_equal(hmm_run.final_micro_states[0], dir_run.final_Y)


def nan_spec():
    return CoefficientSpec(
        name="nan",
        f=lambda xi, x, y: np.full(np.broadcast_shapes(np.shape(xi), np.shape(y)), np.nan),
        g=None, sup_f=0.0, sup_g=0.0, lipschitz_g_y=0.0,
    )


class TestSeedAxis:
    SEEDS = [3, 2**33 + 7, 3, mix_seed(1, 2)]  # a duplicate and a seed >= 2^33

    @pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
    def test_rows_equal_single_seed_runs(self, problem):
        K = 7
        op = laplacian_spec(K)
        coeffs = preset(problem)
        kw = dict(epsilon=0.1, dt=0.005, T=0.1)
        batch = run_direct(default_x0(K), np.zeros(K), coeffs, op, op,
                           seed=self.SEEDS, **kw)
        S = len(self.SEEDS)
        assert batch.trajectory_X.shape == (21, S, K)
        assert batch.final_X.shape == batch.final_Y.shape == (S, K)
        assert batch.cost == S * 20
        assert batch.seed == tuple(self.SEEDS)
        for s, seed in enumerate(self.SEEDS):
            one = run_direct(default_x0(K), np.zeros(K), coeffs, op, op, seed=seed, **kw)
            np.testing.assert_array_equal(batch.trajectory_X[:, s], one.trajectory_X)
            np.testing.assert_array_equal(batch.final_X[s], one.final_X)
            np.testing.assert_array_equal(batch.final_Y[s], one.final_Y)

    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5),
        chunk=st.integers(1, 9),
    )
    def test_any_seeds_any_chunk_split(self, seeds, chunk):
        K = 4
        op = laplacian_spec(K)
        kw = dict(epsilon=0.1, dt=0.01, T=0.1)
        singles = [run_direct(default_x0(K), np.zeros(K), P1, op, op, seed=s, **kw)
                   for s in seeds]
        with mock.patch.object(noise_mod, "_CHUNK_STEPS", chunk):
            batch = run_direct(default_x0(K), np.zeros(K), P1, op, op, seed=seeds, **kw)
        assert batch.cost == len(seeds) * 10
        for s, one in enumerate(singles):
            np.testing.assert_array_equal(batch.trajectory_X[:, s], one.trajectory_X)
            np.testing.assert_array_equal(batch.final_Y[s], one.final_Y)

    @staticmethod
    def forced_spec():
        return CoefficientSpec(
            name="forced", f=lambda xi, x, y: np.sin(np.pi * xi),
            g=lambda xi, x, y: np.cos(np.pi * xi), sup_f=1.0, sup_g=1.0, lipschitz_g_y=0.0,
        )

    def test_row_valued_reactions_broadcast_over_seeds(self):
        # f and g that read only xi return one (K,) row for the whole stack
        K = 5
        op = laplacian_spec(K)
        spec = self.forced_spec()
        kw = dict(epsilon=0.1, dt=0.01, T=0.1)
        batch = run_direct(default_x0(K), np.zeros(K), spec, op, op, seed=[4, 5], **kw)
        for s, seed in enumerate((4, 5)):
            one = run_direct(default_x0(K), np.zeros(K), spec, op, op, seed=seed, **kw)
            np.testing.assert_array_equal(batch.trajectory_X[:, s], one.trajectory_X)
            np.testing.assert_array_equal(batch.final_Y[s], one.final_Y)
        forcing = eval_F(spec, np.zeros(K), np.zeros(K))
        np.testing.assert_array_equal(
            one.trajectory_X, run_averaged(default_x0(K), lambda x: forcing, op, 0.01, 10))

    def test_per_row_epsilon_and_dt(self):
        # the averaging experiment's rows: dt = eps * 0.1, so tau = dt / eps
        # differs in its last bit between rows ((0.1 * 0.1) / 0.1 is
        # 0.10000000000000002, (0.03 * 0.1) / 0.03 is 0.1); the horizons are
        # ragged (10, 34 and 100 steps) and p2's g reads tau
        K = 7
        op = laplacian_spec(K)
        eps = [0.1, 0.1, 0.03, 0.01, 0.03]
        dts = [e * 0.1 for e in eps]
        seeds = [mix_seed(5, r) for r in range(len(eps))]
        batch = run_direct(default_x0(K), np.zeros(K), preset("p2"), op, op, eps, dts, 0.1,
                           seeds, trajectory=False)
        assert batch.cost == 2 * 10 + 2 * 34 + 100
        assert batch.dt == tuple(dts)
        assert batch.final_X.shape == batch.final_Y.shape == (len(eps), K)
        for r in range(len(eps)):
            one = run_direct(default_x0(K), np.zeros(K), preset("p2"), op, op, eps[r], dts[r],
                             0.1, seeds[r])
            np.testing.assert_array_equal(batch.final_X[r], one.final_X)
            np.testing.assert_array_equal(batch.final_Y[r], one.final_Y)

    def test_trajectory_needs_equal_step_counts(self):
        K = 3
        op = laplacian_spec(K)
        kw = dict(epsilon=0.1, T=0.05, seed=[1, 2])
        with pytest.raises(ValueError, match="same step count"):
            run_direct(default_x0(K), np.zeros(K), P1, op, op, dt=[0.01, 0.005], **kw)
        # different dt with equal step counts still records the trajectory
        run = run_direct(default_x0(K), np.zeros(K), P1, op, op, dt=[0.01, 0.0101], **kw)
        assert run.trajectory_X.shape == (6, 2, K)
        assert run.dt == (0.01, 0.0101)
        for r, (dt, seed) in enumerate(zip(run.dt, kw["seed"])):
            one = run_direct(default_x0(K), np.zeros(K), P1, op, op, epsilon=0.1, dt=dt,
                             T=0.05, seed=seed)
            np.testing.assert_array_equal(run.trajectory_X[:, r], one.trajectory_X)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 2**63 - 1), st.sampled_from([0.05, 0.1, 0.3]),
                                st.sampled_from([0.005, 0.007, 0.01, 0.02])),
                      min_size=1, max_size=5),
        problem=st.sampled_from(["p1", "p2", "forced"]),
        chunk=st.integers(1, 9),
        data=st.data(),
    )
    def test_row_permutation_permutes_results(self, rows, problem, chunk, data):
        # any order of the (seed, epsilon, dt) rows gives the same rows, each
        # equal to its single run, whatever the noise chunks
        K = 4
        op = laplacian_spec(K)
        coeffs = self.forced_spec() if problem == "forced" else preset(problem)
        perm = data.draw(st.permutations(range(len(rows))))

        def run(rs):
            seeds, eps, dts = map(list, zip(*rs))
            with mock.patch.object(noise_mod, "_CHUNK_STEPS", chunk):
                return run_direct(default_x0(K), np.zeros(K), coeffs, op, op, eps, dts, 0.05,
                                  seeds, trajectory=False)

        base, permuted = run(rows), run([rows[p] for p in perm])
        np.testing.assert_array_equal(permuted.final_X, base.final_X[perm])
        np.testing.assert_array_equal(permuted.final_Y, base.final_Y[perm])
        assert permuted.cost == base.cost
        for r, (seed, eps, dt) in enumerate(rows):
            one = run_direct(default_x0(K), np.zeros(K), coeffs, op, op, eps, dt, 0.05, seed)
            np.testing.assert_array_equal(base.final_X[r], one.final_X)
            np.testing.assert_array_equal(base.final_Y[r], one.final_Y)

    def test_empty_seed_sequence_rejected(self):
        K = 3
        op = laplacian_spec(K)
        with pytest.raises(ValueError, match="empty"):
            run_direct(default_x0(K), np.zeros(K), P1, op, op,
                       epsilon=0.1, dt=0.01, T=0.05, seed=[])

    def test_non_finite_state_raises(self, monkeypatch):
        K = 3
        op = laplacian_spec(K)
        kw = dict(epsilon=0.1, dt=0.01, T=0.05)
        with pytest.raises(ValueError, match=r"seed\(s\) \[4\] within steps 1\.\.5"):
            run_direct(default_x0(K), np.zeros(K), nan_spec(), op, op, seed=4, **kw)
        # the check runs once per noise chunk: 4 // 2 seeds = 2-step chunks
        monkeypatch.setattr(noise_mod, "_CHUNK_STEPS", 4)
        with pytest.raises(ValueError, match=r"seed\(s\) \[4, 8\] within steps 1\.\.2"):
            run_direct(default_x0(K), np.zeros(K), nan_spec(), op, op, seed=[4, 8],
                       trajectory=False, **kw)
