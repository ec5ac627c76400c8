import numpy as np
import pytest

from hmm_spde.averaging import run_averaged
from hmm_spde.coefficients import CoefficientSpec, eval_F, preset
from hmm_spde.direct import DirectState, direct_step, run_direct
from hmm_spde.micro import stationary_variance_linear
from hmm_spde.experiments import default_x0
from hmm_spde.noise import NoiseIncrement, mix_seed
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
        # epsilon = 1, F = G = 0, zero noise: both components decay by their
        # own resolvent factors
        K = 4
        op = laplacian_spec(K)
        x = np.array([1.0, 0.5, 0.0, 0.0])
        y = np.array([0.0, 0.0, 2.0, -1.0])
        dt = 0.05
        s = DirectState(X=x, Y=y, t=0.0, steps_taken=0)
        out = direct_step(s, zero_spec(), dt, 1.0, NoiseIncrement(np.zeros(K), dt), op, op)
        np.testing.assert_allclose(out.X, x / (1 + dt * op.eigenvalues), rtol=1e-14)
        np.testing.assert_allclose(out.Y, y / (1 + dt * op.eigenvalues), rtol=1e-14)
        assert out.t == pytest.approx(dt)
        assert out.steps_taken == 1

    def test_noise_dt_checked(self):
        K = 3
        op = laplacian_spec(K)
        s = DirectState(X=np.zeros(K), Y=np.zeros(K), t=0.0, steps_taken=0)
        with pytest.raises(ValueError):
            direct_step(s, P1, 0.05, 0.5, NoiseIncrement(np.zeros(K), 0.05), op, op)


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
        import hmm_spde.direct as direct_mod

        K = 4
        op = laplacian_spec(K)
        kw = dict(epsilon=0.1, dt=0.01, T=0.3, seed=5)
        full = run_direct(default_x0(K), np.zeros(K), P1, op, op, **kw)
        monkeypatch.setattr(direct_mod, "_CHUNK_STEPS", 7)
        chunked = run_direct(default_x0(K), np.zeros(K), P1, op, op, **kw)
        np.testing.assert_array_equal(full.trajectory_X, chunked.trajectory_X)
        np.testing.assert_array_equal(full.final_Y, chunked.final_Y)

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
        v_inf = stationary_variance_linear(1, tau, op)
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
