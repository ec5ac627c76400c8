from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmm_spde.micro as micro_mod
import hmm_spde.noise as noise_mod
from hmm_spde.coefficients import CoefficientSpec, preset
from hmm_spde.micro import (
    contraction_factor,
    discrete_stationary_variances,
    run_micro,
    step_replicas,
)
from hmm_spde.noise import NoiseStreamKey, standard_normals
from hmm_spde.spectral import grid_points, h_norm, laplacian_spec, to_grid, to_spectral

PI2 = np.pi**2
P1 = preset("p1")


def increments(key, tau, K, steps):
    return standard_normals(key, K, count=steps) * np.sqrt(tau)


def one_step(y, frozen_x, noise, spec, op, tau):
    """One fast step of the chain through the solvers' shared kernel."""
    K = y.shape[-1]
    res = 1.0 / (1.0 + tau * op.eigenvalues)
    return step_replicas(y, to_grid(frozen_x), grid_points(K), noise, res, tau, spec)


class TestMicroStep:
    def test_pure_resolvent(self):
        # g = 0, zero noise, y = f_1, tau = 1/pi^2 halves the first mode
        K = 4
        op = laplacian_spec(K)
        y = np.zeros(K)
        y[0] = 1.0
        out = one_step(y, np.zeros(K), np.zeros(K), P1, op, 1 / PI2)
        assert out[0] == pytest.approx(0.5, rel=1e-14)

    def test_ar1_structure_per_mode(self):
        # g = 0: y_k' = a_k (y_k + sqrt(tau) z_k) with a_k = 1/(1 + tau mu_k)
        K = 6
        op = laplacian_spec(K)
        tau = 0.03
        rng = np.random.default_rng(5)
        y = rng.standard_normal(K)
        z = rng.standard_normal(K)
        out = one_step(y, np.zeros(K), np.sqrt(tau) * z, P1, op, tau)
        a = 1 / (1 + tau * op.eigenvalues)
        np.testing.assert_allclose(out, a * (y + np.sqrt(tau) * z), rtol=1e-14)

    def test_mismatched_k_rejected(self):
        op = laplacian_spec(3)
        with pytest.raises(ValueError):
            run_micro(np.zeros(4), np.zeros(4), 1, NoiseStreamKey(0, replica=1), P1, op, 0.1)

    @pytest.mark.parametrize("tau", [-0.1, 0.0, np.nan, np.inf])
    def test_bad_tau_rejected(self, tau):
        # rejected by name before the resolvent or any noise is formed
        op = laplacian_spec(3)
        with pytest.raises(ValueError, match="^tau must be positive and finite"):
            run_micro(np.zeros(3), np.zeros(3), 1, NoiseStreamKey(0, replica=1), P1, op, tau)

    def test_pathwise_contraction_single_step(self):
        # same noise, strictly dissipative g: squared distance contracts by rho
        K = 15
        op = laplacian_spec(K)
        spec = preset("p2", alpha=4.0)
        tau = 0.05
        rho = contraction_factor(tau, spec.lipschitz_g_y, op.smallest_eigenvalue)
        rng = np.random.default_rng(6)
        for _ in range(20):
            y1, y2 = rng.standard_normal(K), rng.standard_normal(K)
            noise = np.sqrt(tau) * rng.standard_normal(K)
            x = rng.standard_normal(K)
            o1 = one_step(y1, x, noise, spec, op, tau)
            o2 = one_step(y2, x, noise, spec, op, tau)
            lhs = h_norm(o1 - o2) ** 2
            rhs = rho * h_norm(y1 - y2) ** 2
            assert lhs <= rhs * (1 + 1e-12)


class TestStepReplicasArguments:
    """step_replicas works in place on fresh arrays only, and a grid of y
    handed in by the caller gives the result it would compute itself."""

    @pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
    @pytest.mark.parametrize("lead", [(), (4,), (2, 4)])
    def test_arguments_untouched_and_grid_optional(self, problem, lead):
        K, tau = 7, 0.05
        spec = preset(problem)
        rng = np.random.default_rng(len(lead))
        op = laplacian_spec(K)
        # the slow field broadcasts over replicas as in the drivers
        x_shape = (K,) if len(lead) < 2 else (lead[0], 1, K)
        args = [rng.standard_normal(lead + (K,)), to_grid(rng.standard_normal(x_shape)),
                grid_points(K), np.sqrt(tau) * rng.standard_normal(lead + (K,)),
                1.0 / (1.0 + tau * op.eigenvalues)]
        y_grid = to_grid(args[0])
        for a in (*args, y_grid):
            a.setflags(write=False)  # any write into an argument raises
        before = [a.copy() for a in (*args, y_grid)]
        plain = step_replicas(*args, tau, spec)
        with_grid = step_replicas(*args, tau, spec, y_grid)
        np.testing.assert_array_equal(with_grid, plain)
        for a, b in zip((*args, y_grid), before):
            np.testing.assert_array_equal(a, b)
        y, x_grid, xi, incr, res = args
        if spec.has_g:  # the out-of-place expression, operation for operation
            want = res * (y + tau * to_spectral(spec.g(xi, x_grid, to_grid(y))) + incr)
        else:
            want = res * (y + incr)
        np.testing.assert_array_equal(plain, want)


class TestStepReplicasOut:
    """With ``out`` set, step_replicas writes the allocating call's result
    there, bit for bit, whether ``out`` is a fresh buffer, ``y`` or the
    increment; no other argument changes."""

    @pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
    @pytest.mark.parametrize("K", [1, 2, 15, 63])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_out_fresh_or_aliased(self, problem, K, lead):
        tau, spec = 0.05, preset(problem)
        rng = np.random.default_rng(K + len(lead))
        op = laplacian_spec(K)
        y, incr = rng.standard_normal((2,) + lead + (K,))
        fixed = [to_grid(rng.standard_normal(K)), grid_points(K),
                 1.0 / (1.0 + tau * op.eigenvalues)]
        for a in (y, incr, *fixed):
            a.setflags(write=False)
        x_grid, xi, res = fixed
        want = step_replicas(y, x_grid, xi, incr, res, tau, spec)
        buf = np.empty(want.shape)
        assert step_replicas(y, x_grid, xi, incr, res, tau, spec, out=buf) is buf
        np.testing.assert_array_equal(buf, want)
        y_out = y.copy()
        assert step_replicas(y_out, x_grid, xi, incr, res, tau, spec, to_grid(y),
                             out=y_out) is y_out
        np.testing.assert_array_equal(y_out, want)
        incr_out = incr.copy()
        step_replicas(y, x_grid, xi, incr_out, res, tau, spec, out=incr_out)
        np.testing.assert_array_equal(incr_out, want)

    def test_y_free_g_broadcasts_over_the_stack(self):
        K, tau = 5, 0.05
        spec = CoefficientSpec(name="forced", f=P1.f, g=lambda xi, x, y: np.sin(np.pi * xi),
                               sup_f=1.0, sup_g=1.0, lipschitz_g_y=0.0)
        rng = np.random.default_rng(2)
        y, incr = rng.standard_normal((2, 3, K))
        args = (to_grid(rng.standard_normal(K)), grid_points(K),
                1.0 / (1.0 + tau * laplacian_spec(K).eigenvalues))
        want = step_replicas(y, args[0], args[1], incr, args[2], tau, spec)
        step_replicas(y, args[0], args[1], incr, args[2], tau, spec, out=y)
        np.testing.assert_array_equal(y, want)


class TestWindowAccumulation:
    # run_micro sums each chunk's window statistics with _accumulate; it must
    # add the rows in step order, as the per-step ``acc += row`` loop did
    @pytest.mark.parametrize("K", [1, 2, 15, 63])
    def test_equals_sequential_loop(self, K):
        rng = np.random.default_rng(K)
        for n in range(1, 41):
            acc = rng.standard_normal(K) * 1e3
            # mixed magnitudes make the rounding depend on the order
            rows = rng.standard_normal((n, K)) * 10.0 ** rng.integers(-8, 8, (n, 1))
            want = acc.copy()
            for row in rows:
                want += row
            got = micro_mod._accumulate(acc, rows)
            np.testing.assert_array_equal(got, want)


class TestContractionFactor:
    def test_zero_lipschitz(self):
        assert contraction_factor(0.1, 0.0, PI2) == pytest.approx(
            1 / (1 + 0.2 * PI2), rel=1e-12
        )
        assert contraction_factor(0.1, 0.0, PI2) == pytest.approx(0.3363, abs=5e-5)

    def test_unit_lipschitz(self):
        assert contraction_factor(0.1, 1.0, PI2) == pytest.approx(
            1.1 / (1 + 0.1 * (2 * PI2 - 1)), rel=1e-12
        )
        assert contraction_factor(0.1, 1.0, PI2) == pytest.approx(0.3828, abs=5e-5)

    def test_monotone_to_one_as_tau_shrinks(self):
        taus = [0.1, 0.01, 0.001, 1e-4]
        rhos = [contraction_factor(t, 1.0, PI2) for t in taus]
        assert all(r < 1 for r in rhos)
        assert all(a < b for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] > 0.99

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_bad_tau_rejected(self, tau):
        # a NaN or infinite step would give rho = NaN
        with pytest.raises(ValueError, match="positive"):
            contraction_factor(tau, 1.0, PI2)

    def test_violation_rejected(self):
        with pytest.raises(ValueError, match="dissipativity"):
            contraction_factor(0.1, PI2, PI2)

    @settings(max_examples=50, deadline=None)
    @given(
        tau=st.floats(1e-6, 10.0),
        frac=st.floats(0.0, 0.999),
    )
    def test_always_in_unit_interval(self, tau, frac):
        rho = contraction_factor(tau, frac * PI2, PI2)
        assert 0 < rho < 1


class TestStationaryVariance:
    def test_mode1_example(self):
        op = laplacian_spec(4)
        v1 = discrete_stationary_variances(0.01, op)[0]
        assert v1 == pytest.approx(1 / (2 * PI2 + 0.01 * PI2**2), rel=1e-13)
        assert v1 == pytest.approx(0.048278, abs=1e-6)

    def test_fixed_point_identity(self):
        op = laplacian_spec(3)
        tau = 0.07
        for k in (1, 2, 3):
            v = discrete_stationary_variances(tau, op)[k - 1]
            a = 1 / (1 + tau * op.eigenvalues[k - 1])
            assert v == pytest.approx(a**2 * (v + tau), rel=1e-12)

    def test_tau_to_zero_limit(self):
        op = laplacian_spec(2)
        for k in (1, 2):
            v = discrete_stationary_variances(1e-10, op)[k - 1]
            assert v == pytest.approx(1 / (2 * op.eigenvalues[k - 1]), rel=1e-8)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_bad_tau_rejected(self, tau):
        # an infinite step would give all-zero variances, a NaN one NaN ones
        with pytest.raises(ValueError, match="positive"):
            discrete_stationary_variances(tau, laplacian_spec(3))

    def test_long_run_empirical_variance(self):
        # mode-1 variance over 2e5 steps within 4 standard errors of the
        # closed form (AR(1) variance-estimate error with autocorrelation)
        K = 4
        op = laplacian_spec(K)
        tau = 0.05
        n = 200_000
        res = run_micro(
            np.zeros(K), np.zeros(K), n, NoiseStreamKey(21, replica=1), P1, op, tau,
            warmup=2000,
        )
        v_emp = res.mode_second_moment[0] - res.mode_mean[0] ** 2
        v = discrete_stationary_variances(tau, op)[0]
        a = 1 / (1 + tau * op.eigenvalues[0])
        n_eff = res.window_size
        se = v * np.sqrt(2 * (1 + a**2) / (1 - a**2) / n_eff)
        assert abs(v_emp - v) <= 4 * se


class TestRunMicro:
    def test_zero_steps_flagged(self):
        K = 3
        op = laplacian_spec(K)
        res = run_micro(np.ones(K), np.zeros(K), 0, NoiseStreamKey(0, replica=1), P1, op, 0.1)
        np.testing.assert_array_equal(res.y, np.ones(K))
        assert res.f_window_mean is None
        assert res.window_size == 0

    def test_window_size_matches_warmup(self):
        K = 3
        op = laplacian_spec(K)
        res = run_micro(
            np.zeros(K), np.zeros(K), 10, NoiseStreamKey(0, replica=1), P1, op, 0.1, warmup=4
        )
        assert res.window_size == 7  # m = 4..10 inclusive

    def test_deterministic_in_key(self):
        K = 5
        op = laplacian_spec(K)
        args = (np.zeros(K), np.zeros(K), 50, NoiseStreamKey(9, replica=3, step=2 * 2**64),
                P1, op, 0.02)
        a = run_micro(*args)
        b = run_micro(*args)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.f_window_mean, b.f_window_mean)

    def test_chunked_equals_unchunked(self, monkeypatch):
        K = 4
        op = laplacian_spec(K)
        args = (np.zeros(K), np.zeros(K), 300, NoiseStreamKey(3, replica=1), P1, op, 0.05)
        full = run_micro(*args)
        monkeypatch.setattr(noise_mod, "_CHUNK_STEPS", 7)
        chunked = run_micro(*args)
        np.testing.assert_array_equal(full.y, chunked.y)

    @settings(max_examples=25, deadline=None)
    @given(chunk=st.integers(1, 9), steps=st.integers(0, 30), warmup=st.integers(1, 12),
           K=st.sampled_from([1, 5]), batches=st.integers(1, 4))
    def test_any_chunk_split(self, chunk, steps, warmup, K, batches):
        # g != 0: every output, batch means and mode moments included,
        # equals the unchunked run; a window batches does not divide raises
        op = laplacian_spec(K)
        key = NoiseStreamKey(2**40 + 3, replica=4, step=2**64 + 2)
        args = (np.full(K, 0.3), np.linspace(-1, 1, K), steps, key, preset("p2"), op, 0.05)
        kw = dict(warmup=warmup, batches=batches)
        if max(0, steps - warmup + 1) % batches:
            with pytest.raises(ValueError, match=f"does not split into {batches} batches"):
                run_micro(*args, **kw)
            return
        full = run_micro(*args, **kw)
        with mock.patch.object(noise_mod, "_CHUNK_STEPS", chunk):
            chunked = run_micro(*args, **kw)
        np.testing.assert_array_equal(full.y, chunked.y)
        assert full.window_size == chunked.window_size
        for name in ("f_window_mean", "f_batch_means", "mode_mean", "mode_second_moment"):
            a, b = getattr(full, name), getattr(chunked, name)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)

    def test_batch_means_are_runs_of_their_steps(self):
        # each batch mean equals a run of that batch's steps alone, started
        # from the state before it and keyed at its first step; the state,
        # mode moments and (to rounding) the window mean do not depend on
        # the batch count
        K, warmup, per_batch = 5, 4, 9
        op = laplacian_spec(K)
        x = np.linspace(-1, 1, K)
        key = NoiseStreamKey(8, replica=2, step=11)
        args = (x, warmup - 1 + 3 * per_batch, key, preset("p2"), op, 0.05)
        one = run_micro(np.zeros(K), *args, warmup=warmup)
        three = run_micro(np.zeros(K), *args, warmup=warmup, batches=3)
        assert three.f_batch_means.shape == (3, K)
        np.testing.assert_array_equal(one.f_batch_means, one.f_window_mean[None])
        for name in ("y", "mode_mean", "mode_second_moment"):
            np.testing.assert_array_equal(getattr(one, name), getattr(three, name))
        np.testing.assert_allclose(three.f_window_mean, one.f_window_mean, rtol=1e-12)
        y = run_micro(np.zeros(K), x, warmup - 1, key, preset("p2"), op, 0.05).y
        for b in range(3):
            step = key.step + warmup - 1 + b * per_batch
            res = run_micro(y, x, per_batch, NoiseStreamKey(8, replica=2, step=step),
                            preset("p2"), op, 0.05)
            np.testing.assert_array_equal(three.f_batch_means[b], res.f_window_mean)
            y = res.y

    @pytest.mark.parametrize("steps, warmup, batches", [(10, 1, 3), (10, 4, 2), (5, 1, 0)])
    def test_window_not_split_by_batches_rejected(self, steps, warmup, batches):
        K = 3
        count = steps - warmup + 1
        with pytest.raises(ValueError, match=f"^a window of {count} steps does not split "
                                             f"into {batches} batches$"):
            run_micro(np.zeros(K), np.zeros(K), steps, NoiseStreamKey(0, replica=1), P1,
                      laplacian_spec(K), 0.1, warmup=warmup, batches=batches)

    @pytest.mark.parametrize("problem", ["p1", "p2"])
    def test_replica_stack_equals_hand_loop(self, problem):
        # an (M, K) stack reads one stream of M K numbers per step and keeps
        # its window statistics per replica
        M, K, steps, warmup, batches = 3, 5, 23, 6, 3
        op = laplacian_spec(K)
        spec, tau = preset(problem), 0.05
        x = np.linspace(-1, 1, K)
        key = NoiseStreamKey(6, replica=2, step=5)
        y0 = np.linspace(-0.5, 0.5, M * K).reshape(M, K)
        res = run_micro(y0, x, steps, key, spec, op, tau, warmup=warmup, batches=batches)
        z = standard_normals(key, M * K, count=steps)
        per_batch = (steps - warmup + 1) // batches
        y, f_sum = y0, np.zeros((batches, M, K))
        mode_sum, mode_sq_sum = np.zeros((M, K)), np.zeros((M, K))
        for m in range(steps):
            y = one_step(y, x, z[m].reshape(M, K) * np.sqrt(tau), spec, op, tau)
            if m + 1 >= warmup:
                f_sum[(m + 1 - warmup) // per_batch] += spec.f(grid_points(K), to_grid(x),
                                                               to_grid(y))
                mode_sum += y
                mode_sq_sum += y * y
        count = per_batch * batches
        np.testing.assert_array_equal(res.y, y)
        assert res.window_size == count
        np.testing.assert_array_equal(res.f_batch_means, to_spectral(f_sum / per_batch))
        np.testing.assert_array_equal(res.f_window_mean, to_spectral(f_sum.sum(axis=0) / count))
        np.testing.assert_array_equal(res.mode_mean, mode_sum / count)
        np.testing.assert_array_equal(res.mode_second_moment, mode_sq_sum / count)

    def test_other_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"^y0 must be a \(K,\) field or an \(M, K\) "
                                             r"stack, got shape \(2, 3, 4\)$"):
            run_micro(np.zeros((2, 3, 4)), np.zeros(4), 3, NoiseStreamKey(0, replica=1), P1,
                      laplacian_spec(4), 0.1)

    @pytest.mark.parametrize("shape, steps", [((63,), 3000), ((4, 63), 700)])
    def test_chunk_holds_at_most_one_window_block(self, monkeypatch, shape, steps):
        # the noise chunk is capped at one window block, so a chain of
        # 2^20 steps at K = 63 buffers 0.5 MB of noise, not 16.5 MB
        lengths = []
        draw = micro_mod.draw_increments

        def recording(*a, **kw):
            lengths.append(len(kw["out"]))
            return draw(*a, **kw)

        monkeypatch.setattr(micro_mod, "draw_increments", recording)
        K = shape[-1]
        run_micro(np.zeros(shape), np.zeros(K), steps, NoiseStreamKey(1, replica=1), P1,
                  laplacian_spec(K), 0.05)
        block = micro_mod._block_steps(steps, np.prod(shape))
        assert sum(lengths) == steps
        assert max(lengths) == block
        assert block * np.prod(shape) <= max(micro_mod._WINDOW_BLOCK, np.prod(shape))

    def test_y_independent_f(self, monkeypatch):
        # an f that returns one (K,) row for a whole block of states is
        # summed once per window step, as the per-step loop summed it
        K = 4
        op = laplacian_spec(K)
        spec = CoefficientSpec(name="xonly", f=lambda xi, x, y: np.sin(np.pi * xi) * x,
                               g=None, sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0)
        x = np.linspace(-1, 1, K)
        monkeypatch.setattr(noise_mod, "_CHUNK_STEPS", 7)
        res = run_micro(np.zeros(K), x, 30, NoiseStreamKey(1, replica=1), spec, op, 0.05, warmup=3)
        row = spec.f(grid_points(K), to_grid(x), None)
        acc = np.zeros(K)
        for _ in range(28):
            acc += row
        np.testing.assert_array_equal(res.f_window_mean, to_spectral(acc / 28))

    def test_non_finite_state_raises(self, monkeypatch):
        nan_g = CoefficientSpec(
            name="nan", f=P1.f,
            g=lambda xi, x, y: np.full(np.broadcast_shapes(np.shape(xi), np.shape(y)), np.nan),
            sup_f=P1.sup_f, sup_g=0.0, lipschitz_g_y=0.0,
        )
        K = 3
        op = laplacian_spec(K)
        args = (np.zeros(K), np.zeros(K), 10, NoiseStreamKey(4, replica=1), nan_g, op, 0.1)
        with pytest.raises(ValueError, match=r"seed\(s\) \[4\] within steps 1\.\.10"):
            run_micro(*args)
        # the check runs once per noise chunk
        monkeypatch.setattr(noise_mod, "_CHUNK_STEPS", 3)
        with pytest.raises(ValueError, match=r"seed\(s\) \[4\] within steps 1\.\.3"):
            run_micro(*args)

    def test_guard_names_seeds_and_replicas(self):
        # the one blow-up guard: (S, K) fields name the seeds, an (S, M, K)
        # field adds the replicas that are not finite in those seeds' rows
        X = np.zeros((3, 2))
        Y = np.zeros((3, 4, 2))
        micro_mod._check_finite([5, 6, 7], "in macro step 0", X, Y)
        Y[1, 2, 0] = np.inf
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite state for seed\(s\) \[6, 7\] "
                                             r"in macro step 3, replica\(s\) \[2\]$"):
            micro_mod._check_finite([5, 6, 7], "in macro step 3", X, Y)
        with pytest.raises(ValueError, match=r"^non-finite state for seed\(s\) \[7\] "
                                             r"within steps 1\.\.4$"):
            micro_mod._check_finite([5, 6, 7], "within steps 1..4", X)

    def test_window_average_of_linear_f_near_zero(self):
        # g = 0, F(x, y) = y: the window average of each mode is centered, with
        # CLT scale sqrt(v_k / window_eff); check mode 1 within 4 sigma
        spec_y = CoefficientSpec(
            name="identity", f=lambda xi, x, y: y, g=None,
            sup_f=np.inf, sup_g=0.0, lipschitz_g_y=0.0,
        )
        K = 4
        op = laplacian_spec(K)
        tau = 0.05
        n = 100_000
        res = run_micro(
            np.zeros(K), np.zeros(K), n, NoiseStreamKey(17, replica=1), spec_y, op, tau,
            warmup=2000,
        )
        v1 = discrete_stationary_variances(tau, op)[0]
        a = 1 / (1 + tau * op.eigenvalues[0])
        # variance of the mean of an AR(1) window ~ (v/n) (1+a)/(1-a)
        se = np.sqrt(v1 / res.window_size * (1 + a) / (1 - a))
        assert abs(res.f_window_mean[0]) <= 4 * se

    def test_pathwise_contraction_along_run(self):
        # two chains, same keys, strict dissipativity: |r_m|^2 <= rho^m |r_0|^2
        K = 15
        op = laplacian_spec(K)
        spec = preset("p2", alpha=4.0)
        tau = 0.05
        rho = contraction_factor(tau, spec.lipschitz_g_y, op.smallest_eigenvalue)
        rng = np.random.default_rng(8)
        y1 = rng.standard_normal(K)
        y2 = rng.standard_normal(K)
        x = rng.standard_normal(K) * 0.5
        key = NoiseStreamKey(33, replica=1)
        steps = 300
        incr = increments(key, tau, K, steps)
        xi = grid_points(K)
        x_grid = to_grid(x)
        res_mult = 1 / (1 + tau * op.eigenvalues)
        r0_sq = h_norm(y1 - y2) ** 2
        log_r0 = np.log(r0_sq)
        for m in range(1, steps + 1):
            y1 = step_replicas(y1, x_grid, xi, incr[m - 1], res_mult, tau, spec)
            y2 = step_replicas(y2, x_grid, xi, incr[m - 1], res_mult, tau, spec)
            r_sq = h_norm(y1 - y2) ** 2
            if r_sq > 0:
                assert np.log(r_sq) <= m * np.log(rho) + log_r0 + 1e-9

    def test_bounded_drift_distance_decomposition(self):
        # Y = w + D with w the zero-drift chain: |D_m| <= |D_0| (1+mu tau)^{-m}
        # + sup_g / mu, pathwise, for the bounded preset p2
        K = 15
        op = laplacian_spec(K)
        spec = preset("p2", alpha=4.0)
        tau = 0.05
        mu = op.smallest_eigenvalue
        rng = np.random.default_rng(9)
        y = rng.standard_normal(K)
        w = np.zeros(K)
        d0 = h_norm(y - w)
        x = rng.standard_normal(K) * 0.3
        key = NoiseStreamKey(44, replica=1)
        steps = 400
        incr = increments(key, tau, K, steps)
        xi = grid_points(K)
        x_grid = to_grid(x)
        res_mult = 1 / (1 + tau * op.eigenvalues)
        for m in range(1, steps + 1):
            y = step_replicas(y, x_grid, xi, incr[m - 1], res_mult, tau, spec)
            w = res_mult * (w + incr[m - 1])
            bound = d0 * (1 + mu * tau) ** (-m) + spec.sup_g / mu
            assert h_norm(y - w) <= bound * (1 + 1e-12)

    def test_linear_case_m_step_law(self):
        # g = 0, y0 = 0: mode k at step m is N(0, a^2 tau (1-a^{2m})/(1-a^2));
        # moment-matched over replicas at m in {1, 10, 100}
        K = 2
        op = laplacian_spec(K)
        tau = 0.02
        a = 1 / (1 + tau * op.eigenvalues[0])
        R = 4000
        finals = {1: [], 10: [], 100: []}
        for rep in range(R):
            key = NoiseStreamKey(1234, replica=rep + 1)
            incr = increments(key, tau, K, 100)
            y = np.zeros(K)
            res_mult = 1 / (1 + tau * op.eigenvalues)
            for m in range(1, 101):
                y = res_mult * (y + incr[m - 1])
                if m in finals:
                    finals[m].append(y[0])
        for m, vals in finals.items():
            vals = np.array(vals)
            v_th = a**2 * tau * (1 - a ** (2 * m)) / (1 - a**2)
            # 4 sigma for a chi^2-distributed variance estimate
            assert abs(vals.var(ddof=1) - v_th) <= 4 * v_th * np.sqrt(2 / R)
            assert abs(vals.mean()) <= 4 * np.sqrt(v_th / R)
