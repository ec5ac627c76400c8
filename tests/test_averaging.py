import numpy as np
import pytest

import hmm_spde.averaging as averaging_mod
import hmm_spde.micro as micro_mod
import hmm_spde.noise as noise_mod
from hmm_spde.averaging import (
    InvariantMeasureSpec,
    fbar_sampled,
    gaussian_discrete,
    gaussian_nu,
    gaussian_shifted,
    make_gaussian_fbar,
    pointwise_variance,
    reference_solution,
    run_averaged,
)
from hmm_spde.coefficients import CoefficientSpec, preset
from hmm_spde.micro import run_micro
from hmm_spde.noise import NoiseStreamKey
from hmm_spde.spectral import (
    apply_semigroup,
    grid_points,
    h_norm,
    laplacian_spec,
    to_grid,
)

PI2 = np.pi**2


def cos_only_spec():
    return CoefficientSpec(
        name="cos_only",
        f=lambda xi, x, y: np.cos(y) + 0 * xi * x,
        g=None,
        sup_f=1.0,
        sup_g=0.0,
        lipschitz_g_y=0.0,
    )


class TestPointwiseVariance:
    def test_center_approaches_one_eighth(self):
        # sum over odd modes of 1/(pi^2 k^2) converges to 1/8
        m = gaussian_nu(laplacian_spec(20001))
        v = pointwise_variance(m, 0.5)
        assert v == pytest.approx(0.125, abs=1e-5)

    def test_boundary_vanishes(self):
        m = gaussian_nu(laplacian_spec(63))
        assert pointwise_variance(m, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_truncation_gap_at_k63(self):
        # the K = 63 truncation sits 7.9e-4 below the limit (the tail of the
        # odd-mode series), computed independently by direct summation
        m = gaussian_nu(laplacian_spec(63))
        v = pointwise_variance(m, 0.5)
        direct = sum(
            2 * np.sin(k * np.pi * 0.5) ** 2 / (2 * PI2 * k**2) for k in range(1, 64)
        )
        assert v == pytest.approx(direct, rel=1e-12)
        assert 0.125 - v == pytest.approx(7.915e-4, abs=2e-6)

    def test_symmetry_about_center(self):
        m = gaussian_nu(laplacian_spec(40))
        assert pointwise_variance(m, 0.3) == pytest.approx(
            pointwise_variance(m, 0.7), rel=1e-12
        )

    def test_vectorized_matches_scalar(self):
        m = gaussian_nu(laplacian_spec(16))
        xs = np.array([0.2, 0.5, 0.9])
        vec = pointwise_variance(m, xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(pointwise_variance(m, float(x)), rel=1e-12)


class TestFbarGaussian:
    def test_odd_integrand_vanishes(self):
        spec = CoefficientSpec(
            name="odd", f=lambda xi, x, y: np.sin(y), g=None,
            sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0,
        )
        K = 31
        out = make_gaussian_fbar(spec, gaussian_nu(laplacian_spec(K)))(np.zeros(K))
        assert h_norm(out) < 1e-13

    def test_cos_matches_characteristic_function(self):
        # E cos(Z) = exp(-sigma^2/2) for Z ~ N(0, sigma^2), per grid point
        K = 63
        op = laplacian_spec(K)
        m = gaussian_nu(op)
        out_grid = to_grid(make_gaussian_fbar(cos_only_spec(), m)(np.zeros(K)))
        xi = grid_points(K)
        expected = np.exp(-pointwise_variance(m, xi) / 2)
        np.testing.assert_allclose(out_grid, expected, atol=1e-12)

    def test_large_k_center_value(self):
        # with many modes the center value approaches exp(-1/16)
        K = 4095
        m = gaussian_nu(laplacian_spec(K))
        out_grid = to_grid(make_gaussian_fbar(cos_only_spec(), m)(np.zeros(K)))
        center = out_grid[K // 2]
        assert center == pytest.approx(np.exp(-1 / 16), abs=1e-4)

    def test_y_independent_f_unchanged(self):
        # the second f ignores y (before: a matmul shape error)
        K = 15
        rng = np.random.default_rng(0)
        x = rng.standard_normal(K) * 0.3
        from hmm_spde.coefficients import eval_F

        for f in (lambda xi, x, y: np.sin(np.pi * xi) * np.exp(-x**2) + 0 * y,
                  lambda xi, x, y: np.sin(np.pi * xi) * np.exp(-x**2)):
            spec = CoefficientSpec(name="noy", f=f, g=None, sup_f=1.0, sup_g=0.0,
                                   lipschitz_g_y=0.0)
            out = make_gaussian_fbar(spec, gaussian_nu(laplacian_spec(K)))(x)
            np.testing.assert_allclose(out, eval_F(spec, x, np.zeros(K)), atol=1e-13)

    def test_quadrature_order_converged(self):
        K = 31
        m = gaussian_nu(laplacian_spec(K))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(K) * 0.5
        a = make_gaussian_fbar(preset("p1"), m, quad_order=40)(x)
        b = make_gaussian_fbar(preset("p1"), m, quad_order=80)(x)
        assert h_norm(a - b) < 1e-8

    def test_lipschitz_in_x(self):
        # |fbar(x1) - fbar(x2)| <= sup|d f/d x| |x1 - x2| + quadrature noise;
        # for p1 the x-derivative bound is sup |2 x e^{-x^2}| = sqrt(2/e)
        K = 31
        fbar = make_gaussian_fbar(preset("p1"), gaussian_nu(laplacian_spec(K)))
        lf = np.sqrt(2 / np.e)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x1 = rng.standard_normal(K)
            x2 = rng.standard_normal(K)
            d = h_norm(fbar(x1) - fbar(x2))
            assert d <= lf * h_norm(x1 - x2) + 1e-10

    def test_bounded(self):
        K = 15
        m = gaussian_nu(laplacian_spec(K))
        rng = np.random.default_rng(3)
        for _ in range(5):
            out = make_gaussian_fbar(preset("p1"), m)(rng.standard_normal(K))
            assert h_norm(out) <= 1.0

    @pytest.mark.parametrize("K", [1, 31])
    def test_field_of_another_mode_count_rejected(self, K):
        # the grid and y-samples are built for the measure's 15 modes; before,
        # a field of K modes was averaged under min(K, 15) of the variances
        fbar = make_gaussian_fbar(preset("p1"), gaussian_nu(laplacian_spec(15)))
        with pytest.raises(ValueError, match=rf"^mode counts differ: fields \[{K}, 15\]$"):
            fbar(np.zeros(K))
        with pytest.raises(ValueError, match="mode counts"):
            fbar(np.zeros((2, K)))


class TestStackedProviders:
    # the FbarProvider contract: a provider acts row-wise on a (..., K) stack,
    # each row of a stacked call equal to the call on that row, bit for bit

    @staticmethod
    def measure(problem, op):
        spec = preset(problem)
        if spec.linear_drift is None:
            return spec, gaussian_nu(op)
        return spec, gaussian_shifted(op, spec.linear_drift)

    @pytest.mark.parametrize("problem", ["p1", "p3"])
    @pytest.mark.parametrize("K", [1, 2, 15, 63])
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_stack_equals_per_row_calls(self, problem, K, R):
        op = laplacian_spec(K)
        spec, m = self.measure(problem, op)
        x = np.random.default_rng(K * 10 + R).standard_normal((R, K))
        fbar = make_gaussian_fbar(spec, m)
        stacked, direct = fbar(x), make_gaussian_fbar(spec, m)(x)
        assert stacked.shape == direct.shape == (R, K)
        for r in range(R):
            np.testing.assert_array_equal(stacked[r], fbar(x[r]))
            np.testing.assert_array_equal(direct[r], make_gaussian_fbar(spec, m)(x[r]))
        np.testing.assert_array_equal(stacked, direct)


class TestMeasures:
    def test_nu_variances(self):
        op = laplacian_spec(5)
        m = gaussian_nu(op)
        np.testing.assert_allclose(m.mode_variances, 1 / (2 * op.eigenvalues), rtol=1e-15)

    def test_shifted_variances(self):
        op = laplacian_spec(5)
        m = gaussian_shifted(op, 1.5)
        np.testing.assert_allclose(
            m.mode_variances, 1 / (2 * (op.eigenvalues + 1.5)), rtol=1e-15
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_variance_rejected(self, bad):
        # before: NaN and inf passed, and the oracle returned NaN
        with pytest.raises(ValueError,
                           match=rf"^mode variance must be nonnegative and finite, got {bad}$"):
            InvariantMeasureSpec(mode_variances=np.array([bad, 0.1]))

    def test_discrete_limit_is_nu(self):
        op = laplacian_spec(5)
        md = gaussian_discrete(op, 1e-12)
        mn = gaussian_nu(op)
        np.testing.assert_allclose(md.mode_variances, mn.mode_variances, rtol=1e-9)


def fbar_sampled_per_batch(spec, x, op_b, tau, window, seed, batches=32):
    """Reference: the batch-means estimator as one warm-up run, then one run
    per batch keyed at the batch's first step of the stream."""
    K = x.shape[-1]
    warmup = max(window // 10, 1)
    per_batch = window // batches
    y = run_micro(np.zeros(K), x, warmup, NoiseStreamKey(seed, replica=1), spec, op_b, tau,
                  warmup=warmup).y
    offset = warmup
    batch_means = np.empty((batches, K))
    for b in range(batches):
        res = run_micro(y, x, per_batch, NoiseStreamKey(seed, replica=1, step=offset),
                        spec, op_b, tau)
        y = res.y
        batch_means[b] = to_grid(res.f_window_mean)
        offset += per_batch
    return batch_means.mean(axis=0), batch_means.std(axis=0, ddof=1) / np.sqrt(batches)


class TestFbarSampled:
    def test_matches_quadrature_g_zero(self):
        # long time average of the pure noise chain against the quadrature
        # oracle under the matching (discrete) equilibrium law, 4 sigma
        K = 63
        op = laplacian_spec(K)
        spec = cos_only_spec()
        tau = 0.002
        x0 = np.zeros(K)
        res = fbar_sampled(spec, x0, op, tau, 200_000, NoiseStreamKey(5, replica=1))
        oracle = to_grid(make_gaussian_fbar(spec, gaussian_discrete(op, tau))(x0))
        i = K // 2  # xi = 1/2 exactly
        assert abs(res.grid_values[i] - oracle[i]) <= 4 * res.grid_stderr[i]

    def test_matches_shifted_quadrature_linear_g(self):
        # p3: linear drift; sampled average against the shifted-variance
        # quadrature; tau small enough that the O(tau) discrete-law bias sits
        # far inside the 4 sigma Monte-Carlo band
        K = 15
        op = laplacian_spec(K)
        spec = preset("p3", c=1.0)
        tau = 0.002
        x0 = np.zeros(K)
        res = fbar_sampled(spec, x0, op, tau, 200_000, NoiseStreamKey(6, replica=1))
        oracle = to_grid(make_gaussian_fbar(spec, gaussian_shifted(op, 1.0))(x0))
        i = K // 2
        assert abs(res.grid_values[i] - oracle[i]) <= 4 * res.grid_stderr[i]

    @pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
    @pytest.mark.parametrize("K, window, batches", [(1, 200, 8), (5, 203, 8), (15, 641, 32)])
    @pytest.mark.parametrize("chunk, block", [(None, None), (7, 40), (1, 1)])
    def test_equals_per_batch_runs(self, monkeypatch, problem, K, window, batches, chunk,
                                   block):
        # one forward run gives the per-batch keyed runs' values and errors
        # bit for bit, also when window % batches != 0 and when noise chunks,
        # window blocks and batches end at different steps
        if chunk is not None:
            monkeypatch.setattr(noise_mod, "_CHUNK_STEPS", chunk)
            monkeypatch.setattr(micro_mod, "_WINDOW_BLOCK", block)
        op = laplacian_spec(K)
        x = np.linspace(-1, 1, K)
        res = fbar_sampled(preset(problem), x, op, 0.02, window, NoiseStreamKey(3, replica=1),
                           batches=batches)
        values, stderr = fbar_sampled_per_batch(preset(problem), x, op, 0.02, window, 3,
                                                batches=batches)
        np.testing.assert_array_equal(res.grid_values, values)
        np.testing.assert_array_equal(res.grid_stderr, stderr)
        assert res.window == window // batches * batches

    def test_one_run_one_stream(self, monkeypatch):
        # whatever the batch count, one run_micro call reads one Philox stream
        calls = {"run_micro": 0, "NoiseStreams": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(averaging_mod, "run_micro", counted("run_micro", run_micro))
        monkeypatch.setattr(micro_mod, "NoiseStreams",
                            counted("NoiseStreams", micro_mod.NoiseStreams))
        fbar_sampled(preset("p2"), np.zeros(5), laplacian_spec(5), 0.01, 640,
                     NoiseStreamKey(31, replica=1))
        assert calls == {"run_micro": 1, "NoiseStreams": 1}

    @pytest.mark.parametrize("window, batches, message", [
        (10, 32, "^window 10 is shorter than batches=32$"),
        (100, 1, "^batches must be >= 2 for a Monte-Carlo standard error, got 1$"),
    ])
    def test_short_window_or_one_batch_rejected(self, window, batches, message):
        with pytest.raises(ValueError, match=message):
            fbar_sampled(preset("p2"), np.zeros(4), laplacian_spec(4), 0.01, window,
                         NoiseStreamKey(0, replica=1), batches=batches)

    @pytest.mark.parametrize("batches, shown", [
        (2.5, r"2\.5"), (np.float64(32.0), r"(np\.float64\()?32\.0\)?"),
    ], ids=["2.5", "float64"])
    def test_non_integer_batches_rejected(self, batches, shown):
        # these failed deep inside with "'float' object cannot be
        # interpreted as an integer"
        with pytest.raises(ValueError,
                           match=f"^batches must be an integer sample count, got {shown}$"):
            fbar_sampled(preset("p2"), np.zeros(4), laplacian_spec(4), 0.01, 640,
                         NoiseStreamKey(0, replica=1), batches=batches)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            fbar_sampled(
                preset("p1"), np.zeros(4), laplacian_spec(4), 0.01, 0,
                NoiseStreamKey(0, replica=1),
            )

    def test_deterministic(self):
        K = 7
        op = laplacian_spec(K)
        a = fbar_sampled(preset("p1"), np.zeros(K), op, 0.01, 2000, NoiseStreamKey(1, replica=1))
        b = fbar_sampled(preset("p1"), np.zeros(K), op, 0.01, 2000, NoiseStreamKey(1, replica=1))
        np.testing.assert_array_equal(a.grid_values, b.grid_values)
        np.testing.assert_array_equal(a.grid_stderr, b.grid_stderr)


class TestAveragedScheme:
    def test_zero_fbar_is_resolvent_power(self):
        K = 4
        op = laplacian_spec(K)
        x0 = np.array([1.0, -0.5, 0.25, 0.0])
        dt = 0.07
        traj = run_averaged(x0, lambda x: np.zeros(K), op, dt, 5)
        for n in range(6):
            np.testing.assert_allclose(
                traj[n], x0 / (1 + dt * op.eigenvalues) ** n, rtol=1e-13
            )

    def test_single_step_halves_first_mode(self):
        K = 2
        op = laplacian_spec(K)
        traj = run_averaged(np.array([1.0, 0.0]), lambda x: np.zeros(K), op, 1 / PI2, 1)
        assert traj.shape == (2, K)
        assert traj[1][0] == pytest.approx(0.5, rel=1e-14)

    def test_nonpositive_dt_rejected(self):
        op = laplacian_spec(2)
        for dt in (0.0, -1.0, np.nan, np.inf):  # before: nan returned nan silently
            with pytest.raises(ValueError, match="dt"):
                run_averaged(np.ones(2), lambda x: np.zeros(2), op, dt, 1)

    @pytest.mark.parametrize("problem", ["p1", "p3"])
    def test_row_stack_equals_per_row_runs(self, problem):
        # an (R, K) stack with an (R, 1) column of steps gives each row's
        # own trajectory bit for bit
        K, n = 7, 17
        op = laplacian_spec(K)
        spec, m = TestStackedProviders.measure(problem, op)
        fbar = make_gaussian_fbar(spec, m)
        x0 = np.array([np.linspace(0.8, -0.3, K), np.linspace(-0.2, 0.6, K)])
        steps = np.array([[0.03], [0.011]])
        traj = run_averaged(x0, fbar, op, steps, n)
        assert traj.shape == (n + 1, 2, K)
        for r in range(2):
            np.testing.assert_array_equal(traj[:, r], run_averaged(x0[r], fbar, op,
                                                                   steps[r, 0], n))

    def test_bad_step_column_rejected(self):
        op = laplacian_spec(2)
        with pytest.raises(ValueError, match=r"^dt must be positive and finite, got -1\.0$"):
            run_averaged(np.ones((2, 2)), lambda x: np.zeros(2), op, np.array([[0.1], [-1.0]]), 1)
        with pytest.raises(ValueError, match=r"^dt must be one step or one per row of x0, "
                                             r"got shape \(3, 1\)$"):
            run_averaged(np.ones((2, 2)), lambda x: np.zeros(2), op, np.full((3, 1), 0.1), 1)

    def test_operator_mode_count_must_match(self):
        # a one-mode operator would broadcast its eigenvalue over 15 modes
        with pytest.raises(ValueError, match="mode counts"):
            run_averaged(np.ones(15), lambda x: np.zeros(15), laplacian_spec(1), 0.1, 2)

    def test_uniform_bound_lipschitz_fbar(self):
        # |xbar_n| <= C (1 + |x0|) uniformly in n for the bounded oracle
        K = 15
        op = laplacian_spec(K)
        m = gaussian_nu(op)
        fbar = make_gaussian_fbar(preset("p1"), m)
        x0 = np.zeros(K)
        x0[0] = 2.0
        traj = run_averaged(x0, fbar, op, 0.05, 400)
        norms = np.linalg.norm(traj, axis=1)
        # sup_f / lambda_1 bounds the forced part; margin covers the constant
        assert norms.max() <= h_norm(x0) + 1.0 / PI2 + 1e-9


class TestReferenceSolution:
    def test_zero_fbar_matches_semigroup(self):
        # first-order scheme: per-mode gap ~ (lambda^2 T dt / 2) e^{-lambda T}
        K = 5
        op = laplacian_spec(K)
        x0 = np.linspace(1, 0.2, K)
        T = 0.3
        ref = reference_solution(x0, lambda x: np.zeros(K), op, T, T / 4096)
        exact = apply_semigroup(x0, T, op)
        bound = PI2**2 * T * ref.fine_dt * h_norm(exact)
        assert h_norm(ref.field - exact) < bound
        assert ref.richardson_gap < 1e-3

    def test_richardson_gap_shrinks(self):
        K = 7
        op = laplacian_spec(K)
        fbar = make_gaussian_fbar(preset("p1"), gaussian_nu(op))
        x0 = np.zeros(K)
        x0[0] = 0.5
        coarse = reference_solution(x0, fbar, op, 0.25, 0.25 / 64)
        fine = reference_solution(x0, fbar, op, 0.25, 0.25 / 256)
        assert fine.richardson_gap < coarse.richardson_gap

    def test_deterministic(self):
        K = 5
        op = laplacian_spec(K)
        fbar = make_gaussian_fbar(preset("p1"), gaussian_nu(op))
        x0 = np.full(K, 0.1)
        a = reference_solution(x0, fbar, op, 0.2, 0.2 / 128)
        b = reference_solution(x0, fbar, op, 0.2, 0.2 / 128)
        np.testing.assert_array_equal(a.field, b.field)

    @pytest.mark.parametrize("problem", ["p1", "p3"])
    @pytest.mark.parametrize("K", [1, 2, 15, 63])
    def test_rows_equal_separate_integrations(self, problem, K):
        # the lock-stepped pair gives the two run_averaged endpoints bit for bit
        op = laplacian_spec(K)
        spec, m = TestStackedProviders.measure(problem, op)
        fbar = make_gaussian_fbar(spec, m)
        x0 = np.linspace(0.8, -0.3, K)
        T, n = 0.2, 32
        ref = reference_solution(x0, fbar, op, T, T / n)
        fine = run_averaged(x0, fbar, op, T / n, n)[-1]
        finer = run_averaged(x0, fbar, op, T / n / 2.0, 2 * n)[-1]
        np.testing.assert_array_equal(ref.field, finer)
        assert ref.richardson_gap == float(np.linalg.norm(fine - finer))
        assert ref.fine_dt == T / n / 2.0

    def test_operator_mode_count_must_match(self):
        with pytest.raises(ValueError, match="mode counts"):
            reference_solution(np.ones(15), lambda x: np.zeros(15), laplacian_spec(1),
                               0.5, 0.5 / 16)

    def test_bad_fine_dt_rejected(self):
        op = laplacian_spec(3)
        with pytest.raises(ValueError,
                           match=r"^T 0\.5 is not a whole number of fine_dt 0\.3 steps$"):
            reference_solution(np.zeros(3), lambda x: np.zeros(3), op, 0.5, 0.3)
        with pytest.raises(ValueError,
                           match=r"^step count T/fine_dt = 1e\+308/1e-10 is not finite$"):
            reference_solution(np.zeros(3), lambda x: np.zeros(3), op, 1e308, 1e-10)
        # before: fine_dt=inf returned x0 after zero steps, T=inf raised
        # OverflowError and a NaN "cannot convert float NaN to integer"
        for T, fine_dt, name in [(0.5, np.inf, "fine_dt"), (0.5, np.nan, "fine_dt"),
                                 (np.inf, 0.1, "T"), (np.nan, 0.1, "T"),
                                 (0.5, -0.1, "fine_dt"), (0.0, 0.1, "T"),
                                 (0.5, 0.0, "fine_dt"), (-1.0, 0.1, "T")]:
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
                reference_solution(np.zeros(3), lambda x: np.zeros(3), op, T, fine_dt)

    @pytest.mark.parametrize("provider", ["stacked", "one row"])
    def test_two_updates_per_coarse_step(self, monkeypatch, provider):
        # one update steps both rows (fine_dt and fine_dt / 2), a second the
        # finer row's other half step; a provider that returns one (K,) row
        # for the stack still serves both rows
        K, n = 5, 8
        op = laplacian_spec(K)
        if provider == "stacked":
            fbar = make_gaussian_fbar(preset("p1"), gaussian_nu(op))
        else:
            forcing = np.linspace(1.0, -1.0, K)
            fbar = lambda x: forcing  # noqa: E731
        x0 = np.linspace(0.5, -0.2, K)
        calls = []
        step = averaging_mod.implicit_euler_step

        def counting(*a, **kw):
            calls.append(a)
            return step(*a, **kw)

        monkeypatch.setattr(averaging_mod, "implicit_euler_step", counting)
        ref = reference_solution(x0, fbar, op, 0.2, 0.2 / n)
        assert len(calls) == 2 * n
        fine = run_averaged(x0, fbar, op, 0.2 / n, n)[-1]
        finer = run_averaged(x0, fbar, op, 0.1 / n, 2 * n)[-1]
        np.testing.assert_array_equal(ref.field, finer)
        assert ref.richardson_gap == float(np.linalg.norm(fine - finer))
