import numpy as np
import pytest

from hmm_spde.averaging import (
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
from hmm_spde.noise import derive_key
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
        spec = CoefficientSpec(
            name="noy", f=lambda xi, x, y: np.sin(np.pi * xi) * np.exp(-x**2) + 0 * y,
            g=None, sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0,
        )
        K = 15
        rng = np.random.default_rng(0)
        x = rng.standard_normal(K) * 0.3
        from hmm_spde.coefficients import eval_F

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

    def test_discrete_limit_is_nu(self):
        op = laplacian_spec(5)
        md = gaussian_discrete(op, 1e-12)
        mn = gaussian_nu(op)
        np.testing.assert_allclose(md.mode_variances, mn.mode_variances, rtol=1e-9)


class TestFbarSampled:
    def test_matches_quadrature_g_zero(self):
        # long time average of the pure noise chain against the quadrature
        # oracle under the matching (discrete) equilibrium law, 4 sigma
        K = 63
        op = laplacian_spec(K)
        spec = cos_only_spec()
        tau = 0.002
        x0 = np.zeros(K)
        res = fbar_sampled(spec, x0, op, tau, 200_000, derive_key(5, 0, 0, 1))
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
        res = fbar_sampled(spec, x0, op, tau, 200_000, derive_key(6, 0, 0, 1))
        oracle = to_grid(make_gaussian_fbar(spec, gaussian_shifted(op, 1.0))(x0))
        i = K // 2
        assert abs(res.grid_values[i] - oracle[i]) <= 4 * res.grid_stderr[i]

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            fbar_sampled(
                preset("p1"), np.zeros(4), laplacian_spec(4), 0.01, 0,
                derive_key(0, 0, 0, 1),
            )

    def test_deterministic(self):
        K = 7
        op = laplacian_spec(K)
        a = fbar_sampled(preset("p1"), np.zeros(K), op, 0.01, 2000, derive_key(1, 0, 0, 1))
        b = fbar_sampled(preset("p1"), np.zeros(K), op, 0.01, 2000, derive_key(1, 0, 0, 1))
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
        with pytest.raises(ValueError, match="dt"):
            run_averaged(np.ones(2), lambda x: np.zeros(2), op, 0.0, 1)

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
        with pytest.raises(ValueError):
            reference_solution(
                np.zeros(3), lambda x: np.zeros(3), laplacian_spec(3), 0.5, 0.3
            )
