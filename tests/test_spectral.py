import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hmm_spde.spectral import (
    OperatorSpec,
    apply_resolvent,
    apply_semigroup,
    fractional_norm,
    grid_points,
    h_norm,
    implicit_euler_step,
    laplacian_spec,
    to_grid,
    to_spectral,
)

PI2 = np.pi**2


def fields(K=8):
    return arrays(
        np.float64,
        (K,),
        elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    )


class TestLaplacianSpec:
    def test_k3_eigenvalues(self):
        op = laplacian_spec(3)
        np.testing.assert_allclose(op.eigenvalues, [PI2, 4 * PI2, 9 * PI2], rtol=1e-15)

    def test_k1_smallest(self):
        op = laplacian_spec(1)
        assert op.smallest_eigenvalue == pytest.approx(PI2, rel=1e-15)
        assert op.mode_count == 1

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            laplacian_spec(0)

    def test_eigenvalue_ordering_enforced(self):
        with pytest.raises(ValueError):
            OperatorSpec(eigenvalues=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            OperatorSpec(eigenvalues=np.array([-1.0, 1.0]))


class TestResolvent:
    def test_zero_step_is_identity(self):
        op = laplacian_spec(5)
        v = np.arange(1.0, 6.0)
        np.testing.assert_array_equal(apply_resolvent(v, 0.0, op), v)

    def test_e1_halves_at_matching_step(self):
        op = laplacian_spec(4)
        e1 = np.array([1.0, 0, 0, 0])
        out = apply_resolvent(e1, 1.0 / PI2, op)
        assert out[0] == pytest.approx(0.5, rel=1e-14)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            apply_resolvent(np.ones(3), -0.1, laplacian_spec(3))

    @settings(max_examples=50, deadline=None)
    @given(v=fields(), step=st.floats(0, 10, allow_nan=False))
    def test_contractivity_per_mode(self, v, step):
        # |R_step v| <= |v| / (1 + step * mu_1), exactly per mode
        op = laplacian_spec(8)
        out = apply_resolvent(v, step, op)
        assert h_norm(out) <= h_norm(v) / (1 + step * op.smallest_eigenvalue) * (1 + 1e-14)
        assert np.all(np.abs(out) <= np.abs(v))


class TestSemigroup:
    def test_zero_time_identity(self):
        op = laplacian_spec(3)
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(apply_semigroup(v, 0.0, op), v)

    def test_e1_halves_at_log2_time(self):
        op = laplacian_spec(2)
        e1 = np.array([1.0, 0.0])
        out = apply_semigroup(e1, np.log(2) / PI2, op)
        assert out[0] == pytest.approx(0.5, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            apply_semigroup(np.ones(2), -1.0, laplacian_spec(2))

    @settings(max_examples=30, deadline=None)
    @given(v=fields(), s=st.floats(0, 1), t=st.floats(0, 1))
    def test_semigroup_property(self, v, s, t):
        op = laplacian_spec(8)
        one = apply_semigroup(v, s + t, op)
        two = apply_semigroup(apply_semigroup(v, s, op), t, op)
        np.testing.assert_allclose(one, two, rtol=1e-12, atol=1e-12)

    def test_resolvent_matches_semigroup_to_second_order(self):
        # |1/(1 + mu dt) - exp(-mu dt)| = O(dt^2): slope about 2 over a dyadic sweep
        op = laplacian_spec(1)
        dts = np.array([0.1, 0.05, 0.025]) / PI2
        gaps = [
            abs(
                apply_resolvent(np.array([1.0]), dt, op)[0]
                - apply_semigroup(np.array([1.0]), dt, op)[0]
            )
            for dt in dts
        ]
        slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestFractionalNorm:
    def test_e1_half_power_is_pi(self):
        op = laplacian_spec(3)
        e1 = np.array([1.0, 0, 0])
        assert fractional_norm(e1, 0.5, op) == pytest.approx(np.pi, rel=1e-14)

    def test_zero_power_is_h_norm(self):
        op = laplacian_spec(6)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(6)
        assert fractional_norm(v, 0.0, op) == pytest.approx(h_norm(v), rel=1e-14)

    def test_e2_inverse_power_weight(self):
        op = laplacian_spec(3)
        e2 = np.array([0.0, 3.0, 0.0])
        # weight per unit coefficient is mu_2^{-1} = 1/(4 pi^2)
        assert fractional_norm(e2, -1.0, op) == pytest.approx(3.0 / (4 * PI2), rel=1e-13)

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            fractional_norm(np.ones(2), 1.5, laplacian_spec(2))


class TestGridTransforms:
    def test_e1_values_k3(self):
        e1 = np.array([1.0, 0.0, 0.0])
        vals = to_grid(e1)
        expected = np.sqrt(2) * np.sin(np.pi * np.array([0.25, 0.5, 0.75]))
        np.testing.assert_allclose(vals, [1.0, np.sqrt(2), 1.0], rtol=1e-14)
        np.testing.assert_allclose(vals, expected, rtol=1e-14)

    def test_zero_round_trip(self):
        z = np.zeros(7)
        np.testing.assert_array_equal(to_grid(z), z)
        np.testing.assert_array_equal(to_spectral(z), z)

    def test_random_round_trip(self):
        rng = np.random.default_rng(2)
        for K in (1, 2, 63, 64, 100):
            c = rng.standard_normal(K)
            np.testing.assert_allclose(to_spectral(to_grid(c)), c, rtol=1e-12, atol=1e-12)

    def test_parseval_grid_quadrature(self):
        rng = np.random.default_rng(3)
        K = 63
        c = rng.standard_normal(K)
        g = to_grid(c)
        quad_norm = np.sqrt(np.sum(g**2) / (K + 1))
        assert h_norm(c) == pytest.approx(quad_norm, rel=1e-12)

    def test_grid_points(self):
        np.testing.assert_allclose(grid_points(3), [0.25, 0.5, 0.75])

    @settings(max_examples=50, deadline=None)
    @given(
        c=st.integers(1, 1023).flatmap(
            lambda K: arrays(
                np.float64,
                (K,),
                elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            )
        )
    )
    def test_round_trip_any_mode_count(self, c):
        scale = max(1.0, float(np.max(np.abs(c))))
        np.testing.assert_allclose(
            to_spectral(to_grid(c)), c, rtol=1e-12, atol=1e-12 * scale
        )

    def test_batched_transform_matches_rows(self):
        rng = np.random.default_rng(4)
        # (8, 15): K = 15 rows as the direct solver transforms them one at a
        # time; (16, 63): the replica stack of an M = 16, K = 63 HMM run
        for shape in [(5, 16), (8, 15), (16, 63)]:
            block = rng.standard_normal(shape)
            rows = np.stack([to_grid(r) for r in block])
            np.testing.assert_array_equal(to_grid(block), rows)


def _reference_to_grid(x):
    return scipy.fft.dst(x, type=1, axis=-1) / np.sqrt(2.0)


def _reference_to_spectral(x):
    K = np.asarray(x).shape[-1]
    return scipy.fft.dst(x, type=1, axis=-1) / (np.sqrt(2.0) * (K + 1))


class TestKernelMatchesScipyDst:
    """to_grid/to_spectral call the pocketfft kernel directly; they must agree
    bit for bit with the public ``scipy.fft.dst`` formula they replace."""

    @staticmethod
    def _check(x):
        before = np.array(x, copy=True)
        np.testing.assert_array_equal(to_grid(x), _reference_to_grid(x))
        np.testing.assert_array_equal(to_spectral(x), _reference_to_spectral(x))
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("lead", [(), (16,), (3, 4)])
    @pytest.mark.parametrize("K", [1, 2, 15, 16, 63, 64, 1023])
    def test_bitwise(self, K, lead):
        self._check(np.random.default_rng(K).standard_normal(lead + (K,)))

    @pytest.mark.parametrize("K", [1, 15, 63])
    def test_non_contiguous_view(self, K):
        base = np.random.default_rng(5).standard_normal((9, 2 * K))
        view = base[::2, ::2]
        assert not view.flags.c_contiguous
        self._check(view)

    def test_int_list_is_converted_to_float64(self):
        x = [1, -2, 3, 0, 5]
        assert to_grid(x).dtype == np.float64
        assert to_spectral(x).dtype == np.float64
        self._check(x)


def test_implicit_euler_step_combines_resolvent_and_forcing():
    op = laplacian_spec(2)
    x = np.array([1.0, 0.0])
    f = np.array([0.0, 2.0])
    dt = 0.5
    out = implicit_euler_step(x, f, dt, op)
    np.testing.assert_allclose(
        out, (x + dt * f) / (1 + dt * op.eigenvalues), rtol=1e-15
    )
