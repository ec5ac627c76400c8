from dataclasses import replace

import numpy as np
import pytest

import hmm_spde.coefficients as coefficients_mod
from hmm_spde.coefficients import (
    PRESET_NAMES,
    CoefficientSpec,
    check_strict_dissipativity,
    check_weak_dissipativity,
    eval_F,
    eval_G,
    preset,
    validate_coefficients,
)
from hmm_spde.spectral import h_norm, laplacian_spec, to_grid

PI2 = np.pi**2


def make_spec(f=None, g=None, sup_f=1.0, sup_g=0.0, lip=0.0, u=None):
    if f is None:
        f = lambda xi, x, y: np.zeros(np.broadcast_shapes(np.shape(xi), np.shape(x), np.shape(y)))
    return CoefficientSpec(
        name="custom", f=f, g=g, sup_f=sup_f, sup_g=sup_g, lipschitz_g_y=lip, potential=u
    )


class TestEvalF:
    def test_zero_reaction(self):
        spec = make_spec()
        K = 9
        out = eval_F(spec, np.ones(K), np.ones(K))
        np.testing.assert_array_equal(out, np.zeros(K))

    def test_sin_pix_is_first_mode(self):
        # f(xi) = sin(pi xi) = e_1(xi)/sqrt(2); single mode, no aliasing
        spec = make_spec(f=lambda xi, x, y: np.sin(np.pi * xi) + 0 * x * y)
        for K in (1, 4, 63):
            out = eval_F(spec, np.zeros(K), np.zeros(K))
            expected = np.zeros(K)
            expected[0] = 1 / np.sqrt(2)
            np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_identity_in_y(self):
        spec = make_spec(f=lambda xi, x, y: y, sup_f=np.inf)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(12)
        np.testing.assert_allclose(eval_F(spec, np.zeros(12), y), y, rtol=1e-12)

    def test_mismatched_modes_rejected(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            eval_F(spec, np.zeros(4), np.zeros(5))

    def test_bounded_f_bounded_norm(self):
        spec = preset("p1")
        rng = np.random.default_rng(1)
        for _ in range(5):
            K = 31
            out = eval_F(spec, rng.standard_normal(K), rng.standard_normal(K))
            assert h_norm(out) <= spec.sup_f

    def test_nemytskii_locality(self):
        # outputs at a grid point depend only on the inputs at that point
        spec = preset("p1")
        K = 15
        rng = np.random.default_rng(2)
        x1, y1 = rng.standard_normal(K), rng.standard_normal(K)
        g1 = to_grid(eval_F(spec, x1, y1))
        # craft second inputs agreeing on grid point 3 only
        x2, y2 = rng.standard_normal(K), rng.standard_normal(K)
        gx2, gy2 = to_grid(x2), to_grid(y2)
        gx2[3], gy2[3] = to_grid(x1)[3], to_grid(y1)[3]
        from hmm_spde.spectral import to_spectral

        g2 = to_grid(eval_F(spec, to_spectral(gx2), to_spectral(gy2)))
        assert g2[3] == pytest.approx(g1[3], rel=1e-12)


class TestEvalG:
    def test_none_g_gives_zero(self):
        spec = preset("p1")
        out = eval_G(spec, np.ones(6), np.ones(6))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_linear_g_exact(self):
        spec = preset("p3", c=2.5)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(10)
        np.testing.assert_allclose(eval_G(spec, np.zeros(10), y), -2.5 * y, rtol=1e-12)

    def test_lipschitz_bound_in_h(self):
        spec = preset("p2")
        K = 31
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(K)
            y1, y2 = rng.standard_normal(K), rng.standard_normal(K)
            d = h_norm(eval_G(spec, x, y1) - eval_G(spec, x, y2))
            assert d <= spec.lipschitz_g_y * h_norm(y1 - y2) + 1e-10


class TestDissipativity:
    def test_zero_g_strict(self):
        holds, margin = check_strict_dissipativity(preset("p1"), laplacian_spec(8))
        assert holds
        assert margin == pytest.approx(PI2, rel=1e-12)

    def test_sin_g_margin(self):
        spec = make_spec(g=lambda xi, x, y: np.sin(y), sup_g=1.0, lip=1.0)
        holds, margin = check_strict_dissipativity(spec, laplacian_spec(8))
        assert holds
        assert margin == pytest.approx(PI2 - 1.0, rel=1e-12)

    def test_steep_g_fails(self):
        spec = make_spec(g=lambda xi, x, y: 10.0 * y, sup_g=np.inf, lip=10.0)
        holds, margin = check_strict_dissipativity(spec, laplacian_spec(8))
        assert not holds
        assert margin < 0

    def test_weak_from_bounded_g(self):
        spec = preset("p2", alpha=4.0)
        res = check_weak_dissipativity(spec, laplacian_spec(8))
        assert res.holds and not res.via_strict
        assert res.c == pytest.approx(PI2 / 2)
        assert res.C == pytest.approx(16.0 / (2 * PI2))

    def test_weak_zero_g(self):
        res = check_weak_dissipativity(preset("p1"), laplacian_spec(4))
        assert res.holds
        assert res.C == pytest.approx(0.0)

    def test_weak_via_strict_for_unbounded_g(self):
        spec = preset("p3", c=1.0)  # sup_g = inf, L_g = 1 < pi^2
        res = check_weak_dissipativity(spec, laplacian_spec(4))
        assert res.holds and res.via_strict
        assert res.c > 0

    def test_weak_fails_when_neither(self):
        spec = make_spec(g=lambda xi, x, y: 20.0 * y, sup_g=np.inf, lip=20.0)
        res = check_weak_dissipativity(spec, laplacian_spec(4))
        assert not res.holds


class TestValidation:
    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    def test_presets_pass(self, name):
        validate_coefficients(preset(name))

    def test_wrong_sup_f_caught(self):
        spec = make_spec(f=lambda xi, x, y: 2.0 * np.cos(y), sup_f=1.0)
        with pytest.raises(ValueError, match="exceeds"):
            validate_coefficients(spec)

    def test_wrong_potential_caught(self):
        spec = make_spec(
            g=lambda xi, x, y: np.sin(y),
            sup_g=1.0,
            lip=1.0,
            u=lambda xi, x, y: np.cos(y),  # derivative is -sin(y), not sin(y)
        )
        with pytest.raises(ValueError, match="potential"):
            validate_coefficients(spec)

    def test_wrong_linear_drift_caught(self):
        spec = replace(preset("p3"), linear_drift=2.0)  # g is -1.0 y
        with pytest.raises(ValueError, match="declared -2.0 y"):
            validate_coefficients(spec)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("p9")


class TestSlowReaction:
    """The presets share one f; its sin(pi xi) factor is cached by the grid's
    content, so it always equals the uncached factor."""

    def test_presets_share_one_f(self):
        fs = {preset(name).f for name in PRESET_NAMES}
        assert fs == {coefficients_mod._slow_reaction}

    def test_matches_expression(self):
        rng = np.random.default_rng(3)
        xi, x, y = rng.uniform(-2, 2, (3, 4, 15))
        np.testing.assert_array_equal(
            preset("p2").f(xi, x, y), np.cos(y) * np.sin(np.pi * xi) * np.exp(-np.square(x)))

    @staticmethod
    def _factor(xi):
        # cos(0) = exp(-0) = 1: f(xi, 0, 0) is the cached factor, bit for bit
        return coefficients_mod._slow_reaction(xi, 0.0, 0.0)

    @pytest.mark.parametrize("shape", [(15,), (15, 1), (1000,)])
    def test_cached_factor_matches_sin(self, shape):
        xi = np.random.default_rng(shape[0]).uniform(0, 1, shape)
        for _ in range(2):  # computed, then from the cache
            factor = self._factor(xi)
            np.testing.assert_array_equal(factor, np.sin(np.pi * xi))
            assert factor.shape == xi.shape
        cached = coefficients_mod._sin_pi(xi.dtype, xi.shape, xi.tobytes())
        assert not cached.flags.writeable

    def test_changed_grid_gets_fresh_factor(self):
        xi = np.linspace(0.1, 0.9, 7)
        self._factor(xi)
        xi[3] = 0.25  # same array object, new content
        np.testing.assert_array_equal(self._factor(xi), np.sin(np.pi * xi))
        np.testing.assert_array_equal(self._factor(xi.reshape(7, 1)),
                                      np.sin(np.pi * xi.reshape(7, 1)))
