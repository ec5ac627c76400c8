import dataclasses

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


class TestArgumentsAndDenominators:
    """The transforms and the Euler step scale fresh arrays in place; their
    arguments stay untouched, and each operator's cached denominators are
    exactly 1 + dt * eigenvalues for that operator and that dt."""

    @staticmethod
    def _frozen(a):
        a = np.array(a, copy=True)
        a.setflags(write=False)  # any write into an argument raises
        return a

    @pytest.mark.parametrize("shape", [(7,), (3, 7), (2, 3, 7)])
    def test_arguments_untouched(self, shape):
        rng = np.random.default_rng(len(shape))
        x = self._frozen(rng.standard_normal(shape))
        f = self._frozen(rng.standard_normal(shape))
        op = laplacian_spec(7)
        eig = op.eigenvalues.copy()
        x0, f0 = x.copy(), f.copy()
        for out in (to_grid(x), to_spectral(x), implicit_euler_step(x, f, 0.1, op)):
            assert out.flags.writeable and not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(f, f0)
        np.testing.assert_array_equal(op.eigenvalues, eig)

    def test_euler_step_broadcasts_both_ways(self):
        rng = np.random.default_rng(3)
        op = laplacian_spec(5)
        stack, row, dt = rng.standard_normal((3, 5)), rng.standard_normal(5), 0.1
        for coeffs, forcing in ((stack, row), (row, stack)):
            out = implicit_euler_step(coeffs, forcing, dt, op)
            assert out.shape == (3, 5)
            np.testing.assert_array_equal(
                out, (coeffs + dt * forcing) / (1.0 + dt * op.eigenvalues))

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            implicit_euler_step(np.ones(3), np.ones(3), -0.1, laplacian_spec(3))

    def test_denominators_per_operator_and_dt(self):
        a = laplacian_spec(5)
        b = OperatorSpec(eigenvalues=2.0 * a.eigenvalues)
        c = laplacian_spec(5)  # equal eigenvalues, separate cache
        x, f = np.ones(5), np.full(5, 0.5)
        for dt in (0.1, 0.2, 0.1, 1e-3, 0.0, 0.2):
            for op in (a, b, c, a):
                den = op.euler_denominator(dt)
                np.testing.assert_array_equal(den, 1.0 + dt * op.eigenvalues)
                assert not den.flags.writeable
                np.testing.assert_array_equal(implicit_euler_step(x, f, dt, op),
                                              (x + dt * f) / (1.0 + dt * op.eigenvalues))
        assert a.euler_denominator(0.1) is a.euler_denominator(0.1)
        assert a.euler_denominator(0.1) is not c.euler_denominator(0.1)
        assert not np.array_equal(a.euler_denominator(0.1), a.euler_denominator(0.2))
        assert not np.array_equal(a.euler_denominator(0.1), b.euler_denominator(0.1))

    def test_many_step_sizes_stay_exact(self):
        op = laplacian_spec(4)
        dts = np.linspace(1e-3, 1.0, 200)
        for dt in (*dts, *dts[::-1]):
            np.testing.assert_array_equal(op.euler_denominator(dt),
                                          1.0 + dt * op.eigenvalues)


OUT_SHAPES = [lead + (K,) for K in (1, 2, 15, 63) for lead in ((), (3,), (2, 3))]


class TestOutArgument:
    """With ``out`` set, each primitive writes the allocating call's result
    there, bit for bit, and returns it, whether ``out`` is a fresh buffer or
    one of the inputs; no other argument changes."""

    @staticmethod
    def _frozen(a):
        a = np.array(a, copy=True)
        a.setflags(write=False)
        return a

    @pytest.mark.parametrize("fn", [to_grid, to_spectral])
    @pytest.mark.parametrize("shape", OUT_SHAPES)
    def test_transforms(self, fn, shape):
        x = self._frozen(np.random.default_rng(shape[-1]).standard_normal(shape))
        want = fn(x)
        buf = np.empty(shape)
        assert fn(x, out=buf) is buf
        np.testing.assert_array_equal(buf, want)
        alias = x.copy()
        assert fn(alias, out=alias) is alias
        np.testing.assert_array_equal(alias, want)

    @pytest.mark.parametrize("fn", [to_grid, to_spectral])
    def test_transforms_broadcast_into_out(self, fn):
        row = self._frozen(np.random.default_rng(4).standard_normal(7))
        buf = np.empty((2, 3, 7))
        fn(row, out=buf)
        np.testing.assert_array_equal(buf, np.broadcast_to(fn(row), buf.shape))

    @pytest.mark.parametrize("fn", [to_grid, to_spectral])
    def test_transforms_reject_out_that_does_not_fit(self, fn):
        # the kernel itself would write past the end of this buffer
        with pytest.raises(ValueError):
            fn(np.ones((3, 5)), out=np.empty((2, 5)))

    @pytest.mark.parametrize("shape", OUT_SHAPES)
    def test_euler_step(self, shape):
        rng = np.random.default_rng(shape[-1] + len(shape))
        op = laplacian_spec(shape[-1])
        x = self._frozen(rng.standard_normal(shape))
        f = self._frozen(rng.standard_normal(shape))
        want = implicit_euler_step(x, f, 0.1, op)
        buf = np.empty(shape)
        assert implicit_euler_step(x, f, 0.1, op, out=buf) is buf
        np.testing.assert_array_equal(buf, want)
        for which in (0, 1):
            args = [x, f]
            alias = args[which] = args[which].copy()
            assert implicit_euler_step(*args, 0.1, op, out=alias) is alias
            np.testing.assert_array_equal(alias, want)
            np.testing.assert_array_equal(args[1 - which], (x, f)[1 - which])

    def test_negative_dt_leaves_out_untouched(self):
        x = np.ones(3)
        with pytest.raises(ValueError, match="nonnegative"):
            implicit_euler_step(x, np.ones(3), -0.1, laplacian_spec(3), out=x)
        np.testing.assert_array_equal(x, np.ones(3))


class TestOperatorSpecValue:
    """An operator is a value: equality and hash follow its kind and
    eigenvalues, and its eigenvalues cannot change under its caches."""

    def test_equal_specs_compare_and_hash_equal(self):
        a, b = laplacian_spec(3), laplacian_spec(3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_specs_compare_unequal(self):
        a = laplacian_spec(3)
        assert a != laplacian_spec(4)
        assert a != OperatorSpec(eigenvalues=2.0 * a.eigenvalues)
        assert a != "not an operator"

    def test_eigenvalues_read_only_copy(self):
        eig = np.array([1.0, 4.0, 9.0])
        op = OperatorSpec(eigenvalues=eig)
        den = op.euler_denominator(0.1)
        with pytest.raises(ValueError):
            op.eigenvalues[0] = 2.0
        eig[0] = 2.0  # the caller's array stays theirs and writeable
        assert eig.flags.writeable
        assert op.eigenvalues[0] == 1.0
        np.testing.assert_array_equal(op.euler_denominator(0.1), den)

    def test_replace_gives_own_cache(self):
        a = laplacian_spec(4)
        den = a.euler_denominator(0.1)
        b = dataclasses.replace(a)
        assert b == a
        assert b.euler_denominator(0.1) is not den
        np.testing.assert_array_equal(b.euler_denominator(0.1), den)
