"""Spectral representation of fields on (0, 1) with homogeneous Dirichlet BCs.

A field is stored as the vector of its first K coefficients in the orthonormal
sine basis e_k(xi) = sqrt(2) sin(k pi xi), k = 1..K.  Diagonal operators
(resolvents, semigroups, fractional powers) act mode by mode; pointwise
(Nemytskii) evaluations go through the collocation grid xi_i = i/(K+1), on
which the type-I discrete sine transform is exactly invertible.

The grid transforms call scipy's pocketfft DST-I kernel directly rather than
``scipy.fft.dst``: at K <= 63 the per-call dispatch of ``scipy.fft.dst``
(backend lookup, argument normalisation) cost several times the transform
itself.  The kernel call is the one ``scipy.fft.dst(x, type=1, axis=-1)``
makes, so results agree with it bit for bit; ``tests/test_spectral.py``
asserts this.  The transforms scale the kernel's output in place, and each
operator computes ``1 + dt * eigenvalues`` once per step size.

The transforms and :func:`implicit_euler_step` take an optional ``out``
array as numpy ufuncs do: the result goes there and is returned, and ``out``
may be an input.  No function modifies its arguments apart from ``out``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft._pocketfft.pypocketfft import dst as _pocketfft_dst

__all__ = [
    "OperatorSpec",
    "laplacian_spec",
    "grid_points",
    "apply_resolvent",
    "apply_semigroup",
    "fractional_norm",
    "to_grid",
    "to_spectral",
    "h_norm",
    "implicit_euler_step",
]

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """Diagonal negative-definite operator given by its eigenvalue sequence.

    ``eigenvalues[k-1]`` is the eigenvalue of -(operator) on mode k, so the
    operator acts as multiplication by ``-eigenvalues[k-1]``.  The sequence
    must be strictly increasing and positive.  The spec keeps a read-only
    copy, so its cached denominators cannot go stale, and compares by value.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        eig = np.array(self.eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d array")
        if not (eig > 0).all():
            raise ValueError("eigenvalues must be positive")
        if not (np.diff(eig) > 0).all():
            raise ValueError("eigenvalues must be strictly increasing")
        eig.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "_denominators", {})

    def __eq__(self, other):
        return (isinstance(other, OperatorSpec)
                and np.array_equal(self.eigenvalues, other.eigenvalues))

    def __hash__(self):
        return hash(self.eigenvalues.tobytes())

    def euler_denominator(self, step: float) -> np.ndarray:
        """1 + step * eigenvalues, checked and computed once per step size."""
        den = self._denominators.get(step)
        if den is None:
            _check_step(step, "step")
            if len(self._denominators) >= 64:  # a sweep over many step sizes
                self._denominators.clear()
            den = self._denominators[step] = 1.0 + step * self.eigenvalues
            den.setflags(write=False)
        return den

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    @property
    def smallest_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


def laplacian_spec(K: int) -> OperatorSpec:
    """Dirichlet Laplacian on (0, 1) truncated to K modes: eigenvalues pi^2 k^2."""
    if K < 1:
        raise ValueError(f"mode count must be >= 1, got {K}")
    k = np.arange(1, K + 1, dtype=float)
    return OperatorSpec(eigenvalues=np.pi**2 * k**2)


def grid_points(K: int) -> np.ndarray:
    """Collocation points xi_i = i/(K+1), i = 1..K."""
    return np.arange(1, K + 1, dtype=float) / (K + 1)


def _check_step(step: float, name: str) -> None:
    if step < 0:
        raise ValueError(f"{name} must be nonnegative, got {step}")


def apply_resolvent(coeffs: np.ndarray, step: float, op: OperatorSpec) -> np.ndarray:
    """Apply (I - step * operator)^{-1}: mode k is scaled by 1/(1 + step * eig_k)."""
    return coeffs / op.euler_denominator(step)


def apply_semigroup(coeffs: np.ndarray, t: float, op: OperatorSpec) -> np.ndarray:
    """Apply exp(t * operator): mode k is scaled by exp(-eig_k * t)."""
    _check_step(t, "t")
    return coeffs * np.exp(-op.eigenvalues * t)


def fractional_norm(coeffs: np.ndarray, a: float, op: OperatorSpec) -> float:
    """Norm sqrt(sum_k eig_k^{2a} c_k^2); a = 0 gives the plain H norm.

    Only a in [-1, 1] is supported.
    """
    if not -1.0 <= a <= 1.0:
        raise ValueError(f"fractional exponent must lie in [-1, 1], got {a}")
    w = op.eigenvalues ** (2.0 * a)
    return float(np.sqrt(np.sum(w * np.asarray(coeffs) ** 2, axis=-1)))


def h_norm(coeffs: np.ndarray) -> float:
    """H norm of a field: euclidean norm of its coefficients (Parseval)."""
    return float(np.linalg.norm(coeffs))


def _dst1(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Unnormalised DST-I along the last axis, single-threaded."""
    if out is not None and out.shape != x.shape:
        # the kernel writes past an ``out`` of another shape: broadcast into
        # it as a ufunc would, which raises when the shapes do not fit
        np.copyto(out, x)
        x = out
    return _pocketfft_dst(x, 1, (-1,), 0, out, 1)


def to_grid(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a coefficient vector on the collocation grid.

    Works on the last axis, so stacked fields of shape (..., K) transform in
    one call.
    """
    out = _dst1(np.asarray(coeffs, dtype=np.float64), out)
    out /= _SQRT2
    return out


def to_spectral(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`to_grid`; exact up to roundoff on the matching grid."""
    values = np.asarray(values, dtype=np.float64)
    out = _dst1(values, out)
    out /= _SQRT2 * (values.shape[-1] + 1)
    return out


def implicit_euler_step(
    coeffs: np.ndarray, forcing: np.ndarray, dt: float, op: OperatorSpec,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One semi-implicit Euler step: (I - dt*op)^{-1} (x + dt * forcing).

    The linear part is implicit, the forcing explicit.  Both the coarse and
    the averaged schemes must route through this single code path so that a
    y-independent reaction term makes them agree bitwise.  ``coeffs`` and
    ``forcing`` broadcast against each other.  ``out`` may be either input,
    since ``dt * forcing`` is formed first.
    """
    den = op.euler_denominator(dt)
    out = np.add(coeffs, dt * forcing, out=out)
    out /= den
    return out
