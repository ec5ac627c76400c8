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
asserts this.

All functions are pure and operate on plain numpy arrays.
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


@dataclass(frozen=True)
class OperatorSpec:
    """Diagonal negative-definite operator given by its eigenvalue sequence.

    ``eigenvalues[k-1]`` is the eigenvalue of -(operator) on mode k, so the
    operator acts as multiplication by ``-eigenvalues[k-1]``.  The sequence
    must be strictly increasing and positive.
    """

    eigenvalues: np.ndarray
    basis_kind: str = "dirichlet_sine"

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d array")
        if not (eig > 0).all():
            raise ValueError("eigenvalues must be positive")
        if not (np.diff(eig) > 0).all():
            raise ValueError("eigenvalues must be strictly increasing")
        object.__setattr__(self, "eigenvalues", eig)

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
    _check_step(step, "step")
    return coeffs / (1.0 + step * op.eigenvalues)


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


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I along the last axis, single-threaded."""
    return _pocketfft_dst(x, 1, (-1,), 0, None, 1)


def to_grid(coeffs: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient vector on the collocation grid.

    Works on the last axis, so stacked fields of shape (..., K) transform in
    one call.
    """
    return _dst1(np.asarray(coeffs, dtype=np.float64)) / _SQRT2


def to_spectral(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_grid`; exact up to roundoff on the matching grid."""
    values = np.asarray(values, dtype=np.float64)
    return _dst1(values) / (_SQRT2 * (values.shape[-1] + 1))


def implicit_euler_step(
    coeffs: np.ndarray, forcing: np.ndarray, dt: float, op: OperatorSpec
) -> np.ndarray:
    """One semi-implicit Euler step: (I - dt*op)^{-1} (x + dt * forcing).

    The linear part is implicit, the forcing explicit.  Both the coarse and
    the averaged schemes must route through this single code path so that a
    y-independent reaction term makes them agree bitwise.
    """
    return apply_resolvent(coeffs + dt * forcing, dt, op)
