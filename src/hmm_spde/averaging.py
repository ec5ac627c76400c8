"""Averaged reaction coefficient and the deterministic averaged scheme.

The fast chain with frozen slow component has a Gaussian invariant law in two
cases the suite relies on:

* g = 0: per-mode variances 1/(2 mu_k);
* g = -c y: per-mode variances 1/(2 (mu_k + c)).

For a Nemytskii f the averaged coefficient at a grid point is then a
one-dimensional Gaussian expectation,

    fbar(x)(xi) = E[ f(xi, x(xi), Z) ],   Z ~ N(0, sigma^2(xi)),

with sigma^2(xi) = sum_k 2 sin^2(k pi xi) var_k, evaluated here by
Gauss-Hermite quadrature.  The averaged coefficient of a Nemytskii pair is
not itself a Nemytskii operator in general, which is why everything works
pointwise on the grid.  For a nonlinear g there is no closed form and the
sampled estimator (a long fast-chain time average) is the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coefficients import CoefficientSpec
from .micro import discrete_stationary_variances, run_micro
from .noise import NoiseStreamKey
from .spectral import (
    OperatorSpec,
    grid_points,
    implicit_euler_step,
    to_grid,
    to_spectral,
)

__all__ = [
    "InvariantMeasureSpec",
    "gaussian_nu",
    "gaussian_shifted",
    "gaussian_discrete",
    "pointwise_variance",
    "FbarSampled",
    "fbar_sampled",
    "run_averaged",
    "ReferenceSolution",
    "reference_solution",
    "make_gaussian_fbar",
]

DEFAULT_QUAD_ORDER = 40
_SQRT_PI = np.sqrt(np.pi)

# x -> fbar(x), row-wise on a (..., K) stack: each row of the result equals
# the call on that row alone, bit for bit (or one (K,) row serves all rows)
FbarProvider = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InvariantMeasureSpec:
    """Centered product-Gaussian invariant law of the fast chain, one variance
    per mode; a law without this form goes through :func:`fbar_sampled`."""

    mode_variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.mode_variances, dtype=float)
        if (v < 0).any():
            raise ValueError("mode variances must be nonnegative")
        object.__setattr__(self, "mode_variances", v)


def gaussian_nu(op_b: OperatorSpec) -> InvariantMeasureSpec:
    """Invariant law for g = 0: centered Gaussian with variances 1/(2 mu_k)."""
    return InvariantMeasureSpec(mode_variances=1.0 / (2.0 * op_b.eigenvalues))


def gaussian_shifted(op_b: OperatorSpec, c: float) -> InvariantMeasureSpec:
    """Invariant law for g = -c y: variances 1/(2 (mu_k + c))."""
    if c < 0:
        raise ValueError("drift coefficient must be nonnegative")
    return InvariantMeasureSpec(mode_variances=1.0 / (2.0 * (op_b.eigenvalues + c)))


def gaussian_discrete(op_b: OperatorSpec, tau: float) -> InvariantMeasureSpec:
    """Equilibrium law of the g = 0 chain at step tau: variances
    1/(2 mu_k + tau mu_k^2); the tau -> 0 limit is :func:`gaussian_nu`."""
    return InvariantMeasureSpec(mode_variances=discrete_stationary_variances(tau, op_b))


def pointwise_variance(measure: InvariantMeasureSpec, xi, K: int | None = None):
    """Variance of the invariant field at location(s) xi:
    sigma^2(xi) = sum_k 2 sin^2(k pi xi) var_k, truncated at K modes."""
    v = measure.mode_variances
    if K is not None:
        if K > v.size:
            raise ValueError(f"K={K} exceeds the {v.size} stored mode variances")
        v = v[:K]
    k = np.arange(1, v.size + 1, dtype=float)
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    s2 = (2.0 * np.sin(np.outer(xi_arr, k) * np.pi) ** 2 @ v)
    return float(s2[0]) if np.isscalar(xi) else s2


@lru_cache(maxsize=8)
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class FbarSampled:
    """Sampled averaged coefficient with per-grid-point standard errors."""

    field: np.ndarray
    grid_values: np.ndarray
    grid_stderr: np.ndarray
    window: int


def fbar_sampled(
    spec: CoefficientSpec,
    x: np.ndarray,
    op_b: OperatorSpec,
    tau: float,
    window: int,
    key: NoiseStreamKey,
    warmup: int | None = None,
    batches: int = 32,
    y0: np.ndarray | None = None,
) -> FbarSampled:
    """Estimate the averaged coefficient by a long single-chain time average.

    Splits the window into ``batches`` consecutive batches and reports the
    batch-means standard error per grid point; the batch length should exceed
    the chain's correlation time ~ (1 + tau mu_1)/(tau mu_1) steps.
    """
    if window < 1:
        raise ValueError("window must contain at least one step")
    if batches < 2 or batches > window:
        raise ValueError("need 2 <= batches <= window")
    K = x.shape[-1]
    if warmup is None:
        warmup = max(window // 10, 1)
    per_batch = window // batches
    y = np.zeros(K) if y0 is None else np.array(y0, dtype=float)

    # warm-up: advance without accumulating
    if warmup > 0:
        res = run_micro(y, x, warmup, key, spec, op_b, tau, warmup=warmup)
        y = res.y
    offset = warmup

    batch_means = np.empty((batches, K))
    for b in range(batches):
        res = run_micro(
            y, x, per_batch, key.advanced(offset), spec, op_b, tau, warmup=1
        )
        y = res.y
        batch_means[b] = to_grid(res.f_window_mean)
        offset += per_batch

    grid_mean = batch_means.mean(axis=0)
    grid_stderr = batch_means.std(axis=0, ddof=1) / np.sqrt(batches)
    return FbarSampled(
        field=to_spectral(grid_mean),
        grid_values=grid_mean,
        grid_stderr=grid_stderr,
        window=per_batch * batches,
    )


def run_averaged(
    x0: np.ndarray,
    fbar: FbarProvider,
    op_a: OperatorSpec,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Averaged-scheme trajectory, shape (n_steps + 1, K), row 0 = x0.

    Each step is xbar' = R_dt (xbar + dt * fbar(xbar)), written straight
    into its row of the trajectory.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if op_a.mode_count != x0.shape[-1]:
        raise ValueError("operator mode counts must match the fields")
    traj = np.empty((n_steps + 1, x0.shape[-1]))
    traj[0] = x0
    for xbar, xbar_next in zip(traj[:-1], traj[1:]):
        implicit_euler_step(xbar, fbar(xbar), dt, op_a, out=xbar_next)
    return traj


@dataclass(frozen=True)
class ReferenceSolution:
    field: np.ndarray
    fine_dt: float
    richardson_gap: float


def reference_solution(
    x0: np.ndarray,
    fbar: FbarProvider,
    op_a: OperatorSpec,
    T: float,
    fine_dt: float,
) -> ReferenceSolution:
    """Fine-step integration of the averaged flow up to time T.

    Also integrates at half the step and reports the endpoint gap (a
    Richardson self-consistency number the caller should compare against the
    errors being measured).  Both run in lock step as the rows of one
    (2, K) stack, one oracle call on the stack and one on the finer row per
    coarse step; each row equals :func:`run_averaged` at its step bit for bit.
    """
    if fine_dt <= 0 or T <= 0:
        raise ValueError("T and fine_dt must be positive")
    if op_a.mode_count != x0.shape[-1]:
        raise ValueError("operator mode counts must match the fields")
    n = int(round(T / fine_dt))
    if abs(n * fine_dt - T) > 1e-9 * T:
        raise ValueError("fine_dt must divide T")
    half = fine_dt / 2.0
    xs = np.array([x0, x0], dtype=float)
    x_fine, x_finer = xs
    fs = np.empty_like(xs)  # fbar of both rows; one (K,) result serves both
    f_fine, f_finer = fs
    for _ in range(n):
        fs[...] = fbar(xs)
        implicit_euler_step(x_fine, f_fine, fine_dt, op_a, out=x_fine)
        implicit_euler_step(x_finer, f_finer, half, op_a, out=x_finer)
        implicit_euler_step(x_finer, fbar(x_finer), half, op_a, out=x_finer)
    return ReferenceSolution(
        field=x_finer,
        fine_dt=half,
        richardson_gap=float(np.linalg.norm(x_fine - x_finer)),
    )


def make_gaussian_fbar(
    spec: CoefficientSpec,
    measure: InvariantMeasureSpec,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> FbarProvider:
    """The quadrature oracle x -> fbar(x) under ``measure``: at each grid point
    xi_i it integrates f(xi_i, x(xi_i), .) against N(0, sigma^2(xi_i)) by
    Gauss-Hermite quadrature, then transforms to coefficients.

    It acts row-wise on a (..., K) stack, as :data:`FbarProvider` requires,
    and builds the y-samples sqrt(2) sigma(xi) t_q once per K.
    """
    nodes, weights = _hermgauss(quad_order)
    # K -> (xi as a column, y-samples sqrt(2) sigma_i t_q per grid point and node)
    cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def fbar(x: np.ndarray) -> np.ndarray:
        K = x.shape[-1]
        if K not in cache:
            xi = grid_points(K)
            sigma = np.sqrt(pointwise_variance(
                measure, xi, K=min(K, measure.mode_variances.size)))
            cache[K] = xi[:, None], np.sqrt(2.0) * sigma[:, None] * nodes[None, :]
        xi_col, y_nodes = cache[K]
        avg = spec.f(xi_col, to_grid(x)[..., None], y_nodes) @ weights
        avg /= _SQRT_PI
        return to_spectral(avg)

    return fbar
