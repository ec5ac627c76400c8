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

import numbers
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
from .spectral import _check_count, _check_positive, _check_step, _mode_count, _whole_steps

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
        _check_step(v, "mode variance")
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


def pointwise_variance(measure: InvariantMeasureSpec, xi):
    """Variance of the invariant field at location(s) xi:
    sigma^2(xi) = sum_k 2 sin^2(k pi xi) var_k over the measure's modes."""
    v = measure.mode_variances
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


def _check_samples(name: str, n: int) -> None:
    """A Monte-Carlo standard error needs a whole count of at least two
    samples: ``n`` of ``name``."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer sample count, got {n!r}")
    if n < 2:
        raise ValueError(f"{name} must be >= 2 for a Monte-Carlo standard error, got {n}")


def _mean_stderr(samples) -> tuple[np.ndarray, np.ndarray]:
    """Mean of ``samples`` over their first axis and its standard error
    std(ddof=1) / sqrt(n), the one rule behind every reported fluctuation."""
    v = np.asarray(samples, dtype=float)
    return v.mean(axis=0), v.std(axis=0, ddof=1) / np.sqrt(len(v))


def _check_sampling(op_b: OperatorSpec, tau: float, window: int, batches: int) -> None:
    """Raise ValueError naming the tau, batches or window fbar_sampled cannot run."""
    _check_positive("tau", tau)
    op_b.euler_denominator(tau)
    _check_samples("batches", batches)
    _check_count("window", window, floor=0)
    if window < batches:
        raise ValueError(f"window {window} is shorter than batches={batches}")


def fbar_sampled(
    spec: CoefficientSpec,
    x: np.ndarray,
    op_b: OperatorSpec,
    tau: float,
    window: int,
    key: NoiseStreamKey,
    batches: int = 32,
) -> FbarSampled:
    """Estimate the averaged coefficient by a long single-chain time average.

    One :func:`run_micro` call runs the chain from zero at ``key``:
    max(window // 10, 1) warm-up steps, then ``batches`` consecutive batches
    of window // batches steps, read forward from one stream.  Reports the
    batch-means standard error per grid point; the batch length should
    exceed the chain's correlation time ~ (1 + tau mu_1)/(tau mu_1) steps.
    """
    _check_sampling(op_b, tau, window, batches)
    warmup = max(window // 10, 1)
    per_batch = window // batches
    res = run_micro(np.zeros(x.shape[-1]), x, warmup + per_batch * batches, key,
                    spec, op_b, tau, warmup=warmup + 1, batches=batches)
    grid_mean, grid_stderr = _mean_stderr(to_grid(res.f_batch_means))
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
    dt: float | np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Averaged-scheme trajectory, shape ``(n_steps + 1,) + x0.shape``, entry 0 = x0.

    Each step is xbar' = R_dt (xbar + dt * fbar(xbar)), written straight
    into its entry of the trajectory.  An (R, K) ``x0`` steps R rows in lock
    step at one ``dt`` or an (R, 1) column of per-row steps; each row equals
    its own run bit for bit.
    """
    for step in np.ravel(dt):
        _check_positive("dt", step)
    _mode_count(x0, ops=(op_a,))
    if np.ndim(dt) and np.shape(dt) != np.shape(x0)[:-1] + (1,):
        raise ValueError(f"dt must be one step or one per row of x0, got shape {np.shape(dt)}")
    traj = np.empty((n_steps + 1,) + np.shape(x0))
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
    errors being measured).  One :func:`run_averaged` call steps the pair
    [x0, x0] at fine_dt and fine_dt / 2 for n = T / fine_dt steps, a second
    the finer row's other n half steps from its midpoint.
    """
    n = _whole_steps(T, fine_dt, ("T", "fine_dt"))
    half = fine_dt / 2.0
    x_fine, x_mid = run_averaged(np.array([x0, x0], dtype=float), fbar, op_a,
                                 np.array([[fine_dt], [half]]), n)[-1]
    x_finer = run_averaged(x_mid, fbar, op_a, half, n)[-1]
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
    for the measure's K modes (another mode count raises ValueError), and
    builds the grid and the y-samples sqrt(2) sigma(xi) t_q once, here.  An
    f that ignores y is broadcast against the y-samples, so fbar equals f.
    """
    nodes, weights = _hermgauss(quad_order)
    variances = measure.mode_variances
    xi_col = grid_points(variances.size)[:, None]
    y_nodes = np.sqrt(2.0) * np.sqrt(pointwise_variance(measure, xi_col))[:, None] * nodes

    def fbar(x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != variances.size:  # one comparison per call on the hot path
            _mode_count(x, variances)  # raises, naming both counts
        vals = spec.f(xi_col, to_grid(x)[..., None], y_nodes)
        if np.shape(vals)[-1:] != y_nodes.shape[-1:]:  # an f that ignores y
            vals = np.broadcast_to(vals, np.broadcast_shapes(np.shape(vals), y_nodes.shape))
        avg = vals @ weights
        avg /= _SQRT_PI
        return to_spectral(avg)

    return fbar
