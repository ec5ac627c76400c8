"""Baseline coupled integrator that resolves the fast scale directly.

Both components advance with the same small step dt and explicit coupling
(the slow update reads the pre-update fast field):

    X' = S_dt (X + dt * F(X, Y))
    Y' = R_{dt/eps} (Y + (dt/eps) * G(X, Y) + sqrt(dt/eps) * zeta)

With g = 0 the fast component reproduces the frozen-x micro chain with
effective step dt/eps exactly; with a y-independent F the slow component
reproduces the averaged scheme bitwise.  The point of this solver is the
cost comparison: it must take ~ T/dt steps with dt ~ eps, while the
multiscale driver's micro work does not grow as eps shrinks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSpec
from .micro import _CHUNK_STEPS, step_replicas
from .noise import NoiseIncrement, derive_key, draw_increments
from .spectral import OperatorSpec, grid_points, implicit_euler_step, to_grid, to_spectral

__all__ = ["DirectState", "DirectRun", "direct_step", "run_direct", "DIRECT_STREAM_TAG"]

# keeps direct-solver noise disjoint from multiscale noise under one seed
DIRECT_STREAM_TAG = 1


@dataclass(frozen=True)
class DirectState:
    X: np.ndarray
    Y: np.ndarray
    t: float
    steps_taken: int


@dataclass(frozen=True)
class DirectRun:
    trajectory_X: np.ndarray  # (steps + 1, K)
    final_Y: np.ndarray
    cost: int  # micro-equivalent steps = number of coupled steps
    dt: float
    seed: int


def direct_step(
    state: DirectState,
    coeffs: CoefficientSpec,
    dt: float,
    epsilon: float,
    noise: NoiseIncrement,
    op_a: OperatorSpec,
    op_b: OperatorSpec,
) -> DirectState:
    """One coupled step; ``noise`` must be an increment over dt/epsilon."""
    if dt <= 0 or epsilon <= 0:
        raise ValueError("dt and epsilon must be positive")
    tau = dt / epsilon
    if abs(noise.dt - tau) > 1e-12 * max(tau, 1.0):
        raise ValueError(f"noise has dt={noise.dt}, expected dt/epsilon={tau}")
    K = state.X.shape[-1]
    xi = grid_points(K)
    x_grid = to_grid(state.X)

    f_val = to_spectral(coeffs.f(xi, x_grid, to_grid(state.Y)))
    x_new = implicit_euler_step(state.X, f_val, dt, op_a)

    res = 1.0 / (1.0 + tau * op_b.eigenvalues)
    y_new = step_replicas(state.Y, x_grid, xi, noise.coeffs, res, tau, coeffs)
    return DirectState(X=x_new, Y=y_new, t=state.t + dt, steps_taken=state.steps_taken + 1)


def run_direct(
    x0: np.ndarray,
    y0: np.ndarray,
    coeffs: CoefficientSpec,
    op_a: OperatorSpec,
    op_b: OperatorSpec,
    epsilon: float,
    dt: float,
    T: float,
    seed: int,
) -> DirectRun:
    """Integrate the coupled system to time T; cost is ceil(T/dt) steps."""
    if dt <= 0 or T <= 0 or epsilon <= 0:
        raise ValueError("dt, T and epsilon must be positive")
    tau = dt / epsilon
    if tau > 0.5:
        warnings.warn(
            f"dt/epsilon = {tau:.3g} > 0.5: the fast scale is underresolved",
            stacklevel=2,
        )
    n_steps = math.ceil(T / dt - 1e-12)
    K = x0.shape[-1]

    xi = grid_points(K)
    res = 1.0 / (1.0 + tau * op_b.eigenvalues)
    X = np.array(x0, dtype=float)
    Y = np.array(y0, dtype=float)
    traj = np.empty((n_steps + 1, K))
    traj[0] = X

    key = derive_key(seed, 0, 0, 1, stream_tag=DIRECT_STREAM_TAG)
    done = 0
    while done < n_steps:
        n_chunk = min(_CHUNK_STEPS, n_steps - done)
        incr = draw_increments(key.advanced(done), tau, K, n_chunk)
        for i in range(n_chunk):
            x_grid = to_grid(X)
            f_val = to_spectral(coeffs.f(xi, x_grid, to_grid(Y)))
            X_next = implicit_euler_step(X, f_val, dt, op_a)
            Y = step_replicas(Y, x_grid, xi, incr[i], res, tau, coeffs)
            X = X_next
            traj[done + i + 1] = X
        done += n_chunk

    return DirectRun(trajectory_X=traj, final_Y=Y, cost=n_steps, dt=dt, seed=seed)
