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

:func:`run_direct` takes one seed or a sequence of S seeds.  A sequence runs
S independent copies in lock step as (S, K) stacks through the same loop;
each copy reads its own Philox stream, so copy s equals the single-seed run
with seed s bit for bit (every stage is a row-wise transform or
elementwise).  A run opens those S streams once and reads them forward
into one noise buffer.  X and Y live in one (2, S, K) buffer, so one
``to_grid`` call per coupled step transforms both, and the y grid goes on to
g.  Each step writes its grids, forcing and new X and Y into buffers made
once per run (``out=``); both updates read the pre-update grids.  Arrays
then gain a seed axis: the slow trajectory is (steps + 1, S, K) and the
final fields are (S, K).  ``cost`` sums the coupled steps over the seeds,
S * ceil(T/dt).  The recorded trajectory takes (steps + 1) * S * K * 8
bytes; callers that only read endpoints pass ``trajectory=False``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSpec
from .micro import _CHUNK_STEPS, _check_finite, step_replicas
from .noise import NoiseStreams, derive_key, draw_increments
from .spectral import OperatorSpec, grid_points, implicit_euler_step, to_grid, to_spectral

__all__ = ["DirectRun", "run_direct", "DIRECT_STREAM_TAG"]

# keeps direct-solver noise disjoint from multiscale noise under one seed
DIRECT_STREAM_TAG = 1


@dataclass(frozen=True)
class DirectRun:
    """Result of :func:`run_direct`.

    With an int seed the arrays are single fields: ``trajectory_X`` is
    (steps + 1, K), ``final_X`` and ``final_Y`` are (K,).  With a sequence
    of S seeds they carry a seed axis: (steps + 1, S, K) and (S, K).
    ``trajectory_X`` is None when the run was made with ``trajectory=False``.
    """

    trajectory_X: np.ndarray | None
    final_X: np.ndarray
    final_Y: np.ndarray
    cost: int  # coupled steps summed over the seeds: S * ceil(T/dt)
    dt: float
    seed: int | tuple[int, ...]


def run_direct(
    x0: np.ndarray,
    y0: np.ndarray,
    coeffs: CoefficientSpec,
    op_a: OperatorSpec,
    op_b: OperatorSpec,
    epsilon: float,
    dt: float,
    T: float,
    seed: int | Sequence[int],
    trajectory: bool = True,
) -> DirectRun:
    """Integrate the coupled system to time T in ceil(T/dt) steps.

    The run ends at ceil(T/dt) * dt, past T when dt does not divide it.

    ``seed`` is an int or a sequence of S seeds.  A sequence advances S
    copies from the same (K,) initial fields ``x0``, ``y0`` in lock step;
    copy s draws its noise from ``derive_key(seed[s], 0, 0, 1,
    stream_tag=DIRECT_STREAM_TAG)`` and equals the single-seed run with
    that seed bit for bit.  ``cost`` is S * ceil(T/dt), the coupled steps
    summed over the seeds.  The trajectory of the slow field takes
    (steps + 1) * S * K * 8 bytes; ``trajectory=False`` skips it and leaves
    only the final fields.  A non-finite state raises ValueError naming the
    seeds and the range of steps it appeared in.
    """
    if dt <= 0 or T <= 0 or epsilon <= 0:
        raise ValueError("dt, T and epsilon must be positive")
    single = isinstance(seed, numbers.Integral)
    seeds = (seed,) if single else tuple(seed)
    if not seeds:
        raise ValueError("seed sequence is empty")
    tau = dt / epsilon
    if tau > 0.5:
        warnings.warn(
            f"dt/epsilon = {tau:.3g} > 0.5: the fast scale is underresolved",
            stacklevel=2,
        )
    n_steps = math.ceil(T / dt - 1e-12)
    S = len(seeds)
    K = x0.shape[-1]

    xi = grid_points(K)
    res = 1.0 / (1.0 + tau * op_b.eigenvalues)
    XY = np.empty((2, S, K))  # X and Y, transformed together
    X, Y = XY
    X[:] = x0
    Y[:] = y0
    grids = np.empty((2, S, K))
    x_grid, y_grid = grids
    forcing = np.empty((S, K))
    traj = np.empty((n_steps + 1, S, K)) if trajectory else None
    if traj is not None:
        traj[0] = X

    streams = NoiseStreams(
        [derive_key(s, 0, 0, 1, stream_tag=DIRECT_STREAM_TAG) for s in seeds], K
    )
    # one noise buffer holds about _CHUNK_STEPS * K numbers whatever S is
    chunk = min(max(1, _CHUNK_STEPS // S), n_steps)
    buf = np.empty((chunk, S, K))
    done = 0
    while done < n_steps:
        n_chunk = min(chunk, n_steps - done)
        incr = draw_increments(streams, tau, K, n_chunk, out=buf[:n_chunk])
        for i in range(n_chunk):
            to_grid(XY, out=grids)
            to_spectral(coeffs.f(xi, x_grid, y_grid), out=forcing)
            implicit_euler_step(X, forcing, dt, op_a, out=X)
            step_replicas(Y, x_grid, xi, incr[i], res, tau, coeffs, y_grid, out=Y)
            if traj is not None:
                traj[done + i + 1] = X
        _check_finite(seeds, done + 1, done + n_chunk, X, Y)
        done += n_chunk

    if single:  # drop the seed axis
        traj = None if traj is None else traj[:, 0]
        X, Y = X[0], Y[0]
    return DirectRun(trajectory_X=traj, final_X=X, final_Y=Y, cost=S * n_steps,
                     dt=dt, seed=seed if single else seeds)
