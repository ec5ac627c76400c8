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

:func:`run_direct` takes one seed or a sequence of S seeds; with a sequence,
``epsilon`` and ``dt`` may be given per row.  The S rows run in lock step as
(S, K) stacks through the same loop; row r reads its own Philox stream and
uses its own tau_r = dt_r/eps_r, so it equals the single run (eps_r, dt_r,
seed_r) bit for bit (every stage is a row-wise transform or elementwise).
Rows go in order of decreasing step count, so the live rows are a prefix of
the stack that shrinks at each horizon; rows of equal dt share one slow
update.  The streams are opened once and read forward into one noise buffer.
X and Y live in one (2, S, K) buffer, so one ``to_grid`` call per coupled
step transforms both, and the y grid goes on to g.  Each step writes into
buffers made once per noise chunk (``out=``); both updates read the
pre-update grids.  The slow trajectory is (steps + 1, S, K) (needs equal
step counts; ``trajectory=False`` skips it), the final fields (S, K), and
``cost`` sums the steps over the rows.
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
    ``trajectory_X`` is None when the run was made with ``trajectory=False``;
    ``dt`` is a tuple in row order when dt was given per row.
    """

    trajectory_X: np.ndarray | None
    final_X: np.ndarray
    final_Y: np.ndarray
    cost: int  # coupled steps summed over the rows: sum_r ceil(T/dt_r)
    dt: float | tuple[float, ...]
    seed: int | tuple[int, ...]


def _rows(name: str, value, S: int, single: bool) -> tuple:
    """``value`` as one number per row, each checked positive and finite."""
    values = (value,) * S if np.ndim(value) == 0 else tuple(value)
    if np.ndim(value) and (single or len(values) != S):
        raise ValueError(f"{name} needs one value per seed, got {len(values)} "
                         f"for {'an int seed' if single else f'{S} seeds'}")
    for r, v in enumerate(values):
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v} in row {r}")
    return values


def run_direct(
    x0: np.ndarray,
    y0: np.ndarray,
    coeffs: CoefficientSpec,
    op_a: OperatorSpec,
    op_b: OperatorSpec,
    epsilon: float | Sequence[float],
    dt: float | Sequence[float],
    T: float,
    seed: int | Sequence[int],
    trajectory: bool = True,
) -> DirectRun:
    """Integrate the coupled system to time T in ceil(T/dt) steps.

    The run ends at ceil(T/dt) * dt, past T when dt does not divide it.

    ``seed`` is an int or a sequence of S seeds.  A sequence advances S
    rows from the same (K,) initial fields ``x0``, ``y0`` in lock step;
    row s draws its noise from ``derive_key(seed[s], 0, 0, 1,
    stream_tag=DIRECT_STREAM_TAG)`` and equals the single-seed run with
    that seed bit for bit.  With seeds, ``epsilon`` and ``dt`` may each be
    one value per seed; row r then equals the single run (epsilon[r],
    dt[r], seed[r]).  ``cost`` is sum_r ceil(T/dt_r).  The trajectory of
    the slow field takes (steps + 1) * S * K * 8 bytes and needs equal step
    counts; ``trajectory=False`` skips it.  A non-positive or non-finite
    epsilon, dt or T raises ValueError naming it and its row; a non-finite
    state raises one naming the seeds and the range of steps.
    """
    single = isinstance(seed, numbers.Integral)
    seeds = (seed,) if single else tuple(seed)
    if not seeds:
        raise ValueError("seed sequence is empty")
    S = len(seeds)
    eps_r = _rows("epsilon", epsilon, S, single)
    dt_r = _rows("dt", dt, S, single)
    if not 0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    K = x0.shape[-1]
    if op_a.mode_count != K or op_b.mode_count != K:
        raise ValueError("operator mode counts must match the fields")
    steps_r = [math.ceil(T / d - 1e-12) for d in dt_r]
    if trajectory and len(set(steps_r)) > 1:
        raise ValueError("trajectory=True needs the same step count in every row")
    # rows by decreasing step count: the live rows are always a prefix
    order = sorted(range(S), key=lambda r: -steps_r[r])
    seeds_s, eps_s, dt_s, steps = ([v[r] for r in order]
                                   for v in (seeds, eps_r, dt_r, steps_r))
    tau = np.array([d / e for d, e in zip(dt_s, eps_s)])[:, None]
    if tau.max() > 0.5:
        warnings.warn(
            f"dt/epsilon = {tau.max():.3g} > 0.5: the fast scale is underresolved",
            stacklevel=2,
        )
    n_steps = steps[0]
    # the rows of equal dt share one slow update per step
    ends = [r for r in range(1, S) if dt_s[r] != dt_s[r - 1]] + [S]
    groups = [(lo, hi, dt_s[lo]) for lo, hi in zip([0] + ends, ends)]

    xi = grid_points(K)
    res = 1.0 / (1.0 + tau * op_b.eigenvalues)
    XY = np.empty((2, S, K))  # X and Y, transformed together
    X, Y = XY
    X[:] = x0
    Y[:] = y0
    traj = np.empty((n_steps + 1, S, K)) if trajectory else None
    if traj is not None:
        traj[0] = X

    streams = NoiseStreams(
        [derive_key(s, 0, 0, 1, stream_tag=DIRECT_STREAM_TAG) for s in seeds_s], K
    )
    # one noise buffer holds about _CHUNK_STEPS * K numbers whatever S is,
    # sized for the largest chunk: r + 1 rows live for steps[r + 1]..steps[r]
    chunk = min(max(1, _CHUNK_STEPS // S), n_steps)
    buf = np.empty(K * max(min(chunk, n - m) * (r + 1)
                           for r, (n, m) in enumerate(zip(steps, steps[1:] + [0]))))
    done = 0
    while done < n_steps:
        L = sum(n > done for n in steps)  # live rows
        streams.keep(L)
        n_chunk = min(chunk, steps[L - 1] - done)
        incr = draw_increments(streams, tau[:L, 0], n_chunk,
                               out=buf[:n_chunk * L * K].reshape(n_chunk, L, K))
        XY_l = XY[:, :L].copy()  # the live rows, contiguous for the transforms
        X_l, Y_l = XY_l
        grids_l, f_l = np.empty_like(XY_l), np.empty((L, K))
        x_grid, y_grid = grids_l
        res_l, tau_l = res[:L], tau[:L]
        slow = [(X_l[lo:hi], f_l[lo:hi], d) for lo, hi, d in groups if lo < L]
        for i in range(n_chunk):
            to_grid(XY_l, out=grids_l)
            to_spectral(coeffs.f(xi, x_grid, y_grid), out=f_l)
            for x, f, d in slow:
                implicit_euler_step(x, f, d, op_a, out=x)
            step_replicas(Y_l, x_grid, xi, incr[i], res_l, tau_l, coeffs, y_grid, out=Y_l)
            if traj is not None:
                traj[done + i + 1] = X_l
        _check_finite(seeds_s[:L], done + 1, done + n_chunk, X_l, Y_l)
        XY[:, :L] = XY_l
        done += n_chunk

    # back to the caller's row order; np.argsort would page in numpy's sort
    # code, about 0.35 MiB of peak RSS
    back = sorted(range(S), key=order.__getitem__)
    X, Y = X[back], Y[back]
    if single:  # drop the seed axis
        traj = None if traj is None else traj[:, 0]
        X, Y = X[0], Y[0]
    return DirectRun(trajectory_X=traj, final_X=X, final_Y=Y,
                     cost=sum(steps), dt=dt if np.ndim(dt) == 0 else dt_r,
                     seed=seed if single else seeds)
