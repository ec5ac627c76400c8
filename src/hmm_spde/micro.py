"""Fast-scale semi-implicit Euler chain with frozen slow component.

One step with effective step size tau advances

    y' = R_tau (y + tau * G(x, y) + sqrt(tau) * zeta),

where R_tau = (I - tau * B)^{-1} acts mode by mode and zeta has iid standard
normal modes.  The resolvent multiplies the noise as well as the drift; the
linear-case stationary variance v = a^2 (v + tau) below encodes exactly this
operator placement.

With g = 0 each mode is an AR(1) recursion y_k' = a_k (y_k + sqrt(tau) z),
a_k = 1/(1 + tau mu_k), whose closed-form laws serve as oracles throughout
the test suite.

:func:`run_micro`, the one fast-chain loop outside the HMM kernel, steps a
(K,) chain or an (M, K) stack on one Philox stream of y0.size numbers per
step, read forward in chunks of at most one window block, so the chain is
the same whatever the chunk size.  Only the recurrence runs step by step:
each step's state replaces the increment it used, and the window statistics
(grid transform, f, mode moments) then run once per chunk on those states,
cut at batch edges and summed per replica in step order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSpec
from .noise import NoiseStreamKey, NoiseStreams, draw_increments
from .spectral import OperatorSpec, _mode_count, grid_points, to_grid, to_spectral
from .spectral import _check_count, _check_positive

__all__ = [
    "MicroRunResult",
    "step_replicas",
    "contraction_factor",
    "discrete_stationary_variances",
    "run_micro",
]

# window statistics of a chunk run on blocks of about this many numbers
_WINDOW_BLOCK = 2**16


def _block_steps(steps: int, numbers: int) -> int:
    """Steps per window block of states of ``numbers`` numbers each: at most
    ``_WINDOW_BLOCK`` numbers and at most ``steps``, but always one or more."""
    return max(1, min(steps, _WINDOW_BLOCK // numbers))


def step_replicas(
    y: np.ndarray,
    x_grid: np.ndarray,
    xi: np.ndarray,
    increment: np.ndarray,
    resolvent_mult: np.ndarray,
    tau: float,
    coeffs: CoefficientSpec,
    y_grid: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One fast step applied to a (..., K) stack of fields in lock step.

    ``increment`` is the sqrt(tau)-scaled normal block, ``resolvent_mult``
    the per-mode factors ``1 / op_b.euler_denominator(tau)`` (one row per
    field when ``tau`` is a column of per-row steps), and ``y_grid``, when
    the caller has it, ``to_grid(y)``.  The new state is written to ``out``
    (a fresh array when None) and returned; ``out`` may be ``y`` or
    ``increment``.  This is the single code path every fast-chain consumer
    steps through; it modifies none of its arguments but ``out``.
    """
    if coeffs.has_g:
        drift = to_spectral(coeffs.g(xi, x_grid, to_grid(y) if y_grid is None else y_grid))
        y = y + drift * tau
    out = np.add(y, increment, out=out)
    out *= resolvent_mult
    return out


def _f_block(coeffs: CoefficientSpec, xi, x_grid, grids: np.ndarray) -> np.ndarray:
    """F at a block of grid states, broadcast to their shape: an f that
    ignores y still counts once per state."""
    return np.broadcast_to(coeffs.f(xi, x_grid, grids), grids.shape)


def _accumulate(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """acc + rows[0] + rows[1] + ... in row order, as a ``+=`` loop adds them
    (``np.add.reduce`` sums (n, 1) arrays pairwise)."""
    return np.add.accumulate(np.concatenate((acc[None], rows)), axis=0)[-1]


def contraction_factor(tau: float, lipschitz_g: float, mu: float) -> float:
    """Per-step squared-distance contraction rho = (1+tau L)/(1+tau(2mu-L)).

    Requires strict dissipativity L < mu; two chains driven by the same noise
    satisfy |y1' - y2'|^2 <= rho |y1 - y2|^2 pathwise.
    """
    _check_positive("tau", tau)
    if lipschitz_g < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if lipschitz_g >= mu:
        raise ValueError(
            f"strict dissipativity violated: L_g={lipschitz_g} >= mu={mu}"
        )
    return (1.0 + tau * lipschitz_g) / (1.0 + tau * (2.0 * mu - lipschitz_g))


def discrete_stationary_variances(tau: float, op_b: OperatorSpec) -> np.ndarray:
    """Stationary variances 1/(2 mu_k + tau mu_k^2) of the g = 0 chain: the fixed
    points of v = a_k^2 (v + tau), a_k = 1/(1 + tau mu_k); they tend to the
    continuous chain's 1/(2 mu_k) as tau -> 0."""
    _check_positive("tau", tau)
    mu = op_b.eigenvalues
    return 1.0 / (2.0 * mu + tau * mu**2)


@dataclass(frozen=True)
class MicroRunResult:
    """Endpoint ``y`` of a fast-chain run and its window statistics per replica
    (None when the window m = warmup..steps is empty): the spectral averages
    of F(frozen_x, Y_m) over each batch (``f_batch_means``, (batches,) + y.shape)
    and over the window (``f_window_mean``), and those of the raw and squared
    mode coefficients over the window (``mode_mean``, ``mode_second_moment``)."""

    y: np.ndarray
    f_window_mean: np.ndarray | None
    f_batch_means: np.ndarray | None
    window_size: int
    mode_mean: np.ndarray | None
    mode_second_moment: np.ndarray | None


def run_micro(
    y0: np.ndarray,
    frozen_x: np.ndarray,
    steps: int,
    key: NoiseStreamKey,
    coeffs: CoefficientSpec,
    op_b: OperatorSpec,
    tau: float,
    warmup: int = 1,
    batches: int = 1,
) -> MicroRunResult:
    """Run the fast chain from a (K,) or (M, K) ``y0`` ``steps`` steps and
    average F over m >= warmup, per replica.

    Step m (0-based) reads step ``key.step + m`` of the key's stream,
    ``y0.size`` numbers, and each of the ``batches`` equal batches of the
    window sums its steps from zero in step order.  Another ``y0`` shape, a
    ``steps``, ``warmup`` or ``batches`` that is not a whole number, a
    window ``batches`` does not divide, a ``tau`` that is not positive and
    finite, or a non-finite state (named by the key's seed and the steps of
    its noise chunk) raises ValueError.
    """
    _check_positive("tau", tau)
    _check_count("steps", steps, floor=0)
    _check_count("warmup", warmup)  # from 1: the window excludes the initial state
    K = _mode_count(y0, frozen_x, ops=(op_b,))
    if np.ndim(y0) not in (1, 2):
        raise ValueError(f"y0 must be a (K,) field or an (M, K) stack, got shape {np.shape(y0)}")
    count = max(0, steps - warmup + 1)  # window m = warmup..steps
    if batches < 1 or count % batches:
        raise ValueError(f"a window of {count} steps does not split into {batches} batches")
    _check_count("batches", batches)  # after the split check, which names a count below 1
    per_batch = count // batches

    xi = grid_points(K)
    x_grid = to_grid(frozen_x)
    res = 1.0 / op_b.euler_denominator(tau)

    y = np.array(y0, dtype=float)
    f_sum = np.zeros((batches,) + y.shape)
    mode_sum = np.zeros(y.shape)
    mode_sq_sum = np.zeros(y.shape)

    streams = NoiseStreams([key], y.size)
    for done, out in streams.chunks([steps], cap=_block_steps(steps, y.size)):
        n_chunk = len(out)
        z = draw_increments(streams, tau, n_chunk, out=out).reshape((n_chunk,) + y.shape)
        for i in range(n_chunk):
            y = step_replicas(y, x_grid, xi, z[i], res, tau, coeffs)
            z[i] = y  # row i now holds the state after step done + i + 1
        _check_finite((key.master_seed,), f"within steps {done + 1}..{done + n_chunk}", y[None])
        lo = max(0, warmup - done - 1)
        while lo < n_chunk:  # one window block, cut at batch edges
            b, pos = divmod(done + lo + 1 - warmup, per_batch)
            hi = min(n_chunk, lo + per_batch - pos)
            states = z[lo:hi]
            f_sum[b] = _accumulate(f_sum[b], _f_block(coeffs, xi, x_grid, to_grid(states)))
            mode_sum = _accumulate(mode_sum, states)
            mode_sq_sum = _accumulate(mode_sq_sum, states * states)
            lo = hi

    if count == 0:
        return MicroRunResult(y, None, None, 0, None, None)
    return MicroRunResult(
        y=y,
        f_window_mean=to_spectral(f_sum.sum(axis=0) / count),
        f_batch_means=to_spectral(f_sum / per_batch),
        window_size=count,
        mode_mean=mode_sum / count,
        mode_second_moment=mode_sq_sum / count,
    )


def _check_finite(seeds, where: str, *fields: np.ndarray) -> None:
    """Raise if a row of the (S, K) or (S, M, K) ``fields`` holds a NaN or an
    infinity: the one blow-up guard of every stepping loop.

    Row s belongs to ``seeds[s]``; the error names those seeds, ``where``
    (the steps of a noise chunk, or a macro step) and, for a field with a
    replica axis, the replicas that are not finite in those rows.
    """
    ok = [np.isfinite(a).all(axis=-1) for a in fields]
    bad = ~np.logical_and.reduce([o if o.ndim == 1 else o.all(axis=-1) for o in ok])
    if bad.any():
        message = f"non-finite state for seed(s) {[seeds[s] for s in np.flatnonzero(bad)]} {where}"
        for o in ok:
            if o.ndim == 2:
                message += f", replica(s) {np.flatnonzero(~o[bad].all(axis=0)).tolist()}"
        raise ValueError(message)
