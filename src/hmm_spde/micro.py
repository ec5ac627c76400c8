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

:func:`run_micro` opens one Philox stream at its key and reads it forward in
chunks of at most ``_CHUNK_STEPS`` steps into one buffer allocated per run,
so the chain is the same whatever the chunk size.  Only the recurrence runs
step by step: each step's state replaces the increment it used, and the
window statistics (grid transform, f, mode moments) then run once per chunk
on blocks of those states, summed in step order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSpec
from .noise import NoiseStreamKey, NoiseStreams, draw_increments
from .spectral import OperatorSpec, grid_points, to_grid, to_spectral

__all__ = [
    "MicroRunResult",
    "step_replicas",
    "contraction_factor",
    "discrete_stationary_variances",
    "run_micro",
]

# draw noise for at most this many steps at a time when batching long chains
_CHUNK_STEPS = 32768
# window statistics of a chunk run on blocks of about this many numbers
_WINDOW_BLOCK = 2**16


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
    the precomputed per-mode factors 1/(1 + tau mu_k) (one row per field
    when ``tau`` is a column of per-row steps), and ``y_grid``, when
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


def _accumulate(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """acc + rows[0] + rows[1] + ... in row order, as a ``+=`` loop adds them
    (``np.add.reduce`` sums (n, 1) arrays pairwise)."""
    return np.add.accumulate(np.concatenate((acc[None], rows)), axis=0)[-1]


def contraction_factor(tau: float, lipschitz_g: float, mu: float) -> float:
    """Per-step squared-distance contraction rho = (1+tau L)/(1+tau(2mu-L)).

    Requires strict dissipativity L < mu; two chains driven by the same noise
    satisfy |y1' - y2'|^2 <= rho |y1 - y2|^2 pathwise.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
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
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    mu = op_b.eigenvalues
    return 1.0 / (2.0 * mu + tau * mu**2)


@dataclass(frozen=True)
class MicroRunResult:
    """Endpoint and window statistics of a fast-chain run.

    ``y`` is the fast field after the last step.
    ``f_window_mean`` is the spectral average of F(frozen_x, Y_m) over the
    window m = warmup..steps (None when the window is empty).  Mode moments,
    when requested, average the raw and squared mode coefficients over the
    same window.
    """

    y: np.ndarray
    f_window_mean: np.ndarray | None
    window_size: int
    mode_mean: np.ndarray | None = None
    mode_second_moment: np.ndarray | None = None


def run_micro(
    y0: np.ndarray,
    frozen_x: np.ndarray,
    steps: int,
    key: NoiseStreamKey,
    coeffs: CoefficientSpec,
    op_b: OperatorSpec,
    tau: float,
    warmup: int = 1,
    track_mode_moments: bool = False,
) -> MicroRunResult:
    """Run the fast chain ``steps`` steps and average F over m >= warmup.

    Noise for step m (0-based) comes from ``key.advanced(m)``, so the run is
    a pure function of the key; batched draws reproduce per-step draws bit
    for bit.  A non-finite state raises ValueError naming the key's seed and
    the range of steps it appeared in.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if warmup < 1:
        raise ValueError("warmup must be >= 1: the window must exclude the initial state")
    K = y0.shape[-1]
    if frozen_x.shape[-1] != K or op_b.mode_count != K:
        raise ValueError("mode-count mismatch")

    xi = grid_points(K)
    x_grid = to_grid(frozen_x)
    res = 1.0 / (1.0 + tau * op_b.eigenvalues)

    y = np.array(y0, dtype=float)
    f_sum = np.zeros(K)
    mode_sum = np.zeros(K) if track_mode_moments else None
    mode_sq_sum = np.zeros(K) if track_mode_moments else None
    count = max(0, steps - warmup + 1)  # window m = warmup..steps

    streams = NoiseStreams([key], K)
    buf = np.empty((min(_CHUNK_STEPS, steps), 1, K))
    block = max(1, _WINDOW_BLOCK // K)
    done = 0
    while done < steps:
        n_chunk = min(_CHUNK_STEPS, steps - done)
        z = draw_increments(streams, tau, n_chunk, out=buf[:n_chunk])[:, 0]
        for i in range(n_chunk):
            y = step_replicas(y, x_grid, xi, z[i], res, tau, coeffs)
            z[i] = y  # row i now holds the state after step done + i + 1
        _check_finite((key.master_seed,), done + 1, done + n_chunk, y[None])
        for lo in range(max(0, warmup - done - 1), n_chunk, block):
            states = z[lo:lo + block]
            f_val = coeffs.f(xi, x_grid, to_grid(states))
            f_sum = _accumulate(f_sum, np.broadcast_to(f_val, states.shape))
            if track_mode_moments:
                mode_sum = _accumulate(mode_sum, states)
                mode_sq_sum = _accumulate(mode_sq_sum, states * states)
        done += n_chunk

    if count == 0:
        return MicroRunResult(y=y, f_window_mean=None, window_size=0)
    return MicroRunResult(
        y=y,
        f_window_mean=to_spectral(f_sum / count),
        window_size=count,
        mode_mean=None if mode_sum is None else mode_sum / count,
        mode_second_moment=None if mode_sq_sum is None else mode_sq_sum / count,
    )


def _check_finite(seeds, first: int, last: int, *fields: np.ndarray) -> None:
    """Raise if a row of the (S, K) ``fields`` holds a NaN or an infinity.

    Row s belongs to ``seeds[s]``; the error names those seeds and the steps
    first..last of the noise chunk the value appeared in.
    """
    ok = np.logical_and.reduce([np.isfinite(a).all(axis=-1) for a in fields])
    if not ok.all():
        bad = [seeds[s] for s in np.flatnonzero(~ok)]
        raise ValueError(
            f"non-finite state for seed(s) {bad} within steps {first}..{last}"
        )
