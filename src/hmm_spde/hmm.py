"""Coarse/fine multiscale driver with on-the-fly averaging.

One macro step freezes the slow field X_n, advances M replica fast chains
m0 = n_T + N - 1 micro steps from their carried states, averages the slow
reaction over the window m = n_T..m0 and all replicas,

    Ftilde_n = (1/(M N)) sum_j sum_{m=n_T}^{n_T+N-1} F(X_n, Y_{n,m,j}),

and advances the slow field with the semi-implicit Euler step
X_{n+1} = S_dt (X_n + dt * Ftilde_n).  Carried states Y_{n+1,0,j} = Y_{n,m0,j}
keep each replica chain a single concatenated noise process: the noise of
micro step m inside macro step n is step n*m0 + m of replica j's stream.
A run therefore opens one Philox stream per (seed, replica) at step 0,
``NoiseStreamKey(seed, replica=j)``, and reads it forward in the chunks of
:meth:`~hmm_spde.noise.NoiseStreams.chunks`, capped at one macro block.

:func:`run_hmm` takes one seed or a sequence of S seeds.  A sequence runs S
independent copies in lock step: the slow fields are (S, K) and the replica
states (S, M, K) stacks through the same loop, and copy s equals the
single-seed run with seed s bit for bit (every stage is a row-wise
transform, an elementwise map or a sum over the replica axis in replica
order).  The estimator has one kernel, :func:`estimate_ftilde`, which
:func:`run_hmm` calls once per macro step on the whole (S, M, K) stack.  It
averages the window by :func:`~hmm_spde.micro.run_micro`'s rule: f runs once
per block of window grids, its values broadcast to the block's shape (an f
that ignores y gives Ftilde = F, the averaged scheme's value), and the
block's per-step replica sums are added in step order.

Parameter selection follows the tolerance calculus: with target error tol and
exponent margins r, kappa,

    dt  ~ tol^{1/(1-r)},        tau ~ tol^{1/(1/2-kappa)},

and the remaining knobs split by regime.  Strong (trajectory) accuracy with
M = 1 needs a window N ~ tol^{-2 + 1/(1-r) - 1/(1/2-kappa)} (or, with N = 1,
M ~ tol^{1/(1-r)-2} replicas); weak (law) accuracy is insensitive to M, so
M = N = 1 and only the warm-up n_T ~ log(1/dt)/(c tau) matters.  The micro
work is epsilon-free, which is the whole point: a direct scheme must resolve
delta t = epsilon * tau' and its cost grows like 1/epsilon.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    CoefficientSpec,
    check_strict_dissipativity,
    check_weak_dissipativity,
)
from .micro import _accumulate, _block_steps, _check_finite, _f_block
from .micro import contraction_factor, step_replicas
from .noise import NoiseStreamKey, NoiseStreams, _SeedAxis, draw_increments
from .spectral import OperatorSpec, grid_points, implicit_euler_step, to_grid, to_spectral
from .spectral import _check_count, _check_positive, _mode_count, _whole_steps

__all__ = [
    "HmmParams",
    "CostReport",
    "HmmRun",
    "run_hmm",
    "choose_params",
    "cost_compare",
]

# largest effective micro step tau = micro_dt / epsilon of a valid scheme
_TAU_MAX = 1.0


@dataclass(frozen=True)
class HmmParams:
    """Scheme parameters; tau, n_0 and m_0 are derived.

    epsilon, micro_dt, T and macro_dt must be positive and finite (a
    ValueError names the first that is not), T must be a whole number n_0
    of macro steps (relative 1e-9), so a run ends at T, and the effective
    micro step tau = micro_dt / epsilon must not exceed 1.  N, M and n_T
    must be integers >= 1 (a ValueError names the first that is not); n_T
    >= 1 keeps the carried state, taken before any step of the current macro
    block, out of the averaging window.
    """

    epsilon: float
    macro_dt: float
    micro_dt: float
    T: float
    N: int = 1
    M: int = 1
    n_T: int = 1

    def __post_init__(self):
        for name in ("epsilon", "micro_dt"):
            _check_positive(name, getattr(self, name))
        _whole_steps(self.T, self.macro_dt, ("T", "macro_dt"))
        for name in ("N", "M", "n_T"):
            _check_count(name, getattr(self, name))
        if self.tau > _TAU_MAX:
            raise ValueError(f"effective micro step tau={self.tau:.3g} exceeds {_TAU_MAX}")

    @property
    def tau(self) -> float:
        return self.micro_dt / self.epsilon

    @property
    def n_0(self) -> int:
        return round(self.T / self.macro_dt)

    @property
    def m_0(self) -> int:
        return self.n_T + self.N - 1


@dataclass(frozen=True)
class CostReport:
    """Micro-step work of a run.

    ``total_micro_steps`` is summed over the seeds of a batched run;
    ``cost_per_unit_time`` is the rate M * m_0 / macro_dt of one run.
    """

    total_micro_steps: int
    cost_per_unit_time: float
    n_macro_steps: int
    replicas: int
    micro_steps_per_macro: int
    # filled by callers that know the target tolerance; see cost_compare
    direct_cost_ratio: float | None = None


@dataclass(frozen=True)
class HmmRun:
    """Result of :func:`run_hmm`.

    With an int seed ``trajectory`` is (n_0 + 1, K) and
    ``final_micro_states`` (M, K).  With a sequence of S seeds they carry a
    seed axis: (n_0 + 1, S, K) and (S, M, K).
    """

    trajectory: np.ndarray
    cost: CostReport
    final_micro_states: np.ndarray
    params: HmmParams
    seed: int | tuple[int, ...]

    @property
    def X_final(self) -> np.ndarray:
        return self.trajectory[-1]


def _increments(seeds: Sequence[int], params: HmmParams, K: int) -> Iterator[np.ndarray]:
    """Yield the (S, M, K) noise increments of a whole run, n_0 macro blocks.

    Opens one stream per (seed, replica j) at step 0 and reads it forward:
    the i-th step yielded is stream step i, micro step i % m0 of macro step
    i // m0.  Each yielded step is a view that the next chunk overwrites.
    The chunks are capped at one macro block, which keeps the buffer in cache
    and the peak memory near that of one macro block when S M is small.
    """
    S, M, m0 = len(seeds), params.M, params.m_0
    streams = NoiseStreams(
        [NoiseStreamKey(s, replica=j) for s in seeds for j in range(1, M + 1)], K
    )
    for _, out in streams.chunks([params.n_0 * m0] * (S * M), cap=m0):
        draw_increments(streams, params.tau, len(out), out=out)
        yield from out.reshape(-1, S, M, K)


def estimate_ftilde(
    X: np.ndarray,
    Y: np.ndarray,
    params: HmmParams,
    noise: Iterator[np.ndarray],
    coeffs: CoefficientSpec,
    op_b: OperatorSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """One macro block for (S, K) frozen slow fields and (S, M, K) replicas.

    Takes the next m0 steps from ``noise`` (see :func:`_increments`) and
    returns (Ftilde as (S, K), states).  After n_T - 1 warm-up steps each
    window step writes the grid of its states into a block buffer of
    :func:`~hmm_spde.micro._block_steps` steps, and hands it to the
    next step's g.  f runs once per block, as in
    :func:`~hmm_spde.micro.run_micro`; the block is summed over the replicas
    step by step, then added to the sum in step order.
    """
    K = X.shape[-1]
    tau, N = params.tau, params.N
    xi = grid_points(K)
    x_grid = to_grid(X)[:, None, :]
    res = 1.0 / op_b.euler_denominator(tau)
    for _ in range(params.n_T - 1):
        Y = step_replicas(Y, x_grid, xi, next(noise), res, tau, coeffs)
    f_sum = np.zeros(X.shape)
    grids = np.empty((_block_steps(N, Y.size),) + Y.shape)
    y_grid = None
    for lo in range(0, N, len(grids)):
        n = min(len(grids), N - lo)
        for i in range(n):
            Y = step_replicas(Y, x_grid, xi, next(noise), res, tau, coeffs, y_grid)
            y_grid = to_grid(Y, out=grids[i])
        f_sum = _accumulate(f_sum, _f_block(coeffs, xi, x_grid, grids[:n]).sum(axis=2))
    return to_spectral(f_sum / (params.M * N)), Y


def _validate_dissipativity(coeffs: CoefficientSpec, op_b: OperatorSpec) -> None:
    strict, _ = check_strict_dissipativity(coeffs, op_b)
    if strict:
        return
    weak = check_weak_dissipativity(coeffs, op_b)
    if weak.holds:
        warnings.warn(
            f"{coeffs.name}: only weak dissipativity holds (L_g >= mu); the fast "
            "chain's invariant law may be non-unique, use weak-error metrics",
            stacklevel=3,
        )
        return
    raise ValueError(
        f"{coeffs.name}: neither strict nor weak dissipativity holds "
        f"(L_g={coeffs.lipschitz_g_y}, sup_g={coeffs.sup_g}, mu={op_b.smallest_eigenvalue})"
    )


def run_hmm(
    x0: np.ndarray,
    y0: np.ndarray,
    coeffs: CoefficientSpec,
    op_a: OperatorSpec,
    op_b: OperatorSpec,
    params: HmmParams,
    seed: int | Sequence[int],
) -> HmmRun:
    """Full multiscale run from (x0, y0) to time T = n_0 * dt.

    ``seed`` is an int or a sequence of S seeds; a sequence advances S
    copies from the same (K,) initial slow field ``x0`` in lock step, and
    copy s equals the single-seed run with that seed bit for bit.  ``y0``
    may be a single field (shared by all replicas), an (M, K) array of
    per-replica initial fast fields, or with a seed sequence an (S, M, K)
    array of per-seed ones.  A non-finite slow field or replica state
    raises ValueError naming the seeds, the macro step and the replicas.
    """
    _validate_dissipativity(coeffs, op_b)
    axis = _SeedAxis(seed)
    seeds = axis.seeds
    K = _mode_count(x0, y0, ops=(op_a, op_b))
    S, M = len(seeds), params.M
    y0 = np.asarray(y0, dtype=float)
    shapes = [(K,), (M, K)] if axis.single else [(K,), (M, K), (S, M, K)]
    if y0.shape not in shapes:
        raise ValueError(f"y0 must have one of the shapes {shapes}, got {y0.shape}")
    Y = np.empty((S, M, K))
    Y[:] = y0
    X = np.empty((S, K))
    X[:] = x0

    n0 = params.n_0
    traj = np.empty((n0 + 1, S, K))
    traj[0] = X
    noise = _increments(seeds, params, K)
    for n in range(n0):
        ftilde, Y = estimate_ftilde(X, Y, params, noise, coeffs, op_b)
        X = implicit_euler_step(X, ftilde, params.macro_dt, op_a)
        _check_finite(seeds, f"in macro step {n}", X, Y)
        traj[n + 1] = X

    cost = CostReport(
        total_micro_steps=S * n0 * M * params.m_0,
        cost_per_unit_time=M * params.m_0 / params.macro_dt,
        n_macro_steps=n0,
        replicas=M,
        micro_steps_per_macro=params.m_0,
    )
    return HmmRun(
        trajectory=axis.drop(traj, 1),
        cost=cost,
        final_micro_states=axis.drop(Y),
        params=params,
        seed=axis.drop(seeds),
    )


def choose_params(
    tol: float,
    epsilon: float,
    regime: str,
    r: float = 0.0,
    kappa: float = 0.0,
    T: float = 1.0,
    c_hat: float | None = None,
    coeffs: CoefficientSpec | None = None,
    op_b: OperatorSpec | None = None,
    strong_branch: str = "M1",
) -> HmmParams:
    """Pick (dt, delta t, N, M, n_T) for a target tolerance.

    ``c_hat`` is the exponential equilibration rate entering n_T; when it is
    not given and the coefficients satisfy strict dissipativity it is taken
    from the contraction factor, otherwise it defaults to 1 (a knob, since
    the rate is not explicit under weak dissipativity alone).  The macro step
    is T / n for the fewest n steps of at most tol^{1/(1-r)} that reach T.
    """
    _check_target(tol, regime, kappa)
    r_cap = 0.5 if regime == "strong" else 1.0
    if not 0 <= r < r_cap:
        raise ValueError(f"need 0 <= r < {r_cap} in the {regime} regime, got {r}")
    if strong_branch not in ("M1", "N1"):
        raise ValueError("strong_branch must be 'M1' or 'N1'")

    dt = T / _whole_steps(T, min(tol ** (1.0 / (1.0 - r)), T), ("T", "macro_dt"), cover=True)
    tau = tol ** (1.0 / (0.5 - kappa))
    if c_hat is None:
        c_hat = 1.0
        if coeffs is not None and op_b is not None:
            strict, _ = check_strict_dissipativity(coeffs, op_b)
            if strict:
                rho = contraction_factor(tau, coeffs.lipschitz_g_y, op_b.smallest_eigenvalue)
                c_hat = -math.log(rho) / (2.0 * tau)

    try:
        if regime == "strong":
            n_T = max(1, math.ceil(math.log(1.0 / tol) / (c_hat * tau)))
            if strong_branch == "M1":
                M = 1
                N = max(1, math.ceil(tol ** (-2.0 + 1.0 / (1.0 - r) - 1.0 / (0.5 - kappa))))
            else:
                N = 1
                M = max(1, math.ceil(tol ** (1.0 / (1.0 - r) - 2.0)))
        else:
            M = 1
            N = 1
            # warm-up long enough that exp(-c n_T tau) ~ dt
            n_T = max(1, math.ceil(math.log(1.0 / dt) / (c_hat * tau)))
    except ArithmeticError:  # tau underflows, or a count overflows a float
        raise ValueError(f"tol {tol} is too small: tau={tau:.3g} gives no finite counts") from None

    return HmmParams(
        epsilon=epsilon,
        macro_dt=dt,
        micro_dt=epsilon * tau,
        T=T,
        N=N,
        M=M,
        n_T=n_T,
    )


def _check_target(tol: float, regime: str, kappa: float) -> None:
    """Raise ValueError unless 0 < tol < 1, regime is strong or weak and 0 <= kappa < 1/2."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if regime not in ("strong", "weak"):
        raise ValueError(f"regime must be 'strong' or 'weak', got {regime!r}")
    if not 0 <= kappa < 0.5:
        raise ValueError(f"need 0 <= kappa < 1/2, got {kappa}")


def cost_compare(
    params: HmmParams, tol: float, epsilon: float, regime: str, kappa: float = 0.0
) -> float:
    """Micro-step cost per unit time of the multiscale scheme divided by the
    cost of a direct scheme hitting the same tolerance.

    The direct scheme must take delta t with (delta t / epsilon)^q ~ tol where
    q is its order at the relevant accuracy notion (1/4 - kappa strong,
    1/2 - kappa weak in the space-time-white-noise setting), i.e. its cost is
    1/delta t ~ epsilon^{-1} tol^{-1/q}.  The ratio is reported as is; it can
    exceed 1 when epsilon is not small.  tol, regime and kappa are checked
    as in :func:`choose_params`.
    """
    _check_target(tol, regime, kappa)
    _check_positive("epsilon", epsilon)
    q = (0.25 if regime == "strong" else 0.5) - kappa
    if q <= 0:  # the strong order 1/4 - kappa needs kappa < 1/4
        raise ValueError(f"kappa={kappa} leaves no accuracy margin in the {regime} regime")
    hmm_cost = params.M * params.m_0 / params.macro_dt
    direct_cost = (1.0 / epsilon) * tol ** (-1.0 / q)
    return hmm_cost / direct_cost
