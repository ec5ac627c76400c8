"""Coarse/fine multiscale driver with on-the-fly averaging.

One macro step freezes the slow field X_n, advances M replica fast chains
m0 = n_T + N - 1 micro steps from their carried states, averages the slow
reaction over the window m = n_T..m0 and all replicas,

    Ftilde_n = (1/(M N)) sum_j sum_{m=n_T}^{n_T+N-1} F(X_n, Y_{n,m,j}),

and advances the slow field with the semi-implicit Euler step
X_{n+1} = S_dt (X_n + dt * Ftilde_n).  Carried states Y_{n+1,0,j} = Y_{n,m0,j}
keep each replica chain a single concatenated noise process: the noise block
of micro step m inside macro step n sits at global position n*m0 + m of
replica j's stream, so macro step n only ever reads blocks with macro index n.
A run therefore opens one Philox stream per (seed, replica) at macro step 0,
``derive_key(seed, 0, 0, j, steps_per_macro=m0)``, and reads it forward in
chunks of at most one macro block and about ``_CHUNK_STEPS * K`` numbers,
each converted in place in one buffer.

:func:`run_hmm` takes one seed or a sequence of S seeds.  A sequence runs S
independent copies in lock step: the slow fields are (S, K) and the replica
states (S, M, K) stacks through the same loop, and copy s equals the
single-seed run with seed s bit for bit (every stage is a row-wise
transform, an elementwise map or a sum over the replica axis in replica
order).  :func:`estimate_ftilde` runs one macro block of one seed through
the same kernel.

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
import numbers
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    CoefficientSpec,
    check_strict_dissipativity,
    check_weak_dissipativity,
)
from .micro import _CHUNK_STEPS, contraction_factor, step_replicas
from .noise import NoiseStreams, derive_key, draw_increments
from .spectral import OperatorSpec, grid_points, implicit_euler_step, to_grid, to_spectral

__all__ = [
    "HmmParams",
    "CostReport",
    "HmmRun",
    "estimate_ftilde",
    "run_hmm",
    "choose_params",
    "cost_compare",
]

# largest effective micro step tau = micro_dt / epsilon of a valid scheme
_TAU_MAX = 1.0


@dataclass(frozen=True)
class HmmParams:
    """Scheme parameters; tau, n_0 and m_0 are derived.

    epsilon, macro_dt, micro_dt and T must be positive and finite (a
    ValueError names the first that is not), and the effective micro step
    tau = micro_dt / epsilon must not exceed 1.
    n_T >= 1 is enforced: the averaging window must not include the carried
    state before any step of the current macro block has been taken.
    n_0 = floor(T / macro_dt) whole macro steps, so a run ends at
    n_0 * macro_dt, short of T when macro_dt does not divide it.
    """

    epsilon: float
    macro_dt: float
    micro_dt: float
    T: float
    N: int = 1
    M: int = 1
    n_T: int = 1

    def __post_init__(self):
        for name in ("epsilon", "macro_dt", "micro_dt", "T"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.N < 1 or self.M < 1:
            raise ValueError("N and M must be >= 1")
        if self.n_T < 1:
            raise ValueError("n_T must be >= 1")
        if self.tau > _TAU_MAX:
            raise ValueError(f"effective micro step tau={self.tau:.3g} exceeds {_TAU_MAX}")

    @property
    def tau(self) -> float:
        return self.micro_dt / self.epsilon

    @property
    def n_0(self) -> int:
        return int(math.floor(self.T / self.macro_dt + 1e-12))

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


def estimate_ftilde(
    x_frozen: np.ndarray,
    micro_states: np.ndarray,
    params: HmmParams,
    seed: int,
    macro_index: int,
    coeffs: CoefficientSpec,
    op_b: OperatorSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance all replicas one macro block and average F over the window.

    Returns (ftilde, updated carried states).  Replicas are advanced in lock
    step on an (M, K) array with a fixed reduction order, so the result does
    not depend on scheduling; each replica's noise comes from its own stream
    at positions macro_index*m0 + 0..m0-1.
    """
    K = x_frozen.shape[-1]
    states = np.asarray(micro_states, dtype=float)
    if states.ndim != 2 or states.shape != (params.M, K):
        raise ValueError(f"micro_states must have shape (M, K) = ({params.M}, {K})")
    noise = _increments((seed,), params, K, first_macro=macro_index, n_macro=1)
    ftilde, y = _estimate(np.asarray(x_frozen, float)[None], states[None], noise,
                          params, coeffs, op_b)
    return ftilde[0], y[0]


def _increments(
    seeds: Sequence[int], params: HmmParams, K: int, first_macro: int, n_macro: int
) -> Iterator[np.ndarray]:
    """Yield the (S, M, K) noise increments of ``n_macro`` macro blocks.

    Opens one stream per (seed, replica j) at macro step ``first_macro`` and
    reads it forward: the i-th step yielded is micro step i % m0 of macro
    step first_macro + i // m0.  Chunks of max(1, _CHUNK_STEPS // (S M))
    steps, and at most one macro block, are converted into one buffer
    allocated here; each yielded step is a view that the next chunk
    overwrites.  The cap at m0 keeps the buffer in cache and the peak
    memory near that of one macro block when S M is small.
    """
    S, M, m0 = len(seeds), params.M, params.m_0
    streams = NoiseStreams(
        [derive_key(s, first_macro, 0, j, steps_per_macro=m0)
         for s in seeds for j in range(1, M + 1)],
        K,
    )
    total = n_macro * m0
    chunk = min(max(1, _CHUNK_STEPS // (S * M)), m0)
    buf = np.empty((chunk, S, M, K))
    done = 0
    while done < total:
        n = min(chunk, total - done)
        draw_increments(streams, params.tau, n, out=buf[:n].reshape(n, S * M, K))
        yield from buf[:n]
        done += n


def _estimate(
    X: np.ndarray,
    Y: np.ndarray,
    noise: Iterator[np.ndarray],
    params: HmmParams,
    coeffs: CoefficientSpec,
    op_b: OperatorSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """One macro block for (S, K) frozen slow fields and (S, M, K) replicas.

    Takes m0 steps from ``noise`` and returns (Ftilde as (S, K), states).
    The grid of a window step's states feeds f and the next step's g.
    """
    K = X.shape[-1]
    tau = params.tau
    xi = grid_points(K)
    x_grid = to_grid(X)[:, None, :]
    res = 1.0 / (1.0 + tau * op_b.eigenvalues)
    f_sum = np.zeros(X.shape)
    y_grid = None
    for m in range(1, params.m_0 + 1):
        Y = step_replicas(Y, x_grid, xi, next(noise), res, tau, coeffs, y_grid)
        if m >= params.n_T:
            y_grid = to_grid(Y)
            f_sum += coeffs.f(xi, x_grid, y_grid).sum(axis=1)
    return to_spectral(f_sum / (params.M * params.N)), Y


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
    """Full multiscale run from (x0, y0) to time n_0 * dt.

    ``seed`` is an int or a sequence of S seeds; a sequence advances S
    copies from the same (K,) initial slow field ``x0`` in lock step, and
    copy s equals the single-seed run with that seed bit for bit.  ``y0``
    may be a single field (shared by all replicas), an (M, K) array of
    per-replica initial fast fields, or with a seed sequence an (S, M, K)
    array of per-seed ones.  A non-finite slow field or replica state
    raises ValueError naming the seeds, the macro step and the replicas.
    """
    _validate_dissipativity(coeffs, op_b)
    if params.n_0 < 1:
        raise ValueError(
            f"macro step {params.macro_dt} exceeds the horizon T={params.T}; "
            "no steps to take"
        )
    single = isinstance(seed, numbers.Integral)
    seeds = (seed,) if single else tuple(seed)
    if not seeds:
        raise ValueError("seed sequence is empty")
    K = x0.shape[-1]
    if op_a.mode_count != K or op_b.mode_count != K:
        raise ValueError("operator mode counts must match the fields")
    S, M = len(seeds), params.M
    y0 = np.asarray(y0, dtype=float)
    shapes = [(K,), (M, K)] if single else [(K,), (M, K), (S, M, K)]
    if y0.shape not in shapes:
        raise ValueError(f"y0 must have one of the shapes {shapes}, got {y0.shape}")
    Y = np.empty((S, M, K))
    Y[:] = y0
    X = np.empty((S, K))
    X[:] = x0

    n0 = params.n_0
    traj = np.empty((n0 + 1, S, K))
    traj[0] = X
    noise = _increments(seeds, params, K, first_macro=0, n_macro=n0)
    for n in range(n0):
        ftilde, Y = _estimate(X, Y, noise, params, coeffs, op_b)
        X = implicit_euler_step(X, ftilde, params.macro_dt, op_a)
        _check_finite(X, Y, seeds, n)
        traj[n + 1] = X

    cost = CostReport(
        total_micro_steps=S * n0 * M * params.m_0,
        cost_per_unit_time=M * params.m_0 / params.macro_dt,
        n_macro_steps=n0,
        replicas=M,
        micro_steps_per_macro=params.m_0,
    )
    if single:  # drop the seed axis
        traj, Y = traj[:, 0], Y[0]
    return HmmRun(
        trajectory=traj,
        cost=cost,
        final_micro_states=Y,
        params=params,
        seed=seed if single else seeds,
    )


def _check_finite(X: np.ndarray, Y: np.ndarray, seeds, n: int) -> None:
    """Raise if an (S, K) slow field or an (S, M, K) replica state is not finite."""
    bad_y = ~np.isfinite(Y).all(axis=-1)
    bad = ~np.isfinite(X).all(axis=-1) | bad_y.any(axis=-1)
    if bad.any():
        rows = np.flatnonzero(bad)
        replicas = np.flatnonzero(bad_y[rows].any(axis=0)).tolist()
        raise ValueError(
            f"non-finite state for seed(s) {[seeds[s] for s in rows]} in macro "
            f"step {n}, replica(s) {replicas}"
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
    the rate is not explicit under weak dissipativity alone).
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if regime not in ("strong", "weak"):
        raise ValueError(f"regime must be 'strong' or 'weak', got {regime!r}")
    r_cap = 0.5 if regime == "strong" else 1.0
    if not 0 <= r < r_cap:
        raise ValueError(f"need 0 <= r < {r_cap} in the {regime} regime, got {r}")
    if not 0 <= kappa < 0.5:
        raise ValueError(f"need 0 <= kappa < 1/2, got {kappa}")
    if strong_branch not in ("M1", "N1"):
        raise ValueError("strong_branch must be 'M1' or 'N1'")

    dt = min(tol ** (1.0 / (1.0 - r)), T)
    tau = tol ** (1.0 / (0.5 - kappa))
    if c_hat is None:
        c_hat = 1.0
        if coeffs is not None and op_b is not None:
            strict, _ = check_strict_dissipativity(coeffs, op_b)
            if strict:
                rho = contraction_factor(tau, coeffs.lipschitz_g_y, op_b.smallest_eigenvalue)
                c_hat = -math.log(rho) / (2.0 * tau)

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

    return HmmParams(
        epsilon=epsilon,
        macro_dt=dt,
        micro_dt=epsilon * tau,
        T=T,
        N=N,
        M=M,
        n_T=n_T,
    )


def cost_compare(
    params: HmmParams, tol: float, epsilon: float, regime: str, kappa: float = 0.0
) -> float:
    """Micro-step cost per unit time of the multiscale scheme divided by the
    cost of a direct scheme hitting the same tolerance.

    The direct scheme must take delta t with (delta t / epsilon)^q ~ tol where
    q is its order at the relevant accuracy notion (1/4 - kappa strong,
    1/2 - kappa weak in the space-time-white-noise setting), i.e. its cost is
    1/delta t ~ epsilon^{-1} tol^{-1/q}.  The ratio is reported as is; it can
    exceed 1 when epsilon is not small.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if regime == "strong":
        q = 0.25 - kappa
    elif regime == "weak":
        q = 0.5 - kappa
    else:
        raise ValueError(f"regime must be 'strong' or 'weak', got {regime!r}")
    if q <= 0:
        raise ValueError(f"kappa={kappa} leaves no accuracy margin in the {regime} regime")
    hmm_cost = params.M * params.m_0 / params.macro_dt
    direct_cost = (1.0 / epsilon) * tol ** (-1.0 / q)
    return hmm_cost / direct_cost
