"""Nemytskii reaction operators and dissipativity validators.

The slow and fast reactions are pointwise maps f, g: (xi, x, y) -> R applied
on the collocation grid; bounds and Lipschitz constants are user-declared
metadata that the validators spot-check by sampling rather than derive
symbolically.

Three presets drive the test and experiment suite.  They share one slow
reaction f = cos(y) sin(pi xi) exp(-x^2), whose sin(pi xi) is cached per
grid content:

* ``p1``: g = 0 (pure Ornstein-Uhlenbeck fast dynamics, Gaussian averaging
  oracle available).
* ``p2``: g = alpha sin(y) with alpha < pi^2 (strictly dissipative,
  bounded nonlinear fast reaction).
* ``p3``: g = -c y (linear fast drift; the invariant law is Gaussian with
  shifted per-mode variances, so an exact oracle survives g != 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .spectral import OperatorSpec, _mode_count, to_grid, to_spectral, grid_points

__all__ = [
    "CoefficientSpec",
    "eval_F",
    "eval_G",
    "check_strict_dissipativity",
    "check_weak_dissipativity",
    "validate_coefficients",
    "preset",
    "PRESET_NAMES",
]

PointwiseMap = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CoefficientSpec:
    """Reaction data for the slow/fast system.

    ``f`` and ``g`` must be numpy-vectorized maps (xi, x, y) -> values and
    side-effect free.  ``g=None`` means a fast reaction that is identically
    zero.  ``potential`` u, when given, must satisfy g = du/dy.
    ``sup_g=inf`` declares an unbounded fast reaction (allowed only when the
    strict dissipativity route certifies the drift).  ``linear_drift`` c,
    when given, declares g = -c y exactly: the fast chain's invariant law is
    then Gaussian and the averaging oracle applies.
    """

    name: str
    f: PointwiseMap
    g: PointwiseMap | None
    sup_f: float
    sup_g: float
    lipschitz_g_y: float
    potential: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    linear_drift: float | None = None

    @property
    def has_g(self) -> bool:
        return self.g is not None


def eval_F(spec: CoefficientSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nemytskii action of f: transform to the grid, apply pointwise, transform back."""
    xi = grid_points(_mode_count(x, y))
    vals = spec.f(xi, to_grid(x), to_grid(y))
    return to_spectral(vals)


def eval_G(spec: CoefficientSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nemytskii action of g; zero field when no fast reaction is defined."""
    K = _mode_count(x, y)
    if spec.g is None:
        return np.zeros(np.broadcast_shapes(x.shape, y.shape))
    xi = grid_points(K)
    vals = spec.g(xi, to_grid(x), to_grid(y))
    return to_spectral(vals)


def check_strict_dissipativity(
    spec: CoefficientSpec, op_b: OperatorSpec
) -> tuple[bool, float]:
    """Strict dissipativity: Lipschitz constant of g in y below the smallest
    eigenvalue of the fast operator.  Returns (holds, margin)."""
    margin = op_b.smallest_eigenvalue - spec.lipschitz_g_y
    return margin > 0, margin


@dataclass(frozen=True)
class WeakDissipativityResult:
    holds: bool
    c: float
    C: float
    via_strict: bool


def check_weak_dissipativity(
    spec: CoefficientSpec, op_b: OperatorSpec
) -> WeakDissipativityResult:
    """One-sided drift bound <By + G(y), y> <= -c|y|^2 + C.

    A bounded g certifies it directly with (c, C) = (mu/2, sup_g^2/(2 mu)).
    An unbounded g is accepted only through the strict-dissipativity route,
    with the certificate recomputed from the Lipschitz constant.
    """
    mu = op_b.smallest_eigenvalue
    if np.isfinite(spec.sup_g):
        return WeakDissipativityResult(
            holds=True, c=mu / 2.0, C=spec.sup_g**2 / (2.0 * mu), via_strict=False
        )
    strict, margin = check_strict_dissipativity(spec, op_b)
    if strict:
        # |<G(y)-G(0), y>| <= L_g |y|^2 and <G(0), y> <= |G(0)||y|
        return WeakDissipativityResult(
            holds=True, c=margin / 2.0, C=0.0, via_strict=True
        )
    return WeakDissipativityResult(holds=False, c=np.nan, C=np.nan, via_strict=False)


def validate_coefficients(
    spec: CoefficientSpec,
    radius: float = 5.0,
    n_samples: int = 1000,
    seed: int = 0,
) -> None:
    """Spot-check the declared metadata on a random sample of (xi, x, y).

    Raises ValueError when |f| exceeds sup_f, |g| exceeds sup_g, g is not
    -linear_drift * y when that is declared, or the potential's
    finite-difference y-derivative disagrees with g beyond 1e-6.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    xi = rng.uniform(0.0, 1.0, n_samples)
    x = rng.uniform(-radius, radius, n_samples)
    y = rng.uniform(-radius, radius, n_samples)

    fv = np.asarray(spec.f(xi, x, y), dtype=float)
    if not np.all(np.abs(fv) <= spec.sup_f * (1 + 1e-12)):
        raise ValueError(f"{spec.name}: |f| exceeds declared bound {spec.sup_f}")
    if spec.g is not None:
        gv = np.asarray(spec.g(xi, x, y), dtype=float)
        if np.isfinite(spec.sup_g) and not np.all(np.abs(gv) <= spec.sup_g * (1 + 1e-12)):
            raise ValueError(f"{spec.name}: |g| exceeds declared bound {spec.sup_g}")
        if spec.linear_drift is not None and not np.allclose(gv, -spec.linear_drift * y):
            raise ValueError(f"{spec.name}: g is not the declared -{spec.linear_drift} y")
        if spec.potential is not None:
            h = 1e-6
            dud = (spec.potential(xi, x, y + h) - spec.potential(xi, x, y - h)) / (2 * h)
            if not np.allclose(dud, gv, atol=1e-6, rtol=1e-6):
                raise ValueError(f"{spec.name}: potential derivative does not match g")


@lru_cache(maxsize=16)
def _sin_pi(dtype: np.dtype, shape: tuple[int, ...], data: bytes) -> np.ndarray:
    """Read-only sin(pi xi) of the grid xi with this dtype, shape and bytes."""
    factor = np.asarray(np.sin(np.pi * np.frombuffer(data, dtype).reshape(shape)))
    factor.setflags(write=False)
    return factor


def _slow_reaction(xi, x, y):
    """The presets' f = cos(y) sin(pi xi) exp(-x^2), in that order; the
    factor sin(pi xi) is cached by the content of xi, never its identity."""
    xi = np.asarray(xi)
    return np.cos(y) * _sin_pi(xi.dtype, xi.shape, xi.tobytes()) * np.exp(-np.square(x))


def _make_p1() -> CoefficientSpec:
    return CoefficientSpec(
        name="p1", f=_slow_reaction, g=None, sup_f=1.0, sup_g=0.0, lipschitz_g_y=0.0
    )


def _make_p2(alpha: float = 4.0) -> CoefficientSpec:
    def g(xi, x, y):
        return alpha * np.sin(y)

    def potential(xi, x, y):
        return -alpha * np.cos(y)

    return CoefficientSpec(
        name="p2",
        f=_slow_reaction,
        g=g,
        sup_f=1.0,
        sup_g=alpha,
        lipschitz_g_y=alpha,
        potential=potential,
    )


def _make_p3(c: float = 1.0) -> CoefficientSpec:
    def g(xi, x, y):
        return -c * y

    def potential(xi, x, y):
        return -0.5 * c * np.square(y)

    return CoefficientSpec(
        name="p3",
        f=_slow_reaction,
        g=g,
        sup_f=1.0,
        sup_g=np.inf,
        lipschitz_g_y=c,
        potential=potential,
        linear_drift=c,
    )


PRESET_NAMES = ("p1", "p2", "p3")


def preset(name: str, **kwargs) -> CoefficientSpec:
    """Bundled coefficient presets p1/p2/p3 (see module docstring)."""
    if name == "p1":
        return _make_p1(**kwargs)
    if name == "p2":
        return _make_p2(**kwargs)
    if name == "p3":
        return _make_p3(**kwargs)
    raise ValueError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
