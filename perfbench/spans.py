"""In-memory span recorder and the wrappers that feed it.

A traced run replaces the names that the package's solver modules import
(``hmm_spde.hmm.draw_increments``, ``hmm_spde.micro.to_grid``,
``hmm_spde.experiments.run_hmm``, ...) with wrappers that open a span around
the call and add to per-layer counters.  Nothing under ``src/`` changes: the
wrappers are set as module attributes from here and removed again by
:meth:`Patches.restore`.  An untraced run never calls :func:`install`.

A span is (name, start, end, parent, solve).  ``solve`` is the index of the
entry-point call (one experiment or one CLI invocation) the span belongs to,
so all spans of one solve share it.  Spans live in flat ``array`` columns
(28 bytes each) and are written once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MARK = "__perfbench_traced__"


class Tracer:
    """Span and counter store for one traced run (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self._stack: list[int] = []
        self.solve_id = -1
        self.counts: Counter = Counter()

    def name_code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, code: int) -> int:
        i = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a new solve under a top-level span ``name``."""
        self.solve_id += 1
        self.counts[layer_of(name) + ".invocations"] += 1
        i = self.open(self.name_code(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "code": np.frombuffer(self.code, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int32).copy(),
        }


def self_times(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span; self = duration minus direct children.

    Spans nest (one thread, wrappers close in LIFO order), so the children of
    a span are disjoint and lie inside it.
    """
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur, dur - child


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _rows(a: np.ndarray) -> int:
    return a.size // a.shape[-1]


def _traced(tracer: Tracer, name: str, fn, count=None):
    code = tracer.name_code(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(code)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            count(tracer.counts, args, kwargs, out)
        return out

    setattr(wrapper, MARK, True)
    return wrapper


# -- counters, one per wrapped boundary -------------------------------------

def _count_noise(c, args, kwargs, out):
    c["noise.draw_calls"] += 1
    c["noise.normals"] += int(np.size(out))


def _count_transform(c, args, kwargs, out):
    c["spectral.transform_calls"] += 1
    c["spectral.transform_rows"] += _rows(out)


def _count_euler(c, args, kwargs, out):
    c["spectral.euler_calls"] += 1


def _count_f(c, args, kwargs, out):
    c["coefficients.f_calls"] += 1
    c["coefficients.points"] += int(np.size(out))


def _count_g(c, args, kwargs, out):
    c["coefficients.g_calls"] += 1
    c["coefficients.points"] += int(np.size(out))


def _count_step(c, args, kwargs, out):
    c["micro.step_calls"] += 1
    c["micro.replica_steps"] += _rows(out)


def _count_macro(c, args, kwargs, out):
    params = args[2] if len(args) > 2 else kwargs["params"]
    c["hmm.macro_steps"] += 1
    c["hmm.estimator_replica_steps"] += params.M * params.m_0
    c["hmm.window_replica_steps"] += params.M * params.N


def _count_direct(c, args, kwargs, out):
    c["direct.steps"] += int(out.cost)


def _count_oracle(c, args, kwargs, out):
    c["averaging.oracle_calls"] += 1


def _count_solve(inner):
    def count(c, args, kwargs, out):
        c["experiments.solves"] += 1
        if inner is not None:
            inner(c, args, kwargs, out)
    return count


class Patches:
    """Module attributes replaced by :func:`install`, for :meth:`restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


# (solver module, imported name) -> (span name, counter)
_SPECTRAL = {
    "to_grid": ("spectral.to_grid", _count_transform),
    "to_spectral": ("spectral.to_spectral", _count_transform),
    "implicit_euler_step": ("spectral.implicit_euler_step", _count_euler),
}
_TARGETS = {
    "hmm": {
        **_SPECTRAL,
        "draw_increments": ("noise.draw_increments", _count_noise),
        "step_replicas": ("micro.step_replicas", _count_step),
        "estimate_ftilde": ("hmm.estimate_ftilde", _count_macro),
    },
    "micro": {
        "to_grid": _SPECTRAL["to_grid"],
        "to_spectral": _SPECTRAL["to_spectral"],
        "draw_increments": ("noise.draw_increments", _count_noise),
    },
    "direct": {
        **_SPECTRAL,
        "draw_increments": ("noise.draw_increments", _count_noise),
        "step_replicas": ("micro.step_replicas", _count_step),
    },
    "averaging": {
        **_SPECTRAL,
        "run_averaged": ("averaging.run_averaged", None),
    },
    "experiments": {
        "to_grid": _SPECTRAL["to_grid"],
        "to_spectral": _SPECTRAL["to_spectral"],
        "standard_normals": ("noise.standard_normals", _count_noise),
        "step_replicas": ("micro.step_replicas", _count_step),
        "run_hmm": ("hmm.run_hmm", _count_solve(None)),
        "run_direct": ("direct.run_direct", _count_solve(_count_direct)),
        "reference_solution": ("averaging.reference_solution", None),
        "run_averaged": ("averaging.run_averaged", None),
    },
    "cli": {
        "run_hmm": ("hmm.run_hmm", None),
        "run_direct": ("direct.run_direct", _count_direct),
    },
}
# modules whose ``preset`` hands out coefficient specs to the solvers
_PRESET_USERS = ("experiments", "cli")
# modules whose ``make_gaussian_fbar`` builds the averaging oracle
_ORACLE_USERS = ("experiments",)


def install(tracer: Tracer, package) -> Patches:
    """Wrap the solver modules' imported names; returns what to restore."""
    patches = Patches()
    for mod_name, targets in _TARGETS.items():
        module = getattr(package, mod_name)
        for attr, (span, count) in targets.items():
            patches.set(module, attr, _traced(tracer, span, getattr(module, attr), count))

    def traced_preset(original):
        @functools.wraps(original)
        def preset(*args, **kwargs):
            spec = original(*args, **kwargs)
            g = spec.g and _traced(tracer, "coefficients.g", spec.g, _count_g)
            return dataclasses.replace(
                spec, f=_traced(tracer, "coefficients.f", spec.f, _count_f), g=g
            )
        setattr(preset, MARK, True)
        return preset

    def traced_oracle(original):
        @functools.wraps(original)
        def make_gaussian_fbar(*args, **kwargs):
            return _traced(tracer, "averaging.fbar", original(*args, **kwargs),
                           _count_oracle)
        setattr(make_gaussian_fbar, MARK, True)
        return make_gaussian_fbar

    for mod_name in _PRESET_USERS:
        module = getattr(package, mod_name)
        patches.set(module, "preset", traced_preset(module.preset))
    for mod_name in _ORACLE_USERS:
        module = getattr(package, mod_name)
        patches.set(module, "make_gaussian_fbar", traced_oracle(module.make_gaussian_fbar))
    return patches


def installed_wrappers(package) -> list[str]:
    """Names of every wrapper currently set on the solver modules."""
    found = []
    attrs = {m: set(t) for m, t in _TARGETS.items()}
    for m in _PRESET_USERS:
        attrs[m].add("preset")
    for m in _ORACLE_USERS:
        attrs[m].add("make_gaussian_fbar")
    for mod_name, names in attrs.items():
        module = getattr(package, mod_name)
        found += [f"{mod_name}.{a}" for a in sorted(names)
                  if getattr(getattr(module, a), MARK, False)]
    return found
