"""Reproducible cylindrical-Wiener increments in the truncated sine basis.

A noise address is :class:`NoiseStreamKey` (master seed, stream tag,
replica, step): the seed, tag and replica key one counter-based Philox
stream, and the step is the position in it.  Increments are pure functions
of the key: identical keys give bit-identical Gaussians, distinct keys give
independent ones, and trajectories are reproducible regardless of
evaluation order.

Gaussian sampling is pinned project-wide: each mode takes one raw 64-bit
Philox word, keeps the top 53 bits, centers to a uniform in (0, 1) and maps
it through the inverse normal CDF.  The golden digests in
``tests/golden_digests.json`` depend on this choice; do not swap in a
different normal generator.

Steps are padded to whole 4-word Philox blocks, so step n starts at counter
n * ceil(K/4).  That makes a batched draw of many consecutive steps
bit-identical to per-step draws, and a stream read forward bit-identical to
streams opened at the later steps.

:class:`NoiseStreams` is that forward read: it opens one Philox stream per
key once and hands out the next steps of all of them as one
(steps, streams, K) array, converted in place in a single buffer.  The
multiscale driver opens one stream per (seed, replica) at step 0 and reads
it forward for the whole run, so micro step m of macro step n is step
n * m0 + m; the direct solver opens one per seed, and the fast-chain run
one at its key's step for its warm-up and all window batches.
:func:`draw_increments` reads open streams; :func:`standard_normals` is the
one keyed entry, a fresh stream at the key's step.  Every solver reads in
the chunks of one buffer that :meth:`NoiseStreams.chunks` plans.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator, Sequence
from dataclasses import KW_ONLY, dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "NoiseStreamKey",
    "NoiseStreams",
    "draw_increments",
    "standard_normals",
    "mix_seed",
]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_CAST_BLOCK = 1 << 14  # numbers per in-place cast: 128 KiB, well inside L2
_CHUNK_STEPS = 32768  # steps times open streams that one chunk of a read holds at most


@dataclass(frozen=True)
class NoiseStreamKey:
    """Address of one step of noise: stream (master seed, stream tag,
    replica) at counter position ``step``.

    ``stream_tag`` separates logically distinct consumers (e.g. the direct
    solver) that share one master seed.  All fields but the seed are
    keyword-only, so a positional call cannot address another stream.
    """

    master_seed: int
    _: KW_ONLY
    replica: int
    step: int = 0
    stream_tag: int = 0

    def __post_init__(self):
        # Philox takes the seed as one 64-bit word and the tag and replica as
        # the two 32-bit halves of another; a value outside would alias
        for name, value, bits in (("master_seed", self.master_seed, 64),
                                  ("stream_tag", self.stream_tag, 32),
                                  ("replica index", self.replica, 32)):
            if not 0 <= value < 1 << bits:
                raise ValueError(f"{name} out of range [0, 2**{bits}): {value}")
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")


def _philox_words(key: NoiseStreamKey) -> np.ndarray:
    k0 = key.master_seed & _MASK64
    k1 = ((key.stream_tag & 0xFFFFFFFF) << 32) | (key.replica & 0xFFFFFFFF)
    return np.array([k0, k1], dtype=_U64)


def _blocks_per_step(K: int) -> int:
    # one Philox counter block yields 4 raw 64-bit words
    return (K + 3) // 4


class NoiseStreams:
    """Philox streams opened once at their keys and read forward.

    Each read of ``count`` steps returns the next ``count`` steps of every
    stream as a (count, len(keys), K) array of standard normals.  Column i
    of the reads so far, stacked, equals ``standard_normals(keys[i], K,
    count=total)`` bit for bit, however the reads are split.
    """

    def __init__(self, keys: Sequence[NoiseStreamKey], K: int):
        if K < 1:
            raise ValueError(f"mode count must be >= 1, got {K}")
        blocks = _blocks_per_step(K)
        self.K = K
        self._words = 4 * blocks
        self._gens = [
            np.random.Philox(key=_philox_words(key), counter=key.step * blocks)
            for key in keys
        ]
        if not self._gens:
            raise ValueError("no stream keys given")

    def chunks(self, ends: Sequence[int], cap: int | None = None
               ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (done, out): ``out`` is an unfilled (n, live, K) view of one
        buffer for the next n steps of the ``live`` open streams whose ``ends``
        (one per open stream, counted from now, non-increasing, >= 0) lie past
        ``done``; streams that ended are closed first.  A chunk holds at most
        max(1, _CHUNK_STEPS // streams) steps and ``cap`` >= 1 (default ends[0])."""
        n_open, K = len(self._gens), self.K
        if (len(ends) != n_open or ends[-1] < 0 or any(a < b for a, b in zip(ends, ends[1:]))
                or cap is not None and cap < 1):
            raise ValueError(f"bad read plan for {n_open} open streams: ends {ends}, cap {cap}")
        chunk = min(max(1, _CHUNK_STEPS // n_open), ends[0] if cap is None else cap)
        buf = np.empty(chunk * n_open * K)
        done, live = 0, n_open
        while done < ends[0]:
            while ends[live - 1] <= done:
                live -= 1
            del self._gens[live:]
            n = min(chunk, ends[live - 1] - done)
            yield done, buf[:n * live * K].reshape(n, live, K)
            done += n

    def standard_normals(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next ``count`` steps of every stream, shape (count, streams, K).

        ``out``, when given, must be a C-contiguous float64 array of that
        shape; the raw words are converted in place in it and it is returned.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        shape = (count, len(self._gens), self.K)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
        raw = out.view(np.uint64)
        words, K = self._words, self.K
        for i, bg in enumerate(self._gens):
            raw[:, i] = bg.random_raw(count * words).reshape(count, words)[:, :K]
        np.right_shift(raw, _U64(11), out=raw)
        # numpy copies an input that overlaps the output of a casting ufunc,
        # so the in-place uint64 -> float64 step runs in cache-sized blocks
        flat_raw, flat = raw.reshape(-1), out.reshape(-1)
        for i in range(0, flat.size, _CAST_BLOCK):
            np.add(flat_raw[i:i + _CAST_BLOCK], 0.5, out=flat[i:i + _CAST_BLOCK])
        np.multiply(out, 2.0**-53, out=out)
        return ndtri(out, out=out)


def standard_normals(key: NoiseStreamKey, K: int, count: int = 1) -> np.ndarray:
    """Standard-normal blocks for ``count`` consecutive steps from ``key``.

    Returns shape (count, K) (or (K,) when count == 1).  Batched and
    step-by-step generation agree bit for bit.
    """
    z = NoiseStreams([key], K).standard_normals(count)[:, 0]
    return z[0] if count == 1 else z


def draw_increments(
    streams: NoiseStreams,
    dt: float | Sequence[float],
    count: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Increments over the next ``count`` steps of length ``dt`` of every stream.

    Shape (count, streams, streams.K): sqrt(dt) times the next standard
    normals of the open ``streams``, written into ``out`` when it is given.
    ``dt`` is one step for all streams (a number) or one step per stream (a
    sequence); a dt that is not positive and finite raises ValueError.  Both
    forms scale by the correctly rounded ``np.sqrt``, so a stream's
    increments do not depend on the form its dt came in.
    """
    dt = np.asarray(dt, dtype=float)
    if dt.shape not in ((), (len(streams._gens),)) or not ((dt > 0) & (dt < np.inf)).all():
        raise ValueError(f"dt must be positive and finite, one step for all streams "
                         f"or one step per stream, got {dt}")
    scale = np.sqrt(dt)[..., None]  # (1,) or a (streams, 1) column
    z = streams.standard_normals(count, out)
    np.multiply(z, scale, out=z)
    return z


class _SeedAxis:
    """``seed``, an int or a non-empty sequence of ints, as the tuple of its S
    ``seeds``; an int is ``single``, and :meth:`drop` drops the axis again."""

    def __init__(self, seed: int | Sequence[int]):
        self.single = isinstance(seed, numbers.Integral)
        self.seeds = (seed,) if self.single else tuple(seed)
        if not self.seeds:
            raise ValueError("seed sequence is empty")

    def drop(self, a, axis: int = 0):
        """Row 0 of ``a`` on its seed axis (0 or 1) when single, else ``a``."""
        if not self.single or a is None:
            return a
        return a[:, 0] if axis else a[0]


def mix_seed(master_seed: int, *indices: int) -> int:
    """Derive a 63-bit sub-seed from a master seed and index tuple.

    Splitmix64 finalizer applied per index; used by the experiment harness to
    hand independent master seeds to independent runs deterministically.
    """
    x = master_seed & _MASK64
    for idx in indices:
        x = (x + 0x9E3779B97F4A7C15 + (idx & _MASK64)) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        x = z ^ (z >> 31)
    return x >> 1
