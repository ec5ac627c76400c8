"""Reproducible cylindrical-Wiener increments in the truncated sine basis.

Each (macro step n, micro step m, replica j) owns a disjoint block of a
counter-based Philox stream, so increments are pure functions of the key:
identical keys give bit-identical Gaussians, distinct keys give independent
ones, and trajectories are reproducible regardless of evaluation order.

Gaussian sampling is pinned project-wide: each mode takes one raw 64-bit
Philox word, keeps the top 53 bits, centers to a uniform in (0, 1) and maps
it through the inverse normal CDF.  The golden digests in
``tests/golden_digests.json`` depend on this choice; do not swap in a
different normal generator.

Within a replica stream the draws are laid out by a global step position.
When the steps-per-macro count m0 is known the position is n*m0 + m (the
micro chains of consecutive macro steps read one concatenated noise process);
otherwise macro and micro indices occupy disjoint bit ranges.  Steps are
padded to whole 4-word Philox blocks, which makes a batched draw of many
consecutive steps bit-identical to per-step draws, and a stream read forward
bit-identical to streams opened at the later positions.

:class:`NoiseStreams` is that forward read: it opens one Philox stream per
key once and hands out the next steps of all of them as one
(steps, streams, K) array, converted in place in a single buffer.  The
multiscale driver opens one stream per (seed, replica) at macro step 0 and
reads it forward for the whole run; the fast-chain run and the direct
solver open theirs (one per key, one per seed) the same way.
:func:`draw_increments` reads open streams; :func:`standard_normals` is the
one keyed entry, a fresh stream at the key's position.  Streams that are
done are dropped from the end with :meth:`NoiseStreams.keep`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

__all__ = [
    "NoiseStreamKey",
    "NoiseStreams",
    "derive_key",
    "draw_increments",
    "standard_normals",
    "mix_seed",
]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_CAST_BLOCK = 1 << 14  # numbers per in-place cast: 128 KiB, well inside L2


@dataclass(frozen=True)
class NoiseStreamKey:
    """Address of one micro-step noise block.

    ``steps_per_macro`` (m0) selects the concatenated layout; ``stream_tag``
    separates logically distinct consumers (e.g. the direct solver) that share
    one master seed.
    """

    master_seed: int
    replica: int
    macro_step: int
    micro_step: int
    steps_per_macro: int | None = None
    stream_tag: int = 0

    def __post_init__(self):
        if self.replica < 0 or self.replica >= 1 << 32:
            raise ValueError(f"replica index out of range: {self.replica}")
        if self.macro_step < 0 or self.micro_step < 0:
            raise ValueError("macro_step and micro_step must be nonnegative")
        if self.steps_per_macro is not None and self.micro_step >= self.steps_per_macro:
            raise ValueError(
                f"micro_step {self.micro_step} outside macro block of "
                f"{self.steps_per_macro} steps"
            )

    def position(self) -> int:
        """Global step index of this key inside its replica stream."""
        if self.steps_per_macro is not None:
            return self.macro_step * self.steps_per_macro + self.micro_step
        return (self.macro_step << 64) | self.micro_step

    def advanced(self, steps: int) -> "NoiseStreamKey":
        """Key of the block ``steps`` micro steps later in the same stream."""
        return replace(self, micro_step=self.micro_step + steps)


def derive_key(
    master_seed: int,
    macro_step: int,
    micro_step: int,
    replica: int,
    steps_per_macro: int | None = None,
    stream_tag: int = 0,
) -> NoiseStreamKey:
    """Build the stream key for (macro step, micro step, replica)."""
    return NoiseStreamKey(
        master_seed=master_seed,
        replica=replica,
        macro_step=macro_step,
        micro_step=micro_step,
        steps_per_macro=steps_per_macro,
        stream_tag=stream_tag,
    )


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
            np.random.Philox(key=_philox_words(key), counter=key.position() * blocks)
            for key in keys
        ]
        if not self._gens:
            raise ValueError("no stream keys given")

    def keep(self, count: int) -> None:
        """Read only the first ``count`` streams from now on."""
        del self._gens[count:]

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
