"""Deterministic seeded string synthesis for tests and benchmarks.

SplitMix64 drives everything: the state advances by a fixed 64-bit
increment and each output is a bijective mix of the new state, so the
sequence is bit-exact on every platform and the k-th output can be
computed directly from the seed. That last property lets bulk generation
vectorize with numpy while staying identical to the scalar step function.

Symbols are the first ``alphabet_size`` lowercase Latin letters, one RNG
step per symbol.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

MASK64 = (1 << 64) - 1
ALPHABET_MAX = 26

# SplitMix64 increment and finalizer constants (public-domain reference).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_CHUNK = 1 << 16

__all__ = [
    "ALPHABET_MAX",
    "GenSpec",
    "MASK64",
    "UsageError",
    "gen_text",
    "iter_chunks",
    "rng_next",
]


class UsageError(ValueError):
    """A parameter value outside its allowed range; the CLI exits 64 on it."""


def rng_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: ``(new_state, output)``, both 64-bit unsigned."""
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return state, z ^ (z >> 31)


class _GenFields(NamedTuple):
    length: int
    alphabet_size: int
    seed: int


class GenSpec(_GenFields):
    """A reproducible random string: length, alphabet size, seed."""

    __slots__ = ()

    def __new__(cls, length: int, alphabet_size: int, seed: int) -> GenSpec:
        if length < 0:
            raise UsageError(f"length must be >= 0, got {length}")
        if not 1 <= alphabet_size <= ALPHABET_MAX:
            raise UsageError(f"alphabet size must be in [1, {ALPHABET_MAX}], got {alphabet_size}")
        if not 0 <= seed <= MASK64:
            raise UsageError("seed must fit in 64 unsigned bits")
        return super().__new__(cls, length, alphabet_size, seed)

    @classmethod
    def _make(cls, iterable) -> GenSpec:
        # the tuple helpers (_replace too) build through __new__, so they check
        return cls(*iterable)


def _chunk_symbols(seed: int, start_step: int, count: int, alphabet_size: int) -> str:
    """Symbols for RNG steps ``start_step + 1 .. start_step + count``.

    Vectorized SplitMix64: the state after k steps is ``seed + k * gamma``
    mod 2**64, so a whole chunk of outputs is one elementwise mix. numpy is
    imported here, its only use, so that importing the CLI for find/radii
    does not pay for it.
    """
    import numpy as np

    steps = np.arange(start_step + 1, start_step + count + 1, dtype=np.uint64)
    z = np.uint64(seed) + np.uint64(_GAMMA) * steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    codes = (z % np.uint64(alphabet_size)).astype(np.uint8) + np.uint8(ord("a"))
    return codes.tobytes().decode("ascii")


def iter_chunks(spec: GenSpec, chunk_size: int = _CHUNK) -> Iterator[str]:
    """Yield the spec's string in bounded pieces, O(chunk_size) memory."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    done = 0
    while done < spec.length:
        count = min(chunk_size, spec.length - done)
        yield _chunk_symbols(spec.seed, done, count, spec.alphabet_size)
        done += count


def gen_text(spec: GenSpec) -> str:
    """The full string for ``spec``; consumes exactly ``spec.length`` RNG steps."""
    return "".join(iter_chunks(spec))
