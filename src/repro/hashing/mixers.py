"""Strong mixers and universal hashing.

:class:`SplitMixHash` is the repository's stand-in for the paper's analytical
"random hash function" model (§2 *Hashing*): a keyed SplitMix64 finalizer is
a high-quality pseudorandom permutation of 64-bit inputs, so its truncations
behave like uniform random values for the purposes of the checkers.

:class:`MultiplyShiftHash` is the classic 2-universal ``(a*x) >> (64-l)``
scheme of Dietzfelbinger et al.; it is the cheapest family and is used in
ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import (
    derive_seed,
    derive_seed_array,
    splitmix64,
    splitmix64_array,
    splitmix64_inplace,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix_hash_batch(
    seeds: np.ndarray, owner: np.ndarray, keys: np.ndarray, out_bits: int = 64
) -> np.ndarray:
    """Hash ``keys[i]`` with the SplitMix function seeded ``seeds[owner[i]]``.

    Elementwise equal to ``SplitMixHash(seeds[owner[i]], out_bits)``; the
    whole batch is one vector mix regardless of how many seeds appear.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    owner = np.asarray(owner, dtype=np.intp)
    mixed = splitmix64_array(keys ^ seeds[owner])
    if out_bits < 64:
        mixed &= np.uint64((1 << out_bits) - 1)
    return mixed


def multiply_shift_hash_batch(
    seeds: np.ndarray, owner: np.ndarray, keys: np.ndarray, out_bits: int = 32
) -> np.ndarray:
    """Batched :class:`MultiplyShiftHash` under per-owner seeds."""
    keys = np.asarray(keys, dtype=np.uint64)
    owner = np.asarray(owner, dtype=np.intp)
    multipliers = derive_seed_array(seeds, "multiply-shift") | np.uint64(1)
    with np.errstate(over="ignore"):
        product = keys * multipliers[owner]
    return product >> np.uint64(64 - out_bits)


class SplitMixHash:
    """Keyed SplitMix64 finalizer truncated to ``out_bits``."""

    def __init__(self, seed: int, out_bits: int = 64):
        if not 1 <= out_bits <= 64:
            raise ValueError(f"out_bits must be in 1..64, got {out_bits}")
        self.seed = seed & _MASK64
        self.bits = out_bits
        self._mask = (1 << out_bits) - 1

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        mixed = splitmix64_array(keys ^ np.uint64(self.seed))
        if self.bits < 64:
            mixed &= np.uint64(self._mask)
        return mixed

    def hash_into(
        self, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        """:meth:`hash_array` of uint64 ``keys`` into ``out``: the keyed
        mix runs in place, with ``scratch`` as its one temporary."""
        np.bitwise_xor(keys, np.uint64(self.seed), out=out)
        splitmix64_inplace(out, scratch)
        if self.bits < 64:
            out &= np.uint64(self._mask)

    def hash_one(self, key: int) -> int:
        return splitmix64((int(key) ^ self.seed) & _MASK64) & self._mask

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SplitMixHash(seed={self.seed:#x}, out_bits={self.bits})"


class MultiplyShiftHash:
    """2-universal multiply-shift hashing: ``h(x) = (a*x mod 2^64) >> (64-l)``.

    ``a`` is an odd 64-bit multiplier derived from the seed (Dietzfelbinger
    et al. 1997).  Only 2-universal, so *not* sufficient for all checkers —
    kept for the hash-family ablation.
    """

    def __init__(self, seed: int, out_bits: int = 32):
        if not 1 <= out_bits <= 64:
            raise ValueError(f"out_bits must be in 1..64, got {out_bits}")
        self.seed = seed
        self.bits = out_bits
        self.multiplier = derive_seed(seed, "multiply-shift") | 1
        self._shift = 64 - out_bits

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        with np.errstate(over="ignore"):
            product = keys * np.uint64(self.multiplier)
        return product >> np.uint64(self._shift)

    def hash_into(
        self, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        """:meth:`hash_array` of uint64 ``keys`` into ``out``, in place
        (array products wrap modulo 2^64 without a warning)."""
        np.multiply(keys, np.uint64(self.multiplier), out=out)
        np.right_shift(out, np.uint64(self._shift), out=out)

    def hash_one(self, key: int) -> int:
        return ((int(key) * self.multiplier) & _MASK64) >> self._shift

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MultiplyShiftHash(seed={self.seed:#x}, out_bits={self.bits})"
