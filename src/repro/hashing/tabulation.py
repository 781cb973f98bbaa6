"""Tabulation hashing (Wegman–Carter; Pǎtraşcu–Thorup).

``h(x) = T_0[byte_0(x)] XOR T_1[byte_1(x)] XOR ...`` with independently
random tables ``T_i``.  Simple tabulation is 3-independent and behaves like a
fully random function for many algorithms (Pǎtraşcu & Thorup, JACM 2012) —
the paper observes it matches the ideal-model accuracy on *all* manipulators
(Figs 3 and 5), unlike CRC.

The paper uses 256 entries per table and four tables for 32-bit keys ("Tab")
or eight tables for 64-bit keys ("Tab64").  Table entries here are 64-bit;
callers truncate the output to the width they need (the checkers only ever
consume ``bits`` of it).

A checker hashing one key array under many seeds reads it through
:class:`~repro.hashing.families.StackedLaneHasher`: the keys' table bytes
are extracted once, as uint8 rows, and every seed gathers its own tables
at them.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import derive_seed, derive_seed_array, splitmix64_array


def tabulation_tables(seed: int, num_tables: int, out_bits: int = 64) -> np.ndarray:
    """Generate ``num_tables`` x 256 random table entries from ``seed``.

    Entries are derived with the SplitMix64 counter construction so that a
    fresh seed yields a fresh, independent hash function — this is how the
    accuracy experiments draw a new hash function per trial.
    """
    if not 1 <= num_tables <= 8:
        raise ValueError(f"num_tables must be in 1..8, got {num_tables}")
    if not 1 <= out_bits <= 64:
        raise ValueError(f"out_bits must be in 1..64, got {out_bits}")
    base = derive_seed(seed, "tabulation-tables")
    counters = np.arange(num_tables * 256, dtype=np.uint64) + np.uint64(
        base & 0xFFFFFFFF
    )
    # Mix the (folded) base into the high bits so different seeds give
    # disjoint counter streams before mixing.
    counters ^= np.uint64(base) << np.uint64(1)
    entries = splitmix64_array(counters)
    if out_bits < 64:
        entries &= np.uint64((1 << out_bits) - 1)
    return entries.reshape(num_tables, 256)


def tabulation_tables_batch(
    seeds: np.ndarray, num_tables: int, out_bits: int = 64
) -> np.ndarray:
    """Stacked :func:`tabulation_tables` for many seeds at once.

    Returns a ``(len(seeds), num_tables, 256)`` array whose slice ``[t]``
    is byte-identical to ``tabulation_tables(seeds[t], ...)`` — the batched
    accuracy engine draws one fresh hash function per trial from this stack
    instead of regenerating kilobytes of tables in Python per trial.
    """
    if not 1 <= num_tables <= 8:
        raise ValueError(f"num_tables must be in 1..8, got {num_tables}")
    if not 1 <= out_bits <= 64:
        raise ValueError(f"out_bits must be in 1..64, got {out_bits}")
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    bases = derive_seed_array(seeds, "tabulation-tables")
    counters = (
        np.arange(num_tables * 256, dtype=np.uint64)[None, :]
        + (bases & np.uint64(0xFFFFFFFF))[:, None]
    )
    counters ^= (bases << np.uint64(1))[:, None]
    entries = splitmix64_array(counters)
    if out_bits < 64:
        entries &= np.uint64((1 << out_bits) - 1)
    return entries.reshape(seeds.size, num_tables, 256)


#: Keys-per-seed threshold above which materializing the per-seed tables
#: (then owner-gathering entries) beats deriving the consulted entries
#: per key from the SplitMix64 counter construction.  Re-measured after
#: the stacked lane kernel landed (this machine, ``num_tables=8``, best
#: of 4, S = seed count): the per-key SplitMix derivation is cheaper than
#: the two-level ``tables[owner, i, byte]`` gather far beyond the old
#: threshold of 64 — at 64 keys/seed sparse wins 2.2× (S=16: 0.28 vs
#: 0.60 µs/key) to 9× (S=256: 0.054 vs 0.51 µs/key); the crossover sits
#: between ~1 000 and ~4 000 keys/seed (S=4: ~4 096, S=16/S=64: ~2 048,
#: S=256: ~1 024) and is shallow (≲10 % either side of it).  2 048 lands
#: inside that band for every measured seed count; batches below it now
#: take the formerly-undervalued sparse path.  Every seed over the same
#: keys does not go through here: that pattern reads the family's
#: prepared form (``families.StackedLaneHasher``), which gathers from one
#: seed's tables at a time without an owner indirection.
_DENSE_KEYS_PER_SEED = 2048


def tabulation_hash_batch(
    seeds: np.ndarray,
    owner: np.ndarray,
    keys: np.ndarray,
    key_bits: int = 64,
    out_bits: int = 32,
) -> np.ndarray:
    """Hash ``keys[i]`` with the tabulation function seeded ``seeds[owner[i]]``.

    Two regimes, identical results: for dense batches (many keys per seed)
    one fancy-indexed gather per key byte over the stacked tables; for
    sparse batches — the accuracy engine hashes only a fault's few keys per
    trial — the consulted table entries are derived directly from the
    SplitMix64 counter construction, skipping the other ~99% of each
    trial's tables.
    """
    if key_bits not in (32, 64):
        raise ValueError(f"key_bits must be 32 or 64, got {key_bits}")
    num_tables = key_bits // 8
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    keys = np.asarray(keys, dtype=np.uint64)
    owner = np.asarray(owner, dtype=np.intp)
    out = np.zeros(keys.shape, dtype=np.uint64)
    if keys.size >= seeds.size * _DENSE_KEYS_PER_SEED:
        tables = tabulation_tables_batch(seeds, num_tables, out_bits)
        for i in range(num_tables):
            byte = ((keys >> np.uint64(8 * i)) & np.uint64(0xFF)).astype(np.intp)
            out ^= tables[owner, i, byte]
        return out
    bases = derive_seed_array(seeds, "tabulation-tables")
    base_lo = (bases & np.uint64(0xFFFFFFFF))[owner]
    base_hi = (bases << np.uint64(1))[owner]
    for i in range(num_tables):
        byte = (keys >> np.uint64(8 * i)) & np.uint64(0xFF)
        counter = (byte + np.uint64(256 * i) + base_lo) ^ base_hi
        out ^= splitmix64_array(counter)
    if out_bits < 64:
        out &= np.uint64((1 << out_bits) - 1)
    return out


class TabulationHash:
    """A concrete tabulation hash function over integer keys.

    Parameters
    ----------
    seed:
        Determines the random tables (a new seed is a new hash function).
    key_bits:
        32 or 64; sets the number of byte tables (4 or 8), matching the
        paper's "Tab" / "Tab64" variants.
    out_bits:
        Width of the output in bits (1..64).
    """

    def __init__(self, seed: int, key_bits: int = 64, out_bits: int = 32):
        if key_bits not in (32, 64):
            raise ValueError(f"key_bits must be 32 or 64, got {key_bits}")
        self.seed = seed
        self.key_bits = key_bits
        self.bits = out_bits
        self.num_tables = key_bits // 8
        self.tables = tabulation_tables(seed, self.num_tables, out_bits)

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a uint64 key array."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(keys.shape, dtype=np.uint64)
        for i in range(self.num_tables):
            byte = ((keys >> np.uint64(8 * i)) & np.uint64(0xFF)).astype(np.intp)
            out ^= self.tables[i][byte]
        return out

    def hash_into(
        self, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        """:meth:`hash_array` of uint64 ``keys`` written into ``out``."""
        out[...] = self.hash_array(keys)

    def hash_one(self, key: int) -> int:
        """Scalar evaluation."""
        key = int(key)
        out = 0
        for i in range(self.num_tables):
            out ^= int(self.tables[i][(key >> (8 * i)) & 0xFF])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TabulationHash(seed={self.seed:#x}, key_bits={self.key_bits}, "
            f"out_bits={self.bits})"
        )
