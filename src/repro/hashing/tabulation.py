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
:class:`StackedLaneHasher`: the keys' table bytes are extracted once, as
uint8 rows, and every seed gathers its own tables at them.
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
#: take the formerly-undervalued sparse path.  The *multi-seed lane*
#: pattern (every seed over the same keys) does not go through here —
#: ``StackedLaneHasher`` gathers those without an owner indirection.
_DENSE_KEYS_PER_SEED = 2048


def stacked_tabulation_tables(
    seeds: np.ndarray, num_tables: int, out_bits: int = 64
) -> np.ndarray:
    """Seed-stacked tables, shape ``(num_tables, 256, len(seeds))``.

    The canonical byte-major transpose of :func:`tabulation_tables_batch`:
    slice ``[..., t]`` is byte-identical to
    ``tabulation_tables(seeds[t], num_tables, out_bits)``, and
    ``stacked[i, b]`` is the vector of every seed's entry for byte value
    ``b`` of table ``i`` — one fancy-indexed gather per table serves all
    ``T`` seed lanes at once.  This byte-major form is the
    interop/reference layout.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    return np.ascontiguousarray(
        tabulation_tables_batch(seeds, num_tables, out_bits).transpose(1, 2, 0)
    )


def _key_bytes(keys: np.ndarray, num_tables: int) -> np.ndarray:
    """Table ``i``'s byte of every key, shape ``(num_tables, n)`` uint8.

    Read through a little-endian byte view of the keys, one row per
    table, so a block's gather addresses are a contiguous row slice and
    the whole form costs at most one byte per table and key (8 for
    Tab64: the size of the key itself).
    """
    words = np.ascontiguousarray(
        np.asarray(keys, dtype=np.uint64).ravel(), dtype="<u8"
    )
    return np.ascontiguousarray(
        words.view(np.uint8).reshape(-1, 8)[:, :num_tables].T
    )


class StackedLaneHasher:
    """Tabulation lane evaluator over a fixed key array.

    The :class:`~repro.hashing.families.LaneHasher` for Tab/Tab64: each
    key's table bytes are extracted **once**, at construction, as uint8
    rows; a seed's block is then ``num_tables`` gathers from that seed's
    tables at those bytes, XOR-accumulated — no per-seed byte
    extraction, versus ``num_tables`` shifts, masks and casts per key on
    the per-seed kernel path.
    """

    def __init__(self, keys, key_bits: int = 64, out_bits: int = 64):
        if key_bits not in (32, 64):
            raise ValueError(f"key_bits must be 32 or 64, got {key_bits}")
        if not 1 <= out_bits <= 64:
            raise ValueError(f"out_bits must be in 1..64, got {out_bits}")
        self.key_bits = key_bits
        self.out_bits = out_bits
        self.num_tables = key_bits // 8
        self._bytes = _key_bytes(keys, self.num_tables)
        self.num_keys = self._bytes.shape[1]

    def hash_into(
        self, seed: int, start: int, end: int, out: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """``TabulationHash(seed, ...).hash_array`` of keys ``start:end``
        into ``out``, with ``scratch`` as the gather buffer.

        Entries are pre-masked to ``out_bits`` and XOR preserves the
        mask.  ``mode="clip"`` skips numpy's per-element bounds check
        without changing results (indices are bytes by construction).
        """
        tables = tabulation_tables(seed, self.num_tables, self.out_bits)
        rows = self._bytes[:, start:end]
        np.take(tables[0], rows[0], out=out, mode="clip")
        for table, row in zip(tables[1:], rows[1:]):
            np.take(table, row, out=scratch, mode="clip")
            out ^= scratch

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        """Lane matrix ``out[t] = TabulationHash(seeds[t], ...).hash_array``,
        shape ``(len(seeds), num_keys)``, one seed at a time."""
        return seed_loop_lanes(self, seeds, self.num_keys)


def seed_loop_lanes(hasher, seeds: np.ndarray, num_keys: int) -> np.ndarray:
    """Lane matrix of a prepared form built from its one-seed path.

    Row ``t`` is ``hasher.hash_into(seeds[t], 0, num_keys, ...)``; the
    ``lanes`` of every prepared form whose seeds share nothing cheaper
    than that (this module's :class:`StackedLaneHasher` and
    :class:`~repro.hashing.families.InstanceLaneHasher`).
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    out = np.empty((seeds.size, num_keys), dtype=np.uint64)
    scratch = np.empty(num_keys, dtype=np.uint64)
    for row, seed in zip(out, seeds.tolist()):
        hasher.hash_into(seed, 0, num_keys, row, scratch)
    return out


def tabulation_lanes(
    seeds: np.ndarray,
    keys: np.ndarray,
    key_bits: int = 64,
    out_bits: int = 64,
) -> np.ndarray:
    """One-shot stacked lane matrix, shape ``(len(seeds), len(keys))``.

    ``out[t]`` is bit-identical to
    ``TabulationHash(seeds[t], key_bits, out_bits).hash_array(keys)``;
    the key bytes are extracted once for all seeds.  Callers that hash
    the same keys in several calls should hold a
    :class:`StackedLaneHasher` instead (it keeps the byte extraction).
    """
    return StackedLaneHasher(keys, key_bits, out_bits).lanes(seeds)


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
