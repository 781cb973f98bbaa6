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
#: pattern (every seed over the same keys) does not go through here at
#: all any more — ``StackedLaneHasher`` gathers those without an owner
#: indirection.
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
    ``T`` seed lanes at once.  :class:`StackedLaneHasher` gathers from
    the seed-major transpose of the same stack (lane ``t`` then reads a
    contiguous 2 KB table slice, which measures faster); this byte-major
    form is the interop/reference layout.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    return np.ascontiguousarray(
        tabulation_tables_batch(seeds, num_tables, out_bits).transpose(1, 2, 0)
    )


#: Lane-matrix elements (seed lanes × block keys) per cache-blocked gather;
#: bounds the gather accumulator to ~2 MB so every block's working set
#: (tables + accumulator) stays cache-resident instead of streaming
#: ``num_tables`` full (T, n) temporaries through DRAM.
_LANE_BLOCK_ELEMENTS = 1 << 18

#: Block size of the fused gather+bucket-extraction kernel.  Smaller than
#: :data:`_LANE_BLOCK_ELEMENTS` because the fused loop re-reads the gather
#: accumulator once per bit group: at 2^16 lane-elements the accumulator
#: and scratch (~1.5 MB) stay L2-resident through all extractions, which
#: measures ~25% faster than the 2^18 gather-only block (this machine,
#: T=32, Tab64 8x16).
_FUSED_BLOCK_ELEMENTS = 1 << 16


def _key_byte_indices(keys: np.ndarray, num_tables: int) -> np.ndarray:
    """Per-table byte indices of every key, shape ``(num_tables, n)`` intp.

    One 2-D array (the gather addresses), so each cache block takes a
    contiguous-row slice without per-table list plumbing.
    """
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    out = np.empty((num_tables, keys.size), dtype=np.intp)
    for i in range(num_tables):
        out[i] = ((keys >> np.uint64(8 * i)) & np.uint64(0xFF)).astype(np.intp)
    return out


class StackedLaneHasher:
    """Tabulation lane evaluator over a fixed key array.

    The :class:`~repro.hashing.families.LaneHasher` for Tab/Tab64: each
    key's byte indices are extracted **once**, at construction; every
    :meth:`lanes` call then XOR-accumulates ``num_tables`` fancy-indexed
    gathers from the seed-stacked tables — independent of how many seed
    lanes are evaluated, versus ``T × num_tables`` byte extractions and
    gathers on the per-seed kernel path.

    Gathers run seed-major (each lane reads its own 2 KB table slice) and
    cache-blocked over keys (:data:`_LANE_BLOCK_ELEMENTS`): ~4× over the
    per-seed kernel path at T=32 over a 10^6-element workload's unique
    keys (``BENCH_tab_lanes.json``).
    """

    def __init__(self, keys, key_bits: int = 64, out_bits: int = 64):
        if key_bits not in (32, 64):
            raise ValueError(f"key_bits must be 32 or 64, got {key_bits}")
        if not 1 <= out_bits <= 64:
            raise ValueError(f"out_bits must be in 1..64, got {out_bits}")
        self.key_bits = key_bits
        self.out_bits = out_bits
        self.num_tables = key_bits // 8
        self._bytes = _key_byte_indices(keys, self.num_tables)
        self.num_keys = self._bytes.shape[1]

    def _seed_major_tables(self, seeds: np.ndarray) -> np.ndarray:
        """Seed-major table tensor: lane ``t`` reads a contiguous 2 KB slice."""
        return np.ascontiguousarray(
            tabulation_tables_batch(
                seeds, self.num_tables, self.out_bits
            ).transpose(1, 0, 2)
        )

    def _gather_block(
        self, tables: np.ndarray, start: int, end: int,
        acc: np.ndarray, tmp: np.ndarray,
    ) -> None:
        """XOR-accumulate all tables' gathers for keys ``start:end``.

        ``acc[t, i] = ⊕_j tables[j, t, byte_j(key_i)]``; ``tmp`` is a
        same-shape scratch.  ``mode="clip"`` skips numpy's per-element
        bounds check without changing results (indices are bytes by
        construction).
        """
        byte_idx = self._bytes[:, start:end]
        np.take(tables[0], byte_idx[0], axis=1, out=tmp, mode="clip")
        acc[:] = tmp
        for j in range(1, tables.shape[0]):
            np.take(tables[j], byte_idx[j], axis=1, out=tmp, mode="clip")
            acc ^= tmp

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        """Lane matrix ``out[t] = TabulationHash(seeds[t], ...).hash_array``.

        Shape ``(len(seeds), num_keys)``, C-contiguous, bit-identical per
        row to the seeded instance (entries are pre-masked to
        ``out_bits``, and XOR preserves the mask).
        """
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        tables = self._seed_major_tables(seeds)
        lanes, n = seeds.size, self.num_keys
        out = np.empty((lanes, n), dtype=np.uint64)
        if n == 0:
            return out
        block = max(1, _LANE_BLOCK_ELEMENTS // max(lanes, 1))
        scratch = np.empty((lanes, min(block, n)), dtype=np.uint64)
        for start in range(0, n, block):
            end = min(start + block, n)
            self._gather_block(
                tables, start, end,
                out[:, start:end], scratch[:, : end - start],
            )
        return out

    def bucket_lanes(
        self, seeds: np.ndarray, fields: list, out: np.ndarray,
        modulus: int = 0,
    ) -> None:
        """Fused gather + bucket extraction for the §4 bit-group scheme.

        Writes field ``fields[i] = (bit_offset, width)`` of every seed
        lane into ``out[i]`` — ``out`` is intp of shape ``(len(fields),
        len(seeds), num_keys)`` — extracting each field from the gather
        accumulator **while it is still cache-resident**, instead of
        materializing the full uint64 lane matrix and re-streaming it
        once per field (that second DRAM pass is what dominated Tab64
        lane consumption).  Fields may differ in width, so one gather
        serves every super-group of a hash evaluation.  ``modulus > 0``
        (with no fields) is the general ``mod d`` path with a single
        output row.  Results are bit-identical to extracting from
        :meth:`lanes`.
        """
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        tables = self._seed_major_tables(seeds)

        def gather(start, end, acc, scratch):
            self._gather_block(tables, start, end, acc, scratch)

        fused_lane_fields(
            gather, seeds.size, self.num_keys, fields, out, modulus
        )


def fused_lane_fields(
    eval_block, lanes: int, n: int, fields: list, out: np.ndarray,
    modulus: int = 0,
) -> None:
    """Cache-blocked lane evaluation fused with field extraction.

    The shared loop of every lane hasher's ``bucket_lanes`` (stacked
    tabulation here, the broadcast Mix/MShift hasher in
    :mod:`repro.hashing.families`).  ``eval_block(start, end, acc,
    scratch)`` writes the ``(lanes, end - start)`` lane values of keys
    ``start:end`` into ``acc`` (``scratch`` is a same-shape buffer it may
    clobber); each block is then sliced into ``out`` — intp, shape
    ``(len(fields), lanes, n)`` — while it is still cache-resident:
    ``out[i]`` receives the ``width``-bit field at ``bit_offset`` of
    ``fields[i] = (bit_offset, width)``, all fields in one broadcast
    shift and one broadcast mask, whatever their widths.  With
    ``modulus > 0`` (and ``out`` of shape ``(1, lanes, n)``), ``out[0]``
    receives every lane value mod ``modulus`` instead.
    """
    if n == 0:
        return
    block = max(1, _FUSED_BLOCK_ELEMENTS // max(lanes, 1))
    width = min(block, n)
    acc = np.empty((lanes, width), dtype=np.uint64)
    scratch = np.empty((lanes, width), dtype=np.uint64)
    # Every extracted value is below 2**width (or the modulus), so its
    # uint64 word is its intp bucket index: write through a uint64 view
    # of ``out`` and skip a casting pass.
    words = out.view(np.uint64)
    shifts = np.array([s for s, _ in fields], dtype=np.uint64)[:, None, None]
    masks = np.array(
        [(1 << bits) - 1 for _, bits in fields], dtype=np.uint64
    )[:, None, None]
    for start in range(0, n, block):
        end = min(start + block, n)
        w = end - start
        a = acc[:, :w]
        eval_block(start, end, a, scratch[:, :w])
        dst = words[:, :, start:end]
        if modulus:
            np.mod(a, np.uint64(modulus), out=dst[0])
        else:
            np.right_shift(a[None], shifts, out=dst)
            np.bitwise_and(dst, masks, out=dst)


def tabulation_lanes(
    seeds: np.ndarray,
    keys: np.ndarray,
    key_bits: int = 64,
    out_bits: int = 64,
) -> np.ndarray:
    """One-shot stacked lane matrix, shape ``(len(seeds), len(keys))``.

    ``out[t]`` is bit-identical to
    ``TabulationHash(seeds[t], key_bits, out_bits).hash_array(keys)``;
    the key bytes are extracted once and each table costs one gather
    regardless of ``len(seeds)``.  Callers that evaluate several seed
    blocks over the same keys should hold a :class:`StackedLaneHasher`
    instead (it caches the byte extraction).
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
