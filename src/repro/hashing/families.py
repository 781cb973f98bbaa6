"""Uniform, seedable hash-family interface.

A *family* is a factory; a *function* is a seeded instance.  The registry is
keyed by the paper's abbreviations (§7 "Implementation Details"):

* ``"CRC"``   — CRC-32C seeded by initial state (32 output bits);
* ``"Tab"``   — tabulation hashing, 4 tables (32-bit keys);
* ``"Tab64"`` — tabulation hashing, 8 tables (64-bit keys);
* ``"Mix"``   — keyed SplitMix64 (the ideal-model stand-in);
* ``"MShift"``— 2-universal multiply-shift (ablation only).

A checker that hashes one key array under many seeds (``T`` checker seeds
times their iterations) prepares the keys once
(:meth:`HashFamily.multiseed_hasher`) and then runs one seed at a time
over that prepared form (:meth:`LaneHasher.hash_into`, block by block
through :func:`iter_hash_blocks`): a single seed is just ``T = 1``.
One seeded function is :meth:`HashFamily.instance`, and keys under
per-key seeds are :meth:`HashFamily.hash_array_batch`.
"""

from __future__ import annotations

from functools import partial
from typing import Protocol, runtime_checkable

import numpy as np

from repro.hashing.crc32c import (
    crc32c_bytes,
    crc32c_seed_constants,
    crc32c_u64_array,
)
from repro.hashing.mixers import (
    MultiplyShiftHash,
    SplitMixHash,
    multiply_shift_hash_batch,
    splitmix_hash_batch,
)
from repro.hashing.tabulation import (
    TabulationHash,
    tabulation_hash_batch,
    tabulation_tables,
)


@runtime_checkable
class HashFunction(Protocol):
    """A concrete (seeded) hash function over 64-bit integer keys."""

    bits: int

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (uint64 in, unsigned out)."""
        ...

    def hash_into(
        self, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        """:meth:`hash_array` of uint64 ``keys`` written into the uint64
        array ``out`` (same shape); ``scratch`` is a same-shape buffer the
        evaluation may clobber.  A one-seed fold hashes each key block
        into reused buffers this way."""
        ...

    def hash_one(self, key: int) -> int:
        """Scalar evaluation."""
        ...


class _CRCHash:
    """CRC-32C instance seeded via the initial CRC state.

    ``nbytes`` is the stored width of the hashed elements (8 for 64-bit
    records, 4 for 32-bit ones — the width the paper's workloads use).
    """

    bits = 32

    def __init__(self, seed: int, nbytes: int = 8):
        self.seed = seed & 0xFFFFFFFF
        self.nbytes = nbytes

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        return crc32c_u64_array(keys, self.seed, self.nbytes).astype(np.uint64)

    def hash_into(
        self, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        out[...] = crc32c_u64_array(keys, self.seed, self.nbytes)

    def hash_one(self, key: int) -> int:
        data = int(key).to_bytes(8, "little", signed=False)[: self.nbytes]
        return crc32c_bytes(data, self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CRC32CHash(seed={self.seed:#x}, nbytes={self.nbytes})"


class HashFamily:
    """Named factory of seeded hash functions."""

    def __init__(
        self,
        name: str,
        factory,
        bits: int,
        description: str,
        batch_kernel=None,
        multiseed_kernel=None,
    ):
        self.name = name
        self._factory = factory
        self.bits = bits
        self.description = description
        self._batch_kernel = batch_kernel
        self._multiseed_kernel = multiseed_kernel

    def instance(self, seed: int) -> HashFunction:
        """The hash function determined by ``seed``, built afresh.

        Nothing is cached: a fold draws a fresh seed per window, and the
        one caller that keeps a seed, the default partitioner, keeps its
        function.
        """
        return self._factory(int(seed))

    def hash_array_batch(
        self, seeds: np.ndarray, owner: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Hash ``keys[i]`` with the instance seeded ``seeds[owner[i]]``.

        A handful of numpy passes for the whole batch when the family has a
        vector kernel; falls back to per-seed instances otherwise.  Output
        is elementwise equal to ``instance(seeds[owner[i]]).hash_array``.
        """
        seeds = np.asarray(seeds, dtype=np.uint64)
        owner = np.asarray(owner, dtype=np.intp)
        keys = np.asarray(keys, dtype=np.uint64)
        if self._batch_kernel is not None:
            return self._batch_kernel(seeds, owner, keys)
        out = np.empty(keys.shape, dtype=np.uint64)
        for t in np.unique(owner):
            pick = owner == t
            out[pick] = self.instance(int(seeds[t])).hash_array(keys[pick])
        return out

    def multiseed_hasher(self, keys: np.ndarray) -> "LaneHasher":
        """The prepared form of fixed ``keys``.

        The pass over the keys that the family can hoist out of per-seed
        work runs once, here; the returned :class:`LaneHasher` then hashes
        any number of seeds against it, one seed at a time:

        * CRC/CRC4 — :class:`AffineLaneHasher`: the seed-0 hash of every
          key, each seed one XOR constant away (``h_s = h_0 ⊕ c(s)``);
        * Tab/Tab64 — :class:`StackedLaneHasher`: each key's table bytes
          extracted once (uint8), each seed ``num_tables`` gathers from
          its own tables;
        * Mix/MShift, and any family registered without a
          ``multiseed_kernel`` — :class:`InstanceLaneHasher`: the keys
          themselves, each seed's built function hashing a block in place.

        A prepared form holds at most one uint64 per key (CRC's base).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if self._multiseed_kernel is None:
            return InstanceLaneHasher(keys, self.instance)
        return self._multiseed_kernel(keys)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashFamily({self.name!r}, bits={self.bits})"


class LaneHasher:
    """The prepared form of a fixed key array, hashed one seed at a time.

    Built by :meth:`HashFamily.multiseed_hasher`, which runs the fixed-keys
    pass once.  Every seed's hashes are bit-identical to the seeded
    instance's ``hash_array``.  A subclass sets ``num_keys`` and defines
    :meth:`hash_into`.
    """

    num_keys: int

    def hash_into(
        self, seed: int, start: int, end: int, out: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """Seed ``seed``'s hashes of keys ``start:end`` into the uint64
        array ``out`` (length ``end - start``); ``scratch`` is a
        same-shape buffer the evaluation may clobber."""
        raise NotImplementedError

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        """Lane matrix ``out[t] = instance(seeds[t]).hash_array(keys)``,
        shape ``(len(seeds), num_keys)``: row ``t`` is
        :meth:`hash_into` of every key under ``seeds[t]``."""
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        out = np.empty((seeds.size, self.num_keys), dtype=np.uint64)
        scratch = np.empty(self.num_keys, dtype=np.uint64)
        for row, seed in zip(out, seeds.tolist()):
            self.hash_into(seed, 0, self.num_keys, row, scratch)
        return out


class AffineLaneHasher(LaneHasher):
    """Seed-affine hash over a fixed key array: ``h_s(x) = base(x) ⊕ c(s)``.

    ``base`` is the (already computed) seed-0 hash of every key; ``c`` is
    the per-seed constant, so a seed's hashes are one XOR over the base
    and never touch the keys again.
    """

    def __init__(self, base: np.ndarray, constant_fn):
        self.base = base
        self.num_keys = base.size
        self._constant_fn = constant_fn

    def hash_into(self, seed, start, end, out, scratch) -> None:
        """:meth:`LaneHasher.hash_into`: the base block XOR ``c(seed)``."""
        np.bitwise_xor(self.base[start:end], self._constant_fn(seed), out=out)


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


class StackedLaneHasher(LaneHasher):
    """Tabulation lane evaluator over a fixed key array.

    The :class:`LaneHasher` for Tab/Tab64: each key's table bytes are
    extracted **once**, at construction, as uint8 rows; a seed's block
    is then ``num_tables`` gathers from that seed's tables at those
    bytes, XOR-accumulated — no per-seed byte extraction, versus
    ``num_tables`` shifts, masks and casts per key on the per-seed kernel
    path.
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


class InstanceLaneHasher(LaneHasher):
    """Lane evaluator of a family with nothing to hoist out of a seed.

    Mix's keyed SplitMix and MShift's multiply-shift are one elementwise
    formula of (seed, key), so the prepared form is the keys themselves:
    a seed's block runs the freshly built function's
    :meth:`HashFunction.hash_into` (Mix mixes in place).  A family
    registered without a ``multiseed_kernel`` gets this form too.
    """

    def __init__(self, keys: np.ndarray, build):
        self._keys = keys
        self.num_keys = keys.size
        self._build = build

    def hash_into(self, seed, start, end, out, scratch) -> None:
        """:meth:`LaneHasher.hash_into` through ``build(seed)``."""
        self._build(seed).hash_into(self._keys[start:end], out, scratch)


#: Keys per block of :func:`iter_hash_blocks`: the block's hash buffer
#: and its scratch (1 MB together) stay cache-resident while a fold
#: slices every bucket field, or a fingerprint its sum, out of them.
_HASH_BLOCK_KEYS = 1 << 16


def iter_hash_blocks(hasher: LaneHasher, keys: np.ndarray, seeds: np.ndarray):
    """Every seed's hashes of ``keys``, block by block.

    Yields ``(i, start, end, h)`` with ``h`` equal to
    ``family.instance(seeds[i]).hash_array(keys[start:end])``, for blocks
    of :data:`_HASH_BLOCK_KEYS` keys, every seed over a block before the
    next block.  ``h`` is a view of one reused buffer, which the next
    step overwrites.  ``hasher`` is ``family.multiseed_hasher(keys)``,
    built once by the caller however many seeds read it.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    n = keys.size
    buf = np.empty(min(n, _HASH_BLOCK_KEYS), dtype=np.uint64)
    scratch = np.empty_like(buf)
    for start in range(0, n, _HASH_BLOCK_KEYS):
        end = min(start + _HASH_BLOCK_KEYS, n)
        h = buf[: end - start]
        for i, seed in enumerate(seeds.tolist()):
            hasher.hash_into(seed, start, end, h, scratch[: end - start])
            yield i, start, end, h


_REGISTRY: dict[str, HashFamily] = {}


def _register(family: HashFamily) -> HashFamily:
    _REGISTRY[family.name.lower()] = family
    return family


def _crc_batch_kernel(nbytes: int):
    def kernel(seeds, owner, keys):
        return crc32c_u64_array(keys, seeds[owner], nbytes).astype(np.uint64)

    return kernel


def _crc_multiseed_kernel(nbytes: int):
    def kernel(keys):
        return AffineLaneHasher(
            crc32c_u64_array(keys, 0, nbytes).astype(np.uint64),
            partial(crc32c_seed_constants, nbytes=nbytes),
        )

    return kernel


def _tab_batch_kernel(key_bits: int, out_bits: int):
    def kernel(seeds, owner, keys):
        return tabulation_hash_batch(seeds, owner, keys, key_bits, out_bits)

    return kernel


CRC_FAMILY = _register(
    HashFamily(
        "CRC",
        _CRCHash,
        32,
        "CRC-32C (Castagnoli), seeded initial state; limited randomness",
        batch_kernel=_crc_batch_kernel(8),
        multiseed_kernel=_crc_multiseed_kernel(8),
    )
)
CRC4_FAMILY = _register(
    HashFamily(
        "CRC4",
        lambda seed: _CRCHash(seed, nbytes=4),
        32,
        "CRC-32C over 4-byte (32-bit) elements — the paper's stored width",
        batch_kernel=_crc_batch_kernel(4),
        multiseed_kernel=_crc_multiseed_kernel(4),
    )
)
TAB_FAMILY = _register(
    HashFamily(
        "Tab",
        lambda seed: TabulationHash(seed, key_bits=32, out_bits=32),
        32,
        "simple tabulation, 4 tables of 256 (32-bit keys)",
        batch_kernel=_tab_batch_kernel(32, 32),
        multiseed_kernel=partial(StackedLaneHasher, key_bits=32, out_bits=32),
    )
)
TAB64_FAMILY = _register(
    HashFamily(
        "Tab64",
        lambda seed: TabulationHash(seed, key_bits=64, out_bits=64),
        64,
        "simple tabulation, 8 tables of 256 (64-bit keys)",
        batch_kernel=_tab_batch_kernel(64, 64),
        multiseed_kernel=partial(StackedLaneHasher, key_bits=64, out_bits=64),
    )
)
MIX_FAMILY = _register(
    HashFamily(
        "Mix",
        lambda seed: SplitMixHash(seed, out_bits=64),
        64,
        "keyed SplitMix64 finalizer (ideal-model stand-in)",
        batch_kernel=lambda seeds, owner, keys: splitmix_hash_batch(
            seeds, owner, keys, 64
        ),
    )
)
MSHIFT_FAMILY = _register(
    HashFamily(
        "MShift",
        lambda seed: MultiplyShiftHash(seed, out_bits=32),
        32,
        "2-universal multiply-shift (ablation)",
        batch_kernel=lambda seeds, owner, keys: multiply_shift_hash_batch(
            seeds, owner, keys, 32
        ),
    )
)


def get_family(name: str) -> HashFamily:
    """Look up a registered family by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown hash family {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_families() -> list[str]:
    """Names of all registered families (canonical capitalisation)."""
    return [fam.name for fam in _REGISTRY.values()]
