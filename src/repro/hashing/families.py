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
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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
    StackedLaneHasher,
    TabulationHash,
    seed_loop_lanes,
    tabulation_hash_batch,
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


#: Seeded instances kept per family; the heaviest (Tab64) carries 8 tables
#: of 256 × 8 B ≈ 16 KB, so a full cache tops out around 8 MB per family.
_INSTANCE_CACHE_SIZE = 512


class HashFamily:
    """Named factory of seeded hash functions.

    ``instance`` results are memoised per seed in a small LRU: hash
    functions are immutable once built, and checker construction repeats
    seeds constantly (e.g. re-checking under the same configuration), so
    regenerating tabulation tables for a seen seed would be pure waste.
    The cache is lock-guarded — checkers are constructed concurrently on
    the per-PE threads of :class:`repro.comm.context.Context`.
    """

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
        self._cache: OrderedDict[int, HashFunction] = OrderedDict()
        self._cache_lock = threading.Lock()

    def instance(self, seed: int) -> HashFunction:
        """The hash function determined by ``seed`` (cached per seed)."""
        key = int(seed)
        with self._cache_lock:
            fn = self._cache.get(key)
            if fn is not None:
                self._cache.move_to_end(key)
                return fn
        fn = self.build(key)
        with self._cache_lock:
            self._cache[key] = fn
            if len(self._cache) > _INSTANCE_CACHE_SIZE:
                self._cache.popitem(last=False)
        return fn

    def build(self, seed: int) -> HashFunction:
        """The hash function determined by ``seed``, built afresh.

        :meth:`instance` without its cache, for a caller that meets each
        seed once: a one-seed fold draws a fresh seed per window, so the
        cache would only churn, and concurrent PE threads would queue on
        its lock.
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

    def multiseed_hasher(self, keys: np.ndarray) -> "LaneHasher | None":
        """The prepared form of fixed ``keys``, or None.

        The pass over the keys that the family can hoist out of per-seed
        work runs once, here; the returned :class:`LaneHasher` then hashes
        any number of seeds against it, one seed at a time:

        * CRC/CRC4 — :class:`AffineLaneHasher`: the seed-0 hash of every
          key, each seed one XOR constant away (``h_s = h_0 ⊕ c(s)``);
        * Tab/Tab64 — :class:`~repro.hashing.tabulation.StackedLaneHasher`:
          each key's table bytes extracted once (uint8), each seed
          ``num_tables`` gathers from its own tables;
        * Mix/MShift — :class:`InstanceLaneHasher`: the keys themselves,
          each seed's built function hashing a block in place.

        A prepared form holds at most one uint64 per key (CRC's base).
        Every registered family returns a hasher; only custom families
        registered without a ``multiseed_kernel`` return None, sending
        :func:`hash_lanes` and :func:`iter_hash_blocks` down the
        batch-kernel fallback.
        """
        if self._multiseed_kernel is None:
            return None
        return self._multiseed_kernel(np.asarray(keys, dtype=np.uint64))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashFamily({self.name!r}, bits={self.bits})"


@runtime_checkable
class LaneHasher(Protocol):
    """The prepared form of a fixed key array, hashed one seed at a time.

    Built by :meth:`HashFamily.multiseed_hasher`, which runs the fixed-keys
    pass once.  Every seed's hashes are bit-identical to the seeded
    instance's ``hash_array``.
    """

    def hash_into(
        self, seed: int, start: int, end: int, out: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """Seed ``seed``'s hashes of keys ``start:end`` into the uint64
        array ``out`` (length ``end - start``); ``scratch`` is a
        same-shape buffer the evaluation may clobber."""
        ...

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        """Lane matrix ``out[t] = instance(seeds[t]).hash_array(keys)``."""
        ...


class AffineLaneHasher:
    """Seed-affine hash over a fixed key array: ``h_s(x) = base(x) ⊕ c(s)``.

    ``base`` is the (already computed) seed-0 hash of every key; ``c`` is
    the per-seed constant, so a seed's hashes are one XOR over the base
    and never touch the keys again.
    """

    def __init__(self, base: np.ndarray, constants_fn):
        self.base = base
        self._constants_fn = constants_fn

    def constants(self, seeds: np.ndarray) -> np.ndarray:
        """Per-seed XOR constants ``c(seeds)`` (same shape as ``seeds``)."""
        return self._constants_fn(seeds)

    def hash_into(self, seed, start, end, out, scratch) -> None:
        """:meth:`LaneHasher.hash_into`: the base block XOR ``c(seed)``."""
        np.bitwise_xor(
            self.base[start:end], self.constants(np.uint64(seed)), out=out
        )

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        """Full lane tensor, shape ``seeds.shape + base.shape``."""
        return self.constants(seeds)[..., None] ^ self.base


class InstanceLaneHasher:
    """Lane evaluator of a family with nothing to hoist out of a seed.

    Mix's keyed SplitMix and MShift's multiply-shift are one elementwise
    formula of (seed, key), so the prepared form is the keys themselves:
    a seed's block runs the freshly built function's
    :meth:`HashFunction.hash_into` (Mix mixes in place).
    """

    def __init__(self, keys: np.ndarray, build):
        self._keys = keys
        self._build = build

    def hash_into(self, seed, start, end, out, scratch) -> None:
        """:meth:`LaneHasher.hash_into` through ``build(seed)``."""
        self._build(seed).hash_into(self._keys[start:end], out, scratch)

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        """:meth:`LaneHasher.lanes`, one seed at a time."""
        return seed_loop_lanes(self, seeds, self._keys.size)


def seeds_per_block(chunk_elements: int, num_keys: int) -> int:
    """Seed-lanes per batched pass so one pass tiles ≤ ``chunk_elements``.

    The chunk-size rule of the :func:`hash_lanes` tiled fallback, so its
    peak scratch is O(chunk).
    """
    if chunk_elements < 1:
        raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
    return max(1, int(chunk_elements) // max(int(num_keys), 1))


#: Seed-tiled elements per batched pass of the :func:`hash_lanes` fallback;
#: bounds its peak scratch (tiled keys + owner + output block) instead of
#: materializing all ``len(seeds) × len(keys)`` tiled keys at once.
_FALLBACK_CHUNK_ELEMENTS = 1 << 20


def hash_lanes(
    family: HashFamily,
    seeds: np.ndarray,
    keys: np.ndarray,
    hasher: "LaneHasher | None" = None,
    chunk_elements: int = _FALLBACK_CHUNK_ELEMENTS,
) -> np.ndarray:
    """Lane matrix ``out[t] = instance(seeds[t]).hash_array(keys)``.

    The multi-seed access pattern (every seed over the same key array).
    Evaluation goes through the family's :class:`LaneHasher` — passed in
    by callers that amortize the fixed-keys pass across calls, or built
    here.  Only families without a multiseed kernel fall back to tiling
    the keys through the batched kernel, in bounded seed blocks of
    ``chunk_elements`` tiled keys (peak scratch O(chunk), not
    O(len(seeds) · len(keys))).
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    if hasher is None:
        hasher = family.multiseed_hasher(keys)
    if hasher is not None:
        return hasher.lanes(seeds)
    out = np.empty((seeds.size, keys.size), dtype=np.uint64)
    # Raises ValueError on chunk_elements < 1.
    per_block = seeds_per_block(chunk_elements, keys.size)
    for start in range(0, seeds.size, per_block):
        count = min(per_block, seeds.size - start)
        owner = np.repeat(np.arange(count, dtype=np.intp), keys.size)
        out[start : start + count] = family.hash_array_batch(
            seeds[start : start + count], owner, np.tile(keys, count)
        ).reshape(count, keys.size)
    return out


#: Keys per block of :func:`iter_hash_blocks`: the block's hash buffer
#: and its scratch (1 MB together) stay cache-resident while a fold
#: slices every bucket field, or a fingerprint its sum, out of them.
_HASH_BLOCK_KEYS = 1 << 16


def iter_hash_blocks(
    family: HashFamily,
    hasher: "LaneHasher | None",
    keys: np.ndarray,
    seeds: np.ndarray,
):
    """Every seed's hashes of ``keys``, block by block.

    Yields ``(i, start, end, h)`` with ``h`` equal to
    ``family.build(seeds[i]).hash_array(keys[start:end])``, for blocks of
    :data:`_HASH_BLOCK_KEYS` keys, every seed over a block before the
    next block.  ``h`` is a view of one reused buffer, which the next
    step overwrites.  ``hasher`` is ``family.multiseed_hasher(keys)``,
    built once by the caller however many seeds read it; a family
    without a lane kernel (``hasher`` None) hashes each block through
    :func:`hash_lanes`' batch-kernel fallback, one seed at a time.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    n = keys.size
    buf = np.empty(min(n, _HASH_BLOCK_KEYS), dtype=np.uint64)
    scratch = np.empty_like(buf)
    for start in range(0, n, _HASH_BLOCK_KEYS):
        end = min(start + _HASH_BLOCK_KEYS, n)
        h = buf[: end - start]
        for i, seed in enumerate(seeds.tolist()):
            if hasher is None:
                h[:] = hash_lanes(family, seeds[i : i + 1], keys[start:end])[0]
            else:
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
            lambda seeds: crc32c_seed_constants(seeds, nbytes),
        )

    return kernel


def _tab_batch_kernel(key_bits: int, out_bits: int):
    def kernel(seeds, owner, keys):
        return tabulation_hash_batch(seeds, owner, keys, key_bits, out_bits)

    return kernel


def _tab_multiseed_kernel(key_bits: int, out_bits: int):
    def kernel(keys):
        return StackedLaneHasher(keys, key_bits, out_bits)

    return kernel


def _instance_multiseed_kernel(build):
    def kernel(keys):
        return InstanceLaneHasher(keys, build)

    return kernel


def _mix_function(seed: int) -> SplitMixHash:
    return SplitMixHash(seed, out_bits=64)


def _mshift_function(seed: int) -> MultiplyShiftHash:
    return MultiplyShiftHash(seed, out_bits=32)


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
        multiseed_kernel=_tab_multiseed_kernel(32, 32),
    )
)
TAB64_FAMILY = _register(
    HashFamily(
        "Tab64",
        lambda seed: TabulationHash(seed, key_bits=64, out_bits=64),
        64,
        "simple tabulation, 8 tables of 256 (64-bit keys)",
        batch_kernel=_tab_batch_kernel(64, 64),
        multiseed_kernel=_tab_multiseed_kernel(64, 64),
    )
)
MIX_FAMILY = _register(
    HashFamily(
        "Mix",
        _mix_function,
        64,
        "keyed SplitMix64 finalizer (ideal-model stand-in)",
        batch_kernel=lambda seeds, owner, keys: splitmix_hash_batch(
            seeds, owner, keys, 64
        ),
        multiseed_kernel=_instance_multiseed_kernel(_mix_function),
    )
)
MSHIFT_FAMILY = _register(
    HashFamily(
        "MShift",
        _mshift_function,
        32,
        "2-universal multiply-shift (ablation)",
        batch_kernel=lambda seeds, owner, keys: multiply_shift_hash_batch(
            seeds, owner, keys, 32
        ),
        multiseed_kernel=_instance_multiseed_kernel(_mshift_function),
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
