"""Uniform, seedable hash-family interface.

A *family* is a factory; a *function* is a seeded instance.  The registry is
keyed by the paper's abbreviations (§7 "Implementation Details"):

* ``"CRC"``   — CRC-32C seeded by initial state (32 output bits);
* ``"Tab"``   — tabulation hashing, 4 tables (32-bit keys);
* ``"Tab64"`` — tabulation hashing, 8 tables (64-bit keys);
* ``"Mix"``   — keyed SplitMix64 (the ideal-model stand-in);
* ``"MShift"``— 2-universal multiply-shift (ablation only).
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
    _BROADCAST_BLOCK_ELEMENTS,
    MultiplyShiftHash,
    SplitMixHash,
    multiply_shift_hash_batch,
    splitmix_hash_batch,
)
from repro.hashing.tabulation import (
    StackedLaneHasher,
    TabulationHash,
    fused_lane_fields,
    tabulation_hash_batch,
)
from repro.kernels import get_kernels, seeds_per_block
from repro.util.rng import derive_seed_array


@runtime_checkable
class HashFunction(Protocol):
    """A concrete (seeded) hash function over 64-bit integer keys."""

    bits: int

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (uint64 in, unsigned out)."""
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
        fn = self._factory(key)
        with self._cache_lock:
            self._cache[key] = fn
            if len(self._cache) > _INSTANCE_CACHE_SIZE:
                self._cache.popitem(last=False)
        return fn

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
        """Shared-pass lane evaluator over fixed ``keys``, or None.

        The base pass over the keys (whatever the family can hoist out of
        per-seed work) runs once, here; the returned :class:`LaneHasher`
        then evaluates any number of seed lanes against it:

        * CRC/CRC4 — :class:`AffineLaneHasher`: the seed-0 hash of every
          key, each lane one XOR constant away (``h_s = h_0 ⊕ c(s)``);
        * Tab/Tab64 — :class:`~repro.hashing.tabulation.StackedLaneHasher`:
          byte indices extracted once, each lane block ``num_tables``
          gathers from the seed-stacked tables;
        * Mix/MShift — :class:`BroadcastLaneHasher`: one broadcast mix
          over ``seeds × keys``.

        Every registered family returns a hasher; only custom families
        registered without a ``multiseed_kernel`` return None, sending
        :func:`hash_lanes` down its (chunked) tiled fallback.
        """
        if self._multiseed_kernel is None:
            return None
        return self._multiseed_kernel(np.asarray(keys, dtype=np.uint64))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashFamily({self.name!r}, bits={self.bits})"


@runtime_checkable
class LaneHasher(Protocol):
    """Multi-seed lane evaluator over a fixed key array.

    Built by :meth:`HashFamily.multiseed_hasher`, which runs the fixed-keys
    base pass once; :meth:`lanes` evaluates seed lanes against it.  Every
    lane is bit-identical to the seeded instance's ``hash_array``.
    """

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        """Lane matrix ``out[t] = instance(seeds[t]).hash_array(keys)``."""
        ...


class AffineLaneHasher:
    """Seed-affine hash over a fixed key array: ``h_s(x) = base(x) ⊕ c(s)``.

    ``base`` is the (already computed) seed-0 hash of every key; ``c`` is
    the per-seed constant.  Consumers may exploit the affine structure
    beyond :meth:`lanes` — the bit-group bucket assigner extracts groups
    from ``base`` once and XORs each lane's constant group in, so a seed
    lane never touches the key array again.
    """

    def __init__(self, base: np.ndarray, constants_fn):
        self.base = base
        self._constants_fn = constants_fn

    def constants(self, seeds: np.ndarray) -> np.ndarray:
        """Per-seed XOR constants ``c(seeds)`` (same shape as ``seeds``)."""
        return self._constants_fn(seeds)

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        """Full lane tensor, shape ``seeds.shape + base.shape``."""
        return self.constants(seeds)[..., None] ^ self.base


#: Backwards-compatible name from before the LaneHasher generalization.
AffineHasher = AffineLaneHasher


class BroadcastLaneHasher:
    """Lane evaluator from a closed-form broadcast formula.

    For families whose seeded evaluation is an elementwise formula of
    (seed, key) — Mix's keyed SplitMix (``kind="mix"``), MShift's
    multiply-shift (``kind="mshift"``) — all ``T`` lanes of a key block
    come out of **one** cache-blocked kernel pass over the fixed keys:
    no per-seed instance loop, no key tiling.  The per-seed constants
    the formula needs (MShift's odd multipliers; Mix uses the seeds
    directly) are derived once per seed block, outside the key loop.

    :meth:`bucket_lanes` additionally fuses the §4 bit-group extraction
    with the mixing pass — bucket indices are sliced out of each lane
    block while it is still cache-resident, so Mix/MShift checker rows
    never materialize (or re-stream) the full ``(T, n)`` lane matrix.
    """

    def __init__(self, keys: np.ndarray, kind: str, out_bits: int):
        if kind not in ("mix", "mshift"):
            raise ValueError(f"kind must be 'mix' or 'mshift', got {kind!r}")
        self._keys = np.asarray(keys, dtype=np.uint64).ravel()
        self._kind = kind
        self.out_bits = out_bits
        self._mask = (
            np.uint64((1 << out_bits) - 1)
            if out_bits < 64
            else np.uint64(0xFFFFFFFFFFFFFFFF)
        )
        self._shift = np.uint64(64 - out_bits)

    def _constants(self, seeds: np.ndarray) -> np.ndarray:
        """Per-seed broadcast constants (hoisted out of the key loop)."""
        if self._kind == "mix":
            return seeds
        return derive_seed_array(seeds, "multiply-shift") | np.uint64(1)

    def _eval_block(
        self, kernels, consts: np.ndarray, start: int, end: int,
        out: np.ndarray,
    ) -> None:
        """All lanes of keys ``start:end`` into ``out`` in one kernel call."""
        block = self._keys[start:end]
        if self._kind == "mix":
            kernels.mix_lanes(consts, block, self._mask, out)
        else:
            kernels.mshift_lanes(consts, block, self._shift, out)

    def lanes(self, seeds: np.ndarray) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        consts = self._constants(seeds)
        lanes, n = seeds.size, self._keys.size
        out = np.empty((lanes, n), dtype=np.uint64)
        if n == 0:
            return out
        kernels = get_kernels()
        block = max(1, _BROADCAST_BLOCK_ELEMENTS // max(lanes, 1))
        for start in range(0, n, block):
            end = min(start + block, n)
            self._eval_block(kernels, consts, start, end, out[:, start:end])
        return out

    def bucket_lanes(
        self, seeds: np.ndarray, fields: list, out: np.ndarray,
        modulus: int = 0,
    ) -> None:
        """Fused mix + bucket extraction (same contract as
        :meth:`repro.hashing.tabulation.StackedLaneHasher.bucket_lanes`).

        ``out[i]`` (``out`` intp, shape ``(len(fields), len(seeds),
        len(keys))``) receives the ``(bit_offset, width)`` field
        ``fields[i]`` of every lane value, all fields from one mixing
        pass; ``modulus > 0`` means the general ``mod d`` path with one
        output row.  Bit-identical to extracting from :meth:`lanes`.
        """
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        consts = self._constants(seeds)
        kernels = get_kernels()

        def mix(start, end, acc, scratch):
            self._eval_block(kernels, consts, start, end, acc)

        fused_lane_fields(
            mix, seeds.size, self._keys.size, fields, out, modulus
        )


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
    by callers that amortize the base pass across calls, or built here —
    so no registered family pays a per-seed pass.  Only families without
    a multiseed kernel fall back to tiling the keys through the batched
    kernel, in bounded seed blocks of ``chunk_elements`` tiled keys
    (peak scratch O(chunk), not O(len(seeds) · len(keys))).
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    if hasher is None:
        hasher = family.multiseed_hasher(keys)
    if hasher is not None:
        return hasher.lanes(seeds)
    out = np.empty((seeds.size, keys.size), dtype=np.uint64)
    # Shared chunking policy with every other seed-blocked path (raises
    # ValueError on chunk_elements < 1, preserving this fallback's
    # historical validation).
    per_block = seeds_per_block(chunk_elements, keys.size)
    for start in range(0, seeds.size, per_block):
        count = min(per_block, seeds.size - start)
        owner = np.repeat(np.arange(count, dtype=np.intp), keys.size)
        out[start : start + count] = family.hash_array_batch(
            seeds[start : start + count], owner, np.tile(keys, count)
        ).reshape(count, keys.size)
    return out


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
        return AffineHasher(
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


def _broadcast_multiseed_kernel(kind: str, out_bits: int):
    def kernel(keys):
        return BroadcastLaneHasher(keys, kind, out_bits)

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
        lambda seed: SplitMixHash(seed, out_bits=64),
        64,
        "keyed SplitMix64 finalizer (ideal-model stand-in)",
        batch_kernel=lambda seeds, owner, keys: splitmix_hash_batch(
            seeds, owner, keys, 64
        ),
        multiseed_kernel=_broadcast_multiseed_kernel("mix", 64),
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
        multiseed_kernel=_broadcast_multiseed_kernel("mshift", 32),
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
