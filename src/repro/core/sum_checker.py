"""Building blocks of the §4 sum/count-aggregation checker (Algorithm 1).

A sum aggregation maps a distributed multiset of ``(key, value)`` pairs to
one ``(key, Σ values)`` pair per key.  The checker condenses the unknown key
space ``K`` into ``d`` buckets with a random hash ``h : K → 0..d-1`` and
reduces values modulo a random ``r ∈ (r̂, 2r̂]``; the condensed reduction
("minireduction") of the *input* must equal that of the *asserted output*.
Lemma 2: one iteration accepts an incorrect result with probability at most
``1/r̂ + 1/d``; independent repetitions drive this to δ (Lemma 3).

This module holds what every fold of that table shares, mirroring §7.1:

* **Deferred modulo** — local accumulation uses 64-bit lanes and reduces
  modulo ``r`` per chunk instead of per element (exactness argument in
  :func:`_scatter_add_mod`), guarded by :func:`_magnitude_bound`.
* **Packed wire format** — the minireduction table travels as
  ``iterations · d`` residues of ``⌈log2 2r̂⌉`` bits each, so the metered
  communication volume equals the paper's ``table size`` column (Table 3).
* **Moduli** — :func:`draw_moduli`, one row per root seed.

The checker itself, for one seed or ``T``, is
:class:`repro.core.multiseed.MultiSeedSumChecker`, with
:func:`~repro.core.multiseed.check_sum_aggregation` and
:func:`~repro.core.multiseed.check_count_aggregation` on top.
:func:`reference_tables` is the paper's per-iteration fold for one seed,
kept as the oracle and the timing baseline.  Besides ``+`` the checker
accepts ``xor``, which satisfies Theorem 1's requirement
``x ⊕ y ≠ x for y ≠ 0`` (count aggregation is sum aggregation of ones, §4).
"""

from __future__ import annotations

import numpy as np

from repro.core.params import SumCheckConfig
from repro.hashing.bitgroups import BucketAssigner
from repro.hashing.families import get_family
from repro.util.rng import (
    derive_seed,
    derive_seed_array,
    splitmix64_array,
    uniform_below_array,
)

_CHUNK_BITS = 52  # float64 mantissa headroom for the exact bincount path
_PACK_CHUNK_RESIDUES = 1 << 15  # bounds pack/unpack scratch to ~1 MB


def _coerce_keys(keys) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.dtype.kind == "i":
        keys = keys.astype(np.int64).view(np.uint64)
    elif keys.dtype.kind == "u":
        keys = keys.astype(np.uint64, copy=False)
    else:
        # A silent astype(np.uint64) would truncate float keys (1.5 and 1.7
        # both become key 1), merging distinct keys and letting the checker
        # accept outputs it must reject — mirror _coerce_values and refuse.
        raise TypeError(
            f"checkers require integer keys, got dtype {keys.dtype} "
            "(float keys would be truncated and could collide)"
        )
    return keys.ravel()


def _coerce_values(values) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.kind not in ("i", "u"):
        raise TypeError(
            f"checkers require integer values, got dtype {values.dtype} "
            "(the paper leaves floating-point aggregation as future work)"
        )
    # int64 input comes back uncopied: no consumer writes into it.
    return values.astype(np.int64, copy=False).ravel()


def _max_magnitude(values: np.ndarray) -> int:
    """Largest ``|v|`` over an int64 array as an exact Python int.

    ``int(np.abs(values).max())`` is wrong at the extreme: ``abs(int64 min)``
    overflows back to ``-2**63``, making the bound negative and silently
    steering callers onto the inexact float64 fast path.  Two scalar
    reductions into Python ints avoid the overflow entirely.
    """
    if values.size == 0:
        return 0
    return max(-int(values.min()), int(values.max()), 0)


def _magnitude_bound(values: np.ndarray) -> int:
    """Upper bound on ``|Σ subset|`` over any subset of ``values``.

    Every quantity the checkers accumulate — a bucket sum, a per-key
    aggregate, any partial sum inside a bincount — is a subset sum of the
    value array, so both ``n · max|v|`` and Σ|v| bound them all.  The
    product costs only the min/max pass, and when it is already below
    2^52 (the float64 exactness guard, ``_CHUNK_BITS``) the callers'
    decision is made and the Σ|v| pass is skipped.  Above it, Σ|v| is
    much tighter (a 10^6-element workload of ±10^6 values has Σ|v| ≈
    5·10^11 < 2^52 but ``n·max`` ≈ 10^12 — the loose bound knocked
    streamed condensations off the exact float64 bincount fast path).
    Either bound picks an exact accumulation path, so tables never
    depend on which one is returned.  The float64 total is inflated by
    the pairwise-summation error margin so the result is always a true
    upper bound; near the int64 extreme, where ``np.abs`` itself would
    overflow, the product is returned.
    """
    m = _max_magnitude(values)
    product = values.size * m
    if product < (1 << _CHUNK_BITS) or m >= (1 << 62):
        return product
    total = float(np.abs(values).sum(dtype=np.float64))
    return int(total * (1.0 + 2.0**-30)) + 1


def _scatter_add_mod(
    table: np.ndarray, buckets: np.ndarray, values: np.ndarray, r: int
) -> None:
    """``table[buckets[i]] += values[i] (mod r)`` exactly, in place.

    Values are pre-reduced mod r (so ``0 <= v < r``).  Chunks are sized
    so a chunk's bucket sum stays below 2^52 and is exact in the float64
    arithmetic of ``np.bincount``, reducing mod r once per chunk
    ("deferred modulo", §7.1).
    """
    if values.size == 0:
        return
    r = int(r)
    chunk = max(1, (1 << _CHUNK_BITS) // max(r, 2))
    d = table.shape[0]
    for start in range(0, values.size, chunk):
        stop = start + chunk
        part = np.bincount(
            buckets[start:stop],
            weights=values[start:stop].astype(np.float64),
            minlength=d,
        ).astype(np.int64)
        table += part
        table %= r


#: ``_BIT_REVERSE[b]`` is byte ``b`` with its bit order reversed.
_BIT_REVERSE = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8
)


def pack_residues(flat: np.ndarray, bits: int) -> bytes:
    """Bit-pack residues into ``flat.size · bits`` bits (LSB first, + padding).

    The sum checker's wire codec: residue ``i``'s bit ``k`` is stream bit
    ``i · bits + k``, and stream bit ``q`` is bit ``7 − q % 8`` of byte
    ``q // 8`` (``np.packbits`` order).  At a byte-aligned width (8, 16,
    32 or 64 bits) that is each residue's little-endian bytes with their
    bit order reversed — one table lookup per byte.  Other widths expand
    residues into bits a chunk at a time, which bounds the scratch; chunks
    hold a multiple of 8 residues, so each chunk's bitstream is
    byte-aligned and the concatenation is identical to packing the whole
    stream at once.
    """
    flat = np.asarray(flat).ravel().astype(np.uint64)
    if bits in (8, 16, 32, 64):
        lanes = flat.astype(f"<u{bits // 8}").view(np.uint8)
        return _BIT_REVERSE.take(lanes).tobytes()
    shifts = np.arange(bits, dtype=np.uint64)
    parts = []
    for start in range(0, flat.size, _PACK_CHUNK_RESIDUES):
        chunk = flat[start : start + _PACK_CHUNK_RESIDUES]
        expanded = ((chunk[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        parts.append(np.packbits(expanded.ravel()).tobytes())
    return b"".join(parts)


def unpack_residues(payload: bytes, total: int, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_residues`: ``total`` residues of ``bits`` bits."""
    payload_bytes = np.frombuffer(payload, dtype=np.uint8)
    if bits in (8, 16, 32, 64):
        width = bits // 8
        lanes = _BIT_REVERSE.take(payload_bytes[: total * width])
        return lanes.view(f"<u{width}").astype(np.int64)
    weights = (np.uint64(1) << np.arange(bits, dtype=np.uint64)).astype(
        np.int64
    )
    out = np.empty(total, dtype=np.int64)
    for start in range(0, total, _PACK_CHUNK_RESIDUES):
        count = min(_PACK_CHUNK_RESIDUES, total - start)
        first_bit = start * bits  # byte-aligned: start is a multiple of 8
        nbits = count * bits
        chunk = payload_bytes[first_bit // 8 : (first_bit + nbits + 7) // 8]
        unpacked = np.unpackbits(chunk, count=nbits)
        out[start : start + count] = (
            unpacked.reshape(count, bits).astype(np.int64) @ weights
        )
    return out


def draw_moduli(config: SumCheckConfig, seeds) -> np.ndarray:
    """Per-iteration moduli ``r ∈ r̂+1 .. 2r̂`` for one or many checker seeds.

    A scalar ``seeds`` yields the ``(iterations,)`` int64 vector of one
    checker; a ``(T,)`` array yields the ``(T, iterations)`` matrix of T
    independent checkers — row ``t`` equals the scalar draw for
    ``seeds[t]``.  Seed derivation and rejection sampling match the
    historical per-iteration scalar loop exactly.
    """
    counters = np.arange(config.iterations, dtype=np.uint64)
    if np.ndim(seeds) == 0:
        mod_seeds = derive_seed_array(
            int(seeds), "sum-checker", "modulus", counters
        )
    else:
        # Fold the string labels once per trial, then branch per iteration.
        prefix = derive_seed_array(seeds, "sum-checker", "modulus")
        mod_seeds = splitmix64_array(prefix[:, None] ^ counters[None, :])
    draws = uniform_below_array(mod_seeds, config.rhat).astype(np.int64)
    return draws + np.int64(config.rhat + 1)


def reference_tables(
    config: SumCheckConfig, seed, keys, values, operator: str = "+"
) -> np.ndarray:
    """The paper's per-iteration fold of Algorithm 1 under one root seed.

    Returns the ``(iterations, d)`` int64 condensed reduction ``cRed``:
    entry ``[j, b]`` is the ⊕-aggregate (mod ``r_j`` for ``+``) of all
    values whose key hashes to bucket ``b`` in iteration ``j``.  One
    :class:`BucketAssigner` hashes the raw keys, and each iteration folds
    its bucket row with one bincount or scatter.
    :class:`~repro.core.multiseed.MultiSeedSumChecker` folds the same
    table for every seed; tests compare the two, and Table 5, the
    accuracy reference loop and the multi-seed benches time this fold as
    the one-instance baseline.
    """
    if operator not in ("+", "xor"):
        raise ValueError(f"unsupported reduce operator {operator!r}")
    keys = _coerce_keys(keys)
    values = _coerce_values(values)
    if keys.size != values.size:
        raise ValueError(
            f"keys and values differ in length: {keys.size} vs {values.size}"
        )
    tables = np.zeros((config.iterations, config.d), dtype=np.int64)
    if keys.size == 0:
        return tables
    buckets = BucketAssigner(
        get_family(config.hash_family),
        config.d,
        config.iterations,
        derive_seed(seed, "sum-checker", "buckets"),
    ).assign(keys)
    if operator == "xor":  # no modulus needed, values live in GF(2)^64
        utables = tables.view(np.uint64)
        for j in range(config.iterations):
            np.bitwise_xor.at(utables[j], buckets[j], values.view(np.uint64))
        return tables
    moduli = draw_moduli(config, seed)
    if _magnitude_bound(values) < (1 << _CHUNK_BITS):
        # Deferred modulo (§7.1): every bucket sum fits the float64
        # mantissa, so accumulate raw values and reduce mod r once.
        weights = values.astype(np.float64)
        for j in range(config.iterations):
            part = np.bincount(buckets[j], weights=weights, minlength=config.d)
            tables[j] = part.astype(np.int64) % int(moduli[j])
    else:
        for j in range(config.iterations):
            r = int(moduli[j])
            _scatter_add_mod(tables[j], buckets[j], values % r, r)
    return tables
