"""Numba-JIT kernel tier: serial, cache-friendly loops for the hot paths.

Importing this module requires numba (the dispatch layer only does so on
demand).  Kernels are deliberately simple single-threaded loops — the
call sites already block their inputs to cache-sized tiles, so the win
is fusing the per-element work (no large temporaries, one pass), not
threading.  Every kernel is bit-identical to its
:mod:`repro.kernels.numpy_backend` oracle; :func:`self_check` proves
that on small inputs at load time and the dispatch layer refuses the
tier wholesale if any kernel disagrees.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import default_generator
from numba import njit

name = "numba"

# SplitMix64 finalizer constants — must mirror repro.util.rng exactly.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


@njit(cache=False, nogil=True)
def tab_gather(tables, byte_idx, out, tmp):
    """XOR-accumulated stacked-table gather (``tmp`` unused; shared ABI)."""
    num_tables = tables.shape[0]
    num_lanes = tables.shape[1]
    width = byte_idx.shape[1]
    for t in range(num_lanes):
        for i in range(width):
            acc = tables[0, t, byte_idx[0, i]]
            for j in range(1, num_tables):
                acc ^= tables[j, t, byte_idx[j, i]]
            out[t, i] = acc


@njit(cache=False, nogil=True)
def scatter_add_mod(table, buckets, values, r):
    """Running-residue scatter add: one pass, one conditional subtract.

    ``table`` entries and ``values`` are both in ``[0, r)`` so each sum
    is below ``2r`` — the reduction never needs a division, and the
    result equals the numpy oracle's deferred-modulo chunks exactly.
    """
    for i in range(values.shape[0]):
        b = buckets[i]
        s = table[b] + values[i]
        if s >= r:
            s -= r
        table[b] = s


@njit(cache=False, nogil=True)
def weighted_bincount(buckets, weights, minlength):
    out = np.zeros(minlength, dtype=np.float64)
    for i in range(buckets.shape[0]):
        out[buckets[i]] += weights[i]
    return out


@njit(cache=False, nogil=True)
def mix_lanes(seeds, keys, mask, out):
    for t in range(seeds.shape[0]):
        s = seeds[t]
        for i in range(keys.shape[0]):
            x = keys[i] ^ s
            x = x + _GAMMA
            x ^= x >> _S30
            x = x * _M1
            x ^= x >> _S27
            x = x * _M2
            x ^= x >> _S31
            out[t, i] = x & mask


@njit(cache=False, nogil=True)
def mshift_lanes(multipliers, keys, shift, out):
    for t in range(multipliers.shape[0]):
        a = multipliers[t]
        for i in range(keys.shape[0]):
            out[t, i] = (keys[i] * a) >> shift


def self_check(oracle) -> None:
    """Compile every kernel on small inputs and compare with ``oracle``.

    Raises on any mismatch, which makes the dispatch layer disable the
    whole tier — a silently wrong kernel could flip a checker verdict,
    which is the one failure mode this repository exists to prevent.
    """
    rng = default_generator(0xC0FFEE)
    keys = rng.integers(0, 2**64, 67, dtype=np.uint64)
    seeds = rng.integers(0, 2**64, 5, dtype=np.uint64)

    tables = rng.integers(0, 2**64, (4, 5, 256), dtype=np.uint64)
    byte_idx = rng.integers(0, 256, (4, 67)).astype(np.intp)
    got = np.empty((5, 67), dtype=np.uint64)
    want = np.empty((5, 67), dtype=np.uint64)
    tmp = np.empty((5, 67), dtype=np.uint64)
    tab_gather(tables, byte_idx, got, tmp)
    oracle.tab_gather(tables, byte_idx, want, tmp)
    if not np.array_equal(got, want):
        raise RuntimeError("numba tab_gather disagrees with numpy oracle")

    r = 101
    buckets = rng.integers(0, 16, 67).astype(np.intp)
    values = rng.integers(0, r, 67, dtype=np.int64)
    got_t = rng.integers(0, r, 16, dtype=np.int64)
    want_t = got_t.copy()
    scatter_add_mod(got_t, buckets, values, r)
    oracle.scatter_add_mod(want_t, buckets, values, r)
    if not np.array_equal(got_t, want_t):
        raise RuntimeError("numba scatter_add_mod disagrees with numpy oracle")

    weights = rng.integers(-1000, 1000, 67).astype(np.float64)
    if not np.array_equal(
        weighted_bincount(buckets, weights, 16),
        oracle.weighted_bincount(buckets, weights, 16),
    ):
        raise RuntimeError(
            "numba weighted_bincount disagrees with numpy oracle"
        )

    for mask in (np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64((1 << 17) - 1)):
        got = np.empty((5, 67), dtype=np.uint64)
        want = np.empty((5, 67), dtype=np.uint64)
        mix_lanes(seeds, keys, mask, got)
        oracle.mix_lanes(seeds, keys, mask, want)
        if not np.array_equal(got, want):
            raise RuntimeError("numba mix_lanes disagrees with numpy oracle")

    mult = seeds | np.uint64(1)
    got = np.empty((5, 67), dtype=np.uint64)
    want = np.empty((5, 67), dtype=np.uint64)
    mshift_lanes(mult, keys, np.uint64(32), got)
    oracle.mshift_lanes(mult, keys, np.uint64(32), want)
    if not np.array_equal(got, want):
        raise RuntimeError("numba mshift_lanes disagrees with numpy oracle")
