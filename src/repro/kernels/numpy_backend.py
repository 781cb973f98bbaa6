"""Pure-numpy kernel tier: the portable oracle every other tier must match.

These are the exact vectorized loops the call sites used before the
kernel dispatch existed, factored behind the shared signature set (see
:data:`repro.kernels.dispatch.KERNEL_NAMES`).  The numba tier is
validated against this module at load time, and the parity test-suite
re-validates every kernel pair across dtypes and edge shapes.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import splitmix64_array

name = "numpy"


def tab_gather(
    tables: np.ndarray, byte_idx: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> None:
    """XOR-accumulate seed-major table gathers: ``out[t,i] = ⊕_j T_j[t, b_ji]``.

    ``tables`` is ``(num_tables, T, 256)`` uint64, ``byte_idx`` is
    ``(num_tables, w)`` intp with entries < 256, ``out``/``tmp`` are
    ``(T, w)`` uint64.  ``mode="clip"`` skips numpy's per-element bounds
    check without changing results (indices are bytes by construction).
    """
    np.take(tables[0], byte_idx[0], axis=1, out=tmp, mode="clip")
    out[:] = tmp
    for j in range(1, tables.shape[0]):
        np.take(tables[j], byte_idx[j], axis=1, out=tmp, mode="clip")
        out ^= tmp


def scatter_add_mod(
    table: np.ndarray, buckets: np.ndarray, values: np.ndarray, r: int
) -> None:
    """``table[buckets[i]] += values[i] (mod r)`` exactly, in place.

    Values are pre-reduced mod r (``0 <= v < r``); chunks are sized so a
    chunk's bucket sum stays below 2^52 and is therefore exact in the
    float64 arithmetic of ``np.bincount`` — the deferred-modulo scheme of
    §7.1 (one reduction mod r per chunk, not per element).
    """
    if values.size == 0:
        return
    chunk = max(1, (1 << 52) // max(int(r), 2))
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


def weighted_bincount(
    buckets: np.ndarray, weights: np.ndarray, minlength: int
) -> np.ndarray:
    """Float64 weighted bincount (exact while partial sums stay < 2^52)."""
    return np.bincount(buckets, weights=weights, minlength=minlength)


def mix_lanes(
    seeds: np.ndarray, keys: np.ndarray, mask: np.uint64, out: np.ndarray
) -> None:
    """Keyed-SplitMix lane block: ``out[t,i] = mix(keys[i] ^ seeds[t]) & mask``."""
    mixed = splitmix64_array(keys[None, :] ^ seeds[:, None])
    np.bitwise_and(mixed, mask, out=out)


def mshift_lanes(
    multipliers: np.ndarray,
    keys: np.ndarray,
    shift: np.uint64,
    out: np.ndarray,
) -> None:
    """Multiply-shift lane block: ``out[t,i] = (keys[i]·a_t mod 2^64) >> shift``."""
    with np.errstate(over="ignore"):
        product = keys[None, :] * multipliers[:, None]
    np.right_shift(product, shift, out=out)
