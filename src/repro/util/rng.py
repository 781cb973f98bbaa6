"""Deterministic, hierarchical randomness based on SplitMix64.

Why not ``random`` / ``numpy.random`` everywhere?  The checkers need *many*
independent hash functions and moduli — one per checker iteration per trial —
and the accuracy experiments run hundreds of thousands of trials.  A
counter-based construction lets us derive any stream member directly (and
vectorized) without carrying generator state around, and it makes every
experiment bit-for-bit reproducible from a single root seed.

SplitMix64 is the finalizer from Steele, Lea & Flood (OOPSLA'14); it is the
standard seeding mixer (used e.g. to seed xoshiro generators) and passes
BigCrush when used as a counter-based generator.
"""

from __future__ import annotations

import numpy as np

#: Golden-ratio increment used by SplitMix64.
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: int) -> int:
    """Scalar SplitMix64 finalizer: a strong 64-bit mixing permutation."""
    x = (x + SPLITMIX64_GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * _M1) & _MASK64
    x ^= x >> 27
    x = (x * _M2) & _MASK64
    x ^= x >> 31
    return x


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 over a uint64 array (returns a new array)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(SPLITMIX64_GAMMA)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_M1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_M2)
        x ^= x >> np.uint64(31)
    return x


def derive_seed(root: int, *path: int | str) -> int:
    """Derive a child seed from ``root`` and a path of labels.

    Labels may be ints or short strings; strings are folded bytewise.  The
    derivation is a chain of SplitMix64 steps, so distinct paths give
    (computationally) independent seeds.  Used throughout the repo:
    ``derive_seed(seed, "sum-checker", iteration, "modulus")`` etc.
    """
    state = splitmix64(root & _MASK64)
    for label in path:
        if isinstance(label, str):
            for byte in label.encode("utf-8"):
                state = splitmix64(state ^ byte)
        else:
            state = splitmix64(state ^ (int(label) & _MASK64))
    return state


#: Root-array size up to which :func:`derive_seed_array` folds the leading
#: int/str labels per root with Python ints.  Each vectorized SplitMix64
#: step costs ~10 µs of numpy dispatch however small the array, and a
#: string label takes one step per byte, so a settle's 1–8 seed roots
#: derive ~15× faster scalar; past ~16 roots the per-root Python loop
#: loses to the vectorized pass (the trial engine's seed streams).
_SCALAR_FOLD_MAX_ROOTS = 16


def derive_seed_array(roots, *path) -> np.ndarray:
    """Vectorized :func:`derive_seed`: elementwise over an array of roots.

    ``roots`` may be an array or a scalar; ``path`` labels may be ints,
    strings, or uint64 arrays (arrays broadcast against the running state,
    so a scalar root plus one array label yields a whole seed stream).  For
    every element the result equals the scalar ``derive_seed`` on the same
    root/labels — this is what lets the batched trial engine reproduce the
    reference path's seed tree exactly.
    """
    if isinstance(roots, (int, np.integer)):
        roots = np.uint64(int(roots) & _MASK64)
    roots = np.asarray(roots, dtype=np.uint64)
    if roots.size <= _SCALAR_FOLD_MAX_ROOTS:
        lead = 0
        while lead < len(path) and isinstance(path[lead], (str, int, np.integer)):
            lead += 1
        state = np.array(
            [derive_seed(r, *path[:lead]) for r in roots.ravel().tolist()],
            dtype=np.uint64,
        ).reshape(roots.shape)
        path = path[lead:]
    else:
        state = splitmix64_array(roots)
    for label in path:
        if isinstance(label, str):
            for byte in label.encode("utf-8"):
                state = splitmix64_array(state ^ np.uint64(byte))
        elif isinstance(label, (int, np.integer)):
            state = splitmix64_array(state ^ np.uint64(int(label) & _MASK64))
        else:
            state = splitmix64_array(state ^ np.asarray(label, dtype=np.uint64))
    return state


def uniform_below(seed: int, bound: int) -> int:
    """Deterministic uniform integer in ``0..bound-1`` from a seed.

    Uses rejection sampling over SplitMix64 outputs so the result is exactly
    uniform (no modulo bias) for any ``bound`` up to 2**64.
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if bound == 1:
        return 0
    # Largest multiple of `bound` that fits in 64 bits; reject above it.
    limit = (1 << 64) - ((1 << 64) % bound)
    state = seed
    while True:
        state = splitmix64(state)
        if state < limit:
            return state % bound


def uniform_below_array(seeds: np.ndarray, bound: int) -> np.ndarray:
    """Vectorized :func:`uniform_below`: one draw per seed, elementwise equal
    to the scalar rejection-sampling chain."""
    bound = int(bound)
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    if bound == 1:
        return np.zeros(seeds.shape, dtype=np.uint64)
    limit = (1 << 64) - ((1 << 64) % bound)
    states = splitmix64_array(seeds)
    # limit == 2^64 iff bound divides 2^64 evenly — only then is every
    # state acceptable and the rejection loop skippable.
    if limit < (1 << 64):
        lim = np.uint64(limit)
        while True:
            reject = states >= lim
            if not reject.any():
                break
            states[reject] = splitmix64_array(states[reject])
    return states % np.uint64(bound)


def default_generator(seed: int) -> np.random.Generator:
    """The one sanctioned bridge to :class:`numpy.random.Generator`.

    Workload synthesis and fault injection want numpy's distribution
    machinery (``zipf``, ``random``, shuffles) rather than raw SplitMix64
    draws; they get it here, always seeded, so every consumer stays
    replayable from an integer seed and the ``determinism`` lint rule has
    exactly one allowed constructor to whitelist (this module).
    """
    return np.random.default_rng(int(seed) & _MASK64)


class SplitMixStream:
    """Counter-based per-trial randomness with a ``Generator``-like surface.

    Draw ``k`` is ``uniform_below(splitmix64(seed) ^ k, bound)`` — every draw
    is addressed by its counter alone, so a batched engine can reproduce any
    trial's draw sequence without replaying generator state.  Only the
    ``integers(bound)`` subset of the :class:`numpy.random.Generator` API is
    provided; that is all the fault manipulators consume.
    """

    def __init__(self, seed: int):
        self._base = splitmix64(int(seed) & _MASK64)
        self._counter = 0

    def integers(self, bound) -> int:
        """Uniform draw in ``0..bound-1``; advances the counter by one."""
        value = uniform_below(self._base ^ self._counter, int(bound))
        self._counter += 1
        return value


class SplitMixStreamBatch:
    """One :class:`SplitMixStream` per trial, advanced in lock-step.

    ``integers(bound, index=trials)`` draws once for each listed trial and
    advances only those trials' counters, so trials that redraw (rejected
    faults) consume exactly the draws their scalar stream would.
    """

    def __init__(self, seeds: np.ndarray):
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        self._base = splitmix64_array(seeds)
        self._counter = np.zeros(seeds.size, dtype=np.uint64)
        self.size = seeds.size

    def integers(self, bound, index=None) -> np.ndarray:
        """Per-trial uniform draws in ``0..bound-1`` (uint64 array).

        ``index`` selects the trials that draw (default: all); their
        counters advance by one while the rest stay put.
        """
        if index is None:
            seeds = self._base ^ self._counter
            self._counter += np.uint64(1)
        else:
            seeds = self._base[index] ^ self._counter[index]
            self._counter[index] += np.uint64(1)
        return uniform_below_array(seeds, bound)
