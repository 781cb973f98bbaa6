"""Bit-parallel hashing: one hash evaluation, many iteration-local values.

Paper §4 "Optimizations" / §7.1: *"instead of computing eight four-bit hash
values, we compute one 32-bit hash value and partition it into eight groups
of four bits, which we treat as the output of the hash functions.  This is
implemented in a generic manner to satisfy any partition of a hash value
into groups."*

:class:`BucketAssigner` produces, for every checker iteration, the bucket
index in ``0..d-1`` of every key.  When ``d`` is a power of two it packs as
many ⌈log2 d⌉-bit groups as fit into one hash value and evaluates additional
seeded instances only when more iterations are requested than fit — exactly
the paper's scheme.  For general ``d`` (the Table 2 optimizer frequently
yields non-powers of two, e.g. d = 37) it falls back to one evaluation per
iteration reduced ``mod d``.

For the condensed-table fold, :func:`superbucket_plan` packs adjacent
bit-groups of one evaluation into *super-groups*, so one bincount counts
several iterations at once.  :func:`~repro.core.multiseed.seed_bucket_rows`
reads one seed's rows (or super-group fields) of a key array over the
family's prepared form of it, and
:class:`~repro.core.multiseed.MultiSeedSumChecker` runs it once per seed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.hashing.families import HashFamily
from repro.util.bits import ceil_log2, is_power_of_two
from repro.util.rng import derive_seed, derive_seed_array, splitmix64_array


class BucketAssigner:
    """Maps keys to ``iterations`` independent bucket indices in ``0..d-1``.

    Parameters
    ----------
    family:
        Hash family to draw instances from.
    d:
        Number of buckets (paper's condensed key-space size).
    iterations:
        Number of independent checker iterations.
    seed:
        Root seed; instance ``j`` uses ``derive_seed(seed, "bucket", j)``.
    """

    def __init__(self, family: HashFamily, d: int, iterations: int, seed: int):
        if d < 2:
            raise ValueError(f"need at least 2 buckets, got d={d}")
        if iterations < 1:
            raise ValueError(f"need at least 1 iteration, got {iterations}")
        self.family = family
        self.d = d
        self.iterations = iterations
        self.seed = seed
        self.bit_parallel = is_power_of_two(d)
        self.group_bits = ceil_log2(d) if self.bit_parallel else 0
        self.groups_per_eval = (
            max(1, family.bits // self.group_bits) if self.bit_parallel else 1
        )
        self._functions = [
            family.instance(derive_seed(seed, "bucket", j))
            for j in range(_num_evaluations(family, d, iterations))
        ]

    @property
    def num_hash_evaluations(self) -> int:
        """How many hash-function passes one call to :meth:`assign` makes."""
        return len(self._functions)

    def assign(self, keys: np.ndarray) -> np.ndarray:
        """Bucket indices, shape ``(iterations, len(keys))``, dtype intp."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((self.iterations, keys.size), dtype=np.intp)
        if self.bit_parallel:
            mask = np.uint64(self.d - 1)
            it = 0
            for fn in self._functions:
                h = fn.hash_array(keys)
                for g in range(self.groups_per_eval):
                    if it >= self.iterations:
                        break
                    out[it] = (
                        (h >> np.uint64(g * self.group_bits)) & mask
                    ).astype(np.intp)
                    it += 1
        else:
            for it, fn in enumerate(self._functions):
                h = fn.hash_array(keys)
                out[it] = (h % np.uint64(self.d)).astype(np.intp)
        return out


def _num_evaluations(family: HashFamily, d: int, iterations: int) -> int:
    """Hash evaluations one seed spends on ``iterations`` bucket rows."""
    if not is_power_of_two(d):
        return iterations
    groups_per_eval = max(1, family.bits // ceil_log2(d))
    return -(-iterations // groups_per_eval)


def evaluation_seeds(
    family: HashFamily, d: int, iterations: int, seeds: np.ndarray
) -> np.ndarray:
    """Per-evaluation hash seeds of every bucket-hash root in ``seeds``.

    Shape ``(num_evaluations, len(seeds))``: entry ``[e, t]`` is
    ``derive_seed(seeds[t], "bucket", e)``, the seed of evaluation ``e``
    of the :class:`BucketAssigner` rooted at ``seeds[t]``.  A checker
    derives these once, so no fold re-derives them.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    counters = np.arange(
        _num_evaluations(family, d, iterations), dtype=np.uint64
    )
    # Fold the "bucket" label once per root; evaluations branch on their
    # counter (identical to derive_seed(seed, "bucket", e)).
    prefix = derive_seed_array(seeds, "bucket")
    return splitmix64_array(counters[:, None] ^ prefix[None, :])


#: Widest super-group (in bits) the condensed-table fast path combines
#: into one bincount: 2^16 bins × 8 B = 512 KB of float64 counts, still
#: cache-friendly, while collapsing up to ``16 // group_bits`` per-group
#: bincount passes over the keys into one.
_MAX_SUPER_BITS = 16


class EvaluationPlan(NamedTuple):
    """The super-groups one hash evaluation carries.

    ``groups[i] = (j0, m, shift, width)``: iterations ``j0..j0+m-1`` are
    the ``width``-bit field at bit ``shift`` of the hash value.
    ``shifts`` and ``masks`` are the same fields as read-only ``(len(groups),
    1)`` uint64 columns, so one broadcast shift and one broadcast mask
    extract them all.
    """

    groups: tuple[tuple[int, int, int, int], ...]
    shifts: np.ndarray
    masks: np.ndarray


def superbucket_plan(
    hash_bits: int, d: int, iterations: int, num_keys: int
) -> tuple[EvaluationPlan, ...]:
    """Which iterations each hash evaluation packs into which super-group.

    Power-of-two ``d`` only.  Up to ``m = 16 // log2(d)`` **adjacent**
    bit-groups of one hash evaluation form a super-group, a single index
    in ``0..d**m - 1`` (group ``j0 + q`` is bits ``q*log2(d)..`` of it).
    A consumer then bucket-counts *m* iterations with **one** pass over
    the keys and reads each iteration's counts off as a marginal of the
    ``(d,)*m`` cube — the §7.1 bit-parallel idea applied to the
    accumulation itself, not just the hashing.

    The width is also capped at the key count: ``m`` is the largest with
    ``d**m <= num_keys`` (at least 1).  A consumer's bincount and cube
    marginals cost O(d**m) on top of the O(num_keys) pass, so once the
    bins outnumber the keys the empty bins cost more than the merged
    passes save — a 2 000-key window would otherwise count into 65 536
    bins per super-group.  Inputs of ``2**16`` keys or more keep the full
    width.

    Returns one :class:`EvaluationPlan` per hash evaluation, in
    :func:`evaluation_seeds` order; a super-group of ``m`` iterations is a
    ``width = m·log2(d)``-bit field.  ``hash_bits`` is the family's output
    width.  Cached per width cap, so a window loop plans once.
    """
    if not is_power_of_two(d):
        raise ValueError(f"super-group plans need power-of-two d, got {d}")
    # floor(log2 k) bits index at most k bins; k = 0 or 1 gives 0 → m = 1.
    key_bits = max(num_keys, 1).bit_length() - 1
    return _superbucket_plan(
        hash_bits, d, iterations, min(_MAX_SUPER_BITS, key_bits)
    )


@lru_cache(maxsize=256)
def _superbucket_plan(hash_bits, d, iterations, super_bits):
    group_bits = ceil_log2(d)
    groups_per_eval = max(1, hash_bits // group_bits)
    m_max = max(1, super_bits // group_bits)
    plan = []
    it = 0
    while it < iterations:
        g = 0
        groups = []
        while g < groups_per_eval and it < iterations:
            m = min(m_max, groups_per_eval - g, iterations - it)
            groups.append((it, m, g * group_bits, m * group_bits))
            g += m
            it += m
        shifts = np.array([[shift] for _, _, shift, _ in groups], np.uint64)
        masks = np.array([[(1 << w) - 1] for *_, w in groups], np.uint64)
        shifts.flags.writeable = masks.flags.writeable = False
        plan.append(EvaluationPlan(tuple(groups), shifts, masks))
    return tuple(plan)


def assign_buckets_batch(
    family: HashFamily,
    d: int,
    iterations: int,
    seeds: np.ndarray,
    keys: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """Bucket indices under many assigner seeds at once.

    ``keys[i]`` is bucketed by the assigner seeded ``seeds[owner[i]]``:
    the result row ``j`` equals ``BucketAssigner(family, d, iterations,
    seeds[owner[i]]).assign`` elementwise.  This powers the batched
    accuracy engine, where every trial carries its own fresh bucket
    hashes.

    Mirrors :meth:`BucketAssigner.assign` exactly — same bit-group packing
    for power-of-two ``d``, same ``mod d`` fallback otherwise — but draws
    the per-evaluation hash functions from ``seeds[owner[i]]`` via the
    family's batched kernel instead of constructing instances.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    keys = np.asarray(keys, dtype=np.uint64)
    owner = np.asarray(owner, dtype=np.intp)
    out = np.empty((iterations, keys.size), dtype=np.intp)
    eval_seeds = evaluation_seeds(family, d, iterations, seeds)
    if is_power_of_two(d):
        group_bits = ceil_log2(d)
        groups_per_eval = max(1, family.bits // group_bits)
        mask = np.uint64(d - 1)
        it = 0
        for fn_seeds in eval_seeds:
            h = family.hash_array_batch(fn_seeds, owner, keys)
            for g in range(groups_per_eval):
                if it >= iterations:
                    break
                out[it] = (
                    (h >> np.uint64(g * group_bits)) & mask
                ).astype(np.intp)
                it += 1
    else:
        for it, fn_seeds in enumerate(eval_seeds):
            h = family.hash_array_batch(fn_seeds, owner, keys)
            out[it] = (h % np.uint64(d)).astype(np.intp)
    return out
