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
several iterations at once.  The plan is cached and shared by both fold
paths: :func:`iter_superbucket_blocks` serves ``T > 1`` seed lanes through
the families' lane hashers, and
:class:`~repro.core.multiseed.MultiSeedSumChecker` folds a single seed
(``T = 1``) straight from the seeded hash function.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.hashing.families import (
    AffineLaneHasher,
    HashFamily,
    hash_lanes,
    seeds_per_block,
)
from repro.util.bits import ceil_log2, is_power_of_two
from repro.util.rng import derive_seed, derive_seed_array, splitmix64_array


def split_bit_groups(
    hashes: np.ndarray, group_bits: int, num_groups: int, total_bits: int
) -> list[np.ndarray]:
    """Split each hash value into ``num_groups`` groups of ``group_bits`` bits.

    Groups are taken from the least-significant end.  Raises if the requested
    groups do not fit into ``total_bits``.
    """
    if group_bits <= 0:
        raise ValueError(f"group_bits must be positive, got {group_bits}")
    if num_groups * group_bits > total_bits:
        raise ValueError(
            f"{num_groups} groups of {group_bits} bits do not fit in "
            f"{total_bits}-bit hash values"
        )
    hashes = np.asarray(hashes, dtype=np.uint64)
    group_mask = np.uint64((1 << group_bits) - 1)
    return [
        (hashes >> np.uint64(i * group_bits)) & group_mask
        for i in range(num_groups)
    ]


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
        if self.bit_parallel:
            self.groups_per_eval = max(1, family.bits // self.group_bits)
            num_evals = -(-iterations // self.groups_per_eval)  # ceil division
        else:
            self.groups_per_eval = 1
            num_evals = iterations
        self._functions = [
            family.instance(derive_seed(seed, "bucket", j)) for j in range(num_evals)
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

    def assign_one(self, key: int) -> list[int]:
        """Scalar version of :meth:`assign` for a single key."""
        return [int(b) for b in self.assign(np.array([key], dtype=np.uint64))[:, 0]]

    def assign_batch(
        self, seeds: np.ndarray, keys: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Bucket indices under many assigner seeds at once.

        ``keys[i]`` is bucketed by the assigner seeded ``seeds[owner[i]]``
        (this assigner's own seed is not used); the result row ``j`` equals
        ``BucketAssigner(family, d, iterations, seeds[owner[i]]).assign``
        elementwise.  This powers the batched accuracy engine, where every
        trial carries its own fresh bucket hashes.
        """
        return assign_buckets_batch(
            self.family, self.d, self.iterations, seeds, keys, owner
        )


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
    derives these once and hands them to :func:`iter_bucket_blocks` /
    :func:`iter_superbucket_blocks` as ``eval_seeds``, so no fold
    re-derives them.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    counters = np.arange(
        _num_evaluations(family, d, iterations), dtype=np.uint64
    )
    # Fold the "bucket" label once per root; evaluations branch on their
    # counter (identical to derive_seed(seed, "bucket", e)).
    prefix = derive_seed_array(seeds, "bucket")
    return splitmix64_array(counters[:, None] ^ prefix[None, :])


def _checked_eval_seeds(family, d, iterations, seeds, eval_seeds):
    if eval_seeds is None:
        return evaluation_seeds(family, d, iterations, seeds)
    shape = (_num_evaluations(family, d, iterations), seeds.size)
    if eval_seeds.shape != shape:
        raise ValueError(
            f"eval_seeds must have shape {shape}, got {eval_seeds.shape}"
        )
    return eval_seeds


def iter_bucket_blocks(
    family: HashFamily,
    d: int,
    iterations: int,
    seeds: np.ndarray,
    keys: np.ndarray,
    chunk_elements: int = 1 << 20,
    *,
    eval_seeds: np.ndarray | None = None,
):
    """Bucket every key under every seed, yielded in bounded seed blocks.

    Unlike :func:`assign_buckets_batch` (one seed per key via ``owner``),
    this is the *multi-seed* access pattern: all ``len(seeds) × iterations``
    lanes over the same key array.  The full result would be a
    ``(len(seeds), iterations, len(keys))`` tensor — far too large to
    materialise for paper-scale inputs — so blocks of
    ``max(1, chunk_elements // len(keys))`` seeds are evaluated per batched
    hash pass and yielded as ``(start, count, buckets)`` with ``buckets``
    of shape ``(iterations, count · len(keys))``; column ``c·len(keys)+i``
    is seed ``seeds[start+c]`` over ``keys[i]``.

    ``eval_seeds`` are the seeds' :func:`evaluation_seeds`, when the
    caller already derived them; otherwise they are derived here.

    Every registered family takes a shared-base fast path through its
    :class:`~repro.hashing.families.LaneHasher` (built once per call, via
    :meth:`~repro.hashing.families.HashFamily.multiseed_hasher`) — the
    fixed-keys base pass (CRC's seed-0 hash, tabulation's byte extraction)
    never repeats per seed — bit-identical to the per-seed kernels.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    eval_seeds = _checked_eval_seeds(family, d, iterations, seeds, eval_seeds)
    k = keys.size
    per_block = seeds_per_block(chunk_elements, k)
    # The base pass over the keys (CRC's seed-0 table-lookup sweep,
    # tabulation's byte-index extraction) happens exactly once, here; each
    # seed block below only evaluates lanes against it.  Affine (CRC)
    # hashers go further for power-of-two d: bit-group extraction commutes
    # with the seed XOR — ((h⊕c) >> g) & m == ((h >> g) & m) ⊕ ((c >> g) & m)
    # — so each lane is ONE vectorized XOR of a per-lane constant into the
    # base groups, never touching the hashes again.  Families without a
    # lane hasher (custom registrations) hash tiled key blocks per seed.
    hasher = family.multiseed_hasher(keys)
    affine = isinstance(hasher, AffineLaneHasher)
    # Stacked (tabulation) and broadcast (Mix/MShift) hashers expose a
    # fused evaluation+extraction kernel: bit groups (or the mod-d
    # residue) come straight out of the cache-resident lane block, so the
    # full uint64 lane matrix is never materialized and never re-streamed
    # once per group.
    fused = getattr(hasher, "bucket_lanes", None)
    if is_power_of_two(d):
        group_bits = ceil_log2(d)
        groups_per_eval = max(1, family.bits // group_bits)
        mask = np.uint64(d - 1)
        base_groups = None
        if affine:
            base_groups = [
                ((hasher.base >> np.uint64(g * group_bits)) & mask).astype(
                    np.intp
                )
                for g in range(min(groups_per_eval, iterations))
            ]
    else:
        group_bits = 0
        groups_per_eval = 1
    for start in range(0, seeds.size, per_block):
        count = min(per_block, seeds.size - start)
        buckets = np.empty((iterations, count * k), dtype=np.intp)
        it = 0
        for e in range(eval_seeds.shape[0]):
            fn_seeds = eval_seeds[e, start : start + count]
            if affine and group_bits:
                consts = hasher.constants(fn_seeds)  # (count,) uint64
                for g in range(groups_per_eval):
                    if it >= iterations:
                        break
                    lane_consts = (
                        (consts >> np.uint64(g * group_bits)) & mask
                    ).astype(np.intp)
                    np.bitwise_xor(
                        base_groups[g][None, :],
                        lane_consts[:, None],
                        out=buckets[it].reshape(count, k),
                    )
                    it += 1
                continue
            if fused is not None:
                groups = (
                    min(groups_per_eval, iterations - it) if group_bits else 1
                )
                rows = buckets[it : it + groups].reshape(groups, count, k)
                if group_bits:
                    fused(
                        fn_seeds,
                        [(g * group_bits, group_bits) for g in range(groups)],
                        rows,
                    )
                else:
                    fused(fn_seeds, [], rows, modulus=d)
                it += groups
                continue
            if hasher is not None:
                h = hasher.lanes(fn_seeds).reshape(count * k)
            else:
                h = hash_lanes(family, fn_seeds, keys).reshape(count * k)
            if group_bits:
                for g in range(groups_per_eval):
                    if it >= iterations:
                        break
                    buckets[it] = (
                        (h >> np.uint64(g * group_bits)) & mask
                    ).astype(np.intp)
                    it += 1
            else:
                buckets[it] = (h % np.uint64(d)).astype(np.intp)
                it += 1
        yield start, count, buckets


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


def iter_superbucket_blocks(
    family: HashFamily,
    d: int,
    iterations: int,
    seeds: np.ndarray,
    keys: np.ndarray,
    chunk_elements: int = 1 << 20,
    *,
    eval_seeds: np.ndarray | None = None,
):
    """Bucket indices combined into the super-groups of
    :func:`superbucket_plan`, for many seeds at once.

    Power-of-two ``d`` only.  Where :func:`iter_bucket_blocks` yields one
    ``0..d-1`` row per iteration, this yields one packed index per
    super-group and seed lane.  This is the ``T > 1`` access pattern; a
    one-seed fold reads the plan directly
    (:meth:`repro.core.multiseed.MultiSeedSumChecker.local_tables`).

    Each hash evaluation makes **one** base pass over the keys, whatever
    the widths of its super-groups (the CRC base hash, one tabulation
    gather, one broadcast mix): all of its super-groups are extracted as
    ``(bit offset, width)`` fields of that pass.  ``eval_seeds`` are the
    seeds' :func:`evaluation_seeds`, when the caller already derived
    them; otherwise they are derived here.

    Yields ``(start, count, supers)`` per seed block, where ``supers``
    is a list of ``(j0, m, idx)``: iterations ``j0..j0+m-1`` packed into
    ``idx`` of shape ``(count, len(keys))``, dtype intp.  Bit-identical
    to packing the corresponding :func:`iter_bucket_blocks` rows.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    if not is_power_of_two(d):
        raise ValueError(f"super-group blocks need power-of-two d, got {d}")
    eval_seeds = _checked_eval_seeds(family, d, iterations, seeds, eval_seeds)
    k = keys.size
    plan = superbucket_plan(family.bits, d, iterations, k)
    fields = [
        [(shift, width) for _, _, shift, width in ev.groups] for ev in plan
    ]
    hasher = family.multiseed_hasher(keys)
    affine = isinstance(hasher, AffineLaneHasher)
    fused = None if affine else getattr(hasher, "bucket_lanes", None)
    per_block = seeds_per_block(chunk_elements, k)
    base_cache: dict[tuple[int, int], np.ndarray] = {}
    if affine:
        # Affine structure survives the packing: the packed index of lane s
        # is base_super XOR (packed constant bits of c(s)) — extract the
        # base's super fields once, outside the seed-block loop.
        for eval_fields in fields:
            for shift, width in eval_fields:
                if (shift, width) not in base_cache:
                    smask = np.uint64((1 << width) - 1)
                    base_cache[(shift, width)] = (
                        (hasher.base >> np.uint64(shift)) & smask
                    ).astype(np.intp)
    for start in range(0, seeds.size, per_block):
        count = min(per_block, seeds.size - start)
        out: list[tuple[int, int, np.ndarray]] = []
        for e, ev in enumerate(plan):
            fn_seeds = eval_seeds[e, start : start + count]
            idxs = np.empty((len(ev.groups), count, k), dtype=np.intp)
            if affine:
                consts = hasher.constants(fn_seeds)
                for (shift, width), idx in zip(fields[e], idxs):
                    smask = np.uint64((1 << width) - 1)
                    lane_c = ((consts >> np.uint64(shift)) & smask).astype(
                        np.intp
                    )
                    np.bitwise_xor(
                        base_cache[(shift, width)][None, :],
                        lane_c[:, None],
                        out=idx,
                    )
            elif fused is not None:
                fused(fn_seeds, fields[e], idxs)
            else:
                h = (
                    hasher.lanes(fn_seeds)
                    if hasher is not None
                    else hash_lanes(family, fn_seeds, keys)
                )
                for (shift, width), idx in zip(fields[e], idxs):
                    smask = np.uint64((1 << width) - 1)
                    idx[:] = ((h >> np.uint64(shift)) & smask).astype(np.intp)
            for (j0, m, _, _), idx in zip(ev.groups, idxs):
                out.append((j0, m, idx))
        yield start, count, out


def assign_buckets_batch(
    family: HashFamily,
    d: int,
    iterations: int,
    seeds: np.ndarray,
    keys: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """Module-level form of :meth:`BucketAssigner.assign_batch`.

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
