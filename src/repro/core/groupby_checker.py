"""Invasive GroupBy redistribution checker (§6.5.3, Corollary 14).

GroupBy sends every element with key k to PE ``part(k)`` before applying
the group function.  The *redistribution phase* is checkable with the §5
machinery: the received multiset must be a permutation of the sent multiset
(hash-sum fingerprint over whole records), and every received record must
belong at its PE ("sortedness in the order induced by the hash function
assigning keys to PEs" — with a hash partitioner that order has exactly one
comparison per record: ``part(key) == my rank``).  The group function itself
needs a separate local checker, outside the paper's (and this repo's) scope.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.comm import ops
from repro.core import domain
from repro.core.base import CheckResult
from repro.core.permutation_checker import check_permutation_hashsum
from repro.hashing.families import get_family
from repro.util.rng import derive_seed, derive_seed_array, splitmix64_array


def encode_records(keys, values) -> np.ndarray:
    """Fold (key, value) records into single 64-bit fingerprint words.

    The permutation fingerprint hashes set *elements*; records are pairs, so
    we first mix them injectively-up-to-2^-64-collisions into one word
    (SplitMix64 chaining).  Collisions only ever *hide* differences, adding
    ≤ n·2^-64 to the checker's failure probability.
    """
    keys = domain.words(keys)
    values = domain.values(values).view(np.uint64)
    return splitmix64_array(splitmix64_array(keys) ^ values)


def default_partitioner(num_pes: int, seed: int = 0):
    """The framework's key→PE assignment: a fixed hash mod p.

    Returns ``part(keys) -> int64 ranks``, built once per
    ``(num_pes, seed)`` and shared by every later call, so a window loop
    reuses one function instead of building one per window.  ``part``
    hashes into a fresh buffer and reduces it in place: a mask when
    ``num_pes`` is a power of two, else a modulo, with the same result
    as ``hash % num_pes``.  ``num_pes < 1`` raises ``ValueError``.
    """
    num_pes = int(num_pes)
    if num_pes < 1:
        raise ValueError(f"num_pes must be >= 1, got {num_pes}")
    return _partitioner(num_pes, int(seed))


@lru_cache(maxsize=64)
def _partitioner(num_pes: int, seed: int):
    fn = get_family("Mix").instance(derive_seed(seed, "partitioner"))
    p = np.uint64(num_pes)
    mask = np.uint64(num_pes - 1) if num_pes & (num_pes - 1) == 0 else None

    def part(keys) -> np.ndarray:
        keys = domain.words(keys)
        ranks = np.empty(keys.shape, dtype=np.uint64)
        fn.hash_into(keys, ranks, np.empty_like(ranks))
        if mask is not None:
            np.bitwise_and(ranks, mask, out=ranks)
        else:
            np.remainder(ranks, p, out=ranks)
        # Every rank is below num_pes, so the int64 view reads the same.
        return ranks.view(np.int64)

    return part


def records_placed(post_keys, partitioner, comm=None) -> bool:
    """Is every received record at the PE ``partitioner`` assigns it to?

    Seed-free and exact: one comparison per record, one AND-reduction.
    """
    rank = comm.rank if comm is not None else 0
    ok = bool(np.all(partitioner(np.asarray(post_keys)) == rank))
    if comm is not None:
        ok = comm.allreduce(ok, op=ops.LAND)
    return ok


def check_groupby_redistribution(
    pre_kv,
    post_kv,
    partitioner,
    comm=None,
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    seed=0,
) -> CheckResult:
    """Corollary 14: verify the exchange phase of a GroupBy.

    ``pre_kv``/``post_kv`` are the local (keys, values) before and after the
    exchange; ``partitioner(keys) -> ranks`` is the operation's key→PE map.
    Accepts iff (1) post is a permutation of pre (records preserved) and
    (2) every received record is at the PE the partitioner assigns it to.
    ``seed`` is one root seed or an array of distinct roots: records are
    encoded once, the placement test runs once, and
    ``per_seed_accepted[t]`` equals the check under ``seeds[t]`` alone.
    """
    seeds = domain.seeds(seed)
    perm = check_permutation_hashsum(
        encode_records(*pre_kv),
        encode_records(*post_kv),
        iterations=iterations,
        hash_family=hash_family,
        log_h=log_h,
        seed=derive_seed_array(seeds, "groupby-perm"),
        comm=comm,
    )
    placed = records_placed(post_kv[0], partitioner, comm)
    per_seed = [p and placed for p in perm.details["per_seed_accepted"]]
    return CheckResult(
        accepted=all(per_seed),
        checker="groupby-redistribution",
        details={
            "permutation": perm.details | {"accepted": perm.accepted},
            "placement_ok": placed,
            "invasive": True,
            "num_seeds": int(seeds.size),
            "per_seed_accepted": per_seed,
        },
    )
