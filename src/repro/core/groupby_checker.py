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

import numpy as np

from repro.comm import ops
from repro.core.base import CheckResult
from repro.core.permutation_checker import check_permutation_hashsum
from repro.core.sum_checker import _coerce_keys, _coerce_values
from repro.hashing.families import get_family
from repro.util.rng import derive_seed, derive_seed_array, splitmix64_array


def encode_records(keys, values) -> np.ndarray:
    """Fold (key, value) records into single 64-bit fingerprint words.

    The permutation fingerprint hashes set *elements*; records are pairs, so
    we first mix them injectively-up-to-2^-64-collisions into one word
    (SplitMix64 chaining).  Collisions only ever *hide* differences, adding
    ≤ n·2^-64 to the checker's failure probability.
    """
    keys = _coerce_keys(keys)
    values = _coerce_values(values).view(np.uint64)
    return splitmix64_array(splitmix64_array(keys) ^ values)


def default_partitioner(num_pes: int, seed: int = 0):
    """The framework's key→PE assignment: a fixed hash mod p."""
    fn = get_family("Mix").instance(derive_seed(seed, "partitioner"))

    def part(keys) -> np.ndarray:
        keys = _coerce_keys(keys)
        return (fn.hash_array(keys) % np.uint64(num_pes)).astype(np.int64)

    return part


def check_groupby_redistribution(
    pre_kv,
    post_kv,
    partitioner,
    comm=None,
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    seed: int = 0,
) -> CheckResult:
    """Corollary 14: verify the exchange phase of a GroupBy.

    ``pre_kv``/``post_kv`` are the local (keys, values) before and after the
    exchange; ``partitioner(keys) -> ranks`` is the operation's key→PE map.
    Accepts iff (1) post is a permutation of pre (records preserved) and
    (2) every received record is at the PE the partitioner assigns it to.
    """
    pre_records = encode_records(*pre_kv)
    post_records = encode_records(*post_kv)
    perm = check_permutation_hashsum(
        pre_records,
        post_records,
        iterations=iterations,
        hash_family=hash_family,
        log_h=log_h,
        seed=derive_seed(seed, "groupby-perm"),
        comm=comm,
    )
    rank = comm.rank if comm is not None else 0
    post_keys = np.asarray(post_kv[0])
    placement_ok = bool(np.all(partitioner(post_keys) == rank))
    if comm is not None:
        placement_ok = comm.allreduce(placement_ok, op=ops.LAND)
    return CheckResult(
        accepted=perm.accepted and placement_ok,
        checker="groupby-redistribution",
        details={
            "permutation": perm.details | {"accepted": perm.accepted},
            "placement_ok": placement_ok,
            "invasive": True,
        },
    )


def check_groupby_redistribution_multiseed(
    pre_kv,
    post_kv,
    partitioner,
    seeds,
    comm=None,
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
) -> CheckResult:
    """Corollary 14 under ``T`` root seeds, one encoding pass.

    Records are encoded once; the permutation lanes of all seeds run
    through one :class:`~repro.core.multiseed.MultiSeedHashSumChecker`
    (the per-seed fingerprint seeds derive exactly as the single-seed
    checker's), and the placement test is seed-free and runs once.
    Per-seed verdicts equal ``T`` independent
    :func:`check_groupby_redistribution` calls.
    """
    from repro.core.multiseed import MultiSeedHashSumChecker, _coerce_seeds

    seeds = _coerce_seeds(seeds)
    pre_records = encode_records(*pre_kv)
    post_records = encode_records(*post_kv)
    perm = MultiSeedHashSumChecker(
        derive_seed_array(seeds, "groupby-perm"),
        iterations=iterations,
        hash_family=hash_family,
        log_h=log_h,
    ).check(pre_records, post_records, comm=comm)
    rank = comm.rank if comm is not None else 0
    post_keys = np.asarray(post_kv[0])
    placement_ok = bool(np.all(partitioner(post_keys) == rank))
    if comm is not None:
        placement_ok = comm.allreduce(placement_ok, op=ops.LAND)
    per_seed = [
        p and placement_ok for p in perm.details["per_seed_accepted"]
    ]
    return CheckResult(
        accepted=all(per_seed),
        checker="groupby-redistribution-multiseed",
        details={
            "permutation": perm.details | {"accepted": perm.accepted},
            "placement_ok": placement_ok,
            "invasive": True,
            "num_seeds": int(seeds.size),
            "per_seed_accepted": per_seed,
        },
    )
