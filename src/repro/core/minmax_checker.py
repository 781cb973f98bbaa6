"""Minimum/maximum aggregation checker (§6.2, Theorem 9) — deterministic.

Min/max cannot use the §4 machinery because ``min(a, b) = a`` for b ≥ a
violates Theorem 1's requirement.  The paper's checker needs

* the full asserted result ``M : key → min`` at **every** PE, and
* a certificate naming, for every key, a PE that holds the minimum.

Each PE then verifies (a) no local element undercuts its key's asserted
minimum, and (b) every key assigned to it by the certificate has a local
element *equal* to the asserted minimum.  The certificate's full replication
ensures no key can be silently "forgotten".  Because both directions are
checked exhaustively, the checker is deterministic: it never accepts an
incorrect result.  Cost: O(n/p + α log p) (plus the §2 result-integrity
hash comparison ensuring all PEs saw the same result/certificate).
"""

from __future__ import annotations

import numpy as np

from repro.comm import ops
from repro.core import domain
from repro.core.base import CheckResult
from repro.core.integrity import replicated_digest as _digest
from repro.core.integrity import replicated_digest_multiseed


def _sorted_result(keys, values):
    """The asserted result sorted by key, and whether a key repeats."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    duplicate = bool(np.any(sorted_keys[1:] == sorted_keys[:-1]))
    return order, sorted_keys, values[order], duplicate


def _local_hits(in_keys, in_values, sorted_keys, sorted_values):
    """Which result keys have a local element equal to their asserted minimum.

    ``None`` when property (a) fails locally: some element's key is
    missing from the result, or an element undercuts its key's asserted
    minimum.  Presence is tracked per key, so a key no element carries
    has no hit whatever value the result asserts for it.
    """
    hits = np.zeros(sorted_keys.size, dtype=bool)
    if in_keys.size == 0:
        return hits
    if sorted_keys.size == 0:
        return None  # the input has keys the result "forgot"
    pos = np.minimum(
        np.searchsorted(sorted_keys, in_keys), sorted_keys.size - 1
    )
    if not (
        np.array_equal(sorted_keys[pos], in_keys)
        and np.all(in_values >= sorted_values[pos])
    ):
        return None
    hits[pos[in_values == sorted_values[pos]]] = True
    return hits


def _check_extremum(
    input_kv,
    asserted_keys,
    asserted_values,
    certificate_owners,
    comm,
    seed,
    flip: bool,
    name: str,
) -> CheckResult:
    """Theorem 9 under one seed or ``T``: one deterministic pass, T digests.

    The deterministic body is seed-free and runs once; only the §2
    integrity digest is seeded, and
    :func:`~repro.core.integrity.replicated_digest_multiseed` evaluates
    all ``T`` digests in one pass over the replicated result.  The
    verdict and the ``T`` integrity flags settle in one AND-allreduce of
    ``T`` flags after the digest broadcast.
    """
    seeds = domain.seeds(seed)
    in_keys = domain.words(input_kv[0])
    in_values = domain.values(input_kv[1])
    keys = domain.words(asserted_keys)
    values = domain.values(asserted_values)
    owners = domain.values(certificate_owners, "ranks")
    if not (keys.size == values.size == owners.size):
        raise ValueError("asserted keys, values and certificate must align")
    rank = comm.rank if comm is not None else 0
    size = comm.size if comm is not None else 1

    # Result integrity (§2): all PEs must hold identical result+certificate.
    # One uint8 flag per seed: MPI defines BAND on bytes, not on bools.
    flags = np.ones(seeds.size, dtype=np.uint8)
    if comm is not None:
        digests = replicated_digest_multiseed(seeds, keys, values, owners)
        root_digests = comm.bcast(digests, root=0)
        flags[:] = [a == b for a, b in zip(digests, root_digests)]

    if flip:
        # max(v) = ~min(~v): ~ reverses the int64 order and, unlike
        # negation, cannot overflow at int64 min.
        in_values, values = ~in_values, ~values
    order, sorted_keys, sorted_values, duplicate = _sorted_result(keys, values)
    ok = not duplicate and bool(np.all((owners >= 0) & (owners < size)))
    if ok:
        # (a) no local element undercuts its key's asserted minimum, and
        # (b) every key the certificate assigns to this PE has a local
        #     element equal to its asserted minimum.
        hits = _local_hits(in_keys, in_values, sorted_keys, sorted_values)
        ok = hits is not None and bool(np.all(hits[owners[order] == rank]))
    flags &= ok
    if comm is not None:
        flags = comm.allreduce(flags, op=ops.BAND)
    per_seed = flags.astype(bool).tolist()
    return CheckResult(
        accepted=all(per_seed),
        checker=name,
        details={
            "deterministic": True,
            "certificate": "owner PE per key, replicated at all PEs",
            "num_seeds": int(seeds.size),
            "per_seed_accepted": per_seed,
        },
    )


def check_min_aggregation(
    input_kv,
    asserted_keys,
    asserted_values,
    certificate_owners,
    comm=None,
    seed=0,
) -> CheckResult:
    """Theorem 9: deterministic check of per-key minima.

    ``asserted_keys/values`` must be the *full* result, identical at every
    PE; ``certificate_owners[i]`` names a PE holding the minimum of key i.
    ``seed`` (one root seed or an array of ``T`` distinct roots) seeds
    only the integrity digest: ``per_seed_accepted[t]`` equals the check
    under ``seeds[t]`` alone.
    """
    return _check_extremum(
        input_kv,
        asserted_keys,
        asserted_values,
        certificate_owners,
        comm,
        seed,
        flip=False,
        name="min-aggregation",
    )


def check_max_aggregation(
    input_kv,
    asserted_keys,
    asserted_values,
    certificate_owners,
    comm=None,
    seed=0,
) -> CheckResult:
    """Theorem 9 for maxima (w.l.o.g. via the order-reversing ``~v``)."""
    return _check_extremum(
        input_kv,
        asserted_keys,
        asserted_values,
        certificate_owners,
        comm,
        seed,
        flip=True,
        name="max-aggregation",
    )


def check_min_aggregation_bitvector(
    input_kv,
    asserted_keys,
    asserted_values,
    comm=None,
    seed: int = 0,
) -> CheckResult:
    """Certificate-free min checker with O(βk) communication (§6.2).

    The paper notes property (b) — "the minimum value does indeed appear in
    the input" — is *"easy to verify in time O(n/p + βk + α log p) using a
    bitwise-or reduction on a bitvector of size k specifying which keys'
    minima are present locally, and testing whether each bit is set"*.
    This is that checker: no owner certificate needed, deterministic, but
    the communication volume grows linearly with the number of keys k —
    exactly the cost the certificate of Theorem 9 avoids.
    """
    in_keys = domain.words(input_kv[0])
    in_values = domain.values(input_kv[1])
    keys = domain.words(asserted_keys)
    values = domain.values(asserted_values)
    if keys.size != values.size:
        raise ValueError("asserted keys and values must align")

    integrity_ok = True
    if comm is not None:
        digest = _digest(seed, keys, values)
        integrity_ok = digest == comm.bcast(digest, root=0)

    _, sorted_keys, sorted_values, duplicate = _sorted_result(keys, values)
    hits = None
    if integrity_ok and not duplicate:
        hits = _local_hits(in_keys, in_values, sorted_keys, sorted_values)
    ok = hits is not None
    present = (
        hits.astype(np.uint8) if ok
        else np.zeros(sorted_keys.size, dtype=np.uint8)
    )

    if comm is not None:
        ok = comm.allreduce(bool(ok), op=ops.LAND)
        # The O(βk) step: OR-reduce the per-key presence bitvector.
        packed = np.packbits(present)
        combined = comm.allreduce(packed, op=np.bitwise_or)
        present = np.unpackbits(combined, count=present.size)
    verdict = ok and bool(np.all(present == 1))
    return CheckResult(
        accepted=bool(verdict),
        checker="min-aggregation-bitvector",
        details={
            "deterministic": True,
            "certificate": None,
            "communication": "O(k) bits per PE (bitvector OR-reduction)",
            "integrity_ok": bool(integrity_ok),
        },
    )
