"""Median-aggregation checker (§6.3, Algorithm 2, Theorem 10).

The median of a key's (multiset of) values — mean of the two middle
elements for even counts — has the defining balance property: with unique
values, exactly as many elements lie below it as above it.  Algorithm 2
exploits this: map each input element to −1 (below its key's asserted
median), +1 (above) or 0, and verify with the §4 sum checker that every
per-key sum is zero, against an *empty* asserted output.

Requirements (paper Table 1): the asserted medians must be available at
every PE; for non-unique values a **tie-breaking certificate** is required.
Our certificate names, per key, the unique ids (uids) of the middle
occurrence(s): elements equal in value to a middle element compare by uid.
The certificate is self-verifying — mis-designated middles shift the ±1
counts and break the zero-sum, so a forged certificate cannot make a wrong
median pass (beyond the sum checker's δ).

Medians are exact rationals ``num/den`` with den ∈ {1, 2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm import ops
from repro.core import domain
from repro.core.base import CheckResult
from repro.core.multiseed import _DEFAULT_CONFIG, MultiSeedSumChecker
from repro.core.params import SumCheckConfig


@dataclass
class MedianCertificate:
    """Tie-breaking certificate: uids of the middle occurrence(s) per key.

    Aligned with the asserted keys; ``uid_low == uid_high`` for odd counts.
    uids must be unique per (key, value) group — any total order works; the
    dataflow layer uses global element indices.
    """

    uid_low: np.ndarray
    uid_high: np.ndarray


def signed_contributions(
    keys,
    values,
    uids,
    asserted_keys,
    asserted_num,
    asserted_den,
    certificate: MedianCertificate | None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The −1/0/+1 mapping of Algorithm 2, vectorized.

    Returns ``(keys, contributions, structurally_ok)``; ``structurally_ok``
    is False when some input key is missing from the asserted result (an
    unconditional rejection).  ``uids`` and the certificate are read, as
    integers, only when a certificate breaks ties.
    """
    keys = domain.words(keys)
    values = domain.values(values)
    asserted_keys = domain.words(asserted_keys)
    num = domain.values(asserted_num)
    den = domain.values(asserted_den)
    if certificate is not None:
        uids = domain.values(uids, "uids")
        uid_low = domain.values(certificate.uid_low, "uids")
        uid_high = domain.values(certificate.uid_high, "uids")
    if np.any((den != 1) & (den != 2)):
        raise ValueError("median denominators must be 1 or 2")

    order = np.argsort(asserted_keys, kind="stable")
    sorted_keys = asserted_keys[order]
    if keys.size == 0:
        return keys, np.zeros(0, dtype=np.int64), True
    if sorted_keys.size == 0:
        return keys, np.zeros(keys.size, dtype=np.int64), False
    pos = np.searchsorted(sorted_keys, keys)
    clipped = np.minimum(pos, sorted_keys.size - 1)
    known = (pos < sorted_keys.size) & (sorted_keys[clipped] == keys)
    if not np.all(known):
        return keys, np.zeros(keys.size, dtype=np.int64), False
    idx = order[clipped]  # row in the asserted arrays per element

    # Compare value against num/den without division: sign(value·den − num).
    lhs = values * den[idx]
    contrib = np.sign(lhs - num[idx]).astype(np.int64)

    ties = contrib == 0
    if np.any(ties):
        if certificate is None:
            # Unique-values mode: the single element equal to the median is
            # the middle element of an odd-count key and maps to 0.
            pass
        else:
            low = uid_low[idx]
            high = uid_high[idx]
            odd = low == high
            t_uid = uids[ties]
            t_low = low[ties]
            t_high = high[ties]
            t_odd = odd[ties]
            tie_contrib = np.zeros(t_uid.size, dtype=np.int64)
            tie_contrib[t_uid < t_low] = -1
            tie_contrib[t_uid > t_high] = +1
            # The designated middles: 0 for odd counts, −1/+1 for even.
            is_low = t_uid == t_low
            is_high = t_uid == t_high
            tie_contrib[is_low & ~t_odd] = -1
            tie_contrib[is_high & ~t_odd] = +1
            contrib[ties] = tie_contrib
    return keys, contrib, True


def check_median_aggregation(
    input_keys,
    input_values,
    asserted_keys,
    asserted_num,
    asserted_den,
    certificate: MedianCertificate | None = None,
    input_uids=None,
    config: SumCheckConfig | None = None,
    seed=0,
    comm=None,
) -> CheckResult:
    """Theorem 10: check per-key medians via the balance property.

    The asserted result (and certificate, if values repeat) must be the
    full result, identical at every PE.  Cost: O(T_check-sum(n, p, δ)).
    ``seed`` is one root seed or an array of ``T`` distinct roots: the
    −1/0/+1 mapping is seed-independent and runs once, and the zero-sum
    test settles every seed in one collective.  ``per_seed_accepted[t]``
    equals the check under ``seeds[t]`` alone.
    """
    cfg = config or _DEFAULT_CONFIG
    if input_uids is None:
        input_uids = np.zeros(np.asarray(input_keys).size, dtype=np.int64)
    keys, contrib, structurally_ok = signed_contributions(
        input_keys,
        input_values,
        input_uids,
        asserted_keys,
        asserted_num,
        asserted_den,
        certificate,
    )

    checker = MultiSeedSumChecker(cfg, seed)
    empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
    if comm is None:
        inner = checker.check_local((keys, contrib), empty)
    else:
        structurally_ok = comm.allreduce(bool(structurally_ok), op=ops.LAND)
        inner = checker.check_distributed(comm, (keys, contrib), empty)
    per_seed = [
        bool(structurally_ok) and ok
        for ok in inner.details["per_seed_accepted"]
    ]
    return CheckResult(
        accepted=all(per_seed),
        checker="median-aggregation",
        details={
            "config": cfg.label(),
            "structural_ok": bool(structurally_ok),
            "certificate": certificate is not None,
            "num_seeds": checker.num_seeds,
            "per_seed_accepted": per_seed,
        },
    )
