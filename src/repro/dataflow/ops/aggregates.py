"""Per-key aggregates on top of the exchange layer (§6 substrates).

These produce, besides the aggregate itself, exactly the certificates the
§6 checkers consume (keys and values must be integers, as for
:func:`~repro.dataflow.ops.reduce_by_key.reduce_by_key`):

* :func:`average_by_key` — exact rational averages plus the per-key count
  certificate (Corollary 8, "this certificate naturally arises during
  computation anyway");
* :func:`min_by_key` / :func:`max_by_key` — result *replicated at every PE*
  plus the owner-PE certificate (Theorem 9);
* :func:`median_by_key` — result replicated at every PE plus the
  tie-breaking certificate (Theorem 10), with uids assigned from global
  element indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import domain
from repro.core.groupby_checker import default_partitioner
from repro.core.median_checker import MedianCertificate
from repro.dataflow.exchange import exchange_by_destination, global_offset
from repro.dataflow.ops.reduce_by_key import reduce_by_key


@dataclass
class AverageResult:
    """Distributed per-key averages as exact rationals + count certificate."""

    keys: np.ndarray
    numerators: np.ndarray
    denominators: np.ndarray
    counts: np.ndarray  # the certificate


@dataclass
class MinMaxResult:
    """Fully replicated per-key extrema + owner certificate (Theorem 9)."""

    keys: np.ndarray
    values: np.ndarray
    owners: np.ndarray  # certificate: a PE holding the extremum per key


@dataclass
class MedianResult:
    """Fully replicated per-key medians + tie-break certificate."""

    keys: np.ndarray
    numerators: np.ndarray
    denominators: np.ndarray  # 1 or 2
    certificate: MedianCertificate


def average_by_key(comm, keys, values, partitioner=None) -> AverageResult:
    """Per-key averages via the (value, count)-pair trick of §6.1."""
    keys = domain.words(keys)
    values = domain.values(values)
    sk, sums = reduce_by_key(comm, keys, values, partitioner)
    ck, counts = reduce_by_key(
        comm, keys, np.ones(keys.size, dtype=np.int64), partitioner
    )
    if not np.array_equal(sk, ck):  # pragma: no cover - same partitioner
        raise AssertionError("sum and count reductions disagree on keys")
    g = np.maximum(np.gcd(np.abs(sums), counts), 1)
    return AverageResult(sk, sums // g, counts // g, counts)


def _extremum_by_key(comm, keys, values, sign: int, partitioner=None) -> MinMaxResult:
    keys = domain.words(keys)
    values = sign * domain.values(values)
    rank = comm.rank if comm is not None else 0

    # Local extremum per key, tagged with this PE as candidate owner.
    if keys.size:
        order = np.lexsort((values, keys))
        sk = keys[order]
        sv = values[order]
        starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
        lk, lv = sk[starts], sv[starts]
    else:
        lk = keys.copy()
        lv = values.copy()
    owners = np.full(lk.size, rank, dtype=np.int64)

    if comm is not None and comm.size > 1:
        if partitioner is None:
            partitioner = default_partitioner(comm.size)
        lk, lv, owners = exchange_by_destination(
            comm, partitioner(lk), lk, lv, owners
        )
        if lk.size:
            # Per key: smallest value wins; ties broken by lowest owner rank.
            order = np.lexsort((owners, lv, lk))
            sk, sv, so = lk[order], lv[order], owners[order]
            starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
            lk, lv, owners = sk[starts], sv[starts], so[starts]
        # Theorem 9 requires the result and certificate at every PE.
        pieces = comm.allgather((lk, lv, owners))
        lk = np.concatenate([p[0] for p in pieces])
        lv = np.concatenate([p[1] for p in pieces])
        owners = np.concatenate([p[2] for p in pieces])
        order = np.argsort(lk, kind="stable")
        lk, lv, owners = lk[order], lv[order], owners[order]
    return MinMaxResult(lk, sign * lv, owners)


def min_by_key(comm, keys, values, partitioner=None) -> MinMaxResult:
    """Per-key minima, replicated everywhere, with owner certificate."""
    return _extremum_by_key(comm, keys, values, +1, partitioner)


def max_by_key(comm, keys, values, partitioner=None) -> MinMaxResult:
    """Per-key maxima, replicated everywhere, with owner certificate."""
    return _extremum_by_key(comm, keys, values, -1, partitioner)


def median_by_key(comm, keys, values, uids=None, partitioner=None) -> MedianResult:
    """Per-key medians (mean of middles for even counts), replicated.

    uids default to global element indices — a total order on occurrences,
    which is all the tie-breaking scheme of §6.3 needs.
    """
    keys = domain.words(keys)
    values = domain.values(values)
    if uids is None:
        offset = global_offset(comm, int(keys.size))
        uids = offset + np.arange(keys.size, dtype=np.int64)
    else:
        uids = domain.values(uids)

    if comm is not None and comm.size > 1:
        if partitioner is None:
            partitioner = default_partitioner(comm.size)
        keys, values, uids = exchange_by_destination(
            comm, partitioner(keys), keys, values, uids
        )

    if keys.size:
        order = np.lexsort((uids, values, keys))
        sk, sv, su = keys[order], values[order], uids[order]
        starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
        bounds = np.append(starts, sk.size)
        out_k = sk[starts]
        nums = np.empty(starts.size, dtype=np.int64)
        dens = np.empty(starts.size, dtype=np.int64)
        uid_low = np.empty(starts.size, dtype=np.int64)
        uid_high = np.empty(starts.size, dtype=np.int64)
        for i in range(starts.size):
            lo, hi = bounds[i], bounds[i + 1]
            m = hi - lo
            low_pos = lo + (m - 1) // 2
            high_pos = lo + m // 2
            v_low, v_high = int(sv[low_pos]), int(sv[high_pos])
            if (v_low + v_high) % 2 == 0:
                nums[i], dens[i] = (v_low + v_high) // 2, 1
            else:
                nums[i], dens[i] = v_low + v_high, 2
            uid_low[i] = su[low_pos]
            uid_high[i] = su[high_pos]
    else:
        out_k = keys.copy()
        nums = dens = uid_low = uid_high = np.zeros(0, dtype=np.int64)

    if comm is not None and comm.size > 1:
        pieces = comm.allgather((out_k, nums, dens, uid_low, uid_high))
        out_k = np.concatenate([p[0] for p in pieces])
        nums = np.concatenate([p[1] for p in pieces])
        dens = np.concatenate([p[2] for p in pieces])
        uid_low = np.concatenate([p[3] for p in pieces])
        uid_high = np.concatenate([p[4] for p in pieces])
        order = np.argsort(out_k, kind="stable")
        out_k = out_k[order]
        nums, dens = nums[order], dens[order]
        uid_low, uid_high = uid_low[order], uid_high[order]

    return MedianResult(
        out_k, nums, dens, MedianCertificate(uid_low, uid_high)
    )
