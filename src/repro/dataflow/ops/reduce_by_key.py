"""ReduceByKey — the paper's §2 "Reduction" operation.

Local phase: aggregate local pairs per key (we use a sort-based reduction
in place of Thrill's hash table — same semantics, cache-friendlier in
numpy).  Input whose keys already strictly increase is aggregated as it
stands, after one comparison pass: a window's settle merges its chunks
before the operation runs, so the operation's first local phase would
otherwise re-sort what is already sorted and unique.  Exchange phase:
keys are partitioned over PEs by a fixed hash (the cached
:func:`~repro.core.groupby_checker.default_partitioner`), routed by the
linear-time split of
:func:`~repro.dataflow.exchange.exchange_by_destination`, and the
partial sums are combined at their home PE, where the p sorted runs
received are merged by the same stable sort.  The result is
*distributed*: each key lives at exactly one PE.  Keys and values must
be integers, as the checkers require: they are read through the
input domain (``repro.core.domain``), so a column of any other kind
raises ``TypeError`` naming its dtype where a cast would
truncate float keys into one another and read bools as 0/1.  The dtype
alone decides, an empty column's too, so PEs that pass one dtype raise
together.
"""

from __future__ import annotations

import numpy as np

from repro.core import domain
from repro.core.groupby_checker import default_partitioner
from repro.dataflow.exchange import exchange_by_destination


def local_aggregate(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-key sums of one PE's pairs, keys ascending.

    The result never shares memory with the input.
    """
    keys = domain.words(keys)
    values = domain.values(values)
    if keys.size != values.size:
        raise ValueError(
            f"keys and values differ in length: {keys.size} vs {values.size}"
        )
    # Strictly increasing keys, empty input included, are aggregated.
    if (keys[1:] > keys[:-1]).all():
        return keys.copy(), values.copy()
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    sv = values[order]
    distinct = sk[1:] != sk[:-1]
    # Unique keys are their own runs: the fresh gathers are the result.
    if distinct.all():
        return sk, sv
    starts = np.flatnonzero(np.concatenate(([True], distinct)))
    return sk[starts], np.add.reduceat(sv, starts)


def reduce_by_key(
    comm,
    keys: np.ndarray,
    values: np.ndarray,
    partitioner=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distributed sum aggregation; returns this PE's slice of the result.

    ``partitioner`` is the key→PE map (default: the framework hash);
    sequential when ``comm`` is None.
    """
    lk, lv = local_aggregate(keys, values)
    if comm is None or comm.size == 1:
        return lk, lv
    if partitioner is None:
        partitioner = default_partitioner(comm.size)
    rk, rv = exchange_by_destination(comm, partitioner(lk), lk, lv)
    return local_aggregate(rk, rv)
