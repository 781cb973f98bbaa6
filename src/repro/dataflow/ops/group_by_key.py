"""GroupByKey — the paper's §2 "GroupBy" operation.

All elements with the same key are collected at one PE (all-to-all by key
hash) and handed to a group function.  Much more communication-expensive
than reduction — O(β·w·n + α·p) — which is exactly why the paper's invasive
checker (Corollary 14) targets the redistribution phase.
"""

from __future__ import annotations

import numpy as np

from repro.core import domain
from repro.core.groupby_checker import default_partitioner
from repro.dataflow.exchange import exchange_by_destination


def group_by_key(
    comm,
    keys: np.ndarray,
    values: np.ndarray,
    partitioner=None,
    return_exchange: bool = False,
):
    """Group values per key at the key's home PE.

    Returns ``(unique_keys, groups)`` where ``groups[i]`` is the value array
    of ``unique_keys[i]`` (arbitrary order inside a group, as in Thrill).
    With ``return_exchange=True`` also returns the raw post-exchange
    ``(keys, values)`` — the data the invasive checker (Corollary 14)
    verifies.
    """
    keys = domain.words(keys)
    values = domain.values(values)
    if comm is None or comm.size == 1:
        rk, rv = keys.copy(), values.copy()
    else:
        if partitioner is None:
            partitioner = default_partitioner(comm.size)
        rk, rv = exchange_by_destination(comm, partitioner(keys), keys, values)
    if rk.size == 0:
        unique_keys = rk
        groups: list[np.ndarray] = []
    else:
        order = np.argsort(rk, kind="stable")
        sk = rk[order]
        sv = rv[order]
        starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
        unique_keys = sk[starts]
        bounds = np.append(starts, sk.size)
        groups = [sv[bounds[i] : bounds[i + 1]] for i in range(starts.size)]
    if return_exchange:
        return unique_keys, groups, (rk, rv)
    return unique_keys, groups
