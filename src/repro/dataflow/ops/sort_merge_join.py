"""Sort-merge join with range partitioning (§6.5.4's second algorithm).

Both relations are range-partitioned by key using shared splitters sampled
from their union, so each PE receives a contiguous key range of *both*
relations; the local phase joins two sorted runs.  The exchange is exactly
what Corollary 15's range-mode checker verifies (combined global sortedness
across the two relations plus per-relation permutation).
"""

from __future__ import annotations

import numpy as np

from repro.core import domain
from repro.dataflow.exchange import exchange_by_destination
from repro.dataflow.ops.join import JoinExchange, _local_join


def _shared_splitters(comm, r_keys: np.ndarray, s_keys: np.ndarray) -> np.ndarray:
    """p−1 splitters sampled from the union of both relations' keys."""
    p = comm.size
    pool = np.sort(np.concatenate([r_keys, s_keys]))
    count = min(pool.size, 16 * p)
    sample = pool[(np.arange(count) * pool.size) // max(count, 1)] if count else pool
    gathered = comm.gather(sample, root=0)
    splitters = None
    if comm.rank == 0:
        merged = np.sort(np.concatenate(gathered))
        if merged.size:
            positions = (np.arange(1, p) * merged.size) // p
            splitters = merged[np.minimum(positions, merged.size - 1)]
        else:
            splitters = merged
    return comm.bcast(splitters, root=0)


def sort_merge_join(
    comm,
    r_kv: tuple[np.ndarray, np.ndarray],
    s_kv: tuple[np.ndarray, np.ndarray],
) -> JoinExchange:
    """Equi-join via range partitioning + local sorted-run join."""
    rk = domain.words(r_kv[0])
    rv = domain.values(r_kv[1])
    sk = domain.words(s_kv[0])
    sv = domain.values(s_kv[1])
    if comm is None or comm.size == 1:
        jk, jr, js = _local_join(rk, rv, sk, sv)
        return JoinExchange(jk, jr, js, (rk, rv), (sk, sv))

    splitters = _shared_splitters(comm, rk, sk)
    r_dest = np.searchsorted(splitters, rk, side="right").astype(np.int64)
    s_dest = np.searchsorted(splitters, sk, side="right").astype(np.int64)
    rk2, rv2 = exchange_by_destination(comm, r_dest, rk, rv)
    sk2, sv2 = exchange_by_destination(comm, s_dest, sk, sv)
    jk, jr, js = _local_join(rk2, rv2, sk2, sv2)
    return JoinExchange(jk, jr, js, (rk2, rv2), (sk2, sv2))
