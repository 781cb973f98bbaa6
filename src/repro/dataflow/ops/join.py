"""Hash join of two distributed relations (§6.5.4 substrate).

Both relations are repartitioned by key hash so matching keys meet at one
PE; the local phase is a classic build/probe hash join.  The post-exchange
relations are returned alongside the joined rows because they are exactly
what the invasive checker (Corollary 15) verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import domain
from repro.core.groupby_checker import default_partitioner
from repro.dataflow.exchange import exchange_by_destination


@dataclass
class JoinExchange:
    """Result of a distributed hash join on one PE."""

    keys: np.ndarray  # joined keys (one row per matching pair)
    r_values: np.ndarray
    s_values: np.ndarray
    r_post: tuple[np.ndarray, np.ndarray]  # relation R after the exchange
    s_post: tuple[np.ndarray, np.ndarray]  # relation S after the exchange


def _local_join(
    rk: np.ndarray, rv: np.ndarray, sk: np.ndarray, sv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (key, r_value, s_value) combinations of matching keys."""
    if rk.size == 0 or sk.size == 0:
        return (
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    build: dict[int, list[int]] = {}
    for k, v in zip(rk.tolist(), rv.tolist()):
        build.setdefault(k, []).append(v)
    out_k: list[int] = []
    out_r: list[int] = []
    out_s: list[int] = []
    for k, v in zip(sk.tolist(), sv.tolist()):
        for rv_match in build.get(k, ()):
            out_k.append(k)
            out_r.append(rv_match)
            out_s.append(v)
    return (
        np.array(out_k, dtype=np.uint64),
        np.array(out_r, dtype=np.int64),
        np.array(out_s, dtype=np.int64),
    )


def hash_join(
    comm,
    r_kv: tuple[np.ndarray, np.ndarray],
    s_kv: tuple[np.ndarray, np.ndarray],
    partitioner=None,
) -> JoinExchange:
    """Equi-join R ⋈ S on keys; returns this PE's joined rows + exchanges."""
    rk = domain.words(r_kv[0])
    rv = domain.values(r_kv[1])
    sk = domain.words(s_kv[0])
    sv = domain.values(s_kv[1])
    if comm is None or comm.size == 1:
        jk, jr, js = _local_join(rk, rv, sk, sv)
        return JoinExchange(jk, jr, js, (rk, rv), (sk, sv))
    if partitioner is None:
        partitioner = default_partitioner(comm.size)
    rk2, rv2 = exchange_by_destination(comm, partitioner(rk), rk, rv)
    sk2, sv2 = exchange_by_destination(comm, partitioner(sk), sk, sv)
    jk, jr, js = _local_join(rk2, rv2, sk2, sv2)
    return JoinExchange(jk, jr, js, (rk2, rv2), (sk2, sv2))
