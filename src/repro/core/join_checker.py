"""Invasive Join redistribution checker (§6.5.4, Corollary 15).

Distributed joins redistribute both relations so matching keys meet at the
same PE — by key hash (hash join) or by key range (sort-merge join).  As the
paper notes, both are "sort checking" problems: a hash join is a sort-merge
join in the order of the key hashes.  The checker verifies, for each
relation, that redistribution preserved the records (permutation check) and
that the key→PE assignment is consistent *across the two relations*:

* ``mode="hash"``: both relations' received keys must satisfy
  ``part(key) == rank`` for the shared partitioner;
* ``mode="range"``: the combined keys of both relations must be globally
  range-partitioned — every local key must dominate the running maximum of
  all preceding PEs' keys (the paper's exchange of locally largest/smallest
  keys with neighbouring PEs, implemented as a max-scan so empty PEs are
  handled uniformly).
"""

from __future__ import annotations

import numpy as np

from repro.comm import ops
from repro.core.base import CheckResult
from repro.core.groupby_checker import encode_records
from repro.core.permutation_checker import check_permutation_hashsum
from repro.core.sort_checker import boundaries_ordered
from repro.util.rng import derive_seed


def check_join_redistribution(
    r_pre,
    s_pre,
    r_post,
    s_post,
    mode: str = "hash",
    partitioner=None,
    comm=None,
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    seed: int = 0,
) -> CheckResult:
    """Corollary 15: verify the input redistribution of a join.

    Each of the four arguments is a local ``(keys, values)`` pair: relations
    R and S before and after the exchange.  ``partitioner`` is required for
    ``mode="hash"``.
    """
    if mode not in ("hash", "range"):
        raise ValueError(f"mode must be 'hash' or 'range', got {mode!r}")
    if mode == "hash" and partitioner is None:
        raise ValueError("hash mode requires the operation's partitioner")

    perms = {}
    for name, pre, post in (("R", r_pre, r_post), ("S", s_pre, s_post)):
        result = check_permutation_hashsum(
            encode_records(*pre),
            encode_records(*post),
            iterations=iterations,
            hash_family=hash_family,
            log_h=log_h,
            seed=derive_seed(seed, "join-perm", name),
            comm=comm,
        )
        perms[name] = result

    rank = comm.rank if comm is not None else 0
    if mode == "hash":
        placement_ok = bool(
            np.all(partitioner(np.asarray(r_post[0])) == rank)
            and np.all(partitioner(np.asarray(s_post[0])) == rank)
        )
        if comm is not None:
            placement_ok = comm.allreduce(placement_ok, op=ops.LAND)
    elif comm is None:
        placement_ok = True
    else:
        # All keys at PE i precede all keys at PEs > i (order irrelevant
        # within): compared as exact ints, in the keys' own order.
        keys = [np.asarray(kv[0]) for kv in (r_post, s_post)]
        keys = [k for k in keys if k.size]
        first = min((int(k.min()) for k in keys), default=None)
        last = max((int(k.max()) for k in keys), default=None)
        placement_ok = boundaries_ordered(comm, first, last)

    accepted = perms["R"].accepted and perms["S"].accepted and placement_ok
    return CheckResult(
        accepted=bool(accepted),
        checker="join-redistribution",
        details={
            "mode": mode,
            "permutation_R": perms["R"].accepted,
            "permutation_S": perms["S"].accepted,
            "placement_ok": bool(placement_ok),
            "invasive": True,
        },
    )
