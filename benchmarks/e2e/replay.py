"""The traced replay: a checked reduce as a sequence of public calls.

The untraced workloads call the entry points users call.  The traced run
replays the same work through the public functions those entry points
are built from, one span per call, so time, bytes and memory can be
split by layer without touching the program.  The replay must reproduce
the untraced verdicts and outputs exactly; the workloads check that.
"""

from __future__ import annotations

import numpy as np

from common import CONFIG_LABEL, median
from repro.core.groupby_checker import default_partitioner
from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.dataflow.exchange import exchange_by_destination
from repro.dataflow.ops.reduce_by_key import local_aggregate
from repro.hashing.families import get_family
from repro.util.rng import derive_seed_array

CONFIG = SumCheckConfig.parse(CONFIG_LABEL)


def _direct(name, fn):
    return fn()


def lanes_ns_per_key(probe, unique_keys: np.ndarray, seed: int) -> float:
    """An isolated ``LaneHasher.lanes`` call over condensed keys, nominal ns per key.

    The lane is the bucket-hash lane a one-seed sum checker evaluates; the
    median of five calls.
    """
    hasher = get_family(CONFIG.hash_family).multiseed_hasher(unique_keys)
    seeds = derive_seed_array(
        np.array([seed], dtype=np.uint64), "sum-checker", "buckets"
    )
    times = []
    for _ in range(5):
        times.append(probe.timed(lambda: hasher.lanes(seeds))[1])
    return median(times) * 1e9 / max(unique_keys.size, 1)


def traced_reduce(tracer, comm, keys, values, memory=None):
    """``reduce_by_key``: local aggregation, key exchange, final aggregation."""
    measure = memory.measure if memory is not None else _direct

    def body():
        with tracer.span("dataflow.local_aggregate"):
            lk, lv = local_aggregate(keys, values)
        if comm is None or comm.size == 1:
            return lk, lv
        with tracer.span("dataflow.exchange"):
            dest = default_partitioner(comm.size)(lk)
            rk, rv = exchange_by_destination(comm, dest, lk, lv)
        with tracer.span("dataflow.local_aggregate"):
            return local_aggregate(rk, rv)

    with tracer.span("dataflow.reduce_by_key"):
        return measure("dataflow.reduce_by_key", body)


def traced_sum_check(
    tracer, comm, condensed_in, condensed_out, seed, policy=None, memory=None
):
    """One-seed Theorem 1 verdict: table fold, difference, pack, settle.

    With an ``AdaptiveCheckPolicy`` the checker also derives the
    escalation seeds up front, as ``adaptive_sum_check`` does on every
    call; escalation itself never runs on a clean input.
    """
    measure = memory.measure if memory is not None else _direct
    with tracer.span("core.checker_init"):
        checker = MultiSeedSumChecker(CONFIG, [seed])
        if policy is not None:
            policy.resolve_seeds(seed)

    def fold():
        return (
            checker.local_tables_condensed(condensed_in),
            checker.local_tables_condensed(condensed_out),
        )

    with tracer.span("core.table_fold"):
        t_in, t_out = measure("core.table_fold", fold)
    with tracer.span("core.difference"):
        diff = checker.difference(t_in, t_out)
    if comm is None:
        with tracer.span("core.verdict"):
            return not bool(np.any(diff))
    with tracer.span("core.pack"):
        payload = checker.pack(diff)

    def wire_op(a, b):
        return checker.pack(checker.combine(checker.unpack(a), checker.unpack(b)))

    with tracer.span("comm.barrier"):
        comm.barrier()
    with tracer.span("comm.collective"):
        combined = comm.reduce(payload, wire_op, root=0)
    flags = None
    with tracer.span("core.verdict"):
        if comm.rank == 0:
            flags = (~np.any(checker.unpack(combined), axis=(1, 2))).tolist()
    with tracer.span("comm.collective"):
        flags = comm.bcast(flags, root=0)
    return bool(flags[0])
