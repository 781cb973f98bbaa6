"""Communication-volume measurements — Table 1's headline claims.

Table 1 states, per operation, the checker cost — crucially with a
communication term *independent of n* (sum/average/median: β·d·w bits;
permutation-family: β·w bits per iteration) and only O(log p) messages.
The simulated network meters every byte, so these claims are *measured*
here: the harness runs each checker on growing inputs and reports the
bottleneck per-PE communication volume and message count, which must stay
flat in n (asserted by tests, printed by the Table 1 bench).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm import ops
from repro.comm.context import Context
from repro.core.median_checker import check_median_aggregation
from repro.core.multiseed import check_sum_aggregation
from repro.core.params import SumCheckConfig
from repro.core.permutation_checker import check_permutation_hashsum
from repro.core.sort_checker import check_sort
from repro.core.zip_checker import check_zip
from repro.dataflow.ops.aggregates import median_by_key
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.util.rng import derive_seed
from repro.workloads.kv import sum_workload
from repro.workloads.uniform import uniform_integers


@dataclass
class VolumeRow:
    """Measured communication of one checker run."""

    checker: str
    n: int
    p: int
    bottleneck_bytes: int
    max_messages_per_pe: int


def _sum_volume(n: int, p: int, seed: int) -> VolumeRow:
    ctx = Context(p)
    keys, values = sum_workload(n, 10**5, seed=seed)
    config = SumCheckConfig.parse("8x16 m15")

    def program(comm, k, v):
        ok, ov = reduce_by_key(comm, k, v)
        comm.meter.mark("checker")
        check_sum_aggregation((k, v), (ok, ov), config, seed=seed, comm=comm)
        return comm.meter.since("checker")

    ctx_results = ctx.run(
        program,
        per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
    )
    bytes_max = max(
        max(r["bytes_sent"], r["bytes_received"]) for r in ctx_results
    )
    msgs_max = max(
        max(r["messages_sent"], r["messages_received"]) for r in ctx_results
    )
    return VolumeRow("sum-aggregation (8x16 m15)", n, p, bytes_max, msgs_max)


def _perm_volume(n: int, p: int, seed: int) -> VolumeRow:
    ctx = Context(p)
    data = uniform_integers(n, seed=seed)
    out = np.sort(data)

    def program(comm, e, o):
        comm.meter.mark("checker")
        check_permutation_hashsum(e, o, iterations=2, seed=seed, comm=comm)
        return comm.meter.since("checker")

    results = ctx.run(
        program, per_rank_args=list(zip(ctx.split(data), ctx.split(out)))
    )
    bytes_max = max(max(r["bytes_sent"], r["bytes_received"]) for r in results)
    msgs_max = max(
        max(r["messages_sent"], r["messages_received"]) for r in results
    )
    return VolumeRow("permutation (2 iterations)", n, p, bytes_max, msgs_max)


def _sort_volume(n: int, p: int, seed: int) -> VolumeRow:
    ctx = Context(p)
    data = uniform_integers(n, seed=seed)
    out = np.sort(data)

    def program(comm, e, o):
        comm.meter.mark("checker")
        check_sort(e, o, iterations=2, seed=seed, comm=comm)
        return comm.meter.since("checker")

    results = ctx.run(
        program, per_rank_args=list(zip(ctx.split(data), ctx.split(out)))
    )
    bytes_max = max(max(r["bytes_sent"], r["bytes_received"]) for r in results)
    msgs_max = max(
        max(r["messages_sent"], r["messages_received"]) for r in results
    )
    return VolumeRow("sort (2 iterations)", n, p, bytes_max, msgs_max)


def _zip_volume(n: int, p: int, seed: int) -> VolumeRow:
    ctx = Context(p)
    s1 = uniform_integers(n, seed=seed)
    s2 = uniform_integers(n, seed=seed + 1)

    def program(comm, a, b):
        comm.meter.mark("checker")
        check_zip(a, b, a, b, iterations=2, seed=seed, comm=comm)
        return comm.meter.since("checker")

    results = ctx.run(
        program, per_rank_args=list(zip(ctx.split(s1), ctx.split(s2)))
    )
    bytes_max = max(max(r["bytes_sent"], r["bytes_received"]) for r in results)
    msgs_max = max(
        max(r["messages_sent"], r["messages_received"]) for r in results
    )
    return VolumeRow("zip (2 iterations)", n, p, bytes_max, msgs_max)


def _median_volume(n: int, p: int, seed: int) -> VolumeRow:
    ctx = Context(p)
    keys, values = sum_workload(n, 100, seed=seed)
    config = SumCheckConfig.parse("8x16 m15")

    def program(comm, k, v):
        med = median_by_key(comm, k, v)
        offset = comm.exscan(int(k.size), op=ops.SUM, identity=0)
        uids = offset + np.arange(k.size, dtype=np.int64)
        comm.meter.mark("checker")
        check_median_aggregation(
            k,
            v,
            med.keys,
            med.numerators,
            med.denominators,
            certificate=med.certificate,
            input_uids=uids,
            config=config,
            seed=seed,
            comm=comm,
        )
        return comm.meter.since("checker")

    results = ctx.run(
        program, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
    )
    bytes_max = max(max(r["bytes_sent"], r["bytes_received"]) for r in results)
    msgs_max = max(
        max(r["messages_sent"], r["messages_received"]) for r in results
    )
    return VolumeRow("median-aggregation (8x16 m15)", n, p, bytes_max, msgs_max)


_MEASUREMENTS = {
    "sum": _sum_volume,
    "permutation": _perm_volume,
    "sort": _sort_volume,
    "zip": _zip_volume,
    "median": _median_volume,
}


def checker_volume_table(
    checkers: tuple[str, ...] = ("sum", "permutation", "sort", "zip", "median"),
    ns: tuple[int, ...] = (1_000, 10_000, 100_000),
    p: int = 4,
    seed: int = 0,
) -> list[VolumeRow]:
    """Measure checker-phase bottleneck communication across input sizes."""
    rows = []
    for name in checkers:
        fn = _MEASUREMENTS[name]
        for n in ns:
            rows.append(fn(n, p, derive_seed(seed, name, n)))
    return rows
