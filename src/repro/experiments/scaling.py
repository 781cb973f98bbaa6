"""Weak-scaling overhead of the checked reduction pipeline — Fig 4.

The paper runs ReduceByKey with and without the checker on 125 000 Zipf
items per PE for p = 32 .. 4096 cores and plots ``time(with checker) /
time(without)``: ≈ 1.01–1.12, essentially flat, with the network noise of
the exchange dominating from 4 nodes on.

Substitution (see DESIGN.md): wall-clock on a real cluster is replaced by

* **measured** ratios on the thread-backed simulator for small p (the local
  work is real; the exchange is real message passing in shared memory), and
* **modeled** ratios for the paper's p range, combining measured
  per-element local costs with the paper's own α–β collective formulas
  (§2) — the same model the paper's analysis uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.comm.context import Context
from repro.comm.cost import CostModel
from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.experiments.overhead import OverheadEngine
from repro.util.rng import derive_seed, derive_seed_array
from repro.workloads.kv import sum_workload


@dataclass
class ScalingPoint:
    """One x-position of the Fig 4 series."""

    p: int
    time_without: float
    time_with: float

    @property
    def ratio(self) -> float:
        if self.time_without == 0.0:
            return 1.0
        return self.time_with / self.time_without


@dataclass
class StreamingWindowPoint:
    """One row of the window-count vs wire-volume trade-off model.

    A windowed streaming check settles once per window, so the wire
    volume and the collective latency both scale linearly with the window
    count while the local (per-element) checker work is invariant —
    windows buy verdict granularity (an error surfaces after its window,
    not after the whole job) at α·log p + β·table cost per window.
    """

    windows: int
    p: int
    wire_bits_total: int
    local_seconds: float
    settle_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.local_seconds + self.settle_seconds

    @property
    def wire_bits_per_window(self) -> int:
        return self.wire_bits_total // max(self.windows, 1)


def _run_reduction(
    ctx: Context, key_chunks, val_chunks, checker_cfg, seed, num_seeds=1
):
    """One weak-scaling run; returns max wall time over PEs."""

    def program(comm, keys, values):
        # Checker construction (hash tables, moduli) happens once per job in
        # Thrill too — keep it outside the timed pipeline.
        checker = None
        if checker_cfg is not None:
            seeds = seed
            if num_seeds > 1:
                seeds = derive_seed_array(
                    seed, "scaling", np.arange(num_seeds, dtype=np.uint64)
                )
            checker = MultiSeedSumChecker(checker_cfg, seeds)
        # Start every PE's clock together: on processes the workers are
        # forked one after another, and a clock started before its peers
        # exist would time their start-up, not the pipeline.
        comm.barrier()
        t0 = time.perf_counter()
        if checker is not None:
            t_in = checker.local_tables(keys, values)
        out_k, out_v = reduce_by_key(comm, keys, values)
        if checker is not None:
            t_out = checker.local_tables(out_k, out_v)
            diff = checker.difference(t_in, t_out)
            # All seed lanes settle in one packed collective.
            verdict = all(checker.per_seed_verdicts(diff, comm))
            if not verdict:
                raise AssertionError("checker rejected a correct reduction")
        return time.perf_counter() - t0

    times = ctx.run(program, per_rank_args=list(zip(key_chunks, val_chunks)))
    return max(times)


def measured_weak_scaling(
    config: SumCheckConfig,
    items_per_pe: int = 20_000,
    pes: tuple[int, ...] = (1, 2, 4, 8),
    repeats: int = 3,
    num_keys: int = 10**6,
    seed: int = 0,
    num_seeds: int = 1,
) -> list[ScalingPoint]:
    """Threaded weak-scaling measurement (real local work, real messages).

    ``num_seeds > 1`` measures the multi-seed row: all ``T`` checkers run
    through the batched one-pass kernel and settle in one collective.
    """
    points = []
    for p in pes:
        ctx = Context(p)
        key_chunks, val_chunks = [], []
        for rank in range(p):
            k, v = sum_workload(
                items_per_pe, num_keys, seed=derive_seed(seed, "pe", p, rank)
            )
            key_chunks.append(k)
            val_chunks.append(v)
        best_without = float("inf")
        best_with = float("inf")
        for _ in range(repeats):
            best_without = min(
                best_without,
                _run_reduction(ctx, key_chunks, val_chunks, None, seed),
            )
            best_with = min(
                best_with,
                _run_reduction(
                    ctx, key_chunks, val_chunks, config, seed, num_seeds
                ),
            )
        points.append(ScalingPoint(p, best_without, best_with))
    return points


def modeled_weak_scaling(
    config: SumCheckConfig,
    items_per_pe: int = 125_000,
    pes: tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048, 4096),
    cost_model: CostModel | None = None,
    num_keys: int = 10**6,
    check_local_ns: float | None = None,
    reduce_local_ns: float | None = None,
    measure_elements: int = 200_000,
    seed: int = 0,
    num_seeds: int = 1,
) -> list[ScalingPoint]:
    """Fig 4 for the paper's p range via the §2 α–β model.

    ``time_without(p) = reduce_local·n/p + T_all-to-all(w·k/p, p)`` and the
    checker adds ``check_local·(n/p + k/p) + T_coll(table_bits, p)`` — the
    terms of §2 "Reduction" and Theorem 1.  Local per-element costs default
    to values measured on this machine, the checker's and the reduce
    baseline's in one :class:`~repro.experiments.overhead.OverheadEngine`
    sweep over one ``measure_elements``-pair workload.

    ``num_seeds > 1`` models the δ^T multi-seed row: the local term uses
    the *batched* multi-seed cost per element·seed (measured through
    :class:`~repro.core.multiseed.MultiSeedSumChecker`, which shares one
    data pass across seeds) and the collective carries all ``T`` packed
    tables in one message.
    """
    cost = cost_model or CostModel()
    if check_local_ns is None or reduce_local_ns is None:
        checks = [config] if check_local_ns is None else []
        rows = OverheadEngine(measure_elements, seed=seed).measure_table5(
            checks if num_seeds == 1 else [],
            include_baseline=reduce_local_ns is None,
            multiseed=[(c, num_seeds) for c in checks] if num_seeds > 1 else [],
        )
        if check_local_ns is None:
            check_local_ns = num_seeds * rows[0].ns_per_element
        if reduce_local_ns is None:
            reduce_local_ns = rows[-1].ns_per_element

    points = []
    for p in pes:
        n = items_per_pe * p
        # Distinct keys under the Zipf law are ~min(num_keys, n) in order of
        # magnitude; the exchanged partial sums per PE are ~w·k/p bytes.
        k = min(num_keys, n)
        exchange_bytes = 16 * k // p  # (key, partial sum) = 2 words
        t_reduce = (
            reduce_local_ns * 1e-9 * items_per_pe
            + cost.t_all_to_all(exchange_bytes, p)
        )
        table_bytes = (num_seeds * config.table_bits + 7) // 8
        t_check = (
            check_local_ns * 1e-9 * (items_per_pe + k // p)
            + cost.t_coll(table_bytes, p)
        )
        points.append(ScalingPoint(p, t_reduce, t_reduce + t_check))
    return points


def modeled_streaming_windows(
    config: SumCheckConfig,
    items_per_pe: int = 125_000,
    p: int = 1024,
    windows: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    cost_model: CostModel | None = None,
    num_seeds: int = 1,
    check_local_ns: float | None = None,
    measure_elements: int = 200_000,
    seed: int = 0,
) -> list[StreamingWindowPoint]:
    """Window count vs wire volume for the streaming checked reduction.

    Each window settles its own packed minireduction table, so ``W``
    windows put ``W · T · table_bits`` on the wire and pay ``W`` packed
    collectives (``T_coll`` each), while the local condensed-checker work
    over the ``items_per_pe`` elements is window-invariant (the stream
    folds every chunk exactly once regardless of where the window
    boundaries fall).  The α–β terms are the same §2 formulas the Fig 4
    model uses; this is the dial a deployment turns to trade verdict
    granularity (errors surface per window) against checker traffic.
    """
    cost = cost_model or CostModel()
    if check_local_ns is None:
        (row,) = OverheadEngine(measure_elements, seed=seed).measure_table5(
            [config], include_baseline=False
        )
        check_local_ns = row.ns_per_element
    table_bytes = (num_seeds * config.table_bits + 7) // 8
    local_seconds = check_local_ns * 1e-9 * items_per_pe
    points = []
    for w in windows:
        points.append(
            StreamingWindowPoint(
                windows=w,
                p=p,
                wire_bits_total=w * num_seeds * config.table_bits,
                local_seconds=local_seconds,
                settle_seconds=w * cost.t_coll(table_bytes, p),
            )
        )
    return points
