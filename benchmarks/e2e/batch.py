"""Batch workloads: ``checked_reduce_by_key`` on zipf or all-unique keys.

Two PEs on the threads backend.  The process backend would deadlock at
these sizes: ``collectives.alltoall`` sends before it receives, and one
exchange payload (megabytes) exceeds the 256 KiB shared-memory ring.

Checked runs alternate with unchecked ``reduce_by_key`` runs, so both
see the same machine state.  Every output is checked
against ``aggregate_reference``; every checked run must accept.  After
the timed loop, one checked run per Table 4 manipulator (injected on
PE 0 inside the reduction) measures the detection rate.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from common import (
    AUDIT_FAULTS,
    PES,
    SERVICE_ONLY,
    SETUPS,
    UNIQUE_KEY_MULTIPLIER,
    MemoryProbe,
    Outcome,
    SpeedProbe,
    Tracer,
    check_bytes_per_settle,
    detection_rate,
    generator,
    median,
    median_of,
    peak_rss_mib,
    percentile_ms,
    replay_metrics,
    same_pairs,
    sorted_union,
    timed_region,
    timed_setups,
    values_for,
    zeros,
    zipf_keys,
)
from replay import CONFIG, lanes_ns_per_key, traced_reduce, traced_sum_check
from repro.comm import Context, SPMDError
from repro.core.multiseed import condense_kv
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.dataflow.pipeline import AdaptiveCheckPolicy, checked_reduce_by_key
from repro.faults.manipulators import get_kv_manipulator
from repro.workloads.kv import aggregate_reference

SIZES = {
    False: {"pairs_per_pe": 500_000, "zipf_values": 1_000_000},
    True: {"pairs_per_pe": 20_000, "zipf_values": 40_000},
}
PROBE_ARRAY = 1 << 18  # the speed kernel works on arrays as large as the inputs
PROBE_NOMINAL_S = 0.016
WARMUP_RUNS = 3
MIN_RUNS = 3
MAX_FAILURES = 10
TRACED_REPS = 8
POLICY = AdaptiveCheckPolicy()


def make_inputs(workload: str, seed: int, smoke: bool):
    """Per-PE key and value arrays plus the sorted reference aggregation."""
    n = SIZES[smoke]["pairs_per_pe"]
    gen = generator(seed, workload, "keys")
    if workload == "reduce-zipf":
        keys = zipf_keys(gen, PES * n, SIZES[smoke]["zipf_values"])
    else:
        keys = gen.permutation(PES * n).astype(np.uint64) * UNIQUE_KEY_MULTIPLIER
    values = values_for(generator(seed, workload, "values"), PES * n)
    per_pe = [
        (keys[r * n : (r + 1) * n], values[r * n : (r + 1) * n]) for r in range(PES)
    ]
    return per_pe, aggregate_reference(keys, values)


def _checked(comm, keys, values, seed, probe, manipulator=None, manipulator_seed=0):
    # One fault, injected inside PE 0's reduction (the checker sees the
    # original input); other PEs run clean.
    inject = manipulator is not None and comm.rank == 0
    (out_k, out_v, result, _), elapsed, kernel = timed_region(
        comm,
        probe,
        lambda: checked_reduce_by_key(
            comm,
            keys,
            values,
            CONFIG,
            seed=seed,
            manipulator=manipulator if inject else None,
            manipulator_rng=np.random.default_rng(manipulator_seed) if inject else None,
            policy=POLICY,
        ),
    )
    return elapsed, (out_k, out_v), result.accepted, kernel


def _unchecked(comm, keys, values, probe):
    out, elapsed, kernel = timed_region(
        comm, probe, lambda: reduce_by_key(comm, keys, values)
    )
    return elapsed, out, True, kernel


def _traced(comm, keys, values, seed, probe, memory):
    tracer = Tracer(comm.rank, comm.meter)
    peaks = MemoryProbe(comm, shared=True) if memory else None

    def replay():
        with tracer.span("core.condense"):
            condensed_in = condense_kv(keys, values)
        out = traced_reduce(tracer, comm, keys, values, peaks)
        with tracer.span("core.condense"):
            condensed_out = condense_kv(*out)
        accepted = traced_sum_check(
            tracer, comm, condensed_in, condensed_out, seed, policy=POLICY, memory=peaks
        )
        return out, accepted, condensed_in.unique_keys.size / max(keys.size, 1)

    (out, accepted, unique_ratio), elapsed, kernel = timed_region(comm, probe, replay)
    return {
        "elapsed": elapsed,
        "kernel": kernel,
        "spans": tracer.spans,
        "output": out,
        "accepted": accepted,
        "unique_ratio": unique_ratio,
        "peaks": peaks.peaks if peaks is not None else {},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    probe = SpeedProbe(PROBE_ARRAY, PROBE_NOMINAL_S)
    outcome = Outcome(probe)
    ctx = Context(PES, backend="threads")
    check_seed = int(generator(seed, workload, "checker").integers(1 << 62))
    checked_args = (check_seed, probe)

    def setup():
        per_pe, reference = make_inputs(workload, seed, smoke)
        for _ in range(WARMUP_RUNS):
            ctx.run(_checked, per_rank_args=per_pe, common_args=checked_args)
        ctx.run(_unchecked, per_rank_args=per_pe, common_args=(probe,))
        return per_pe, reference

    (per_pe, reference), setup_s = timed_setups(probe, setup, 1 if trace else SETUPS)
    elements = sum(k.size for k, _ in per_pe)

    baseline = None  # per-PE outputs of the first run verified against the reference
    checked_s = []  # nominal time of each checked run
    ratios = []  # checked over unchecked time of back-to-back runs
    meters = {}

    def verified(outputs) -> bool:
        nonlocal baseline
        if baseline is None:
            if not same_pairs(sorted_union(outputs), reference):
                return False
            baseline = outputs
            return True
        return all(same_pairs(o, b) for o, b in zip(outputs, baseline))

    def attempt(checked: bool):
        """One verified run: its measured time and speed factor, or None."""
        outcome.attempted += 1
        try:
            if checked:
                res = ctx.run(_checked, per_rank_args=per_pe, common_args=checked_args)
            else:
                res = ctx.run(_unchecked, per_rank_args=per_pe, common_args=(probe,))
        except SPMDError as exc:
            outcome.fail(f"run raised: {exc}")
            return None
        if not all(r[2] for r in res):
            outcome.fail("a clean checked run was rejected")
            return None
        if not verified([r[1] for r in res]):
            outcome.fail("output differs from aggregate_reference")
            return None
        meters.setdefault(checked, ctx.meters)
        return max(r[0] for r in res), probe.record(max(r[3] for r in res))

    # Checked and unchecked runs alternate; each ratio compares two runs a
    # fraction of a second apart, so the machine's drift cancels in it.
    deadline = time.perf_counter() + seconds
    while outcome.failed < MAX_FAILURES and (
        time.perf_counter() < deadline or len(ratios) < MIN_RUNS
    ):
        checked_run = attempt(True)
        if checked_run is None:
            continue
        checked_s.append(checked_run[0] * checked_run[1])
        unchecked_run = attempt(False)
        if unchecked_run is not None:
            ratios.append(checked_run[0] / unchecked_run[0])
    if outcome.failed >= MAX_FAILURES:
        return outcome
    peak_rss = peak_rss_mib()  # before the audit, whose faulted runs copy inputs

    detected = effective = 0
    for j, name in enumerate(AUDIT_FAULTS):
        outcome.attempted += 1
        try:
            res = ctx.run(
                _checked,
                per_rank_args=per_pe,
                common_args=(*checked_args, get_kv_manipulator(name), seed * 131 + j),
            )
        except SPMDError as exc:
            outcome.fail(f"{name} audit raised: {exc}")
            continue
        if all(same_pairs(r[1], b) for r, b in zip(res, baseline)):
            continue  # the fault left the output unchanged
        effective += 1
        if res[0][2]:
            outcome.fail(f"{name}: wrong output accepted")
        else:
            detected += 1

    checked_med = median(checked_s)
    outcome.end_to_end = {
        "setup_s": setup_s,
        "throughput_melem_s": elements / checked_med / 1e6,
        "latency_p50_ms": checked_med * 1e3,
        "overhead_ratio": median(ratios),
        "peak_rss_mb": peak_rss,
        "detect_rate": detection_rate(detected, effective),
    }
    if trace:
        _trace(outcome, ctx, per_pe, baseline, checked_args, checked_med)
        outcome.per_layer["comm.check_bytes_per_settle"] = check_bytes_per_settle(
            meters[True], meters[False], settles=1
        )
        outcome.per_layer["bench.latency_p90_ms"] = percentile_ms(checked_s, 90)
        outcome.per_layer["bench.latency_p99_ms"] = percentile_ms(checked_s, 99)
    return outcome


def _trace(outcome, ctx, per_pe, baseline, checked_args, untraced_s):
    matches = True
    reps = []
    for memory in [False] * TRACED_REPS + [True]:
        if memory:
            tracemalloc.start()
        try:
            res = ctx.run(
                _traced, per_rank_args=per_pe, common_args=(*checked_args, memory)
            )
        finally:
            if memory:
                tracemalloc.stop()
        matches &= all(r["accepted"] for r in res)
        matches &= all(same_pairs(r["output"], b) for r, b in zip(res, baseline))
        if memory:
            break
        factor = outcome.probe.record(max(r["kernel"] for r in res))
        spans = [r["spans"] for r in res]
        outcome.spans.extend(s for pe in spans for s in pe)
        elapsed = max(r["elapsed"] for r in res)
        reps.append(replay_metrics(spans, elapsed, 1, factor, untraced_s))
    outcome.replay_matches = bool(matches)
    outcome.per_layer = {
        **median_of(reps),
        "core.condense_unique_ratio": float(np.mean([r["unique_ratio"] for r in res])),
        "hashing.lanes_ns_per_key": lanes_ns_per_key(
            outcome.probe, np.unique(per_pe[0][0]), checked_args[0]
        ),
        "core.table_fold_peak_mb": res[0]["peaks"]["core.table_fold"],
        "dataflow.reduce_by_key_peak_mb": res[0]["peaks"]["dataflow.reduce_by_key"],
        **zeros(*SERVICE_ONLY),
    }
