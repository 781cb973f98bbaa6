"""Streaming workload: ``reduce_by_key_checked`` over small windows.

Two PEs on the processes backend, 2048-pair chunks, two chunks per
window.  Each window costs a handful of small messages and one settle,
so per-message latency and the fixed settle cost dominate and hashing
hardly shows.  Checked runs alternate with unchecked runs that drive the
same windows through ``local_aggregate`` and ``reduce_by_key``.  Every
window's output is checked against ``aggregate_reference`` of that
window.

The process backend's ``alltoall`` sends before it receives through a
shared-memory ring of fixed capacity per PE pair, so an exchange payload
larger than the ring deadlocks until the transport times out.  The setup
measures the largest payload of any window and refuses to run above the
ring capacity.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc

import numpy as np

from common import (
    AUDIT_FAULTS,
    PES,
    SERVICE_ONLY,
    SETUPS,
    MemoryProbe,
    Outcome,
    SpeedProbe,
    Tracer,
    WorkloadTooLarge,
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
from repro.comm import Context, SPMDError, ops, proc_backend
from repro.comm.backend import encode_frame
from repro.core.groupby_checker import default_partitioner
from repro.core.multiseed import condense_kv
from repro.dataflow.ops.reduce_by_key import local_aggregate, reduce_by_key
from repro.dataflow.pipeline import AdaptiveCheckPolicy
from repro.dataflow.streaming import StreamingKeyValueDIA, window_seed
from repro.faults.manipulators import get_kv_manipulator
from repro.workloads.kv import aggregate_reference

SIZES = {
    False: {"pairs_per_pe": 2_000_000, "zipf_values": 100_000},
    True: {"pairs_per_pe": 40_000, "zipf_values": 4_000},
}
CHUNK = 2048
CHUNKS_PER_WINDOW = 2
PROBE_ARRAY = CHUNK  # the speed kernel works on chunk-sized arrays
PROBE_NOMINAL_S = 0.010
PROBE_EVERY = 25  # windows between two speed samples
AUDIT_WINDOWS = 2 * len(AUDIT_FAULTS)  # every other window carries one fault
WARMUP_WINDOWS = 32
MIN_RUNS = 2
MAX_FAILURES = 5
TRACED_RUNS = 2
POLICY = AdaptiveCheckPolicy()


def make_inputs(seed: int, smoke: bool):
    """Per-PE chunk lists and the reference aggregation of every window."""
    n = SIZES[smoke]["pairs_per_pe"]
    keys = zipf_keys(
        generator(seed, "stream-windows", "keys"), PES * n, SIZES[smoke]["zipf_values"]
    )
    values = values_for(generator(seed, "stream-windows", "values"), PES * n)
    chunks = [
        [
            (keys[i : i + CHUNK], values[i : i + CHUNK])
            for i in range(r * n, (r + 1) * n, CHUNK)
        ]
        for r in range(PES)
    ]
    step = CHUNKS_PER_WINDOW
    references = [
        aggregate_reference(
            np.concatenate([k for pe in chunks for k, _ in pe[w : w + step]]),
            np.concatenate([v for pe in chunks for _, v in pe[w : w + step]]),
        )
        for w in range(0, len(chunks[0]), step)
    ]
    return chunks, references


def largest_exchange_frame(chunks) -> int:
    """Bytes of the largest frame one PE sends another in any window's exchange."""
    route = default_partitioner(PES)
    rows = 0
    for src, pe in enumerate(chunks):
        for w in range(0, len(pe), CHUNKS_PER_WINDOW):
            window = pe[w : w + CHUNKS_PER_WINDOW]
            keys = np.unique(np.concatenate([k for k, _ in window]))
            counts = np.bincount(route(keys), minlength=PES)
            counts[src] = 0
            rows = max(rows, int(counts.max()))
    # The frame of an exchange payload grows with its row count alone.
    return len(encode_frame((np.zeros(rows, np.uint64), np.zeros(rows, np.int64))))


class WindowClock:
    """One PE's window latencies, with the speed kernel every few windows.

    The kernel runs right before a window starts, on every PE at about the
    same time (windows advance in lockstep), and its time is left out of
    every latency.
    """

    def __init__(self, probe):
        self.probe = probe
        self.starts: list[float] = []
        self.paused: list[float] = []
        self.kernels: list[float] = []

    def start_window(self) -> None:
        paused = 0.0
        if len(self.starts) % PROBE_EVERY == 0:
            t0 = time.perf_counter()
            self.kernels.append(self.probe.kernel_seconds())
            paused = time.perf_counter() - t0
        self.starts.append(time.perf_counter())
        self.paused.append(paused)

    def finish(self) -> dict:
        starts = np.asarray(self.starts + [time.perf_counter()])
        paused = np.asarray(self.paused[1:] + [0.0])
        return {"windows": np.diff(starts) - paused, "kernels": self.kernels}


def _checked(comm, chunks, seed, probe, fault=None):
    clock = WindowClock(probe)

    def feed():
        for i, chunk in enumerate(chunks):
            if i % CHUNKS_PER_WINDOW == 0:
                clock.start_window()
            yield chunk

    comm.barrier()
    run = StreamingKeyValueDIA.from_chunks(comm, feed()).reduce_by_key_checked(
        CONFIG,
        seed=seed,
        chunks_per_window=CHUNKS_PER_WINDOW,
        policy=POLICY,
        fault=fault,
    )
    return {
        **clock.finish(),
        "outputs": run.outputs,
        "accepted": [v.accepted for v in run.verdicts],
    }


def _unchecked(comm, chunks, probe):
    clock = WindowClock(probe)
    outputs = []
    comm.barrier()
    for w in range(0, len(chunks), CHUNKS_PER_WINDOW):
        clock.start_window()
        parts = [local_aggregate(k, v) for k, v in chunks[w : w + CHUNKS_PER_WINDOW]]
        merged = local_aggregate(
            np.concatenate([k for k, _ in parts]), np.concatenate([v for _, v in parts])
        )
        outputs.append(reduce_by_key(comm, *merged))
    return {**clock.finish(), "outputs": outputs}


def _nominal_windows(probe, res) -> np.ndarray:
    """PE 0's window latencies at nominal speed (slowest PE's kernel)."""
    kernels = np.max([r["kernels"] for r in res], axis=0)
    factors = np.array([probe.record(k) for k in kernels])
    raw = res[0]["windows"]
    return raw * factors[np.arange(raw.size) // PROBE_EVERY]


def _audit_fault(rank: int, seed: int):
    """Corrupt PE 0's data in every other window, one Table 4 manipulator each."""
    plan = {2 * i + 1: name for i, name in enumerate(AUDIT_FAULTS)}

    def fault(window, keys, values):
        name = plan.get(window)
        if rank != 0 or name is None or keys.size == 0:
            return keys, values
        hit = get_kv_manipulator(name).apply(
            np.random.default_rng([seed, window]), keys, values
        )
        return hit.keys, hit.values

    return fault


def _audited(comm, chunks, seed, probe, audit_seed):
    fault = _audit_fault(comm.rank, audit_seed)
    return _checked(comm, chunks, seed, probe, fault=fault)


def _traced(comm, chunks, seed, probe, memory):
    tracer = Tracer(comm.rank, comm.meter)
    peaks = MemoryProbe(comm, shared=False) if memory else None

    def replay():
        outputs, accepted = [], []
        for w in itertools.count():
            window = chunks[w * CHUNKS_PER_WINDOW : (w + 1) * CHUNKS_PER_WINDOW]
            with tracer.span("comm.collective"):
                if not comm.allreduce(bool(window), op=ops.LOR):
                    return outputs, accepted
            with tracer.span("core.condense"):
                condensed_in = condense_kv(
                    np.concatenate([k for k, _ in window]),
                    np.concatenate([v for _, v in window]),
                )
            with tracer.span("dataflow.local_aggregate"):
                parts = [local_aggregate(k, v) for k, v in window]
                merged = local_aggregate(
                    np.concatenate([k for k, _ in parts]),
                    np.concatenate([v for _, v in parts]),
                )
            out = traced_reduce(tracer, comm, *merged, peaks)
            with tracer.span("core.condense"):
                condensed_out = condense_kv(*out)
            accepted.append(
                traced_sum_check(
                    tracer,
                    comm,
                    condensed_in,
                    condensed_out,
                    window_seed(seed, w),
                    policy=POLICY,
                    memory=peaks,
                )
            )
            outputs.append(out)

    if memory:
        tracemalloc.start()
    try:
        (outputs, accepted), elapsed, kernel = timed_region(comm, probe, replay)
    finally:
        if memory:
            tracemalloc.stop()
    return {
        "elapsed": elapsed,
        "kernel": kernel,
        "spans": tracer.spans,
        "outputs": outputs,
        "accepted": accepted,
        "peaks": peaks.peaks if peaks is not None else {},
    }


def _window_outputs(res) -> list[list]:
    """Per window, every PE's output slice."""
    return [list(pes) for pes in zip(*(r["outputs"] for r in res))]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    probe = SpeedProbe(PROBE_ARRAY, PROBE_NOMINAL_S)
    outcome = Outcome(probe)
    ctx = Context(PES, backend="processes")
    check_seed = int(generator(seed, workload, "checker").integers(1 << 62))
    checked_args = (check_seed, probe)
    capacity = proc_backend._DEFAULT_DATA_CAP

    def setup():
        chunks, references = make_inputs(seed, smoke)
        largest = largest_exchange_frame(chunks)
        if largest > capacity:
            raise WorkloadTooLarge(
                f"a window's exchange sends a {largest}-byte frame between two "
                f"PEs, above the {capacity}-byte shared-memory ring; the "
                f"process backend's alltoall would deadlock"
            )
        head = [(pe[:WARMUP_WINDOWS],) for pe in chunks]
        ctx.run(_checked, per_rank_args=head, common_args=checked_args)
        ctx.run(_unchecked, per_rank_args=head, common_args=(probe,))
        return chunks, references

    (chunks, references), setup_s = timed_setups(probe, setup, 1 if trace else SETUPS)
    args = [(pe,) for pe in chunks]
    elements = sum(k.size for pe in chunks for k, _ in pe)
    windows = len(references)

    def verify(res, checked: bool) -> None:
        per_window = _window_outputs(res)
        for w, (parts, ref) in enumerate(zip(per_window, references)):
            outcome.attempted += 1
            if checked and not res[0]["accepted"][w]:
                outcome.fail(f"window {w}: clean window rejected")
            elif not same_pairs(sorted_union(parts), ref):
                outcome.fail(f"window {w}: output differs from aggregate_reference")
        if len(per_window) != windows:
            outcome.fail(f"settled {len(per_window)} of {windows} windows")

    latencies = []  # PE 0's checked window latencies at nominal speed
    unchecked = []  # the same for the unchecked runs
    run_s = []  # nominal time of each checked run
    meters = {}
    first_checked = None

    def attempt(checked: bool):
        """One verified run's results, or None."""
        try:
            if checked:
                res = ctx.run(_checked, per_rank_args=args, common_args=checked_args)
            else:
                res = ctx.run(_unchecked, per_rank_args=args, common_args=(probe,))
        except SPMDError as exc:
            outcome.attempted += 1
            outcome.fail(f"run raised: {exc}")
            return None
        failed_before = outcome.failed
        verify(res, checked)
        if outcome.failed > failed_before:
            return None
        meters.setdefault(checked, ctx.meters)
        return res

    deadline = time.perf_counter() + seconds
    while outcome.failed < MAX_FAILURES and (
        time.perf_counter() < deadline or len(run_s) < MIN_RUNS or not unchecked
    ):
        for checked in (True, False):
            res = attempt(checked)
            if res is None:
                continue
            windows_s = _nominal_windows(probe, res)
            if not checked:
                unchecked.extend(windows_s)
                continue
            latencies.extend(windows_s)
            run_s.append(float(windows_s.sum()))
            first_checked = first_checked or _window_outputs(res)
    if outcome.failed >= MAX_FAILURES:
        return outcome
    peak_rss = peak_rss_mib()  # before the audit, whose faulted windows copy inputs

    head = [(pe[: AUDIT_WINDOWS * CHUNKS_PER_WINDOW],) for pe in chunks]
    res = ctx.run(_audited, per_rank_args=head, common_args=(*checked_args, seed))
    detected = effective = 0
    for w, (parts, ref) in enumerate(zip(_window_outputs(res), references)):
        outcome.attempted += 1
        if same_pairs(sorted_union(parts), ref):
            continue  # clean window, or a fault that left the output unchanged
        effective += 1
        if res[0]["accepted"][w]:
            outcome.fail(f"audit window {w}: wrong output accepted")
        else:
            detected += 1

    checked_s = median(run_s)
    outcome.end_to_end = {
        "setup_s": setup_s,
        "throughput_melem_s": elements / checked_s / 1e6,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "overhead_ratio": median(latencies) / median(unchecked),
        "peak_rss_mb": peak_rss,
        "detect_rate": detection_rate(detected, effective),
    }
    if trace:
        _trace(outcome, ctx, args, first_checked, checked_args, checked_s, windows)
        outcome.per_layer["comm.check_bytes_per_settle"] = check_bytes_per_settle(
            meters[True], meters[False], settles=windows
        )
        outcome.per_layer["bench.latency_p90_ms"] = percentile_ms(latencies, 90)
        outcome.per_layer["bench.latency_p99_ms"] = percentile_ms(latencies, 99)
    return outcome


def _trace(outcome, ctx, args, untraced_outputs, checked_args, untraced_s, windows):
    matches = True
    runs = []
    for memory in [False] * TRACED_RUNS + [True]:
        res = ctx.run(_traced, per_rank_args=args, common_args=(*checked_args, memory))
        matches &= all(all(r["accepted"]) for r in res)
        replayed = _window_outputs(res)
        matches &= len(replayed) == len(untraced_outputs) and all(
            same_pairs(a, b)
            for pa, pb in zip(replayed, untraced_outputs)
            for a, b in zip(pa, pb)
        )
        if memory:
            break
        factor = outcome.probe.record(max(r["kernel"] for r in res))
        spans = [r["spans"] for r in res]
        if not runs:
            outcome.spans.extend(s for pe in spans for s in pe)
        elapsed = max(r["elapsed"] for r in res)
        runs.append(replay_metrics(spans, elapsed, windows, factor, untraced_s))
    first = args[0][0][:CHUNKS_PER_WINDOW]
    window_keys = np.concatenate([k for k, _ in first])
    outcome.replay_matches = bool(matches)
    outcome.per_layer = {
        **median_of(runs),
        "core.condense_unique_ratio": np.unique(window_keys).size / window_keys.size,
        "hashing.lanes_ns_per_key": lanes_ns_per_key(
            outcome.probe, np.unique(window_keys), checked_args[0]
        ),
        "core.table_fold_peak_mb": max(r["peaks"]["core.table_fold"] for r in res),
        "dataflow.reduce_by_key_peak_mb": max(
            r["peaks"]["dataflow.reduce_by_key"] for r in res
        ),
        **zeros(*SERVICE_ONLY),
    }
