"""Service workload: ``CheckedStreamService`` under injected faults.

Two tenants, a ``reduce_by_key`` and a ``zip`` stream, scripted by the
public ``TenantChaos``: chunks of 1024, four per window, 2^16 keys, 5% of
windows faulted and half of those faults persistent, repaired under
``RepairPolicy()``.  The load is an open loop: each tenant receives 50
windows per second on a fixed schedule, the second tenant half a window
behind the first, whatever the service does.  Each chunk is stamped with
the time it was due; a window's latency runs from the due time of its
last chunk to the moment the generator sees its verdict, polling
``stats().windows_settled`` every 0.5 ms while idle.  So a stall is
charged to every window queued behind it.

At this rate the service runs at about a third of its closed-loop
capacity; with chunks of 2048 it would run at half, where a slow minute
on a shared machine tips it into queueing.  Half the faults persist so
that quarantined windows (2.5% of all) sit inside the latency tail
rather than at its edge, where the tail would jump with each seed's
fault count.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from common import (
    PHASES,
    SETUPS,
    MemoryProbe,
    Outcome,
    SpeedProbe,
    Tracer,
    detection_rate,
    median,
    peak_rss_mib,
    percentile_ms,
    timed_setups,
    top_level_seconds,
    zeros,
)
from replay import CONFIG, lanes_ns_per_key, traced_reduce, traced_sum_check
from repro.core.localize import localize_fault
from repro.core.multiseed import condense_kv
from repro.dataflow.ops.reduce_by_key import local_aggregate, reduce_by_key
from repro.dataflow.ops.zip_op import zip_arrays
from repro.dataflow.repair import repair_reduce_window, repair_zip_window
from repro.dataflow.streaming import settle_zip_window, window_seed
from repro.service import CheckedStreamService, Op, SoakConfig, build_tenants
from repro.util.rng import derive_seed_array

RATE = 50.0  # windows per second and tenant
PROBE_ARRAY = 1024  # the speed kernel works on chunk-sized arrays
PROBE_NOMINAL_S = 0.035
POLL_S = 0.0005
CHUNKS_PER_WINDOW = 4
SIZES = {
    False: {"chunk": 1024, "key_domain": 1 << 16, "fault_rate": 0.05},
    # Smoke runs are short, so they fault more windows to be sure to audit some.
    True: {"chunk": 256, "key_domain": 1 << 10, "fault_rate": 0.3},
}
WARMUP_WINDOWS = 4
PERSISTENT_SHARE = 0.5
SEGMENT_S = 0.5  # seconds of schedule between two speed samples
SPEED_EVERY = 25  # replayed windows per speed sample
MEMORY_WINDOWS = 16
STALL_LIMIT_S = 60.0
STATS_CALLS = 200


def soak_config(seed: int, windows: int, smoke: bool, fault_rate=None) -> SoakConfig:
    sizes = SIZES[smoke]
    return SoakConfig(
        tenants=2,
        windows_per_tenant=windows,
        chunks_per_window=CHUNKS_PER_WINDOW,
        chunk_size=sizes["chunk"],
        key_domain=sizes["key_domain"],
        fault_rate=sizes["fault_rate"] if fault_rate is None else fault_rate,
        persistent_share=PERSISTENT_SHARE,
        seed=seed,
        check_iterations=8,
        ops=(Op.REDUCE_BY_KEY, Op.ZIP),
        queue_capacity=64,
    )


def _closed_loop(cfg: SoakConfig) -> None:
    """Settle every window of ``cfg`` through a throwaway service."""
    tenants = build_tenants(cfg)
    with CheckedStreamService() as service:
        handles = [service.register(tc.name, tc.tenant_config()) for tc in tenants]
        for w in range(cfg.windows_per_tenant):
            for tc, handle in zip(tenants, handles):
                for chunk in tc.window_chunks(w):
                    handle.submit(chunk)


def _due(tenant: int, window: int, chunk: int) -> float:
    return (window + (chunk + 1) / CHUNKS_PER_WINDOW + tenant / 2) / RATE


def _digest(output) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in output if isinstance(output, tuple) else (output,):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.digest()


@dataclass
class Drive:
    """What the generator saw: latency per tenant and window, speed per window."""

    latency_s: list[list[float | None]]  # at nominal speed
    factor: list[float]
    lag_s: float  # at nominal speed
    active_s: float  # first due chunk to last verdict, pauses excluded (wall time)


def drive(tenants, handles, probe) -> Drive:
    """Feed the open-loop schedule, segment by segment.

    Between segments the generator waits until every submitted window has
    settled, samples the machine's speed while the service is idle, and
    shifts the rest of the schedule by the pause.  A window's latency is
    scaled to nominal speed by the mean factor of the samples on both
    sides of its segment.
    """
    windows = tenants[0].soak.windows_per_tenant
    per_segment = max(1, round(SEGMENT_S * RATE))
    schedule = sorted(
        ((w // per_segment, _due(i, w, c)), i, w, c)
        for i in range(len(tenants))
        for w in range(windows)
        for c in range(CHUNKS_PER_WINDOW)
    )
    settled = [0] * len(handles)
    verdict_at = [[None] * windows for _ in handles]
    due_at = [[0.0] * windows for _ in handles]

    def poll() -> None:
        now = time.perf_counter()
        for i, handle in enumerate(handles):
            count = handle.stats().windows_settled
            for w in range(settled[i], count):
                verdict_at[i][w] = now
            settled[i] = count

    def wait_for(count: int) -> None:
        progress_at, last = time.perf_counter(), sum(settled)
        while (
            sum(settled) < count
            and time.perf_counter() - progress_at < STALL_LIMIT_S
        ):
            poll()
            time.sleep(POLL_S)
            if sum(settled) > last:
                progress_at, last = time.perf_counter(), sum(settled)

    factors = [probe.factor()]
    lag = shift = 0.0
    segment = submitted = 0
    start = time.perf_counter()
    for (seg, due), i, w, c in schedule:
        if seg != segment:
            wait_for(submitted)
            factors.append(probe.factor())
            segment = seg
            shift = time.perf_counter() - start - due
        target = due + shift
        while (now := time.perf_counter() - start) < target:
            poll()
            time.sleep(min(POLL_S, target - now))
        lag = max(lag, (time.perf_counter() - start - target) * factors[-1])
        handles[i].submit(tenants[i].window_chunks(w)[c])
        if c == CHUNKS_PER_WINDOW - 1:
            due_at[i][w] = start + target
            submitted += 1
    for handle in handles:
        handle.close()
    wait_for(submitted)
    factors.append(probe.factor())

    segment_factor = [
        (factors[s] + factors[s + 1]) / 2 for s in range(len(factors) - 1)
    ]
    factor = [segment_factor[w // per_segment] for w in range(windows)]
    latency = [
        [
            None if v is None else (v - d) * f
            for v, d, f in zip(verdict_at[i], due_at[i], factor)
        ]
        for i in range(len(handles))
    ]
    done = [t for per in verdict_at for t in per if t is not None]
    first_due = start + _due(0, 0, 0)
    return Drive(latency, factor, lag, max(done, default=first_due) - first_due - shift)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    probe = SpeedProbe(PROBE_ARRAY, PROBE_NOMINAL_S)
    outcome = Outcome(probe)
    windows = max(1, round(seconds * RATE))
    cfg = soak_config(seed, windows, smoke)

    def setup():
        _closed_loop(soak_config(seed + 1, WARMUP_WINDOWS, smoke, fault_rate=1.0))
        tenants = build_tenants(cfg)
        service = CheckedStreamService()
        handles = [service.register(tc.name, tc.tenant_config()) for tc in tenants]
        return tenants, service, handles

    (tenants, service, handles), setup_s = timed_setups(
        probe, setup, 1 if trace else SETUPS, discard=lambda built: built[1].shutdown()
    )
    try:
        seen = drive(tenants, handles, probe)
        stats_call_s = probe.timed(
            lambda: [handles[0].stats() for _ in range(STATS_CALLS)]
        )[1] / STATS_CALLS
    finally:
        service.shutdown()
    peak_rss = peak_rss_mib()  # before the audit recomputes every window

    latencies, queue_waits, settles = [], [], []
    detected = effective = 0
    truth = []  # per tenant and window: accepted, repaired, quarantined, output digest
    for i, tc in enumerate(tenants):
        result = service.result(tc.name)
        stats = result.stats
        report = tc.evaluate(result)
        outcome.attempted += windows
        if result.error is not None:
            outcome.fail(f"{tc.name}: worker failed: {result.error}")
        if stats.windows_settled < windows:
            outcome.fail(
                f"{tc.name}: settled {stats.windows_settled} of {windows} windows"
            )
        for w in report.mismatched_windows:
            outcome.fail(f"{tc.name} window {w}: wrong output accepted")
        if not report.repairs_bit_identical:
            outcome.fail(f"{tc.name}: a repaired window differs from the ground truth")
        for w, record in enumerate(result.window_history):
            if w not in tc.plans and not record.accepted:
                outcome.fail(f"{tc.name} window {w}: clean window rejected")
        detected += report.detected
        effective += report.injected - report.benign_no_ops
        for w in range(stats.windows_settled):
            settle = stats.settle_latencies[w] * seen.factor[w]
            latencies.append(seen.latency_s[i][w])
            queue_waits.append(seen.latency_s[i][w] - settle)
            settles.append(settle)
        truth.append(
            [
                (r.accepted, r.repaired, r.quarantined, _digest(o))
                for r, o in zip(result.window_history, result.outputs)
            ]
        )
        del result, report  # the outputs are large; their digests remain
    tenant_stats = [service.stats(tc.name) for tc in tenants]
    elements = sum(s.elements_ingested for s in tenant_stats)
    overhead = service.run_stats().overhead_ratio
    del service, handles, tenants  # the replay rebuilds the tenants

    outcome.end_to_end = {
        "setup_s": setup_s,
        # Offered load, not speed: an open loop settles what arrives unless
        # the service falls behind, so this is not scaled to nominal speed.
        "throughput_melem_s": elements / seen.active_s / 1e6,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "overhead_ratio": overhead,
        "peak_rss_mb": peak_rss,
        "detect_rate": detection_rate(detected, effective),
    }
    if trace:
        outcome.per_layer = {
            "service.retries": sum(s.settle_retries for s in tenant_stats),
            "service.repaired": sum(s.windows_repaired for s in tenant_stats),
            "service.quarantined": sum(s.windows_quarantined for s in tenant_stats),
            "service.settle_ms_p50": percentile_ms(settles, 50),
            "service.settle_ms_p99": percentile_ms(settles, 99),
            "service.queue_wait_ms_p50": percentile_ms(queue_waits, 50),
            "service.stats_call_us": stats_call_s * 1e6,
            "bench.gen_lag_ms_max": seen.lag_s * 1e3,
            "bench.latency_p90_ms": percentile_ms(latencies, 90),
            "bench.latency_p99_ms": percentile_ms(latencies, 99),
            **zeros(
                "comm.collective_ms",
                "comm.skew_ms",
                "comm.messages_per_pe",
                "comm.modeled_bytes_per_pe",
                "comm.wire_bytes_per_pe",
                "comm.wire_over_modeled",
                "comm.model_over_measured",
                "comm.check_bytes_per_settle",
                "dataflow.exchange_bytes_per_pe",
            ),
        }
        _trace(outcome, cfg, truth, median(settles))
    return outcome


# -- traced replay -------------------------------------------------------------


def _replay_reduce(tracer, tc, w, memory=None):
    """``settle_reduce_window`` of one window, call by call."""
    tcfg = tc.tenant_config()
    seed_w = window_seed(tc.seed, w)
    chunks = tc.window_chunks(w)
    with tracer.span("core.condense"):
        condensed_in = condense_kv(
            np.concatenate([k for k, _ in chunks]),
            np.concatenate([v for _, v in chunks]),
        )
    with tracer.span("dataflow.local_aggregate"):
        parts = [local_aggregate(k, v) for k, v in chunks]
        merged = local_aggregate(
            np.concatenate([k for k, _ in parts]), np.concatenate([v for _, v in parts])
        )
    output = traced_reduce(tracer, None, *tcfg.fault(w, *merged), memory)
    with tracer.span("core.condense"):
        condensed_out = condense_kv(*output)
    if traced_sum_check(
        tracer, None, condensed_in, condensed_out, seed_w, memory=memory
    ):
        return True, False, False, output, None, 0
    repair = tcfg.repair
    with tracer.span("core.localize"):
        report = localize_fault(
            condensed_in,
            condensed_out,
            CONFIG,
            derive_seed_array(
                seed_w,
                "localize",
                np.arange(repair.localization_seeds, dtype=np.uint64),
            ),
            None,
            window=w,
            max_rounds=repair.max_rounds,
            max_ranges=repair.max_ranges,
        )

    def recompute(comm, keys, values, partitioner):
        return reduce_by_key(comm, *tcfg.fault(w, keys, values), partitioner)

    with tracer.span("dataflow.repair"):
        healed = repair_reduce_window(
            None,
            window=w,
            window_seed=seed_w,
            config=CONFIG,
            reexecute=tcfg.reexecute,
            old_output=output,
            policy=repair,
            report=report,
            recompute=recompute,
        )
    final = healed.output if healed.healed else output
    ok = healed.healed
    return ok, ok, not ok, final, report, healed.attempts


def _replay_zip(tracer, tc, w):
    """``settle_zip_window`` of one window, with its repair as its own span."""
    tcfg = tc.tenant_config()
    seed_w = window_seed(tc.seed, w)
    chunks = tc.window_chunks(w)
    with tracer.span("service.settle_zip_window"):
        output, verdict, *_ = settle_zip_window(
            None,
            [c[0] for c in chunks],
            [c[1] for c in chunks],
            seed_w=seed_w,
            window=w,
            iterations=tcfg.iterations,
            fault=tcfg.fault,
        )
    if verdict.accepted:
        return True, False, False, output, None, 0

    def recompute(comm, first, second):
        first, second, offsets = zip_arrays(comm, first, second, return_offsets=True)
        return (*tcfg.fault(w, first, second), offsets)

    with tracer.span("dataflow.repair"):
        healed = repair_zip_window(
            None, w, seed_w, tcfg.iterations, tcfg.reexecute, tcfg.repair, recompute
        )
    final = healed.output if healed.healed else output
    ok = healed.healed
    return ok, ok, not ok, final, None, healed.attempts


def _trace(outcome, cfg, truth, untraced_settle_s):
    replayers = {Op.REDUCE_BY_KEY: _replay_reduce, Op.ZIP: _replay_zip}
    matches = True
    window_s, window_spans = [], []
    phase_s = defaultdict(float)  # nominal seconds per span name
    rounds = attempts = localized = repaired = 0
    for tc, expected in zip(build_tenants(cfg), truth):
        for w in range(cfg.windows_per_tenant):
            if w % SPEED_EVERY == 0:
                factor = outcome.probe.factor()
            tracer = Tracer(0)
            t0 = time.perf_counter()
            accepted, healed, quarantined, output, report, tries = replayers[tc.op](
                tracer, tc, w
            )
            window_s.append(factor * (time.perf_counter() - t0))
            window_spans.append(factor * top_level_seconds(tracer.spans))
            for span in tracer.spans:
                phase_s[span["name"]] += factor * (span["end"] - span["start"])
            matches &= w < len(expected) and expected[w] == (
                accepted,
                healed,
                quarantined,
                _digest(output),
            )
            attempts += tries
            repaired += tries > 0
            if report is not None:
                rounds += report.bisection_rounds
                localized += 1
            outcome.spans.extend(tracer.spans)

    first = build_tenants(replace(cfg, windows_per_tenant=MEMORY_WINDOWS))[0]
    keys = np.unique(np.concatenate([k for k, _ in first.window_chunks(0)]))
    memory = MemoryProbe(None, shared=False)
    tracemalloc.start()
    try:
        for w in range(MEMORY_WINDOWS):
            _replay_reduce(Tracer(0), first, w, memory)
    finally:
        tracemalloc.stop()
    outcome.replay_matches = bool(matches)
    # The core and dataflow phases run in the reduce tenant's windows only.
    reduce_windows = cfg.windows_per_tenant
    outcome.per_layer.update(
        {
            **{f"{p}_ms": phase_s[p] * 1e3 / reduce_windows for p in PHASES},
            "core.condense_unique_ratio": (
                keys.size / (CHUNKS_PER_WINDOW * cfg.chunk_size)
            ),
            "hashing.lanes_ns_per_key": lanes_ns_per_key(
                outcome.probe, keys, first.seed
            ),
            "core.table_fold_peak_mb": memory.peaks["core.table_fold"],
            "dataflow.reduce_by_key_peak_mb": memory.peaks["dataflow.reduce_by_key"],
            "core.localize_ms": phase_s["core.localize"] * 1e3 / max(localized, 1),
            "core.bisection_rounds": rounds,
            "dataflow.repair_ms": phase_s["dataflow.repair"] * 1e3 / max(repaired, 1),
            "dataflow.repair_attempts": attempts,
            "service.direct_settle_ms_p50": median(window_s) * 1e3,
            "trace.coverage": median(window_spans) / untraced_settle_s,
            "trace.overhead": median(window_s) / untraced_settle_s,
        }
    )
