"""Shared pieces of the end-to-end benchmark: inputs, statistics, spans.

Inputs come from numpy's own generators seeded by ``--seed`` and a
workload label, never from ``repro`` code, so a change to the program
cannot change what the benchmark feeds it.  The one exception is the
service workload, whose tenants and ground truth are the public
``repro.service.chaos.TenantChaos`` scripts.
"""

from __future__ import annotations

import resource
import threading
import time
import tracemalloc
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: Number of PEs and checker configuration shared by every workload.
PES = 2
CONFIG_LABEL = "8x16 m15"

#: Odd 64-bit multiplier that spreads a permutation over the key space.
UNIQUE_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Table 4 manipulators injected by the detection audits.
AUDIT_FAULTS = ("Bitflip", "RandKey", "SwitchValues", "IncKey", "IncDec1", "IncDec2")

_MIB = 1 << 20


def generator(seed: int, *labels: str) -> np.random.Generator:
    """A numpy generator fixed by ``seed`` and the labels."""
    return np.random.default_rng([seed, *(zlib.crc32(s.encode()) for s in labels)])


def zipf_keys(gen: np.random.Generator, count: int, num_values: int) -> np.ndarray:
    """``count`` keys with frequency of rank k proportional to 1/k (0-based)."""
    cdf = np.cumsum(1.0 / np.arange(1, num_values + 1, dtype=np.float64))
    cdf /= cdf[-1]
    return np.searchsorted(cdf, gen.random(count)).astype(np.uint64)


def values_for(gen: np.random.Generator, count: int) -> np.ndarray:
    """Strictly positive values below 2^20, as in the paper's §7.1 workload."""
    return gen.integers(1, 1 << 20, count, dtype=np.int64)


def sorted_union(parts) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-PE ``(keys, values)`` slices and sort them by key."""
    keys = np.concatenate([np.asarray(k, dtype=np.uint64) for k, _ in parts])
    values = np.concatenate([np.asarray(v, dtype=np.int64) for _, v in parts])
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


def same_pairs(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3


def median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=np.float64)))


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class SpeedProbe:
    """Follows the machine's current speed with a fixed numpy kernel.

    On a shared machine the speed of a core drifts by tens of percent
    over minutes, which would swamp any change a commit makes.  The
    kernel sorts, condenses and bincounts 2^18 fixed elements in arrays
    of the workload's own array size, and runs on every PE at once right
    before the timed work, because neighbours slow many small numpy
    calls more than a few large ones, and two busy cores more than one.
    It takes 10 to 40 ms and slows down with the same neighbours as the
    program does, so each timing is reported at nominal speed:
    multiplied by ``nominal_s`` over the slowest PE's kernel time.  Each
    workload sets ``nominal_s`` to the kernel's median time on the 2-core
    machine it was sized on, so nominal times read close to wall times
    there.
    """

    ELEMENTS = 1 << 18

    def __init__(self, array_elements: int, nominal_s: float):
        self.nominal_s = nominal_s
        gen = np.random.default_rng(0)
        keys = gen.integers(0, 1 << 62, self.ELEMENTS).astype(np.uint64)
        weights = gen.random(self.ELEMENTS)
        self._arrays = [
            (keys[i : i + array_elements], weights[i : i + array_elements])
            for i in range(0, self.ELEMENTS, array_elements)
        ]
        self.factors: list[float] = []

    def kernel_seconds(self) -> float:
        """Run the kernel once on the calling thread; return its wall time."""
        t0 = time.perf_counter()
        for keys, weights in self._arrays:
            np.sort(keys)
            _, inverse = np.unique(keys & np.uint64(0xFFFFF), return_inverse=True)
            np.bincount(inverse, weights=weights)
        return time.perf_counter() - t0

    def record(self, kernel_seconds: float) -> float:
        """The factor to nominal speed for a measured kernel time."""
        factor = self.nominal_s / kernel_seconds
        self.factors.append(factor)
        return factor

    def factor(self) -> float:
        """Run the kernel on ``PES`` threads at once; the slowest sets the factor."""
        times = [0.0] * PES

        def work(i: int) -> None:
            times[i] = self.kernel_seconds()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(PES)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return self.record(max(times))

    def timed(self, fn):
        """``fn()``'s result and its wall time at nominal speed."""
        factor = self.factor()
        t0 = time.perf_counter()
        out = fn()
        return out, (time.perf_counter() - t0) * factor


def timed_region(comm, probe: SpeedProbe, fn):
    """Run the speed kernel on every PE, then ``fn()``; collective.

    Returns ``(result, seconds, kernel_seconds)`` for this PE.
    """
    comm.barrier()
    kernel = probe.kernel_seconds()
    comm.barrier()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, kernel


class WorkloadTooLarge(RuntimeError):
    """The workload's sizes exceed what its backend can carry."""


@dataclass
class Outcome:
    """What one workload run measured and how many operations went wrong.

    ``failed`` counts exceptions, clean operations the checker rejected
    and wrong outputs it accepted; ``replay_matches`` is None unless the
    traced replay ran.
    """

    probe: SpeedProbe
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    replay_matches: bool | None = None
    spans: list[dict] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5


def timed_setups(probe: SpeedProbe, build, count: int, discard=None):
    """Run ``build()`` ``count`` times; return the last product and the median time.

    ``discard(product)`` releases every product but the last.
    """
    times = []
    product = None
    for _ in range(count):
        if product is not None and discard is not None:
            discard(product)
        product = None  # release the previous copy before building the next
        product, seconds = probe.timed(build)
        times.append(seconds)
    return product, median(times)


def check_bytes_per_settle(checked_meters, unchecked_meters, settles: int) -> float:
    """Bottleneck bytes the checker adds per settle: the same input run
    checked and unchecked, per PE the larger of the extra bytes sent and
    received, the largest PE."""
    extra = max(
        max(c.bytes_sent - u.bytes_sent, c.bytes_received - u.bytes_received)
        for c, u in zip(checked_meters, unchecked_meters)
    )
    return extra / settles


def detection_rate(detected: int, effective: int) -> float:
    """Detected faults over faults that changed the output."""
    return detected / effective if effective else 1.0


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median of equally keyed dicts."""
    return {key: median([d[key] for d in dicts]) for key in dicts[0]}


def zeros(*names: str) -> dict[str, float]:
    """Per-layer metrics a workload does not exercise."""
    return dict.fromkeys(names, 0.0)


#: Per-layer metrics only the service workload exercises.
SERVICE_ONLY = (
    "core.localize_ms",
    "core.bisection_rounds",
    "dataflow.repair_ms",
    "dataflow.repair_attempts",
    "service.retries",
    "service.repaired",
    "service.quarantined",
    "service.settle_ms_p50",
    "service.settle_ms_p99",
    "service.queue_wait_ms_p50",
    "service.direct_settle_ms_p50",
    "service.stats_call_us",
    "bench.gen_lag_ms_max",
)


# -- tracing -----------------------------------------------------------------


class Tracer:
    """Spans of one PE, kept in memory until the run ends.

    Each span records its name, start, end, parent and PE, plus the
    traffic its PE's meter counted in between: modeled bytes and messages
    through ``TrafficMeter.mark``/``since``, wire bytes, and the α–β model
    time.
    """

    def __init__(self, pe: int, meter=None):
        self.pe = pe
        self.meter = meter
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        meter = self.meter
        label = f"e2e-trace-{len(self._stack)}"
        if meter is not None:
            meter.mark(label)
            wire0 = (meter.wire_bytes_sent, meter.wire_bytes_received)
            model0 = (meter.send_time, meter.recv_time)
        index = len(self.spans)
        record = {
            "name": name,
            "pe": self.pe,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if meter is not None:
                record.update(meter.since(label))
                record["wire_bytes_sent"] = meter.wire_bytes_sent - wire0[0]
                record["wire_bytes_received"] = (
                    meter.wire_bytes_received - wire0[1]
                )
                record["model_seconds"] = max(
                    meter.send_time - model0[0], meter.recv_time - model0[1]
                )


def span_seconds(spans, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def top_level_seconds(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def span_volume(spans, names=None, top_level: bool = False) -> int:
    """Modeled bottleneck bytes, max(sent, received), of the chosen spans."""
    chosen = [
        s
        for s in spans
        if (names is None or s["name"] in names)
        and (not top_level or s["parent"] is None)
    ]
    sent = sum(s.get("bytes_sent", 0) for s in chosen)
    received = sum(s.get("bytes_received", 0) for s in chosen)
    return max(sent, received)


def span_wire(spans) -> int:
    top = [s for s in spans if s["parent"] is None]
    return max(
        sum(s.get("wire_bytes_sent", 0) for s in top),
        sum(s.get("wire_bytes_received", 0) for s in top),
    )


def comm_layer(
    per_pe_spans: list[list[dict]], units: int, factor: float
) -> dict[str, float]:
    """The ``comm.*`` per-layer metrics from every PE's spans of one run.

    ``units`` is what the per-unit figures divide by (1 for a batch run,
    the window count for a windowed run) and ``factor`` scales measured
    time to nominal speed.  Each figure is the largest over the PEs.
    """
    collective = [
        [s for s in spans if s["name"] == "comm.collective"] for spans in per_pe_spans
    ]
    measured = factor * max(sum(s["end"] - s["start"] for s in c) for c in collective)
    model = max(sum(s.get("model_seconds", 0.0) for s in c) for c in collective)
    modeled = max(span_volume(spans, top_level=True) for spans in per_pe_spans)
    wire = max(span_wire(spans) for spans in per_pe_spans)
    messages = max(
        sum(s.get("messages_sent", 0) for s in spans if s["parent"] is None)
        for spans in per_pe_spans
    )
    return {
        "comm.collective_ms": measured * 1e3 / units,
        "comm.skew_ms": phase_ms(per_pe_spans, "comm.barrier", units, factor),
        "comm.messages_per_pe": messages / units,
        "comm.modeled_bytes_per_pe": modeled / units,
        "comm.wire_bytes_per_pe": wire / units,
        "comm.wire_over_modeled": wire / modeled if modeled else 0.0,
        "comm.model_over_measured": model / measured if measured else 0.0,
    }


def phase_ms(
    per_pe_spans: list[list[dict]], name: str, units: int, factor: float
) -> float:
    """Largest per-PE total time of the named spans, per unit, in nominal ms."""
    return (
        factor * max(span_seconds(spans, name) for spans in per_pe_spans) * 1e3 / units
    )


#: Per-layer metrics that name one span each: ``<span>_ms``.
PHASES = (
    "core.condense",
    "core.table_fold",
    "core.pack",
    "core.verdict",
    "dataflow.local_aggregate",
    "dataflow.reduce_by_key",
)


def replay_metrics(
    per_pe_spans: list[list[dict]],
    elapsed: float,
    units: int,
    factor: float,
    untraced_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced replay across PEs.

    ``elapsed`` is the replay's wall time and ``untraced_s`` the untraced
    median of the same work, already at nominal speed.
    """
    return {
        **{f"{p}_ms": phase_ms(per_pe_spans, p, units, factor) for p in PHASES},
        "dataflow.exchange_bytes_per_pe": max(
            span_volume(s, {"dataflow.exchange"}) for s in per_pe_spans
        )
        / units,
        **comm_layer(per_pe_spans, units, factor),
        "trace.coverage": factor
        * max(top_level_seconds(s) for s in per_pe_spans)
        / untraced_s,
        "trace.overhead": factor * elapsed / untraced_s,
    }


class MemoryProbe:
    """Peak traced allocation of one phase, in MiB (``tracemalloc``).

    With ``shared`` (threads: all PEs in one process) the first PE owns
    the process-wide counters and barriers keep the PEs in the same
    phase, so the peak covers every PE together; otherwise each PE
    measures its own process.
    """

    def __init__(self, comm, shared: bool):
        self.comm = comm
        self.lead = comm is None or not shared or comm.rank == 0
        self.peaks: dict[str, float] = {}

    def _barrier(self) -> None:
        if self.comm is not None:
            self.comm.barrier()

    def measure(self, name: str, fn):
        self._barrier()
        if self.lead:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        self._barrier()
        out = fn()
        self._barrier()
        if self.lead:
            peak = (tracemalloc.get_traced_memory()[1] - base) / _MIB
            self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
        return out
