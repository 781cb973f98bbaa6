"""Per-tenant configuration and accounting for the checked service.

A *tenant* is one logical stream of a multiplexed
:class:`~repro.service.daemon.CheckedStreamService`: it owns its checked
operation, its windowed checker state, its bounded ingest queue, and its
accounting.  Nothing here is shared between tenants — isolation is the
design, not an optimization.

Backpressure policies (``TenantConfig.backpressure``):

* ``"pause"`` — a full ingest queue blocks the producer's ``submit`` until
  the tenant's worker drains a slot (backpressure propagates upstream);
* ``"shed"`` — a full queue drops the chunk immediately and records the
  shed (``chunks_shed`` / ``elements_shed``), never blocking the producer.

:class:`TenantStats` is the mutable, lock-guarded accounting record the
worker thread writes and any thread may snapshot; a snapshot is an
immutable :class:`TenantStatsView` with the derived figures (success rate,
settle-latency percentiles, check-overhead ratio) the service reports.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.params import SumCheckConfig
from repro.dataflow.pipeline import AdaptiveCheckPolicy, CheckedRunStats
from repro.dataflow.repair import RepairPolicy

__all__ = [
    "BACKPRESSURE_PAUSE",
    "BACKPRESSURE_SHED",
    "PoisonRecord",
    "TenantConfig",
    "TenantStats",
    "TenantStatsView",
]

#: Block the producer while the tenant's ingest queue is full.
BACKPRESSURE_PAUSE = "pause"
#: Drop (and record) chunks while the tenant's ingest queue is full.
BACKPRESSURE_SHED = "shed"

_BACKPRESSURE_POLICIES = (BACKPRESSURE_PAUSE, BACKPRESSURE_SHED)


@dataclass
class TenantConfig:
    """One tenant's operation, window, queue, and robustness knobs.

    ``op`` selects the checked operation (``"reduce_by_key"``,
    ``"count_by_key"``, ``"sum"``, or ``"zip"``); the chunk shape a
    tenant submits follows the op (see
    :mod:`repro.service.windows`).  ``reexecute``/``repair`` wire the
    window heal path exactly as on the streaming DIAs; ``fault`` is the
    chaos-injection seam forwarded to the window settle functions.

    ``settle_timeout`` (seconds of wall time for one settlement attempt,
    ``None`` = unbounded) and ``settle_retries``/``retry_backoff`` bound
    the settlement retry loop: an attempt that raises or overruns the
    budget is retried under a fresh derived seed after an exponential
    backoff, and a window that exhausts its retries is quarantined with
    the tenant marked degraded.  Distributed tenants may set a finite
    ``settle_timeout`` too: every attempt ends in a retry-consensus
    allreduce, so all ranks retry and exhaust in lockstep (see
    :mod:`repro.service.daemon`).
    """

    op: str
    config: SumCheckConfig | None = None
    seed: int = 0
    chunks_per_window: int = 8
    queue_capacity: int = 64
    backpressure: str = BACKPRESSURE_PAUSE
    policy: AdaptiveCheckPolicy | None = None
    partitioner: Callable | None = None
    keep_outputs: bool = True
    reexecute: Callable | None = None
    repair: RepairPolicy | None = None
    fault: Callable | None = None
    iterations: int = 2
    settle_timeout: float | None = None
    settle_retries: int = 2
    retry_backoff: float = 0.01

    def __post_init__(self):
        if self.backpressure not in _BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {self.backpressure!r}; "
                f"available: {_BACKPRESSURE_POLICIES}"
            )
        if self.chunks_per_window < 1:
            raise ValueError(
                f"chunks_per_window must be >= 1, got {self.chunks_per_window}"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.settle_retries < 0:
            raise ValueError(
                f"settle_retries must be >= 0, got {self.settle_retries}"
            )
        if self.iterations < 1:
            raise ValueError(
                f"iterations must be >= 1, got {self.iterations}"
            )


@dataclass
class PoisonRecord:
    """One malformed chunk captured (not crashed on) by a tenant worker."""

    window: int
    chunk: int
    error: str


def _percentile(latencies: list[float], q: float) -> float:
    if not latencies:
        return 0.0
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


@dataclass(frozen=True)
class TenantStatsView:
    """Immutable snapshot of one tenant's accounting.

    ``success_rate`` counts windows whose *final* verdict accepted
    (healed windows count as successes — that is the point of repair);
    latency percentiles are over per-window settle latencies (first
    dequeue of the window to final verdict, repairs included);
    ``check_overhead_ratio`` is the merged
    :attr:`CheckedRunStats.overhead_ratio` over the tenant's windows.
    """

    chunks_submitted: int
    chunks_ingested: int
    chunks_shed: int
    elements_ingested: int
    elements_shed: int
    poison_chunks: int
    windows_settled: int
    windows_accepted: int
    windows_rejected: int
    windows_repaired: int
    windows_quarantined: int
    settle_retries: int
    settle_failures: int
    degraded: bool
    run: CheckedRunStats
    settle_latencies: tuple[float, ...] = field(repr=False, default=())

    @property
    def success_rate(self) -> float:
        if self.windows_settled == 0:
            return 1.0
        return self.windows_accepted / self.windows_settled

    @property
    def latency_p50(self) -> float:
        return _percentile(list(self.settle_latencies), 50.0)

    @property
    def latency_p95(self) -> float:
        return _percentile(list(self.settle_latencies), 95.0)

    @property
    def latency_p99(self) -> float:
        return _percentile(list(self.settle_latencies), 99.0)

    @property
    def latency_max(self) -> float:
        if not self.settle_latencies:
            return 0.0
        return max(self.settle_latencies)

    @property
    def check_overhead_ratio(self) -> float:
        return self.run.overhead_ratio

    def as_dict(self) -> dict:
        """The per-tenant stats schema the service reports (JSON-ready)."""
        return {
            "chunks_submitted": self.chunks_submitted,
            "chunks_ingested": self.chunks_ingested,
            "chunks_shed": self.chunks_shed,
            "elements_ingested": self.elements_ingested,
            "elements_shed": self.elements_shed,
            "poison_chunks": self.poison_chunks,
            "windows_settled": self.windows_settled,
            "windows_accepted": self.windows_accepted,
            "windows_rejected": self.windows_rejected,
            "windows_repaired": self.windows_repaired,
            "windows_quarantined": self.windows_quarantined,
            "settle_retries": self.settle_retries,
            "settle_failures": self.settle_failures,
            "degraded": self.degraded,
            "success_rate": self.success_rate,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_max": self.latency_max,
            "check_overhead_ratio": self.check_overhead_ratio,
        }


class TenantStats:
    """Mutable, lock-guarded accounting for one tenant.

    The tenant's worker thread is the only writer of window-level fields,
    but producers (``submit``) write the ingest counters and any thread
    may :meth:`snapshot`, so every access takes the tenant-local lock —
    never a cross-tenant one.  Snapshots share one tuple of settle
    latencies until the next settled window, so a poll between two
    settles does not copy every latency again.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.chunks_submitted = 0
        self.chunks_ingested = 0
        self.chunks_shed = 0
        self.elements_ingested = 0
        self.elements_shed = 0
        self.poison_chunks = 0
        self.windows_settled = 0
        self.windows_accepted = 0
        self.windows_rejected = 0
        self.windows_repaired = 0
        self.windows_quarantined = 0
        self.settle_retries = 0
        self.settle_failures = 0
        self.degraded = False
        self.settle_latencies: list[float] = []
        self.run = CheckedRunStats(operation_seconds=0.0, checker_seconds=0.0)
        self._latencies: tuple[float, ...] | None = ()

    def record_submitted(self) -> None:
        with self._lock:
            self.chunks_submitted += 1

    def record_shed(self, elements: int = 0) -> None:
        with self._lock:
            self.chunks_shed += 1
            self.elements_shed += int(elements)

    def record_ingested(self, chunks: int, elements: int) -> None:
        with self._lock:
            self.chunks_ingested += int(chunks)
            self.elements_ingested += int(elements)

    def record_poison(self) -> None:
        with self._lock:
            self.poison_chunks += 1
            self.degraded = True

    def record_settle_retry(self) -> None:
        with self._lock:
            self.settle_retries += 1

    def record_settle_failure(self) -> None:
        with self._lock:
            self.settle_failures += 1
            self.degraded = True

    def mark_degraded(self) -> None:
        with self._lock:
            self.degraded = True

    def record_window(self, record, stats: CheckedRunStats, latency: float) -> None:
        """Fold one settled window's record/stats into the accounting."""
        with self._lock:
            self.windows_settled += 1
            if record.accepted:
                self.windows_accepted += 1
            else:
                self.windows_rejected += 1
            if record.repaired:
                self.windows_repaired += 1
            if record.quarantined:
                self.windows_quarantined += 1
            self.settle_latencies.append(float(latency))
            self._latencies = None
            self.run = self.run.merge(stats)

    def snapshot(self) -> TenantStatsView:
        with self._lock:
            if self._latencies is None:
                self._latencies = tuple(self.settle_latencies)
            return TenantStatsView(
                chunks_submitted=self.chunks_submitted,
                chunks_ingested=self.chunks_ingested,
                chunks_shed=self.chunks_shed,
                elements_ingested=self.elements_ingested,
                elements_shed=self.elements_shed,
                poison_chunks=self.poison_chunks,
                windows_settled=self.windows_settled,
                windows_accepted=self.windows_accepted,
                windows_rejected=self.windows_rejected,
                windows_repaired=self.windows_repaired,
                windows_quarantined=self.windows_quarantined,
                settle_retries=self.settle_retries,
                settle_failures=self.settle_failures,
                degraded=self.degraded,
                run=self.run,
                settle_latencies=self._latencies,
            )
