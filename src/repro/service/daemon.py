"""Always-on checked streaming service: multi-tenant daemon.

:class:`CheckedStreamService` multiplexes many concurrent tenant streams.
Each registered tenant gets a bounded ingest queue, a dedicated worker
thread, and its own windowed checker state; the worker replays the
pull-based streaming loop (fill a window, settle it collectively, repeat)
on top of the shared ``settle_*_window`` engines, so service tenants get
the paper's checkers — plus adaptive escalation, heal-in-place repair,
and quarantine — with *zero* divergence from the batch/streaming paths.

Robustness properties, each load-bearing for the soak harness:

* **Bounded ingest + backpressure** — ``submit`` on a full queue either
  blocks the producer (``"pause"``; optional timeout raises
  :class:`BackpressureTimeout`) or sheds the chunk with a record
  (``"shed"``), per tenant.
* **Settlement timeout and bounded retry** — an attempt that raises or
  overruns ``settle_timeout`` is retried under a fresh derived seed
  after exponential backoff; exhaustion quarantines the window and marks
  the tenant degraded.  The daemon keeps running.  For distributed
  tenants every attempt ends in a *retry-consensus* allreduce, so all
  ranks retry (or give up) together under the same derived seed.
* **Poison-chunk capture** — a malformed chunk becomes a
  :class:`~repro.service.tenant.PoisonRecord` and degrades only its own
  tenant; it never reaches a checker and never crashes a worker.
* **Hard tenant isolation** — no shared mutable state between tenants
  except the service-wide :class:`~repro.dataflow.pipeline.StatsAccumulator`
  (lock-guarded by construction).  Distributed tenants get *private*
  networks via :class:`TenantCommGrid`, so one tenant's collectives can
  never interleave with another's.
* **Fatal-error containment** — an unexpected worker error records the
  tenant as failed, then drains its queue (so paused producers unblock)
  until close; other tenants are unaffected.

Distributed use: build one :class:`TenantCommGrid` for the PE count,
then one service per rank with ``comm_factory=grid.factory(rank)`` and
register each tenant on every rank (same name, same config) — the per-
tenant workers then run the settle collectives in lockstep on the
tenant's private fabric.  The settlement *retry* loop reaches consensus
after every attempt (one extra ``allreduce`` per window — O(α log p) in
the cost model), so multi-PE tenants may set a finite ``settle_timeout``:
a timeout on any rank makes *all* ranks retry in lockstep under the same
derived seed, and retry exhaustion is likewise uniform.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

from repro.comm import Comm, Network, ops, resolve_backend
from repro.core.base import CheckResult
from repro.dataflow.pipeline import CheckedRunStats, StatsAccumulator
from repro.dataflow.repair import QuarantinedWindow
from repro.dataflow.streaming import WindowRecord
from repro.service.tenant import (
    BACKPRESSURE_SHED,
    PoisonRecord,
    TenantConfig,
    TenantStats,
    TenantStatsView,
)
from repro.service.windows import ENGINES, PoisonChunkError
from repro.util.rng import derive_seed

__all__ = [
    "BackpressureTimeout",
    "CheckedStreamService",
    "TenantCommGrid",
    "TenantHandle",
    "TenantResult",
]

#: Ingest-queue sentinel: the tenant's stream is closed.
_CLOSE = object()


class BackpressureTimeout(RuntimeError):
    """A paused producer's ``submit`` timed out on a full ingest queue."""


class _SettleTimeout(RuntimeError):
    """A settlement attempt overran the tenant's ``settle_timeout``."""


class TenantCommGrid:
    """Private per-tenant communication fabrics for distributed tenants.

    One fabric per tenant name, created lazily and shared by all ranks —
    so every tenant's collectives run on their own channel and tenants can
    never corrupt each other's messages (the fabrics are untagged; sharing
    one across concurrent tenant workers would interleave payloads).

    The transport is pluggable like :class:`~repro.comm.Context`:
    ``backend="threads"`` (default) hands out mailbox
    :class:`~repro.comm.Network` comms; ``"processes"`` hands out
    shared-memory ring endpoints (:class:`~repro.comm.proc_backend.ShmFabric`
    per tenant — usable both by worker threads in one service process and
    by service processes forked around the grid); ``"mpi"`` duplicates a
    private MPI communicator per tenant (sticky fallback to threads when
    mpi4py is absent).  Call :meth:`close` when done with a non-thread
    grid to release the fabrics.
    """

    def __init__(self, size: int, backend: str | None = None):
        self.size = size
        self.backend = resolve_backend(backend)
        if self.backend == "mpi":
            from repro.comm import mpi_backend

            if not mpi_backend.mpi_available():
                mpi_backend.warn_fallback_once()
                self.backend = "threads"
        self._lock = threading.Lock()
        self._networks: dict[str, Network] = {}
        self._fabrics: dict[str, object] = {}
        self._endpoints: dict[tuple[str, int], object] = {}
        self._mpi_comms: dict[str, object] = {}

    def network(self, name: str) -> Network:
        """The tenant's mailbox network (thread backend only)."""
        if self.backend != "threads":
            raise RuntimeError(
                f"TenantCommGrid(backend={self.backend!r}) has no mailbox "
                f"networks; use comm()/factory()"
            )
        with self._lock:
            net = self._networks.get(name)
            if net is None:
                net = Network(self.size)
                self._networks[name] = net
            return net

    def comm(self, name: str, rank: int) -> Comm:
        if self.backend == "threads":
            return Comm(rank, self.network(name))
        if self.backend == "processes":
            from repro.comm.proc_backend import ShmEndpoint, ShmFabric

            with self._lock:
                endpoint = self._endpoints.get((name, rank))
                if endpoint is None:
                    fabric = self._fabrics.get(name)
                    if fabric is None:
                        fabric = ShmFabric.create(self.size)
                        self._fabrics[name] = fabric
                    endpoint = ShmEndpoint(rank, fabric)
                    self._endpoints[(name, rank)] = endpoint
            return Comm.from_endpoint(endpoint)
        from repro.comm.mpi_backend import MpiEndpoint, _try_mpi

        MPI = _try_mpi()
        with self._lock:
            # Dup() is collective: every rank's grid must request tenants
            # in the same order (registration order, as documented above).
            mpi_comm = self._mpi_comms.get(name)
            if mpi_comm is None:
                mpi_comm = MPI.COMM_WORLD.Dup()
                self._mpi_comms[name] = mpi_comm
        return Comm.from_endpoint(MpiEndpoint(mpi_comm))

    def factory(self, rank: int):
        """The ``comm_factory`` for one rank's service instance."""

        def _factory(name: str) -> Comm:
            return self.comm(name, rank)

        return _factory

    def close(self) -> None:
        """Release non-thread fabrics (shared-memory blocks, MPI comms)."""
        with self._lock:
            for fabric in self._fabrics.values():
                fabric.destroy()
            self._fabrics.clear()
            self._endpoints.clear()
            for mpi_comm in self._mpi_comms.values():
                mpi_comm.Free()
            self._mpi_comms.clear()


@dataclass
class TenantResult:
    """Snapshot of one tenant's settled output and verdict history."""

    name: str
    outputs: list
    verdicts: list[CheckResult]
    window_history: list[WindowRecord]
    quarantined: list[QuarantinedWindow]
    poisons: list[PoisonRecord]
    stats: TenantStatsView
    error: str | None = None

    @property
    def accepted(self) -> bool:
        """True iff every settled window's final verdict accepted."""
        return self.error is None and all(v.accepted for v in self.verdicts)


class _Tenant:
    """Internal per-tenant state; all list appends under ``lock``."""

    def __init__(self, name: str, cfg: TenantConfig):
        self.name = name
        self.cfg = cfg
        self.engine = ENGINES[cfg.op](cfg)
        self.queue: queue.Queue = queue.Queue(maxsize=cfg.queue_capacity)
        self.stats = TenantStats()
        self.lock = threading.Lock()
        self.outputs: list = []
        self.verdicts: list[CheckResult] = []
        self.history: list[WindowRecord] = []
        self.quarantined: list[QuarantinedWindow] = []
        self.poisons: list[PoisonRecord] = []
        self.error: str | None = None
        self.closed = False
        self.done = threading.Event()
        self.thread: threading.Thread | None = None


class TenantHandle:
    """Producer-side handle for one registered tenant."""

    def __init__(self, service: "CheckedStreamService", name: str):
        self._service = service
        self.name = name

    def submit(self, chunk, timeout: float | None = None) -> bool:
        return self._service.submit(self.name, chunk, timeout=timeout)

    def close(self) -> None:
        self._service.close_tenant(self.name)

    def drain(self, timeout: float | None = None) -> bool:
        return self._service.drain(self.name, timeout=timeout)

    def stats(self) -> TenantStatsView:
        return self._service.stats(self.name)

    def result(self) -> TenantResult:
        return self._service.result(self.name)


class CheckedStreamService:
    """Long-lived daemon multiplexing independently checked tenant streams.

    ``comm_factory(name)`` (optional) returns the per-tenant ``comm``
    endpoint for this service instance's rank; ``None`` runs every
    tenant sequentially (single PE).  Usable as a context manager —
    exiting closes and joins every tenant.
    """

    def __init__(self, comm_factory=None):
        self._comm_factory = comm_factory
        self._lock = threading.Lock()
        self._tenants: dict[str, _Tenant] = {}
        self._accum = StatsAccumulator()

    # -- lifecycle ---------------------------------------------------------
    def register(self, name: str, cfg: TenantConfig) -> TenantHandle:
        """Register a tenant and start its worker thread."""
        if cfg.op not in ENGINES:
            raise ValueError(
                f"unknown op {cfg.op!r}; available: {sorted(ENGINES)}"
            )
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
            tenant = _Tenant(name, cfg)
            self._tenants[name] = tenant
        tenant.thread = threading.Thread(
            target=self._worker,
            args=(tenant,),
            name=f"tenant-{name}",
            daemon=True,
        )
        tenant.thread.start()
        return TenantHandle(self, name)

    def close_tenant(self, name: str) -> None:
        """Close a tenant's stream; its worker settles the final window."""
        tenant = self._get(name)
        with tenant.lock:
            if tenant.closed:
                return
            tenant.closed = True
        tenant.queue.put(_CLOSE)

    def drain(self, name: str | None = None, timeout: float | None = None) -> bool:
        """Wait until the named tenant (or all) finished settling."""
        if name is not None:
            return self._get(name).done.wait(timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        for tenant in list(self._tenants.values()):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not tenant.done.wait(timeout=remaining):
                return False
        return True

    def shutdown(self, timeout: float | None = None) -> bool:
        """Close every tenant, wait for the workers, report completion."""
        for name in list(self._tenants):
            self.close_tenant(name)
        ok = self.drain(timeout=timeout)
        for tenant in list(self._tenants.values()):
            if tenant.thread is not None:
                tenant.thread.join(timeout=1.0)
        return ok

    def __enter__(self) -> "CheckedStreamService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- ingest ------------------------------------------------------------
    def submit(self, name: str, chunk, timeout: float | None = None) -> bool:
        """Offer one chunk to a tenant's ingest queue.

        Returns True when the chunk was enqueued; under the ``"shed"``
        policy a full queue drops the chunk, records the shed, and
        returns False.  Under ``"pause"`` a full queue blocks (bounded by
        ``timeout`` when given; :class:`BackpressureTimeout` on expiry).
        """
        tenant = self._get(name)
        if tenant.closed:
            raise RuntimeError(f"tenant {name!r} is closed")
        tenant.stats.record_submitted()
        if tenant.cfg.backpressure == BACKPRESSURE_SHED:
            try:
                tenant.queue.put_nowait(chunk)
            except queue.Full:
                tenant.stats.record_shed(self._safe_elements(tenant, chunk))
                return False
            return True
        try:
            tenant.queue.put(chunk, timeout=timeout)
        except queue.Full:
            raise BackpressureTimeout(
                f"tenant {name!r}: ingest queue full for {timeout:.3f}s"
            ) from None
        return True

    @staticmethod
    def _safe_elements(tenant: _Tenant, chunk) -> int:
        try:
            return tenant.engine.elements(tenant.engine.validate(chunk))
        except Exception:  # noqa: BLE001 - shed accounting is best-effort
            return 0

    # -- introspection -----------------------------------------------------
    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def stats(self, name: str) -> TenantStatsView:
        return self._get(name).stats.snapshot()

    def result(self, name: str) -> TenantResult:
        tenant = self._get(name)
        with tenant.lock:
            return TenantResult(
                name=name,
                outputs=list(tenant.outputs),
                verdicts=list(tenant.verdicts),
                window_history=list(tenant.history),
                quarantined=list(tenant.quarantined),
                poisons=list(tenant.poisons),
                stats=tenant.stats.snapshot(),
                error=tenant.error,
            )

    def report(self) -> dict:
        """Per-tenant accounting (JSON-ready), keyed by tenant name."""
        out = {}
        for name in self.tenants():
            tenant = self._get(name)
            entry = tenant.stats.snapshot().as_dict()
            entry["op"] = tenant.cfg.op
            entry["error"] = tenant.error
            out[name] = entry
        return out

    def run_stats(self) -> CheckedRunStats:
        """Service-wide merged window stats across every tenant."""
        return self._accum.snapshot()

    def _get(self, name: str) -> _Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            raise ValueError(f"unknown tenant {name!r}")
        return tenant

    # -- worker ------------------------------------------------------------
    def _worker(self, tenant: _Tenant) -> None:
        comm = (
            self._comm_factory(tenant.name)
            if self._comm_factory is not None
            else None
        )
        try:
            w = 0
            closed = False
            chunk_index = 0
            while True:
                chunks = []
                while len(chunks) < tenant.cfg.chunks_per_window and not closed:
                    item = tenant.queue.get()
                    if item is _CLOSE:
                        closed = True
                        break
                    try:
                        chunk = tenant.engine.validate(item)
                    except PoisonChunkError as exc:
                        with tenant.lock:
                            tenant.poisons.append(
                                PoisonRecord(
                                    window=w,
                                    chunk=chunk_index,
                                    error=str(exc),
                                )
                            )
                        tenant.stats.record_poison()
                    else:
                        chunks.append(chunk)
                        tenant.stats.record_ingested(
                            1, tenant.engine.elements(chunk)
                        )
                    chunk_index += 1
                if comm is not None:
                    # Lockstep liveness: settle (possibly empty) windows
                    # while any PE still has data, exactly as the pull-
                    # based streaming loop does.
                    live = bool(
                        comm.allreduce(int(bool(chunks)), op=ops.BOR)
                    )
                else:
                    live = bool(chunks)
                if not live:
                    break
                self._settle_window(tenant, comm, w, chunks)
                w += 1
        except Exception as exc:  # noqa: BLE001 - fatal containment boundary
            with tenant.lock:
                tenant.error = f"{type(exc).__name__}: {exc}"
            tenant.stats.mark_degraded()
            self._drain_after_failure(tenant)
        finally:
            tenant.done.set()

    @staticmethod
    def _drain_after_failure(tenant: _Tenant) -> None:
        """Keep consuming (and shedding) after a fatal worker error.

        Paused producers must never deadlock on a dead tenant: the
        queue keeps draining, every chunk recorded as shed, until the
        close sentinel arrives.
        """
        while True:
            item = tenant.queue.get()
            if item is _CLOSE:
                break
            tenant.stats.record_shed()

    def _settle_window(self, tenant: _Tenant, comm, w: int, chunks) -> None:
        cfg = tenant.cfg
        start = time.perf_counter()
        base_seed = tenant.engine.window_seed(w)
        # Deriving the window seed (every engine derives a block of
        # windows' seeds at once, a sum-family engine their primaries
        # too) is checker work.
        seed_s = time.perf_counter() - start
        attempt = 0
        while True:
            # Attempt 0 settles under the window seed, on the primary the
            # sum-family engines derive in blocks of windows; a retry's
            # fresh seed builds its own (repro.service.windows).
            seed_w = (
                base_seed
                if attempt == 0
                else derive_seed(base_seed, "settle-retry", attempt)
            )
            t0 = time.perf_counter()
            failure: Exception | None = None
            try:
                output, verdict, stats_w, record, quarantine = (
                    tenant.engine.settle_window(comm, w, seed_w, chunks)
                )
                elapsed = time.perf_counter() - t0
                if (
                    cfg.settle_timeout is not None
                    and elapsed > cfg.settle_timeout
                ):
                    raise _SettleTimeout(
                        f"window {w} settlement took {elapsed:.3f}s "
                        f"(budget {cfg.settle_timeout:.3f}s)"
                    )
            except Exception as exc:  # noqa: BLE001 - retry boundary
                failure = exc
            # Retry consensus (ROADMAP PR 9 follow-up (b)): one extra
            # allreduce per attempt so every rank of a distributed tenant
            # learns whether *any* rank wants a retry, and all of them
            # re-settle together under the same derived seed.  The
            # consensus point sits after the settle collectives complete,
            # so it covers post-settle failures — ``settle_timeout``
            # overruns above all — on every rank symmetrically; a rank
            # wedged *inside* a collective still ends in the transport
            # timeout and fatal containment, as before.
            if comm is not None:
                want_retry = comm.allreduce(int(failure is not None), op=ops.MAX)
            else:
                want_retry = int(failure is not None)
            if not want_retry:
                break
            if attempt >= cfg.settle_retries:
                if failure is not None:
                    error = f"{type(failure).__name__}: {failure}"
                else:
                    error = "peer rank exhausted settle retries"
                verdict = CheckResult(
                    accepted=False,
                    checker="service-settle-failure",
                    details={
                        "error": error,
                        "attempts": attempt + 1,
                    },
                )
                record = WindowRecord(
                    window=w,
                    verdict=verdict,
                    accepted=False,
                    seed=int(base_seed),
                    seeds_used=[int(base_seed)],
                    quarantined=True,
                )
                quarantine = QuarantinedWindow(
                    window=w,
                    attempts=attempt + 1,
                    report=None,
                    verdicts=[verdict],
                )
                stats_w = CheckedRunStats(
                    operation_seconds=0.0,
                    checker_seconds=0.0,
                    windows=1,
                    quarantined_windows=1,
                )
                output = None
                tenant.stats.record_settle_failure()
                break
            tenant.stats.record_settle_retry()
            time.sleep(cfg.retry_backoff * (2**attempt))
            attempt += 1
        latency = time.perf_counter() - start
        stats_w.checker_seconds += seed_s
        with tenant.lock:
            if cfg.keep_outputs:
                tenant.outputs.append(output)
            tenant.verdicts.append(verdict)
            tenant.history.append(record)
            if quarantine is not None:
                tenant.quarantined.append(quarantine)
        if quarantine is not None:
            tenant.stats.mark_degraded()
        tenant.stats.record_window(record, stats_w, latency)
        self._accum.add(stats_w)
