"""Shared-memory multiprocessing backend: real PEs on one node.

Each PE is a forked OS process; messages travel through a single
``multiprocessing.shared_memory`` block laid out as one SPSC byte ring per
ordered ``(src, dst)`` pair.  Because every ring has exactly one writer
(``src``) and one reader (``dst``), no locks are needed: the writer owns
the ``head`` counter, the reader owns ``tail``, and both are monotonically
increasing 8-byte values whose aligned loads/stores are atomic on the
platforms CPython runs on (x86-64/aarch64 TSO-ish ordering; the
interpreter serialises the numpy copy before the counter store).

Ring layout (per pair)::

    [u64 head][u64 tail][capacity data bytes]      # data ring
    [u64 head][u64 tail][48 ctl bytes]             # barrier-token ring

``head``/``tail`` count total bytes ever written/read (never wrapped), so
``head - tail`` is the occupancy and ``head % capacity`` the write cursor.
Messages larger than the ring are streamed through it in chunks — the
writer blocks for free space, the reader drains concurrently — so the ring
capacity bounds memory, not message size.

Barrier tokens get their own tiny ring so a barrier can never mispair with
an in-flight data message.  The barrier itself is the dissemination
barrier: ``ceil(log2 p)`` rounds, round ``r`` sends one byte to
``(rank + 2**r) % p`` and waits for one from ``(rank - 2**r) % p``.
Token rings are FIFO, so a fast PE entering barrier ``k+1`` while a slow
one is still inside barrier ``k`` simply queues its token.

The runner forks (never spawns): SPMD programs in this repo routinely
close over lambdas and test fixtures, which ``fork`` inherits for free.
Each worker returns its result (or exception) and its traffic meter over
its own one-way ``multiprocessing`` pipe.  The parent sleeps in
:func:`multiprocessing.connection.wait` on those pipes and the workers'
sentinels, so it costs the workers no CPU while they run, a result is
read the moment it is written, and a worker that exits without writing
one is reported as soon as it is gone.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import weakref
from math import ceil, log2
from multiprocessing import shared_memory
from multiprocessing.connection import wait

import numpy as np

from repro.comm.backend import FRAME_HEADER, decode_frame, encode_frame
from repro.comm.cost import CostModel, TrafficMeter, payload_nbytes

#: Seconds before a blocked ring operation reports a likely deadlock
#: (mirrors ``repro.comm.network._RECV_TIMEOUT``).
_OP_TIMEOUT = 120.0

_HDR_BYTES = 16
_DEFAULT_DATA_CAP = 1 << 18  # 256 KiB per ordered pair
_CTL_CAP = 48


class _Ring:
    """One SPSC byte ring inside a shared-memory buffer."""

    __slots__ = ("_hdr", "_data", "capacity")

    def __init__(self, buf: memoryview, offset: int, capacity: int):
        self._hdr = np.frombuffer(buf, dtype=np.uint64, count=2, offset=offset)
        self._data = np.frombuffer(
            buf, dtype=np.uint8, count=capacity, offset=offset + _HDR_BYTES
        )
        self.capacity = capacity

    # Writer side ----------------------------------------------------------
    def try_write(self, src: np.ndarray, pos: int) -> int:
        """Copy as much of ``src[pos:]`` as fits; return the new position."""
        head = int(self._hdr[0])
        tail = int(self._hdr[1])
        free = self.capacity - (head - tail)
        n = min(free, len(src) - pos)
        if n <= 0:
            return pos
        start = head % self.capacity
        first = min(n, self.capacity - start)
        self._data[start : start + first] = src[pos : pos + first]
        if n > first:
            self._data[: n - first] = src[pos + first : pos + n]
        self._hdr[0] = head + n
        return pos + n

    # Reader side ----------------------------------------------------------
    def try_read(self, out: np.ndarray, pos: int) -> int:
        """Fill as much of ``out[pos:]`` as is available; return new position."""
        head = int(self._hdr[0])
        tail = int(self._hdr[1])
        avail = head - tail
        n = min(avail, len(out) - pos)
        if n <= 0:
            return pos
        start = tail % self.capacity
        first = min(n, self.capacity - start)
        out[pos : pos + first] = self._data[start : start + first]
        if n > first:
            out[pos + first : pos + n] = self._data[: n - first]
        self._hdr[1] = tail + n
        return pos + n


class _Backoff:
    """Escalating poll backoff: spin briefly, then yield, then sleep.

    The deadline is :data:`_OP_TIMEOUT` read when the wait starts, so a
    value patched after import holds.
    """

    __slots__ = ("_spins", "_timeout", "_deadline", "_what")

    def __init__(self, what: str):
        self._spins = 0
        self._timeout = _OP_TIMEOUT
        self._deadline = time.monotonic() + self._timeout
        self._what = what

    def wait(self) -> None:
        self._spins += 1
        if self._spins < 200:
            return
        if time.monotonic() > self._deadline:
            raise TimeoutError(
                f"shared-memory ring stalled for {self._timeout:g}s while "
                f"{self._what} (likely deadlock in the SPMD program)"
            )
        time.sleep(0 if self._spins < 2000 else 0.0002)


def _release_views(data_rings: dict, ctl_rings: dict, shm) -> None:
    """Drop numpy views into the mmap, then close it (GC-order safe)."""
    data_rings.clear()
    ctl_rings.clear()
    try:
        shm.close()
    except BufferError:  # pragma: no cover - stray exported view
        pass


class ShmFabric:
    """All rings of a ``size``-PE fabric inside one shared-memory block."""

    def __init__(self, size: int, shm: shared_memory.SharedMemory, data_cap: int):
        self.size = size
        self.data_cap = data_cap
        self._shm = shm
        self._data_rings: dict[tuple[int, int], _Ring] = {}
        self._ctl_rings: dict[tuple[int, int], _Ring] = {}
        pair_bytes = 2 * _HDR_BYTES + data_cap + _CTL_CAP
        buf = shm.buf
        index = 0
        for src in range(size):
            for dst in range(size):
                if src == dst:
                    continue
                off = index * pair_bytes
                self._data_rings[(src, dst)] = _Ring(buf, off, data_cap)
                self._ctl_rings[(src, dst)] = _Ring(
                    buf, off + _HDR_BYTES + data_cap, _CTL_CAP
                )
                index += 1
        # Without this, SharedMemory.__del__ hits BufferError: the ring
        # views must be dropped before the mmap closes.  Close only — the
        # segment itself is unlinked by destroy() (or, for a fabric leaked
        # without one, by the resource tracker at interpreter exit), never
        # by a forked child winding down.
        self._finalizer = weakref.finalize(
            self, _release_views, self._data_rings, self._ctl_rings, shm
        )

    @classmethod
    def create(cls, size: int, data_cap: int = _DEFAULT_DATA_CAP) -> "ShmFabric":
        pairs = size * (size - 1)
        pair_bytes = 2 * _HDR_BYTES + data_cap + _CTL_CAP
        nbytes = max(1, pairs * pair_bytes)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        # Freshly created blocks are zero-filled, so all head/tail counters
        # start at 0 — no further initialisation needed.
        return cls(size, shm, data_cap)

    def data_ring(self, src: int, dst: int) -> _Ring:
        return self._data_rings[(src, dst)]

    def ctl_ring(self, src: int, dst: int) -> _Ring:
        return self._ctl_rings[(src, dst)]

    def close(self) -> None:
        self._finalizer()

    def destroy(self) -> None:
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


_TOKEN = np.ones(1, dtype=np.uint8)


class ShmEndpoint:
    """Per-rank endpoint over a :class:`ShmFabric` (CommBackend protocol)."""

    def __init__(self, rank: int, fabric: ShmFabric, cost_model: CostModel | None = None):
        self.rank = rank
        self.size = fabric.size
        self._fabric = fabric
        self._cost = cost_model or CostModel()
        self._meter = TrafficMeter(rank)

    @property
    def meter(self) -> TrafficMeter:
        return self._meter

    # -- point to point ----------------------------------------------------
    def _write_all(self, ring: _Ring, frame: bytes, what: str) -> None:
        src = np.frombuffer(frame, dtype=np.uint8)
        pos = 0
        backoff = _Backoff(what)
        while pos < len(src):
            new = ring.try_write(src, pos)
            if new == pos:
                backoff.wait()
            pos = new

    def _read_all(self, ring: _Ring, nbytes: int, what: str) -> np.ndarray:
        out = np.empty(nbytes, dtype=np.uint8)
        pos = 0
        backoff = _Backoff(what)
        while pos < nbytes:
            new = ring.try_read(out, pos)
            if new == pos:
                backoff.wait()
            pos = new
        return out

    def send(self, dst: int, payload) -> None:
        frame = encode_frame(payload)
        self._meter.record_send(
            payload_nbytes(payload), self._cost, wire_nbytes=len(frame)
        )
        self._write_all(
            self._fabric.data_ring(self.rank, dst),
            frame,
            f"PE {self.rank} sending to PE {dst}",
        )

    def recv(self, src: int):
        ring = self._fabric.data_ring(src, self.rank)
        what = f"PE {self.rank} receiving from PE {src}"
        hdr = self._read_all(ring, FRAME_HEADER.size, what)
        kind, meta_len, payload_len = FRAME_HEADER.unpack(hdr.tobytes())
        rest = self._read_all(ring, meta_len + payload_len, what)
        payload = decode_frame(kind, rest[:meta_len].tobytes(), rest[meta_len:])
        self._meter.record_recv(
            payload_nbytes(payload),
            self._cost,
            wire_nbytes=FRAME_HEADER.size + meta_len + payload_len,
        )
        return payload

    def exchange(self, dst: int, payload, src: int):
        """Send to ``dst`` while receiving from ``src``, nonblocking.

        The outgoing frame on ring ``rank → dst`` and the incoming one on
        ring ``src → rank`` make interleaved incremental progress, so the
        round completes even when both frames exceed the ring capacity —
        no infinite-buffering assumption (unlike the mailbox network's
        send-then-recv, which relies on unbounded queues).
        """
        frame = encode_frame(payload)
        self._meter.record_send(
            payload_nbytes(payload), self._cost, wire_nbytes=len(frame)
        )
        out_ring = self._fabric.data_ring(self.rank, dst)
        in_ring = self._fabric.data_ring(src, self.rank)
        out = np.frombuffer(frame, dtype=np.uint8)
        sent = 0
        hdr = np.empty(FRAME_HEADER.size, dtype=np.uint8)
        hdr_got = 0
        body: np.ndarray | None = None
        body_got = 0
        meta_len = payload_len = kind = 0
        backoff = _Backoff(
            f"PE {self.rank} sending to PE {dst} and receiving from PE {src}"
        )
        while True:
            progressed = False
            if sent < len(out):
                new = out_ring.try_write(out, sent)
                progressed |= new > sent
                sent = new
            if body is None:
                new = in_ring.try_read(hdr, hdr_got)
                progressed |= new > hdr_got
                hdr_got = new
                if hdr_got == FRAME_HEADER.size:
                    kind, meta_len, payload_len = FRAME_HEADER.unpack(hdr.tobytes())
                    body = np.empty(meta_len + payload_len, dtype=np.uint8)
            else:
                new = in_ring.try_read(body, body_got)
                progressed |= new > body_got
                body_got = new
            if sent == len(out) and body is not None and body_got == len(body):
                break
            if not progressed:
                backoff.wait()
        incoming = decode_frame(kind, body[:meta_len].tobytes(), body[meta_len:])
        self._meter.record_recv(
            payload_nbytes(incoming),
            self._cost,
            wire_nbytes=FRAME_HEADER.size + len(body),
        )
        return incoming

    # -- barrier -----------------------------------------------------------
    def barrier(self) -> None:
        """Dissemination barrier over the dedicated ctl rings (not metered)."""
        if self.size == 1:
            return
        token_in = np.empty(1, dtype=np.uint8)
        for r in range(ceil(log2(self.size))):
            dist = 1 << r
            to = (self.rank + dist) % self.size
            frm = (self.rank - dist) % self.size
            out_ring = self._fabric.ctl_ring(self.rank, to)
            backoff = _Backoff(f"PE {self.rank} barrier send to PE {to}")
            while out_ring.try_write(_TOKEN, 0) == 0:
                backoff.wait()
            in_ring = self._fabric.ctl_ring(frm, self.rank)
            backoff = _Backoff(f"PE {self.rank} barrier wait on PE {frm}")
            while in_ring.try_read(token_in, 0) == 0:
                backoff.wait()


# -- SPMD runner ------------------------------------------------------------

def _picklable_exc(exc: BaseException) -> BaseException:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child_main(rank, fabric, fn, args, common_args, cost_model, conn) -> None:
    endpoint = ShmEndpoint(rank, fabric, cost_model)
    from repro.comm.communicator import Comm

    comm = Comm.from_endpoint(endpoint)
    try:
        result = fn(comm, *args, *common_args)
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        conn.send((False, _picklable_exc(exc), endpoint.meter))
    else:
        try:
            conn.send((True, result, endpoint.meter))
        except Exception as exc:  # result not picklable
            conn.send((False, _picklable_exc(exc), endpoint.meter))
    conn.close()


def _collect(procs: list, pipes: list):
    """Block until every worker has reported or died; read each report once.

    A worker's pipe turns readable when its report starts to arrive, and
    at end-of-file once the worker is gone, since the worker holds the
    only write end; its sentinel fires when it exits.  So a wake-up on
    either with nothing to read means the worker died without reporting.
    """
    num_pes = len(procs)
    results: list = [None] * num_pes
    meters: list = [TrafficMeter(rank) for rank in range(num_pes)]
    failures: dict[int, BaseException] = {}
    pending = {}
    for rank, (proc, pipe) in enumerate(zip(procs, pipes)):
        pending[pipe] = pending[proc.sentinel] = rank
    while pending:
        for ready in wait(list(pending)):
            rank = pending.get(ready)
            if rank is None:  # both handles of one worker woke together
                continue
            del pending[pipes[rank]], pending[procs[rank].sentinel]
            try:
                if not pipes[rank].poll():
                    raise EOFError
                ok, value, meter = pipes[rank].recv()
            except EOFError:
                procs[rank].join(timeout=5.0)
                failures[rank] = RuntimeError(
                    f"worker process for PE {rank} exited with code "
                    f"{procs[rank].exitcode} without reporting a result"
                )
                continue
            meters[rank] = meter
            if ok:
                results[rank] = value
            else:
                failures[rank] = value
    return results, meters, failures


def run_spmd(
    num_pes: int,
    fn,
    per_rank_args,
    common_args: tuple,
    cost_model: CostModel | None = None,
) -> tuple[list, list[TrafficMeter], dict[int, BaseException]]:
    """Fork ``num_pes`` workers over a fresh shared-memory fabric.

    Returns ``(results, meters, failures)`` indexed/keyed by rank; the
    caller (:class:`~repro.comm.context.Context`) raises ``SPMDError`` on
    non-empty failures, matching the thread backend.
    """
    mp = multiprocessing.get_context("fork")
    fabric = ShmFabric.create(num_pes)
    procs: list = []
    pipes: list = []
    try:
        for rank in range(num_pes):
            args: tuple = ()
            if per_rank_args is not None:
                arg = per_rank_args[rank]
                args = tuple(arg) if isinstance(arg, tuple) else (arg,)
            pipe, child_end = mp.Pipe(duplex=False)
            pipes.append(pipe)
            try:
                p = mp.Process(
                    target=_child_main,
                    args=(rank, fabric, fn, args, common_args, cost_model, child_end),
                    daemon=True,
                )
                procs.append(p)
                p.start()
            finally:
                # The worker now holds the only write end (later forks
                # never see it), so its pipe reads end-of-file once it is
                # gone; a failed fork must not leak it either.
                child_end.close()
        results, meters, failures = _collect(procs, pipes)
        for p in procs:
            p.join(timeout=10.0)
        return results, meters, failures
    finally:
        for p in procs:
            if p.is_alive():  # pragma: no cover - crash cleanup
                p.terminate()
                p.join(timeout=5.0)
        for pipe in pipes:
            pipe.close()
        fabric.destroy()
