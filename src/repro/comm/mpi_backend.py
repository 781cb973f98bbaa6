"""Optional mpi4py backend: real distributed-memory PEs under ``mpiexec``.

mpi4py is never a hard dependency.  The import is lazy and the outcome
sticky: when ``mpi4py`` is absent or ``MPI.Init`` fails,
:func:`mpi_available` is False, a once-per-process :class:`RuntimeWarning`
fires if ``mpi`` was explicitly requested, and the caller falls back to the
thread oracle — importing this module never raises.

Point-to-point messages reuse the shared wire format of
:mod:`repro.comm.backend` as single ``MPI.BYTE`` frames (``Probe`` +
``Get_count`` sizes the receive buffer), so verdicts stay bit-identical to
the other backends.  Native fast paths (``Allreduce``, ``Exscan``,
``Alltoallv``) are taken only for contiguous integer-typed arrays under a
named :class:`~repro.comm.ops.ReduceOp` — exactly the payloads for which
hardware reduction is bit-for-bit equal to the round schedules; everything
else falls back to :mod:`repro.comm.collectives` over frame p2p, whose
send-and-receive rounds go through :meth:`MpiEndpoint.exchange`.

Under ``Context.run(backend="mpi")`` the process must already be running
inside ``mpiexec -n <num_pes>``; every rank executes its own slice and the
per-rank results/meters are allgathered so all ranks return the full list,
keeping the SPMD scripts backend-agnostic (see
``examples/mpi_backend_smoke.py``).
"""

from __future__ import annotations

import threading
import warnings

import numpy as np

from repro.comm.backend import FRAME_HEADER, decode_frame, encode_frame
from repro.comm.cost import CostModel, TrafficMeter, payload_nbytes
from repro.comm.ops import ReduceOp

_state = {
    "mpi": None,  # the imported-and-initialised mpi4py.MPI module
    "failed": False,  # sticky: import or init failed
    "error": None,
    "warned": False,
}
_lock = threading.Lock()

#: dtypes whose native reduction is exactly the tree reduction (integer
#: arithmetic is associative; float addition is not reassociable).
_EXACT_KINDS = ("i", "u", "b")


def _try_mpi():
    """The initialised ``mpi4py.MPI`` module, or None (result is sticky)."""
    if _state["mpi"] is not None:
        return _state["mpi"]
    if _state["failed"]:
        return None
    with _lock:
        if _state["mpi"] is not None or _state["failed"]:
            return _state["mpi"]
        try:
            from mpi4py import MPI
        except Exception as exc:  # pragma: no cover - env-specific
            _state["failed"] = True
            _state["error"] = f"{type(exc).__name__}: {exc}"
            return None
        _state["mpi"] = MPI
        return MPI


def mpi_available() -> bool:
    """Whether the mpi4py backend can be used in this process."""
    return _try_mpi() is not None


def mpi_unavailable_reason() -> str | None:
    """Why mpi4py could not be loaded (None when it can)."""
    _try_mpi()
    return _state["error"]


def warn_fallback_once() -> None:
    """Emit the once-per-process sticky-fallback warning."""
    if _state["warned"]:
        return
    _state["warned"] = True
    reason = _state["error"] or "mpi4py is not installed"
    warnings.warn(
        f"backend='mpi' requested but mpi4py is unavailable ({reason}); "
        f"falling back to the thread backend",
        RuntimeWarning,
        stacklevel=3,
    )


def _mpi_op(MPI, op):
    """Map a named ReduceOp to its MPI operator (None → no fast path)."""
    if not isinstance(op, ReduceOp):
        return None
    return {
        "sum": MPI.SUM,
        "max": MPI.MAX,
        "min": MPI.MIN,
        "bor": MPI.BOR,
        "band": MPI.BAND,
        "bxor": MPI.BXOR,
        "lor": MPI.LOR,
        "land": MPI.LAND,
    }.get(op.name)


def _exact_array(value) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.dtype.kind in _EXACT_KINDS
        and value.flags.c_contiguous
    )


class MpiEndpoint:
    """Per-rank endpoint over an MPI communicator (CommBackend protocol)."""

    _TAG = 7  # single matched-order channel, like the mailbox network

    def __init__(self, mpi_comm, cost_model: CostModel | None = None):
        self._MPI = _try_mpi()
        if self._MPI is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("mpi4py is unavailable")
        self._comm = mpi_comm
        self.rank = mpi_comm.Get_rank()
        self.size = mpi_comm.Get_size()
        self._cost = cost_model or CostModel()
        self._meter = TrafficMeter(self.rank)

    @property
    def meter(self) -> TrafficMeter:
        return self._meter

    # -- point to point ----------------------------------------------------
    def send(self, dst: int, payload) -> None:
        frame = encode_frame(payload)
        self._meter.record_send(
            payload_nbytes(payload), self._cost, wire_nbytes=len(frame)
        )
        self._comm.Send([frame, self._MPI.BYTE], dest=dst, tag=self._TAG)

    def _recv_frame(self, src: int) -> bytes:
        status = self._MPI.Status()
        self._comm.Probe(source=src, tag=self._TAG, status=status)
        buf = bytearray(status.Get_count(self._MPI.BYTE))
        self._comm.Recv([buf, self._MPI.BYTE], source=src, tag=self._TAG)
        return bytes(buf)

    def _decode(self, frame: bytes):
        kind, meta_len, payload_len = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        meta_end = FRAME_HEADER.size + meta_len
        payload = decode_frame(kind, frame[FRAME_HEADER.size : meta_end], frame[meta_end:])
        self._meter.record_recv(
            payload_nbytes(payload), self._cost, wire_nbytes=len(frame)
        )
        return payload

    def recv(self, src: int):
        return self._decode(self._recv_frame(src))

    def exchange(self, dst: int, payload, src: int):
        """``Isend`` to ``dst`` overlapping the receive from ``src``.

        A blocking ``Send`` above the eager limit waits for its matching
        receive; posting the send nonblocking first lets every PE of a
        round reach its receive.
        """
        frame = encode_frame(payload)
        self._meter.record_send(
            payload_nbytes(payload), self._cost, wire_nbytes=len(frame)
        )
        req = self._comm.Isend([frame, self._MPI.BYTE], dest=dst, tag=self._TAG)
        incoming = self._recv_frame(src)
        req.Wait()
        return self._decode(incoming)

    def barrier(self) -> None:
        self._comm.Barrier()

    # -- native collective fast paths --------------------------------------
    def native_allreduce(self, value, op):
        mpi_op = _mpi_op(self._MPI, op)
        if mpi_op is None or not _exact_array(value):
            return False, None
        out = np.empty_like(value)
        self._comm.Allreduce(value, out, op=mpi_op)
        nbytes = int(value.nbytes)
        self._meter.record_send(nbytes, self._cost, wire_nbytes=nbytes)
        self._meter.record_recv(nbytes, self._cost, wire_nbytes=nbytes)
        return True, out

    def native_exscan(self, value, op, identity):
        mpi_op = _mpi_op(self._MPI, op)
        if mpi_op is None or not _exact_array(value):
            return False, None
        out = np.empty_like(value)
        self._comm.Exscan(value, out, op=mpi_op)
        if self.rank == 0:
            # MPI leaves rank 0's Exscan output undefined; the repo's
            # contract returns the identity there.
            out = np.broadcast_to(np.asarray(identity, dtype=value.dtype), value.shape).copy()
        nbytes = int(value.nbytes)
        self._meter.record_send(nbytes, self._cost, wire_nbytes=nbytes)
        self._meter.record_recv(nbytes, self._cost, wire_nbytes=nbytes)
        return True, out

    def native_alltoall(self, payloads):
        if len(payloads) != self.size:
            return False, None
        arrays = [np.asarray(p) if isinstance(p, np.ndarray) else None for p in payloads]
        if any(a is None or a.ndim != 1 or not a.flags.c_contiguous for a in arrays):
            return False, None
        dtype = arrays[0].dtype
        if dtype.kind not in _EXACT_KINDS + ("f",) or any(
            a.dtype != dtype for a in arrays
        ):
            # Alltoallv only moves bytes (no arithmetic), so floats are fine;
            # mixed dtypes are not expressible as one typed exchange.
            return False, None
        send_counts = np.array([len(a) for a in arrays], dtype=np.int64)
        recv_counts = np.empty(self.size, dtype=np.int64)
        self._comm.Alltoall(send_counts, recv_counts)
        send_buf = np.concatenate(arrays) if sum(send_counts) else np.empty(0, dtype=dtype)
        recv_buf = np.empty(int(recv_counts.sum()), dtype=dtype)
        sdispl = np.zeros(self.size, dtype=np.int64)
        rdispl = np.zeros(self.size, dtype=np.int64)
        np.cumsum(send_counts[:-1], out=sdispl[1:])
        np.cumsum(recv_counts[:-1], out=rdispl[1:])
        self._comm.Alltoallv(
            [send_buf, send_counts, sdispl, self._mpi_dtype(dtype)],
            [recv_buf, recv_counts, rdispl, self._mpi_dtype(dtype)],
        )
        item = dtype.itemsize
        self._meter.record_send(
            int(send_counts.sum()) * item, self._cost, wire_nbytes=int(send_counts.sum()) * item
        )
        self._meter.record_recv(
            int(recv_counts.sum()) * item, self._cost, wire_nbytes=int(recv_counts.sum()) * item
        )
        out = [
            recv_buf[rdispl[i] : rdispl[i] + recv_counts[i]].copy()
            for i in range(self.size)
        ]
        return True, out

    def _mpi_dtype(self, dtype: np.dtype):
        from mpi4py.util import dtlib

        return dtlib.from_numpy_dtype(dtype)


def run_under_mpi(num_pes: int, fn, per_rank_args, common_args, cost_model=None):
    """Execute ``fn`` on this rank and allgather all ranks' results.

    Must be called from inside an ``mpiexec`` launch whose world size is
    ``num_pes``.  Returns ``(results, meters, failures)`` like the process
    runner, identical on every rank.
    """
    MPI = _try_mpi()
    if MPI is None:
        raise RuntimeError(
            f"backend='mpi' needs mpi4py ({_state['error'] or 'not installed'})"
        )
    world = MPI.COMM_WORLD
    if world.Get_size() != num_pes:
        raise RuntimeError(
            f"Context(num_pes={num_pes}) under mpiexec with world size "
            f"{world.Get_size()}; launch with mpiexec -n {num_pes}"
        )
    comm_dup = world.Dup()
    try:
        from repro.comm.communicator import Comm

        endpoint = MpiEndpoint(comm_dup, cost_model)
        comm = Comm.from_endpoint(endpoint)
        rank = endpoint.rank
        args: tuple = ()
        if per_rank_args is not None:
            arg = per_rank_args[rank]
            args = tuple(arg) if isinstance(arg, tuple) else (arg,)
        try:
            outcome = (True, fn(comm, *args, *common_args))
        except BaseException as exc:  # noqa: BLE001 - gathered below
            outcome = (False, exc)
        gathered = comm_dup.allgather((outcome, endpoint.meter))
    finally:
        comm_dup.Free()
    results: list = [None] * num_pes
    meters: list[TrafficMeter] = []
    failures: dict[int, BaseException] = {}
    for r, ((ok, value), meter) in enumerate(gathered):
        meters.append(meter)
        if ok:
            results[r] = value
        else:
            failures[r] = value
    return results, meters, failures
