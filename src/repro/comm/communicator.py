"""Per-rank communicator handle — the mpi4py-flavoured SPMD API.

Lower-case method names communicate arbitrary Python payloads, as in mpi4py;
numpy arrays are metered by buffer size (the fast path a real implementation
would take).

A :class:`Comm` is written against the :class:`~repro.comm.backend.CommBackend`
endpoint protocol, so the same SPMD program runs unchanged over the thread
mailbox network (the oracle), shared-memory processes, or mpi4py.  All
collectives route through the identical round schedules in
:mod:`repro.comm.collectives`, built from :meth:`Comm.send`,
:meth:`Comm.recv` and :meth:`Comm.sendrecv`; when an endpoint offers a
native fast path (``native_allreduce`` etc.) it is consulted first and
falls through to the schedules whenever it declines, which keeps verdicts
bit-identical across backends.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.comm import collectives
from repro.comm.network import Network, NetworkEndpoint

T = TypeVar("T")


class Comm:
    """Communication endpoint of one PE inside a backend fabric."""

    def __init__(self, rank: int, network: Network):
        # Back-compat constructor: wrap the mailbox network. New transports
        # come in through :meth:`from_endpoint`.
        self._endpoint = NetworkEndpoint(rank, network)
        self.rank = rank
        self.size = network.size
        self.network = network

    @classmethod
    def from_endpoint(cls, endpoint) -> "Comm":
        comm = cls.__new__(cls)
        comm._endpoint = endpoint
        comm.rank = endpoint.rank
        comm.size = endpoint.size
        comm.network = getattr(endpoint, "network", None)
        return comm

    @property
    def endpoint(self):
        """The transport endpoint this communicator drives."""
        return self._endpoint

    # -- point to point ----------------------------------------------------
    def send(self, dst: int, payload) -> None:
        """Send ``payload`` to PE ``dst``.

        The thread mailbox never blocks here; a bounded transport (a
        shared-memory ring) waits until PE ``dst`` drains what does not
        fit, so a round in which two PEs both send and receive must use
        :meth:`sendrecv`.
        """
        self._endpoint.send(dst, payload)

    def recv(self, src: int):
        """Blocking receive of the next message from PE ``src``."""
        return self._endpoint.recv(src)

    def sendrecv(self, dst: int, payload, src: int | None = None):
        """Send ``payload`` to PE ``dst`` while receiving from PE ``src``.

        ``src`` defaults to ``dst`` (a pairwise swap); a ring shift
        (``dst = rank + i``, ``src = rank − i``) is another round shape.
        PEs ``dst`` and ``src`` must take part in the same round.  The
        endpoint's ``exchange`` moves both frames together, so the round
        completes without the transport buffering either one: the process
        endpoint interleaves progress on its two rings, the MPI endpoint
        posts an ``Isend`` before it receives, and the thread mailbox,
        whose queues are unbounded, sends then receives.
        """
        return self._endpoint.exchange(
            dst, payload, dst if src is None else src
        )

    def barrier(self) -> None:
        """Synchronize all PEs."""
        self._endpoint.barrier()

    # -- collectives ---------------------------------------------------------
    def bcast(self, value: T, root: int = 0) -> T:
        return collectives.broadcast(self, value, root)

    def reduce(self, value: T, op: Callable[[T, T], T], root: int = 0):
        return collectives.reduce(self, value, op, root)

    def allreduce(self, value: T, op: Callable[[T, T], T]) -> T:
        native = getattr(self._endpoint, "native_allreduce", None)
        if native is not None:
            handled, result = native(value, op)
            if handled:
                return result
        return collectives.allreduce(self, value, op)

    def gather(self, value: T, root: int = 0):
        return collectives.gather(self, value, root)

    def allgather(self, value: T) -> list[T]:
        return collectives.allgather(self, value)

    def scan(self, value: T, op: Callable[[T, T], T]) -> T:
        return collectives.scan(self, value, op)

    def exscan(self, value: T, op: Callable[[T, T], T], identity: T) -> T:
        native = getattr(self._endpoint, "native_exscan", None)
        if native is not None:
            handled, result = native(value, op, identity)
            if handled:
                return result
        return collectives.exscan(self, value, op, identity)

    def alltoall(self, payloads: list) -> list:
        native = getattr(self._endpoint, "native_alltoall", None)
        if native is not None:
            handled, result = native(payloads)
            if handled:
                return result
        return collectives.alltoall(self, payloads)

    def alltoall_hypercube(self, payloads: list) -> list:
        return collectives.alltoall_hypercube(self, payloads)

    # -- accounting ----------------------------------------------------------
    @property
    def meter(self):
        """This PE's traffic meter."""
        return self._endpoint.meter

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Comm(rank={self.rank}, size={self.size})"
