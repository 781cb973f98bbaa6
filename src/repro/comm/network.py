"""In-process message-passing network.

One mailbox (FIFO queue) per ordered PE pair — matched sends/receives, no
tags needed because the SPMD programs in this repository communicate in a
statically known order (as the paper's collectives do).
"""

from __future__ import annotations

import queue
import threading

from repro.comm.cost import CostModel, TrafficMeter, payload_nbytes

#: Seconds before a blocking receive gives up and reports a likely deadlock.
_RECV_TIMEOUT = 120.0


class Network:
    """Mailbox fabric plus per-PE traffic meters for ``size`` PEs."""

    def __init__(self, size: int, cost_model: CostModel | None = None):
        if size < 1:
            raise ValueError(f"network needs at least one PE, got {size}")
        self.size = size
        self.cost_model = cost_model or CostModel()
        self._mailboxes: dict[tuple[int, int], queue.SimpleQueue] = {}
        for src in range(size):
            for dst in range(size):
                if src != dst:
                    self._mailboxes[(src, dst)] = queue.SimpleQueue()
        self.meters = [TrafficMeter(rank) for rank in range(size)]
        self._barrier = threading.Barrier(size) if size > 1 else None

    def _check_rank(self, name: str, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"{name}={rank} out of range for {self.size} PEs")

    def send(self, src: int, dst: int, payload) -> None:
        """Deliver ``payload`` from PE ``src`` to PE ``dst`` (non-blocking)."""
        self._check_rank("src", src)
        self._check_rank("dst", dst)
        if src == dst:
            raise ValueError(f"PE {src} attempted to send to itself")
        nbytes = payload_nbytes(payload)
        self.meters[src].record_send(nbytes, self.cost_model)
        self._mailboxes[(src, dst)].put(payload)

    def recv(self, dst: int, src: int):
        """Blocking receive at PE ``dst`` of the next message from ``src``."""
        self._check_rank("src", src)
        self._check_rank("dst", dst)
        if src == dst:
            raise ValueError(f"PE {dst} attempted to receive from itself")
        try:
            payload = self._mailboxes[(src, dst)].get(timeout=_RECV_TIMEOUT)
        except queue.Empty:
            raise TimeoutError(
                f"PE {dst} timed out waiting for a message from PE {src} "
                f"(likely deadlock in the SPMD program)"
            ) from None
        self.meters[dst].record_recv(payload_nbytes(payload), self.cost_model)
        return payload

    def barrier(self) -> None:
        """Synchronize all PEs (not metered; used only for phase timing)."""
        if self._barrier is not None:
            self._barrier.wait(timeout=_RECV_TIMEOUT)


class NetworkEndpoint:
    """Per-rank CommBackend view of a :class:`Network` (the thread oracle).

    Sends deposit into unbounded queues and never block, so ``exchange``
    is a send followed by a receive.  The endpoint offers no native
    collectives — it is the reference the other backends must match bit
    for bit.
    """

    __slots__ = ("rank", "size", "network")

    def __init__(self, rank: int, network: Network):
        self.rank = rank
        self.size = network.size
        self.network = network

    def send(self, dst: int, payload) -> None:
        self.network.send(self.rank, dst, payload)

    def recv(self, src: int):
        return self.network.recv(self.rank, src)

    def exchange(self, dst: int, payload, src: int):
        self.network.send(self.rank, dst, payload)
        return self.network.recv(self.rank, src)

    def barrier(self) -> None:
        self.network.barrier()

    @property
    def meter(self):
        return self.network.meters[self.rank]
