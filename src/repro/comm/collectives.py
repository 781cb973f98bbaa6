"""Collective operations built from point-to-point rounds.

All schedules are the textbook binomial-tree / recursive-doubling algorithms
the paper cites ([7] Bala et al., [8] Sanders–Speck–Träff, [9] Dietzfelbinger
et al.), so a collective on ``k`` bytes costs ``O(β·k + α·log p)`` — the
``T_coll`` of §2.  All-to-all is provided both with direct delivery
(``O(β·k + α·p)``) and hypercube indirect delivery
(``O(β·k·log p + α·log p)``), matching ``T_all-to-all`` of §2.

Every schedule is a sequence of rounds, and in each round a PE sends,
receives, or does both through
:meth:`~repro.comm.communicator.Comm.sendrecv`, whose endpoint
``exchange`` moves both frames together: no round relies on the transport
buffering a frame, so one larger than a shared-memory ring or MPI's eager
limit cannot deadlock a schedule.  The trees (broadcast, reduce, gather)
have one-sided rounds whose wait graph is acyclic.  ``allreduce`` is
recursive doubling: ``⌊log2 p⌋ + 2`` rounds at most, against the
``2⌈log2 p⌉`` of a reduce plus broadcast, at the same bottleneck volume.

Functions take the per-rank :class:`~repro.comm.communicator.Comm` handle;
every PE of the group must call the same collective in the same order.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def _vrank(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _actual(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def broadcast(comm, value: T, root: int = 0) -> T:
    """Binomial-tree broadcast of ``value`` from ``root`` to every PE."""
    p = comm.size
    if p == 1:
        return value
    v = _vrank(comm.rank, root, p)
    mask = 1
    while mask < p:
        if v < mask:
            partner = v + mask
            if partner < p:
                comm.send(_actual(partner, root, p), value)
        elif v < 2 * mask:
            value = comm.recv(_actual(v - mask, root, p))
        mask <<= 1
    return value


def reduce(comm, value: T, op: Callable[[T, T], T], root: int = 0) -> T | None:
    """Binomial-tree reduction; the combined value lands at ``root``.

    ``op`` must be associative and commutative (all reduce operators in this
    repository are).  Non-root PEs return ``None``.
    """
    p = comm.size
    if p == 1:
        return value
    v = _vrank(comm.rank, root, p)
    mask = 1
    while mask < p:
        if v & mask:
            comm.send(_actual(v - mask, root, p), value)
            return None
        partner = v + mask
        if partner < p:
            value = op(value, comm.recv(_actual(partner, root, p)))
        mask <<= 1
    return value


def allreduce(comm, value: T, op: Callable[[T, T], T]) -> T:
    """Reduction whose result is available at every PE (recursive doubling).

    Every PE returns identical bytes: the PEs of the power-of-two core
    each apply ``op`` to the same operands in the same order, and an
    excess rank receives its partner's result.  At a power-of-two ``p``
    the result equals ``reduce(comm, value, op, root=0)`` even for a
    non-commutative ``op``.  ``op`` must return a new value and leave its
    arguments alone: on the thread backend both partners of a round
    combine the very objects they sent each other.
    """
    p = comm.size
    if p == 1:
        return value
    rank = comm.rank
    core = 1 << (p.bit_length() - 1)  # largest power of two <= p
    if rank >= core:
        comm.send(rank - core, value)
        return comm.recv(rank - core)
    folds_excess = rank + core < p
    if folds_excess:
        value = op(value, comm.recv(rank + core))
    bit = 1
    while bit < core:
        other = comm.sendrecv(rank ^ bit, value)
        value = op(other, value) if rank & bit else op(value, other)
        bit <<= 1
    if folds_excess:
        comm.send(rank + core, value)
    return value


def gather(comm, value: T, root: int = 0) -> list[T] | None:
    """Binomial-tree gather; ``root`` returns ``[value_0, ..., value_{p-1}]``."""
    p = comm.size
    if p == 1:
        return [value]
    v = _vrank(comm.rank, root, p)
    acc: dict[int, T] = {comm.rank: value}
    mask = 1
    while mask < p:
        if v & mask:
            comm.send(_actual(v - mask, root, p), acc)
            return None
        partner = v + mask
        if partner < p:
            acc.update(comm.recv(_actual(partner, root, p)))
        mask <<= 1
    return [acc[i] for i in range(p)]


def allgather(comm, value: T) -> list[T]:
    """Gather at PE 0 followed by a broadcast of the assembled list."""
    gathered = gather(comm, value, root=0)
    return broadcast(comm, gathered, root=0)


def _shift(comm, distance: int, payload):
    """One round sending ``payload`` ``distance`` ranks up and receiving
    from ``distance`` ranks down; None where no PE sends to this one."""
    dst = comm.rank + distance
    src = comm.rank - distance
    if dst < comm.size and src >= 0:
        return comm.sendrecv(dst, payload, src)
    if dst < comm.size:
        comm.send(dst, payload)
        return None
    return comm.recv(src) if src >= 0 else None


def scan(comm, value: T, op: Callable[[T, T], T]) -> T:
    """Inclusive prefix reduction (Hillis–Steele distributed scan).

    PE i returns ``op(value_0, ..., value_i)`` in ``⌈log2 p⌉`` rounds.
    """
    partial = value
    distance = 1
    while distance < comm.size:
        received = _shift(comm, distance, partial)
        if comm.rank >= distance:
            partial = op(received, partial)
        distance <<= 1
    return partial


def exscan(comm, value: T, op: Callable[[T, T], T], identity: T) -> T:
    """Exclusive prefix reduction: PE i gets ``op`` over ranks ``< i``."""
    # Shift the inclusive prefixes one PE to the right.
    shifted = _shift(comm, 1, scan(comm, value, op))
    return identity if comm.rank == 0 else shifted


def alltoall(comm, payloads: list) -> list:
    """Direct-delivery all-to-all: ``payloads[j]`` goes to PE ``j``.

    Returns the list of received payloads indexed by source PE.  Cost:
    ``p - 1`` sendrecv rounds per PE (the ``α·p`` regime of §2).
    """
    p = comm.size
    if len(payloads) != p:
        raise ValueError(
            f"alltoall needs exactly {p} payloads, got {len(payloads)}"
        )
    received: list = [None] * p
    received[comm.rank] = payloads[comm.rank]
    # Stagger the schedule so traffic spreads over partners round-robin.
    for offset in range(1, p):
        dst = (comm.rank + offset) % p
        src = (comm.rank - offset) % p
        received[src] = comm.sendrecv(dst, payloads[dst], src)
    return received


def alltoall_hypercube(comm, payloads: list) -> list:
    """Hypercube indirect all-to-all (``log p`` rounds, store-and-forward).

    Requires ``p`` to be a power of two.  Each round exchanges the items
    whose destination differs in the current bit: ``O(β·k·log p + α·log p)``.
    """
    p = comm.size
    if p & (p - 1):
        raise ValueError(f"hypercube all-to-all needs a power-of-two p, got {p}")
    if len(payloads) != p:
        raise ValueError(
            f"alltoall needs exactly {p} payloads, got {len(payloads)}"
        )
    # held[dst] = list of (src, payload) still travelling to dst.
    held: dict[int, list] = {dst: [(comm.rank, payloads[dst])] for dst in range(p)}
    bit = 1
    while bit < p:
        partner = comm.rank ^ bit
        outgoing = {
            dst: items for dst, items in held.items() if (dst ^ comm.rank) & bit
        }
        for dst in outgoing:
            del held[dst]
        incoming = comm.sendrecv(partner, outgoing)
        for dst, items in incoming.items():
            held.setdefault(dst, []).extend(items)
        bit <<= 1
    received: list = [None] * p
    for src, payload in held[comm.rank]:
        received[src] = payload
    return received
