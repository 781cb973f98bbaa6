"""Pluggable execution backends: the endpoint protocol and wire format.

ROADMAP item 1.  Historically every PE was a thread over the in-process
mailbox :class:`~repro.comm.network.Network`.  This module makes the
transport pluggable: a :class:`CommBackend` endpoint is the *per-rank*
view of a fabric — send/recv/barrier plus optional native collective fast
paths — and :class:`~repro.comm.communicator.Comm` is written against it.
Three backends exist:

``threads``
    the original mailbox network (the *oracle*: every other backend must
    produce bit-identical verdicts),
``processes``
    :mod:`repro.comm.proc_backend` — real OS processes exchanging numpy
    payloads through ``multiprocessing.shared_memory`` rings,
``mpi``
    :mod:`repro.comm.mpi_backend` — optional mpi4py (lazy import, sticky
    fallback to ``threads`` when absent).

Bit-identity is guaranteed by routing all collectives through the same
round schedules in :mod:`repro.comm.collectives` over backend
point-to-point and ``exchange``; native fast paths are taken only where
exactness is provable (integer payloads, named ops — see
:mod:`repro.comm.ops`).

Wire format (shared by the process and MPI backends)
----------------------------------------------------
Every message is one *frame*::

    [u32 kind][u32 meta_len][u64 payload_len][meta bytes][payload bytes]

``KIND_RAW`` carries a contiguous, non-object ndarray: meta is the pickled
``(dtype.str, shape)`` pair and the payload is the raw buffer (no pickle
overhead — the size :func:`repro.comm.cost.payload_nbytes` models).
``KIND_PICKLE`` is the fallback for everything else.  Frame length is what
the backend's meter records as *wire* bytes, so the α–β model's predicted
volume can be validated against actual serialized bytes
(``benchmarks/bench_backends.py``).
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Protocol, runtime_checkable

import numpy as np

from repro.comm.cost import TrafficMeter

BACKEND_THREADS = "threads"
BACKEND_PROCESSES = "processes"
BACKEND_MPI = "mpi"
BACKENDS = (BACKEND_THREADS, BACKEND_PROCESSES, BACKEND_MPI)

#: Environment knob: default backend for every :class:`Context` that does
#: not pass one explicitly (lets the whole suite re-run on real processes).
BACKEND_ENV = "REPRO_COMM_BACKEND"

#: Frame kinds.
KIND_RAW = 1
KIND_PICKLE = 2

#: ``[u32 kind][u32 meta_len][u64 payload_len]``
FRAME_HEADER = struct.Struct("<IIQ")


def resolve_backend(backend: str | None = None) -> str:
    """Resolve the backend name: explicit arg > ``REPRO_COMM_BACKEND`` > threads."""
    name = backend or os.environ.get(BACKEND_ENV) or BACKEND_THREADS
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown comm backend {name!r}; expected one of {BACKENDS}"
        )
    return name


# -- wire format ------------------------------------------------------------

def encode_frame(payload) -> bytes:
    """Serialize ``payload`` into one wire frame (header + meta + body)."""
    if (
        isinstance(payload, np.ndarray)
        and payload.dtype != object
        and payload.flags.c_contiguous
    ):
        meta = pickle.dumps((payload.dtype.str, payload.shape), protocol=5)
        body = payload.data if payload.nbytes else b""
        return b"".join(
            (FRAME_HEADER.pack(KIND_RAW, len(meta), int(payload.nbytes)), meta, body)
        )
    body = pickle.dumps(payload, protocol=5)
    return FRAME_HEADER.pack(KIND_PICKLE, 0, len(body)) + body


def decode_frame(kind: int, meta: bytes, body) -> object:
    """Inverse of :func:`encode_frame`; ``body`` may be any buffer."""
    if kind == KIND_RAW:
        dtype_str, shape = pickle.loads(meta)
        arr = np.empty(shape, dtype=np.dtype(dtype_str))
        if arr.nbytes:
            arr.view(np.uint8).reshape(-1)[:] = np.frombuffer(body, dtype=np.uint8)
        return arr
    if kind == KIND_PICKLE:
        return pickle.loads(body)
    raise ValueError(f"corrupt frame: unknown kind {kind}")


@runtime_checkable
class CommBackend(Protocol):
    """Per-rank transport endpoint a :class:`Comm` drives.

    Required surface: ``rank``, ``size``, :meth:`send`, :meth:`recv`,
    :meth:`exchange`, :meth:`barrier` and a :attr:`meter`.  Optional
    capabilities are probed with ``getattr`` by
    :class:`~repro.comm.communicator.Comm`:

    ``native_allreduce(value, op)`` / ``native_exscan(value, op, identity)``
        / ``native_alltoall(payloads)``
        hardware collectives returning ``(handled, result)``; a ``False``
        first element falls back to the shared round schedules.
    """

    rank: int
    size: int

    def send(self, dst: int, payload) -> None: ...

    def recv(self, src: int): ...

    def exchange(self, dst: int, payload, src: int):
        """Send ``payload`` to ``dst`` while receiving one message from
        ``src``, without assuming the transport buffers either frame
        (see ``Comm.sendrecv``)."""
        ...

    def barrier(self) -> None: ...

    @property
    def meter(self) -> TrafficMeter: ...
