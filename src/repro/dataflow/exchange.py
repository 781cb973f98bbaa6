"""Data exchange primitives shared by the dataflow operations.

:func:`exchange_by_destination` is the one all-to-all every keyed
operation routes its rows through (ReduceByKey, GroupByKey, both joins,
the min/max and median aggregates).  It splits the rows without
sorting, one ``flatnonzero(destinations == r)`` per PE, so each payload
keeps its rows in source order, and hands the payloads to one direct
``alltoall`` (§2: ``O(β·k + α·p)``).  The masks read the destinations
``p`` times; a stable radix argsort of uint8 ranks reads them once and
wins from about p = 8.  At p = 2 and 4 the masks win: building the
payloads of 5·10^5 two-column rows took 4.3 and 5.6 ms, against 12.4
and 6.6 ms by radix argsort and 19.7 and 26.6 ms by a stable argsort of
the int64 destinations (best of 7, 2-core Intel Xeon, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

from repro.comm import ops
from repro.core import domain


def global_offset(comm, local_count: int) -> int:
    """This PE's starting index in the global concatenation order."""
    if comm is None:
        return 0
    return comm.exscan(local_count, op=ops.SUM, identity=0)


def global_offsets(comm, *local_counts: int) -> tuple[int, ...]:
    """Offsets for several columns in ONE exscan (tuple payload).

    Every column used to pay its own :func:`global_offset` collective —
    windowed loops (one zip per window needs three offsets) multiplied
    that α·log p latency by the column count.  A single tuple-valued
    exscan delivers all of them at once.
    """
    counts = tuple(int(c) for c in local_counts)
    if comm is None:
        return tuple(0 for _ in counts)
    return tuple(
        comm.exscan(
            counts,
            op=lambda a, b: tuple(x + y for x, y in zip(a, b)),
            identity=tuple(0 for _ in counts),
        )
    )


def exchange_by_destination(comm, destinations: np.ndarray, *columns):
    """Route each row to the PE named by ``destinations`` (all-to-all).

    ``destinations`` holds integer ranks; an array of any other dtype,
    an empty one too, raises ``TypeError``
    (:func:`~repro.core.domain.ranks`).
    ``columns`` are aligned arrays (anything ``np.asarray`` accepts);
    returns the received columns, rows concatenated in source-PE order
    (stable within a source).  Sequential (``comm is None``) requires every
    destination to be 0 and is an identity.  A PE that refuses its rows
    sends the refusal through the all-to-all instead, so every PE raises
    it, whatever the dtype of its own ranks: a PE whose empty ranks came
    from a Python list (float64) cannot leave its peers waiting.
    """
    try:
        destinations = domain.ranks(destinations)
        # Coerce columns up front: a Python-list column used to work
        # sequentially but crash on the distributed path (lists don't
        # support fancy indexing), and a misaligned column would silently
        # drop rows.
        columns = tuple(np.asarray(c) for c in columns)
        for i, col in enumerate(columns):
            if col.shape[:1] != destinations.shape:
                raise ValueError(
                    f"column {i} has {col.shape[0] if col.ndim else 'scalar'} "
                    f"rows but {destinations.size} destinations"
                )
        if comm is None:
            if destinations.size and (destinations != 0).any():
                raise ValueError("sequential exchange cannot route to other PEs")
            return tuple(c.copy() for c in columns)
        rows = [np.flatnonzero(destinations == r) for r in range(comm.size)]
        # A rank outside [0, p) matches no mask, so its row is in no payload.
        if sum(r.size for r in rows) != destinations.size:
            raise ValueError("destination rank out of range")
        refusal = None
        payloads = [tuple(c[r] for c in columns) for r in rows]
    except (TypeError, ValueError) as exc:
        if comm is None:
            raise
        refusal = exc
        payloads = [exc] * comm.size
    received = comm.alltoall(payloads)
    if refusal is not None:
        raise refusal
    for src, got in enumerate(received):
        if isinstance(got, Exception):
            raise type(got)(f"PE {src} refused the exchange: {got}")
    return tuple(np.concatenate(parts) for parts in zip(*received))
