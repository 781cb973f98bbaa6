"""Zip — index-wise pairing of two equally long distributed sequences.

The sequences need not share a distribution, so (at least) one of them is
realigned: every PE fetches the slice of S2 covering its S1 index range
(§6.4: "the elements of (at least) one sequence need to be moved in the
general case").
"""

from __future__ import annotations

import numpy as np

from repro.core import domain
from repro.dataflow.exchange import global_offsets


def zip_arrays(
    comm, s1: np.ndarray, s2: np.ndarray, return_offsets: bool = False
):
    """Return the local slice of ``Zip(S1, S2)`` as two aligned columns.

    Output distribution follows S1's.  Raises if the global lengths
    differ.  With ``return_offsets`` the result is ``(first, second,
    (off1, off2))`` — the PE's global starting offsets of both inputs (the
    output shares S1's), which the zip checker needs and would otherwise
    recompute with its own collectives.
    """
    s1 = np.asarray(s1).ravel()
    s2 = np.asarray(s2).ravel()
    if comm is None or comm.size == 1:
        if s1.size != s2.size:
            raise ValueError(
                f"Zip requires equal lengths, got {s1.size} and {s2.size}"
            )
        if return_offsets:
            return s1.copy(), s2.copy(), (0, 0)
        return s1.copy(), s2.copy()

    p = comm.size
    # Both totals in one allreduce, both offsets in one exscan (these used
    # to be four collectives — redundant latency in windowed loops).
    n1, n2 = comm.allreduce(
        (int(s1.size), int(s2.size)),
        op=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    )
    if n1 != n2:
        raise ValueError(f"Zip requires equal lengths, got {n1} and {n2}")

    off1, off2 = global_offsets(comm, int(s1.size), int(s2.size))
    # Every PE learns the S1 index ranges (the target distribution).
    ranges = comm.allgather((off1, off1 + int(s1.size)))

    # Send each PE the part of our S2 slice that falls into its range.
    payloads = []
    for start, stop in ranges:
        lo = max(off2, start)
        hi = min(off2 + s2.size, stop)
        payloads.append(
            np.ascontiguousarray(s2[lo - off2 : hi - off2])
            if hi > lo
            else s2[:0]
        )
    received = comm.alltoall(payloads)
    parts = [received[src] for src in range(p)]
    if len({part.dtype for part in parts}) > 1 and all(
        part.dtype.kind in "iu" for part in parts
    ):
        # int64 next to uint64 concatenates to float64 and loses low
        # bits; integer slices join exactly, as zip columns do.
        aligned = domain.concat(parts)
    else:
        aligned = np.concatenate(parts)
    if return_offsets:
        return s1.copy(), aligned, (off1, off2)
    return s1.copy(), aligned
