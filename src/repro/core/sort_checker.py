"""Sort checker (§5, Theorem 7): permutation + global sortedness.

After establishing the permutation property (Theorem 6), sortedness needs
only O(n/p) local work plus one boundary message per PE: each PE transmits
its locally smallest element to the preceding PE, which compares it to its
local maximum; a final AND-reduction collects the verdicts.

Empty local sequences (legal under the O(n/p) distribution model) are
handled with a prefix-maximum scan instead of the neighbour exchange — the
running maximum over all preceding PEs is exactly what the local minimum
must dominate, whether or not neighbours hold data.
"""

from __future__ import annotations

import numpy as np

from repro.comm import ops
from repro.core import domain
from repro.core.base import CheckResult
from repro.core.permutation_checker import check_permutation

_NEG_INF = None  # identity of the max-scan (no predecessor data)


def _max_op(a, b):
    if a is _NEG_INF:
        return b
    if b is _NEG_INF:
        return a
    return max(a, b)


def boundaries_ordered(comm, first, last, ok: bool = True) -> bool:
    """Does every PE's ``first`` dominate every earlier PE's ``last``?

    ``first`` and ``last`` are one PE's smallest and largest elements as
    exact Python ints (None on a PE without data), so keys of any integer
    dtype compare in their own order.  An exclusive max-scan of ``last``
    replaces the paper's neighbour exchange (same O(α log p) cost, robust
    to empty PEs); one AND-reduction folds in the local verdict ``ok``.
    """
    prev_max = comm.exscan(last, _max_op, identity=_NEG_INF)
    if ok and first is not None and prev_max is not _NEG_INF:
        ok = first >= prev_max
    return bool(comm.allreduce(bool(ok), op=ops.LAND))


def locally_sorted(values: np.ndarray) -> bool:
    """Non-decreasing order of one PE's local slice, O(n/p)."""
    values = np.asarray(values)
    if values.size <= 1:
        return True
    return bool(np.all(values[:-1] <= values[1:]))


def check_globally_sorted(values, comm=None) -> CheckResult:
    """Is the (distributed) concatenation of local slices sorted?

    Sequential when ``comm`` is None.  Distributed: local sortedness, then
    :func:`boundaries_ordered` over each PE's first and last element.
    Elements must be integers (:func:`~repro.core.domain.ordered`).
    """
    values = domain.ordered(values)
    ok = locally_sorted(values)
    if comm is not None:
        first, last = (
            (int(values[0]), int(values[-1])) if values.size else (None, None)
        )
        ok = boundaries_ordered(comm, first, last, ok)
    return CheckResult(
        accepted=bool(ok),
        checker="sortedness",
        details={},
    )


def check_sort(
    e_values,
    o_values,
    method: str = "hashsum",
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    seed: int = 0,
    comm=None,
    delta: float = 2.0**-30,
    universe: int = 1 << 32,
) -> CheckResult:
    """Theorem 7: ``o_values`` is a sorted permutation of ``e_values``.

    ``method`` selects the permutation fingerprint: ``"hashsum"`` (Lemma 4),
    ``"polynomial"`` (Lemma 5) or ``"gf64"``.  Signed and unsigned integer
    sides raise ``TypeError`` (:func:`~repro.core.domain.ordered`).
    """
    domain.ordered(o_values, [e_values], "check_sort")
    perm = check_permutation(
        e_values, o_values, method, iterations, hash_family, log_h, seed,
        comm, delta, universe,
    )
    sortedness = check_globally_sorted(o_values, comm=comm)
    return CheckResult(
        accepted=perm.accepted and sortedness.accepted,
        checker="sort",
        details={
            "permutation": perm.details | {"accepted": perm.accepted},
            "sorted": sortedness.accepted,
            "method": method,
        },
    )
