"""Merge checker (§6.5.2, Corollary 13).

``Merge(S1, S2)`` combines two sorted sequences into one sorted sequence —
checking it is exactly the union check plus global sortedness of the
output (Theorem 7's machinery).
"""

from __future__ import annotations

from repro.core import domain
from repro.core.base import CheckResult
from repro.core.sort_checker import check_globally_sorted
from repro.core.union_checker import check_union


def check_merge(
    s1,
    s2,
    out,
    method: str = "hashsum",
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    seed: int = 0,
    comm=None,
    delta: float = 2.0**-30,
    universe: int = 1 << 32,
) -> CheckResult:
    """Accept iff ``out`` is a sorted permutation of ``concat(s1, s2)``.

    Signed and unsigned integer sides raise ``TypeError``, as in
    :func:`~repro.core.sort_checker.check_sort`.
    """
    domain.ordered(out, [s1, s2], "check_merge")
    union = check_union(
        s1,
        s2,
        out,
        method=method,
        iterations=iterations,
        hash_family=hash_family,
        log_h=log_h,
        seed=seed,
        comm=comm,
        delta=delta,
        universe=universe,
    )
    sortedness = check_globally_sorted(out, comm=comm)
    return CheckResult(
        accepted=union.accepted and sortedness.accepted,
        checker="merge",
        details={
            "union": union.details | {"accepted": union.accepted},
            "sorted": sortedness.accepted,
        },
    )
