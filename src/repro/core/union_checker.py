"""Union checker (§6.5.1, Corollary 12).

``Union(S1, S2) = S`` (multiset union) holds iff ``S`` is a permutation of
the concatenation of ``S1`` and ``S2`` — so the permutation checker of §5
applies directly, iterating over the two inputs without materialising the
concatenation.
"""

from __future__ import annotations

from repro.core.base import CheckResult
from repro.core.permutation_checker import check_permutation


def check_union(
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
    """Accept iff ``out`` is a permutation of ``concat(s1, s2)``.

    All arguments are the local slices when running distributed.
    """
    result = check_permutation(
        [s1, s2], out, method, iterations, hash_family, log_h, seed, comm,
        delta, universe,
    )
    return CheckResult(
        accepted=result.accepted,
        checker="union",
        details=result.details | {"method": method},
    )
