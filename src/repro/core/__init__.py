"""The paper's contribution: communication-efficient probabilistic checkers.

Every checker verifies the output of a (black-box) distributed operation
with **one-sided error**: a correct result is always accepted; an incorrect
result is accepted with probability at most a configurable δ.

=====================  ==========================================  ==========
Checker                paper reference                             module
=====================  ==========================================  ==========
sum / count / xor      §4, Algorithm 1, Theorem 1                  multiseed
average                §6.1, Corollary 8                           average_checker
minimum / maximum      §6.2, Theorem 9 (deterministic)             minmax_checker
median                 §6.3, Algorithm 2, Theorem 10               median_checker
permutation            §5, Lemmata 4/5, Theorem 6                  permutation_checker
sort                   §5, Theorem 7                               sort_checker
zip                    §6.4, Theorem 11                            zip_checker
union                  §6.5.1, Corollary 12                        union_checker
merge                  §6.5.2, Corollary 13                        merge_checker
group-by (invasive)    §6.5.3, Corollary 14                        groupby_checker
join (invasive)        §6.5.4, Corollary 15                        join_checker
=====================  ==========================================  ==========

Every check of the sum family (sum, count, average, median) runs on
:class:`MultiSeedSumChecker`, as do min/max for their seeded integrity
digest: ``seed`` takes one root seed or an array of ``T`` distinct roots,
and a single seed is ``T = 1``.  ``sum_checker`` holds the shared folds,
the wire codec and :func:`~repro.core.sum_checker.reference_tables`, the
paper's per-iteration fold kept as oracle and timing baseline.

Every hash-sum permutation check (sort, union, merge, group-by, join)
runs on :class:`~repro.core.permutation_checker.MultiSeedHashSumChecker`
the same way: every (seed, iteration) hashes each sequence over one
prepared form of it — the raw sequence for one seed, the side's uniques,
condensed once, for ``T`` seeds.
"""

from repro.core.base import CheckResult
from repro.core.params import (
    PAPER_TABLE2_ROWS,
    PAPER_TABLE3_ACCURACY,
    PAPER_TABLE3_SCALING,
    SumCheckConfig,
    optimize_parameters,
)
from repro.core.integrity import check_replicated, replicated_digest
from repro.core.localize import FaultReport, localize_fault
from repro.core.multiseed import (
    MultiSeedSumChecker,
    check_count_aggregation,
    check_sum_aggregation,
)
from repro.core.average_checker import check_average_aggregation
from repro.core.minmax_checker import (
    check_max_aggregation,
    check_min_aggregation,
    check_min_aggregation_bitvector,
)
from repro.core.median_checker import MedianCertificate, check_median_aggregation
from repro.core.permutation_checker import (
    MultiSeedHashSumChecker,
    check_permutation_gf64,
    check_permutation_hashsum,
    check_permutation_polynomial,
    wide_sum,
)
from repro.core.sort_checker import check_globally_sorted, check_sort
from repro.core.zip_checker import check_zip
from repro.core.union_checker import check_union
from repro.core.merge_checker import check_merge
from repro.core.groupby_checker import check_groupby_redistribution
from repro.core.join_checker import check_join_redistribution

__all__ = [
    "CheckResult",
    "PAPER_TABLE2_ROWS",
    "PAPER_TABLE3_ACCURACY",
    "PAPER_TABLE3_SCALING",
    "SumCheckConfig",
    "optimize_parameters",
    "FaultReport",
    "localize_fault",
    "MultiSeedHashSumChecker",
    "MultiSeedSumChecker",
    "check_count_aggregation",
    "check_replicated",
    "check_sum_aggregation",
    "replicated_digest",
    "check_average_aggregation",
    "check_min_aggregation",
    "check_min_aggregation_bitvector",
    "check_max_aggregation",
    "MedianCertificate",
    "check_median_aggregation",
    "check_permutation_gf64",
    "check_permutation_hashsum",
    "check_permutation_polynomial",
    "wide_sum",
    "check_globally_sorted",
    "check_sort",
    "check_zip",
    "check_union",
    "check_merge",
    "check_groupby_redistribution",
    "check_join_redistribution",
]
