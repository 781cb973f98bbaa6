"""Mini-Thrill: the distributed dataflow substrate the checkers verify.

The paper integrates its checkers into Thrill [3], a C++ data-parallel batch
framework; the checkers treat every operation as a black box, so what they
need from the framework is only the *semantics* of the operations and the
SPMD collectives.  This package provides from-scratch distributed
implementations of the operations of paper Table 1:

=================  ========================================================
operation          implementation
=================  ========================================================
ReduceByKey        local sort-based pre-reduce + key-partitioned exchange
GroupByKey         all-to-all by key hash (§2 "GroupBy")
Sort               sample sort (local sort, splitter gather, exchange)
Merge              union + global sort (semantically equivalent)
Zip                offset-aligned range exchange
Union              local concatenation (distribution-free)
Join               hash join with key-partitioned exchange
Sum/Min/Max/Avg/   per-key aggregates on top of the exchange, producing
Median aggregates  the certificates the checkers consume (§6)
=================  ========================================================

All operations take the per-rank ``comm`` handle (or ``None`` for
sequential semantics) and local numpy slices, mirroring how Thrill
operations see their data.
"""

from repro.dataflow.exchange import (
    exchange_by_destination,
    global_offset,
    global_offsets,
)
from repro.dataflow.dia import DIA, KeyValueDIA
from repro.dataflow.repair import (
    QuarantinedWindow,
    RepairOutcome,
    RepairPolicy,
    repair_reduce_window,
    repair_sum_window,
    repair_zip_window,
)
from repro.dataflow.streaming import (
    StreamingCheckedRun,
    StreamingDIA,
    StreamingKeyValueDIA,
    WindowRecord,
    settle_reduce_window,
    settle_sum_window,
    settle_zip_window,
    window_seed,
)
from repro.dataflow.ops.map_filter import (
    filter_elements,
    map_elements,
    map_pairs,
)
from repro.dataflow.ops.reduce_by_key import local_aggregate, reduce_by_key
from repro.dataflow.ops.sort_merge_join import sort_merge_join
from repro.dataflow.ops.group_by_key import group_by_key
from repro.dataflow.ops.sort import sample_sort
from repro.dataflow.ops.merge import merge_sorted
from repro.dataflow.ops.zip_op import zip_arrays
from repro.dataflow.ops.union import union_arrays
from repro.dataflow.ops.join import JoinExchange, hash_join
from repro.dataflow.ops.aggregates import (
    AverageResult,
    MedianResult,
    MinMaxResult,
    average_by_key,
    max_by_key,
    median_by_key,
    min_by_key,
)
from repro.dataflow.pipeline import (
    CheckedRunStats,
    StatsAccumulator,
    checked_join,
    checked_reduce_by_key,
    checked_sort,
)

__all__ = [
    "exchange_by_destination",
    "global_offset",
    "global_offsets",
    "DIA",
    "KeyValueDIA",
    "QuarantinedWindow",
    "RepairOutcome",
    "RepairPolicy",
    "repair_reduce_window",
    "repair_sum_window",
    "repair_zip_window",
    "StreamingCheckedRun",
    "StreamingDIA",
    "StreamingKeyValueDIA",
    "WindowRecord",
    "settle_reduce_window",
    "settle_sum_window",
    "settle_zip_window",
    "window_seed",
    "filter_elements",
    "map_elements",
    "map_pairs",
    "local_aggregate",
    "reduce_by_key",
    "sort_merge_join",
    "group_by_key",
    "sample_sort",
    "merge_sorted",
    "zip_arrays",
    "union_arrays",
    "JoinExchange",
    "hash_join",
    "AverageResult",
    "MedianResult",
    "MinMaxResult",
    "average_by_key",
    "max_by_key",
    "median_by_key",
    "min_by_key",
    "CheckedRunStats",
    "StatsAccumulator",
    "checked_join",
    "checked_reduce_by_key",
    "checked_sort",
]
