"""Ablation: hash-family cost inside the sum checker's local kernel.

The paper's Table 5 spans CRC and tabulation configurations; this bench
isolates the hash family at a fixed configuration shape so the family's
constant is visible (software CRC pays one table lookup per byte; Tab64
pays 8 lookups; the SplitMix ideal-model mixer pays 6 arithmetic passes;
multiply-shift pays 1 multiply — but is only 2-universal, hence
ablation-only).
"""

from __future__ import annotations

import pytest

from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.workloads.kv import sum_workload

_N = 200_000


@pytest.fixture(scope="module")
def workload():
    return sum_workload(_N, seed=2)


@pytest.mark.parametrize("family", ["CRC", "CRC4", "Tab", "Tab64", "Mix", "MShift"])
def test_hash_family_kernel_cost(benchmark, family, workload):
    keys, values = workload
    cfg = SumCheckConfig(iterations=8, d=16, rhat=1 << 15, hash_family=family)
    checker = MultiSeedSumChecker(cfg, [3])
    table = benchmark(checker.local_tables, keys, values)
    assert table.shape == (1, 8, 16)
    benchmark.extra_info["ns_per_element"] = (
        benchmark.stats.stats.min / _N * 1e9 if benchmark.stats else None
    )
