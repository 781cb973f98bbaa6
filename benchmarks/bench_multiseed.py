"""Multi-seed batched checking vs the per-seed instance loop.

Times ``T = 32`` independent sum checkers over a 10^6-element Zipf
workload — a loop of the paper's per-iteration fold
(:func:`~repro.core.sum_checker.reference_tables`, one seed at a time)
versus one :class:`~repro.core.multiseed.MultiSeedSumChecker` pass —
asserts the multi-seed tables are bit-identical per seed, and emits a
``BENCH_multiseed.json`` artifact at the repo root so future PRs can track
the amortization trajectory.  Each cell also records
``one_seed_loop_seconds``: ``T`` one-seed checks through the raw-pair
fold the checker ships at ``T = 1``.  It is not gated: that fold is
already several times cheaper than the reference fold for Mix and
MShift, so the gates stay calibrated on the reference loop.

The primary configuration (``8x16 CRC m15``, a Table 3 scaling row) gates
the ≥5× speedup requirement; the Mix and MShift rows (whose prepared form
is the keys themselves, each seed one in-place hash per key block) each
gate ≥10×; Tab/Tab64 are reported alongside.
``REPRO_BENCH_ELEMENTS`` scales the workload but the artifact floors it at
the paper's 10^6 so the recorded numbers stay comparable across PRs.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from conftest import best_of as _best_of
from conftest import run_once, smoke_mode, write_artifact

from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.core.sum_checker import reference_tables
from repro.util.rng import derive_seed, derive_seed_array
from repro.workloads.kv import sum_workload

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_multiseed.json"
_NUM_SEEDS = 32
_MIN_SPEEDUP = 5.0
_PRIMARY = "8x16 CRC m15"
_FAMILIES = (
    "8x16 CRC m15",
    "8x16 Mix m15",
    "8x16 MShift m15",
    "8x16 Tab m15",
    "8x16 Tab64 m15",
)
# Mix and MShift carry their own, stricter gate.
_BROADCAST_MIN_SPEEDUP = 10.0
_BROADCAST_GATED = ("8x16 Mix m15", "8x16 MShift m15")


def _measure_cell(label: str, keys, values, seeds, benchmark=None) -> dict:
    cfg = SumCheckConfig.parse(label)
    n = keys.size

    def instance_loop():
        return [reference_tables(cfg, int(s), keys, values) for s in seeds]

    def one_seed_loop():
        return [
            MultiSeedSumChecker(cfg, int(s)).local_tables(keys, values)[0]
            for s in seeds
        ]

    multi = MultiSeedSumChecker(cfg, seeds)

    def batched():
        return multi.local_tables(keys, values)

    # Equivalence gate: every seed's table is bit-identical.
    reference = instance_loop()  # doubles as the loop warm-up
    tables = batched()  # multi-seed warm-up
    one_seed = one_seed_loop()  # one-seed warm-up
    for t in range(seeds.size):
        assert np.array_equal(tables[t], reference[t]), f"{label}: seed {t}"
        assert np.array_equal(one_seed[t], reference[t]), f"{label}: seed {t}"

    loop_s = _best_of(instance_loop, 2)
    one_seed_s = _best_of(one_seed_loop, 2)
    if benchmark is not None:
        t0 = time.perf_counter()
        run_once(benchmark, batched)
        multi_s = min(time.perf_counter() - t0, _best_of(batched, 2))
    else:
        multi_s = _best_of(batched, 3)
    per_seed_elems = n * seeds.size
    return {
        "config": label,
        "num_seeds": int(seeds.size),
        "elements": int(n),
        "instance_loop_seconds": loop_s,
        "multiseed_seconds": multi_s,
        "instance_loop_ns_per_element_seed": loop_s / per_seed_elems * 1e9,
        "multiseed_ns_per_element_seed": multi_s / per_seed_elems * 1e9,
        "speedup": loop_s / multi_s,
        "one_seed_loop_seconds": one_seed_s,
    }


def test_multiseed_speedup(benchmark, overhead_elements):
    n = overhead_elements if smoke_mode() else max(overhead_elements, 10**6)
    keys, values = sum_workload(n, seed=derive_seed(0x5EED, "wl"))
    seeds = derive_seed_array(
        0x5EED, "checker", np.arange(_NUM_SEEDS, dtype=np.uint64)
    )

    cells = [
        _measure_cell(
            label, keys, values, seeds,
            benchmark=benchmark if label == _PRIMARY else None,
        )
        for label in _FAMILIES
    ]
    report = {
        "primary": _PRIMARY,
        "min_required_speedup": _MIN_SPEEDUP,
        "broadcast_gated": list(_BROADCAST_GATED),
        "broadcast_min_required_speedup": _BROADCAST_MIN_SPEEDUP,
        "cells": cells,
    }
    write_artifact(_ARTIFACT, report)

    by_label = {c["config"]: c for c in cells}
    primary = by_label[_PRIMARY]
    benchmark.extra_info.update(
        speedup=primary["speedup"], artifact=str(_ARTIFACT)
    )
    print()
    for cell in cells:
        print(
            f"{cell['config']}: loop {cell['instance_loop_seconds']:.2f}s, "
            f"multi-seed {cell['multiseed_seconds']:.2f}s "
            f"-> {cell['speedup']:.1f}x "
            f"(one-seed loop {cell['one_seed_loop_seconds']:.2f}s, "
            f"{cell['one_seed_loop_seconds'] / cell['multiseed_seconds']:.1f}x)"
        )
    if not smoke_mode():
        assert primary["speedup"] >= _MIN_SPEEDUP, (
            f"multi-seed path only {primary['speedup']:.1f}x over the "
            f"instance loop (required {_MIN_SPEEDUP}x)"
        )
        for label in _BROADCAST_GATED:
            speedup = by_label[label]["speedup"]
            assert speedup >= _BROADCAST_MIN_SPEEDUP, (
                f"{label}: broadcast lanes only {speedup:.1f}x over the "
                f"instance loop (required {_BROADCAST_MIN_SPEEDUP}x)"
            )
