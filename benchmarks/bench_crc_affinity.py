"""CRC affinity lanes vs the per-seed kernel loop, plus derived rows.

Three sections, all written to ``BENCH_crc_affinity.json``:

1. **Lane level** (the ≥3× gate): generate all ``T = 32 × iterations``
   CRC bucket rows over a 10^6-element workload's unique keys through
   :func:`~repro.core.multiseed.seed_bucket_rows`, one seed at a time —
   what the sum checker folds — once over the affinity form
   (``crc_s(x) = crc_0(x) ⊕ c(s)`` — ONE table-lookup pass total) and
   once through a CRC family clone without a lane kernel (one CRC pass
   per seed and key block, through the tiled batch-kernel loop of
   :func:`~conftest.tiled_lanes`).  Outputs are asserted bit-identical.
2. **Checker level**: ``MultiSeedSumChecker`` end-to-end on the CRC
   config against a loop of ``T`` reference folds
   (:func:`~repro.core.sum_checker.reference_tables`), for continuity
   with ``BENCH_multiseed.json`` (whose CRC row the affinity kernel now
   accelerates for free).
3. **Derived rows**: the average/median checks called once with all
   ``T`` seeds against ``T`` calls with one seed each — the amortization
   the derived layer inherits from the shared sum core.

``REPRO_BENCH_SMOKE=1`` shrinks everything and skips the artifact/gate.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from conftest import (
    best_of,
    kernel_less_clone,
    run_once,
    seed_rows,
    smoke_mode,
    write_artifact,
)

from repro.core.average_checker import check_average_aggregation
from repro.core.median_checker import check_median_aggregation
from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.core.sum_checker import reference_tables
from repro.hashing.families import get_family
from repro.util.rng import derive_seed, derive_seed_array
from repro.workloads.kv import aggregate_reference, sum_workload

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_crc_affinity.json"
_NUM_SEEDS = 32
_MIN_LANE_SPEEDUP = 3.0
_CONFIG = "8x16 CRC m15"

#: The pre-affinity execution path: same CRC batch kernel, no multiseed
#: kernel, so every seed hashes every key block with a CRC pass of its own.
_CRC_PLAIN = kernel_less_clone("CRC")


def _consume_rows(family, cfg, seeds, keys):
    checksum = 0
    for rows in seed_rows(family, cfg, seeds, keys):
        checksum ^= int(rows[0, 0])
    return checksum


def _lane_cell(cfg: SumCheckConfig, seeds, keys, benchmark) -> dict:
    crc = get_family("CRC")
    args = (cfg, seeds, keys)

    # Equivalence gate: the affinity rows are bit-identical to the
    # per-seed kernel rows, seed for seed (doubles as warm-up).
    for t, (rows_a, rows_p) in enumerate(
        zip(seed_rows(crc, *args), seed_rows(_CRC_PLAIN, *args))
    ):
        assert np.array_equal(rows_a, rows_p), f"affinity rows diverged ({t})"

    plain_s = best_of(lambda: _consume_rows(_CRC_PLAIN, *args), 2)
    if benchmark is not None:
        t0 = time.perf_counter()
        run_once(benchmark, lambda: _consume_rows(crc, *args))
        affinity_s = min(
            time.perf_counter() - t0,
            best_of(lambda: _consume_rows(crc, *args), 2),
        )
    else:
        affinity_s = best_of(lambda: _consume_rows(crc, *args), 3)
    lanes = seeds.size * cfg.iterations
    return {
        "section": "lanes",
        "config": cfg.label(),
        "num_seeds": int(seeds.size),
        "elements": int(keys.size),
        "lanes": int(lanes),
        "per_seed_kernel_seconds": plain_s,
        "affinity_seconds": affinity_s,
        "per_seed_kernel_ns_per_lane_element": plain_s / (lanes * keys.size) * 1e9,
        "affinity_ns_per_lane_element": affinity_s / (lanes * keys.size) * 1e9,
        "speedup": plain_s / affinity_s,
    }


def _checker_cell(cfg: SumCheckConfig, seeds, keys, values) -> dict:
    multi = MultiSeedSumChecker(cfg, seeds)

    def instance_loop():
        return [reference_tables(cfg, int(s), keys, values) for s in seeds]

    reference = instance_loop()
    tables = multi.local_tables(keys, values)
    for t in range(seeds.size):
        assert np.array_equal(tables[t], reference[t]), f"seed {t}"

    loop_s = best_of(instance_loop, 2)
    multi_s = best_of(lambda: multi.local_tables(keys, values), 3)
    return {
        "section": "checker",
        "config": cfg.label(),
        "num_seeds": int(seeds.size),
        "elements": int(keys.size),
        "instance_loop_seconds": loop_s,
        "multiseed_seconds": multi_s,
        "speedup": loop_s / multi_s,
    }


def _derived_cells(cfg: SumCheckConfig, seeds, keys, values) -> list[dict]:
    out_k, out_v = aggregate_reference(keys, values)
    counts = aggregate_reference(keys, np.ones(keys.size, dtype=np.int64))[1]
    den = np.ones(out_k.size, dtype=np.int64)
    # Exact rational averages with denominator = count: num/den = sum/count.
    avg_args = (out_k, out_v, counts, counts)

    med_num = out_v  # deliberately wrong medians are unnecessary: timing only
    cells = []

    def avg_loop():
        return [
            check_average_aggregation(
                (keys, values), *avg_args, config=cfg, seed=int(s)
            ).accepted
            for s in seeds
        ]

    def avg_multi():
        return check_average_aggregation(
            (keys, values), *avg_args, config=cfg, seed=seeds
        )

    multi_res = avg_multi()
    assert multi_res.details["per_seed_accepted"] == avg_loop()
    cells.append(
        {
            "section": "derived",
            "checker": "average",
            "config": cfg.label(),
            "num_seeds": int(seeds.size),
            "elements": int(keys.size),
            "instance_loop_seconds": best_of(avg_loop, 2),
            "multiseed_seconds": best_of(avg_multi, 2),
        }
    )

    def med_loop():
        return [
            check_median_aggregation(
                keys, values, out_k, med_num, den, config=cfg, seed=int(s)
            ).accepted
            for s in seeds
        ]

    def med_multi():
        return check_median_aggregation(
            keys, values, out_k, med_num, den, config=cfg, seed=seeds
        )

    multi_res = med_multi()
    assert multi_res.details["per_seed_accepted"] == med_loop()
    cells.append(
        {
            "section": "derived",
            "checker": "median",
            "config": cfg.label(),
            "num_seeds": int(seeds.size),
            "elements": int(keys.size),
            "instance_loop_seconds": best_of(med_loop, 2),
            "multiseed_seconds": best_of(med_multi, 2),
        }
    )
    for cell in cells:
        cell["speedup"] = (
            cell["instance_loop_seconds"] / cell["multiseed_seconds"]
        )
    return cells


def test_crc_affinity_speedup(benchmark, overhead_elements):
    n = overhead_elements if smoke_mode() else max(overhead_elements, 10**6)
    cfg = SumCheckConfig.parse(_CONFIG)
    seeds = derive_seed_array(
        0xAF1, "checker", np.arange(_NUM_SEEDS, dtype=np.uint64)
    )
    keys, values = sum_workload(n, seed=derive_seed(0xAF1, "wl"))
    # The lane benchmark hashes *unique* keys — exactly what the checker's
    # condensation feeds the hash layer.
    unique_keys = np.unique(keys)

    lane = _lane_cell(cfg, seeds, unique_keys, benchmark)
    checker = _checker_cell(cfg, seeds, keys, values)
    derived_n = min(n, 200_000)  # instance loops over T=32 are pricey
    derived = _derived_cells(
        SumCheckConfig.parse("8x16 m15"), seeds,
        keys[:derived_n], values[:derived_n],
    )

    cells = [lane, checker, *derived]
    write_artifact(
        _ARTIFACT,
        {
            "primary": "lanes " + _CONFIG,
            "min_required_lane_speedup": _MIN_LANE_SPEEDUP,
            "cells": cells,
        },
    )
    benchmark.extra_info.update(
        lane_speedup=lane["speedup"], artifact=str(_ARTIFACT)
    )
    print()
    for cell in cells:
        label = cell.get("checker", cell["section"])
        print(f"{label} ({cell['config']}): {cell['speedup']:.2f}x")
    if not smoke_mode():
        assert lane["speedup"] >= _MIN_LANE_SPEEDUP, (
            f"CRC affinity lanes only {lane['speedup']:.2f}x over the "
            f"per-seed kernel loop (required {_MIN_LANE_SPEEDUP}x)"
        )
