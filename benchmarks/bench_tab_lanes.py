"""Stacked tabulation lanes vs the per-seed kernel loop, plus Mix rows.

The Tab/Tab64 analog of ``bench_crc_affinity.py``.  Three sections, all
written to ``BENCH_tab_lanes.json``:

1. **Lane level** (the ≥3× gate, for Tab AND Tab64): the full
   ``T = 32`` lane matrix over a 10^6-element workload's unique keys,
   once through ``LaneHasher.lanes`` of the stacked lane hasher (byte
   indices extracted once as uint8 rows, ``num_tables`` gathers per
   seed) and once through :func:`~conftest.tiled_lanes` (the chunked
   tiled batch-kernel loop — one byte-extraction + gather pass *per
   seed*, the per-seed kernel path).  Outputs are asserted bit-identical.
2. **Bucket-row level**: the same comparison through
   :func:`~repro.core.multiseed.seed_bucket_rows` on the Tab64 checker
   configuration, i.e. including bit-group extraction — the rows
   ``MultiSeedSumChecker.local_tables`` folds, one seed at a time.
3. **Fused rows** (the ≥1.3× gate for Tab64, Tab reported): those rows,
   hashed and sliced into bucket fields in 2^16-key blocks, against
   lanes-then-extract — a seed's whole lane through ``LaneHasher.lanes``,
   then one extraction pass per bit group over it.
4. **Mix row** (reported, not gated): the Mix lane hasher against the
   tiled batch-kernel loop.

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
    tiled_lanes,
    write_artifact,
)

from repro.core.params import SumCheckConfig
from repro.hashing.bitgroups import evaluation_seeds
from repro.hashing.families import get_family
from repro.util.bits import ceil_log2
from repro.util.rng import derive_seed, derive_seed_array
from repro.workloads.kv import sum_workload

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_tab_lanes.json"
_NUM_SEEDS = 32
_MIN_LANE_SPEEDUP = 3.0
_MIN_FUSED_SPEEDUP = 1.3
_GATED = ("Tab", "Tab64")
_CONFIG = "8x16 Tab64 m15"


def _lane_cell(name: str, seeds, keys, benchmark=None) -> dict:
    fam = get_family(name)

    def stacked_lanes():
        return fam.multiseed_hasher(keys).lanes(seeds)

    # Equivalence gate: stacked lanes are bit-identical to the per-seed
    # kernel lanes (doubles as warm-up for both paths).
    stacked = stacked_lanes()
    assert np.array_equal(stacked, tiled_lanes(fam, seeds, keys)), name

    plain_s = best_of(lambda: tiled_lanes(fam, seeds, keys), 2)
    if benchmark is not None:
        t0 = time.perf_counter()
        run_once(benchmark, stacked_lanes)
        stacked_s = min(time.perf_counter() - t0, best_of(stacked_lanes, 2))
    else:
        stacked_s = best_of(stacked_lanes, 3)
    lane_elems = seeds.size * keys.size
    return {
        "section": "lanes",
        "family": name,
        "num_seeds": int(seeds.size),
        "elements": int(keys.size),
        "per_seed_kernel_seconds": plain_s,
        "stacked_seconds": stacked_s,
        "per_seed_kernel_ns_per_lane_element": plain_s / lane_elems * 1e9,
        "stacked_ns_per_lane_element": stacked_s / lane_elems * 1e9,
        "speedup": plain_s / stacked_s,
    }


def _lanes_then_extract(family, cfg: SumCheckConfig, seeds, keys):
    """The unfused reference for :func:`~conftest.seed_rows`
    (power-of-two ``d``): per seed and evaluation, the whole lane through
    ``hasher.lanes``, then one shift-mask-cast pass over it per bit
    group, into the same kind of reused buffer."""
    hasher = family.multiseed_hasher(keys)
    eval_seeds = evaluation_seeds(family, cfg.d, cfg.iterations, seeds)
    group_bits = ceil_log2(cfg.d)
    groups_per_eval = max(1, family.bits // group_bits)
    mask = np.uint64(cfg.d - 1)
    rows = np.empty((cfg.iterations, keys.size), dtype=np.intp)
    for t in range(seeds.size):
        for e, fn_seed in enumerate(eval_seeds[:, t : t + 1]):
            h = hasher.lanes(fn_seed)[0]
            first = e * groups_per_eval
            for g in range(min(groups_per_eval, cfg.iterations - first)):
                rows[first + g] = (
                    (h >> np.uint64(g * group_bits)) & mask
                ).astype(np.intp)
        yield rows


def _consume(rows_of, family, cfg, seeds, keys):
    checksum = 0
    for rows in rows_of(family, cfg, seeds, keys):
        checksum ^= int(rows[0, 0])
    return checksum


def _bucket_cell(cfg: SumCheckConfig, seeds, keys) -> dict:
    fam = get_family(cfg.hash_family)
    plain = kernel_less_clone(cfg.hash_family)
    args = (cfg, seeds, keys)

    for t, (rows_a, rows_p) in enumerate(
        zip(seed_rows(fam, *args), seed_rows(plain, *args))
    ):
        assert np.array_equal(rows_a, rows_p), f"stacked rows diverged ({t})"

    plain_s = best_of(lambda: _consume(seed_rows, plain, *args), 2)
    stacked_s = best_of(lambda: _consume(seed_rows, fam, *args), 3)
    lanes = seeds.size * cfg.iterations
    return {
        "section": "bucket-blocks",
        "config": cfg.label(),
        "num_seeds": int(seeds.size),
        "elements": int(keys.size),
        "lanes": int(lanes),
        "per_seed_kernel_seconds": plain_s,
        "stacked_seconds": stacked_s,
        "speedup": plain_s / stacked_s,
    }


def _fused_cell(name: str, cfg: SumCheckConfig, seeds, keys) -> dict:
    """Block-fused rows vs lanes-then-extract, same prepared form.

    Isolates the fusion win from the stacked-vs-per-seed win: both paths
    share the byte extraction and the per-seed gathers; only the bucket
    bit-group step differs (sliced from each cache-resident 2^16-key
    block vs a second pass per group over the materialized lane).
    """
    fam = get_family(name)
    args = (cfg, seeds, keys)

    for t, (rows_a, rows_p) in enumerate(
        zip(seed_rows(fam, *args), _lanes_then_extract(fam, *args))
    ):
        assert np.array_equal(rows_a, rows_p), f"fused rows diverged ({t})"

    unfused_s = best_of(lambda: _consume(_lanes_then_extract, fam, *args), 2)
    fused_s = best_of(lambda: _consume(seed_rows, fam, *args), 3)
    return {
        "section": "bucket-fused",
        "family": name,
        "config": cfg.label(),
        "num_seeds": int(seeds.size),
        "elements": int(keys.size),
        "unfused_seconds": unfused_s,
        "fused_seconds": fused_s,
        "speedup": unfused_s / fused_s,
    }


def test_tab_lane_speedup(benchmark, overhead_elements):
    n = overhead_elements if smoke_mode() else max(overhead_elements, 10**6)
    seeds = derive_seed_array(
        0x7AB, "checker", np.arange(_NUM_SEEDS, dtype=np.uint64)
    )
    keys = np.unique(sum_workload(n, seed=derive_seed(0x7AB, "wl"))[0])

    cells = [
        _lane_cell(
            name, seeds, keys,
            benchmark=benchmark if name == "Tab64" else None,
        )
        for name in (*_GATED, "Mix")
    ]
    cfg = SumCheckConfig.parse(_CONFIG)
    cells.append(_bucket_cell(cfg, seeds, keys))
    cells.append(_fused_cell("Tab64", cfg, seeds, keys))
    cells.append(
        _fused_cell("Tab", SumCheckConfig.parse("8x16 Tab m15"), seeds, keys)
    )

    write_artifact(
        _ARTIFACT,
        {
            "primary": "lanes Tab64",
            "min_required_lane_speedup": _MIN_LANE_SPEEDUP,
            "min_required_fused_speedup": _MIN_FUSED_SPEEDUP,
            "gated_families": list(_GATED),
            "cells": cells,
        },
    )
    by_family = {
        c["family"]: c for c in cells if c["section"] == "lanes"
    }
    benchmark.extra_info.update(
        tab64_lane_speedup=by_family["Tab64"]["speedup"],
        artifact=str(_ARTIFACT),
    )
    print()
    for cell in cells:
        label = cell.get("family", cell.get("config"))
        print(f"{cell['section']} {label}: {cell['speedup']:.2f}x")
    if not smoke_mode():
        for name in _GATED:
            assert by_family[name]["speedup"] >= _MIN_LANE_SPEEDUP, (
                f"{name} stacked lanes only {by_family[name]['speedup']:.2f}x "
                f"over the per-seed kernel loop (required {_MIN_LANE_SPEEDUP}x)"
            )
        fused64 = next(
            c for c in cells
            if c["section"] == "bucket-fused" and c["family"] == "Tab64"
        )
        assert fused64["speedup"] >= _MIN_FUSED_SPEEDUP, (
            f"fused Tab64 bucket extraction only {fused64['speedup']:.2f}x "
            f"over lanes-then-extract (required {_MIN_FUSED_SPEEDUP}x)"
        )
