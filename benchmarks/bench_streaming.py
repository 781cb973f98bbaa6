"""Windowed checked pipeline vs the batch pipeline — the chunked-feed price.

Windows are the streaming unit: ``StreamingKeyValueDIA.
reduce_by_key_checked`` pre-aggregates 64k-element chunks as they arrive,
folds each window's raw pairs into the one-seed §4 tables, and settles
one verdict per window.  The gate: that whole windowed pipeline must
stay within 1.5× of ``checked_reduce_by_key`` on the same materialized
elements at n = 10^6.  Verdicts and outputs are asserted identical (the
windows' outputs merged equal the batch output), and the result is
written to ``BENCH_streaming.json``.

``REPRO_BENCH_SMOKE=1`` shrinks everything and skips the artifact/gate.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from conftest import best_of, run_once, smoke_mode, write_artifact

from repro.core.params import SumCheckConfig
from repro.dataflow.ops.reduce_by_key import local_aggregate
from repro.dataflow.pipeline import checked_reduce_by_key
from repro.dataflow.streaming import StreamingKeyValueDIA
from repro.util.rng import derive_seed
from repro.workloads.kv import sum_workload

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"
_CONFIG = SumCheckConfig.parse("8x16 Tab64 m15")
_CHUNK = 1 << 16
_CHUNKS_PER_WINDOW = 4
_MAX_STREAM_RATIO = 1.5


def _chunks(keys, values, chunk):
    return [
        (keys[i : i + chunk], values[i : i + chunk])
        for i in range(0, keys.size, chunk)
    ]


def _windowed_cell(keys, values, chunks, benchmark=None) -> dict:
    def windowed():
        dia = StreamingKeyValueDIA.from_chunks(None, chunks)
        return dia.reduce_by_key_checked(
            _CONFIG, seed=7, chunks_per_window=_CHUNKS_PER_WINDOW
        )

    def batch():
        return checked_reduce_by_key(None, keys, values, _CONFIG, seed=7)

    run = windowed()
    out_k, out_v, verdict, _ = batch()
    assert run.accepted and verdict.accepted
    assert run.stats.windows == -(-len(chunks) // _CHUNKS_PER_WINDOW)
    merged = local_aggregate(
        np.concatenate([k for k, _ in run.outputs]),
        np.concatenate([v for _, v in run.outputs]),
    )
    assert np.array_equal(merged[0], out_k)
    assert np.array_equal(merged[1], out_v)

    batch_s = best_of(batch, 3)
    if benchmark is not None:
        t0 = time.perf_counter()
        run_once(benchmark, windowed)
        stream_s = min(time.perf_counter() - t0, best_of(windowed, 2))
    else:
        stream_s = best_of(windowed, 3)
    n = keys.size
    return {
        "section": "windowed-reduce",
        "config": _CONFIG.label(),
        "elements": int(n),
        "chunk": _CHUNK,
        "chunks_per_window": _CHUNKS_PER_WINDOW,
        "windows": run.stats.windows,
        "elements_fed": run.stats.elements_fed,
        "merged_overhead_ratio": run.stats.overhead_ratio,
        "batch_pipeline_seconds": batch_s,
        "stream_pipeline_seconds": stream_s,
        "batch_ns_per_element": batch_s / n * 1e9,
        "stream_ns_per_element": stream_s / n * 1e9,
        "stream_over_batch": stream_s / batch_s,
    }


def test_streaming_throughput(benchmark, overhead_elements):
    n = overhead_elements if smoke_mode() else max(overhead_elements, 10**6)
    keys, values = sum_workload(n, seed=derive_seed(0x57E, "wl"))
    chunks = _chunks(keys, values, _CHUNK)
    cell = _windowed_cell(keys, values, chunks, benchmark=benchmark)

    write_artifact(
        _ARTIFACT,
        {
            "primary": "windowed-reduce",
            "max_allowed_stream_over_batch": _MAX_STREAM_RATIO,
            "cells": [cell],
        },
    )
    benchmark.extra_info.update(
        stream_over_batch=cell["stream_over_batch"], artifact=str(_ARTIFACT)
    )
    print(f"\n{cell['section']}: stream/batch = {cell['stream_over_batch']:.3f}")
    if not smoke_mode():
        ratio = cell["stream_over_batch"]
        assert ratio <= _MAX_STREAM_RATIO, (
            f"windowed reduce_by_key_checked costs {ratio:.2f}x the batch "
            f"pipeline (allowed {_MAX_STREAM_RATIO}x at n={n}, "
            f"chunk={_CHUNK}, {_CHUNKS_PER_WINDOW} chunks per window)"
        )
