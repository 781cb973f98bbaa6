"""What one window settle costs, from 16 to 65 536 pairs per window.

A small window should cost what its elements cost: the paper prices its
checker at a small constant of local work per element (§4, Table 5),
so the checker's per-window time should not carry a large fixed part.
This bench drives ``StreamingKeyValueDIA.reduce_by_key_checked`` on one
PE (``8x16 m15``, ``AdaptiveCheckPolicy()``, one chunk per window) over
a sweep of window sizes and reads the per-window checker and operation
times off the run's merged :class:`~repro.dataflow.pipeline.\
CheckedRunStats`.  Each sweep run settles :data:`_WINDOWS` windows of
fresh §7.1 pairs (Zipf keys, uniform values), so any per-block work the
window loop does is charged and amortized exactly as in a long stream.

Short streams pay per-stream work that a long stream amortizes, so the
artifact also records 16-pair windows settled by many streams of 1, 4
and 65 windows each (:data:`_SHORT_STREAMS`); their per-window checker
time is divided by that of the 64-window run at 16 pairs.

Zip windows settle through ``StreamingDIA.zip_checked``: four
1024-element chunks a window on each PE (the e2e ``service-chaos`` zip
tenant's window), :data:`_ZIP_WINDOWS` windows.  The one-PE cell is
the case where every input slice stays in place; the p = 2 cell (threads)
gives S2 chunks of 512 and 1536 elements against S1's 1024, so the
second components move.  Both cells also settle one corrupted window,
which must reject while every clean window accepts.

Every time is the best of :data:`_REPEATS` runs; ``checker_over_operation``
is the ratio of the two best times.  Gates: at 4 096 pairs per window
(the window size of the e2e ``stream-windows`` workload) the checker
costs at most :data:`_MAX_RATIO` times the operation, a window of
a one-window stream costs the checker at most :data:`_MAX_SHORT_RATIO`
times a window of the long run, and a clean one-PE zip window costs
the checker at most :data:`_MAX_ZIP_RATIO` times its operation (the
p = 2 zip cell is recorded, not gated).  Written to
``BENCH_settle_cost.json``; ``REPRO_BENCH_SMOKE=1`` shrinks the sweep
and skips the gates and the artifact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from conftest import best_of, run_once, smoke_mode, write_artifact

from repro.comm.context import Context
from repro.core.params import SumCheckConfig
from repro.dataflow.pipeline import AdaptiveCheckPolicy
from repro.dataflow.streaming import StreamingDIA, StreamingKeyValueDIA
from repro.util.rng import derive_seed
from repro.workloads.kv import sum_workload

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_settle_cost.json"
_CONFIG = SumCheckConfig.parse("8x16 m15")
_SIZES = (16, 256, 2048, 4096, 65536)
_SMOKE_SIZES = (16, 256)
_WINDOWS = 64
_SMOKE_WINDOWS = 4
_REPEATS = 5
_GATED_SIZE = 4096
_MAX_RATIO = 1.15
#: (windows per stream, streams) of the short-stream cells, 16 pairs a
#: window: about 128 windows each.
_SHORT_STREAMS = ((1, 128), (4, 32), (65, 2))
_SMOKE_SHORT_STREAMS = ((1, 2), (4, 1))
_SHORT_SIZE = 16
_MAX_SHORT_RATIO = 2.0
_ZIP_CHUNK = 1024
_ZIP_CHUNKS_PER_WINDOW = 4
_ZIP_WINDOWS = 64
_SMOKE_ZIP_WINDOWS = 4
#: S2 chunk size per PE at p = 1 and p = 2 (S1's is ``_ZIP_CHUNK``).
_ZIP_S2_CHUNKS = {1: (1024,), 2: (512, 1536)}
_MAX_ZIP_RATIO = 3.0


def _run(keys, values, size: int):
    dia = StreamingKeyValueDIA.from_chunks(
        None,
        (
            (keys[i : i + size], values[i : i + size])
            for i in range(0, keys.size, size)
        ),
    )
    return dia.reduce_by_key_checked(
        _CONFIG,
        seed=5,
        chunks_per_window=1,
        policy=AdaptiveCheckPolicy(),
        keep_outputs=False,
    )


def _cell(size: int, windows: int, streams: int = 1) -> dict:
    """Best per-window times over ``streams`` runs of ``windows`` windows."""
    keys, values = sum_workload(
        size * windows * streams, seed=derive_seed(0x5E7, size)
    )
    span = size * windows
    best = {"checker": float("inf"), "operation": float("inf")}

    def once():
        checker = operation = 0.0
        for s in range(streams):
            part = slice(s * span, (s + 1) * span)
            run = _run(keys[part], values[part], size)
            assert run.accepted and run.stats.windows == windows
            checker += run.stats.checker_seconds
            operation += run.stats.operation_seconds
        best["checker"] = min(best["checker"], checker / (windows * streams))
        best["operation"] = min(
            best["operation"], operation / (windows * streams)
        )

    once()  # warm-up: hash tables, instance caches, allocator
    best_of(once, _REPEATS)
    return {
        "pairs_per_window": size,
        "windows": windows,
        "streams": streams,
        "checker_ms": best["checker"] * 1e3,
        "operation_ms": best["operation"] * 1e3,
        "checker_over_operation": best["checker"] / best["operation"],
    }


def _corrupt_window_1(window, first, second):
    if window == 1:
        first = first.copy()
        first[0] += 1
    return first, second


def _zip_pe(comm, windows: int) -> dict:
    """One PE's best per-window zip times, plus the corrupted run's flags."""
    rank = 0 if comm is None else comm.rank
    p = 1 if comm is None else comm.size
    rng = np.random.default_rng(derive_seed(0x21F, p, rank))
    count = windows * _ZIP_CHUNKS_PER_WINDOW
    size2 = _ZIP_S2_CHUNKS[p][rank]
    c1 = [rng.integers(-(1 << 40), 1 << 40, _ZIP_CHUNK) for _ in range(count)]
    c2 = [rng.integers(-(1 << 40), 1 << 40, size2) for _ in range(count)]

    def run(fault=None):
        return StreamingDIA.from_chunks(comm, c1).zip_checked(
            StreamingDIA.from_chunks(comm, c2),
            seed=5,
            chunks_per_window=_ZIP_CHUNKS_PER_WINDOW,
            keep_outputs=False,
            fault=fault,
        )

    best = {"checker": float("inf"), "operation": float("inf")}

    def once():
        result = run()
        assert result.accepted and result.stats.windows == windows
        best["checker"] = min(
            best["checker"], result.stats.checker_seconds / windows
        )
        best["operation"] = min(
            best["operation"], result.stats.operation_seconds / windows
        )

    once()  # warm-up
    best_of(once, _REPEATS)
    flags = [v.accepted for v in run(_corrupt_window_1).verdicts]
    return {**best, "flags": flags}


def _zip_cell(p: int, windows: int) -> dict:
    """Best per-window zip settle times at ``p`` PEs (the slowest PE's)."""
    if p == 1:
        pes = [_zip_pe(None, windows)]
    else:
        pes = Context(p).run(_zip_pe, common_args=(windows,))
    for pe in pes:
        assert pe["flags"] == [True] + [False] + [True] * (windows - 2)
    checker = max(pe["checker"] for pe in pes)
    operation = max(pe["operation"] for pe in pes)
    return {
        "pes": p,
        "elements_per_window_per_pe": _ZIP_CHUNK * _ZIP_CHUNKS_PER_WINDOW,
        "s2_chunk_per_pe": list(_ZIP_S2_CHUNKS[p]),
        "windows": windows,
        "checker_ms": checker * 1e3,
        "operation_ms": operation * 1e3,
        "checker_over_operation": checker / operation,
    }


def test_settle_cost_sweep(benchmark):
    sizes = _SMOKE_SIZES if smoke_mode() else _SIZES
    windows = _SMOKE_WINDOWS if smoke_mode() else _WINDOWS
    shorts = _SMOKE_SHORT_STREAMS if smoke_mode() else _SHORT_STREAMS
    zip_windows = _SMOKE_ZIP_WINDOWS if smoke_mode() else _ZIP_WINDOWS

    def sweep():
        cells = [_cell(size, windows) for size in sizes]
        long_ms = next(
            c["checker_ms"] for c in cells if c["pairs_per_window"] == _SHORT_SIZE
        )
        short = [_cell(_SHORT_SIZE, w, n) for w, n in shorts]
        for cell in short:
            cell["checker_over_long_stream"] = cell["checker_ms"] / long_ms
        zips = [_zip_cell(p, zip_windows) for p in sorted(_ZIP_S2_CHUNKS)]
        return cells, short, zips

    cells, short, zips = run_once(benchmark, sweep)
    write_artifact(
        _ARTIFACT,
        {
            "config": _CONFIG.label(),
            "policy": "AdaptiveCheckPolicy()",
            "pes": 1,
            "repeats": _REPEATS,
            "gated_pairs_per_window": _GATED_SIZE,
            "max_allowed_checker_over_operation": _MAX_RATIO,
            "max_allowed_short_over_long_stream": _MAX_SHORT_RATIO,
            "cells": cells,
            "short_streams": short,
            "max_allowed_zip_checker_over_operation": _MAX_ZIP_RATIO,
            "zip_cells": zips,
        },
    )
    print()
    for cell in cells:
        print(
            f"{cell['pairs_per_window']:>6} pairs: checker "
            f"{cell['checker_ms']:.3f} ms, operation "
            f"{cell['operation_ms']:.3f} ms, ratio "
            f"{cell['checker_over_operation']:.2f}"
        )
    for cell in short:
        print(
            f"{cell['streams']:>4} streams of {cell['windows']:>3} windows: "
            f"checker {cell['checker_ms']:.3f} ms/window, "
            f"{cell['checker_over_long_stream']:.2f}x the long run"
        )
    for cell in zips:
        print(
            f"zip p={cell['pes']}: checker {cell['checker_ms']:.3f} ms, "
            f"operation {cell['operation_ms']:.3f} ms, ratio "
            f"{cell['checker_over_operation']:.2f}"
        )
    if not smoke_mode():
        gated = next(
            c for c in cells if c["pairs_per_window"] == _GATED_SIZE
        )
        ratio = gated["checker_over_operation"]
        assert ratio <= _MAX_RATIO, (
            f"a {_GATED_SIZE}-pair window's checker costs {ratio:.2f}x its "
            f"operation (allowed {_MAX_RATIO}x)"
        )
        one = next(c for c in short if c["windows"] == 1)
        ratio = one["checker_over_long_stream"]
        assert ratio <= _MAX_SHORT_RATIO, (
            f"a one-window stream's checker costs {ratio:.2f}x a window of "
            f"a {windows}-window stream (allowed {_MAX_SHORT_RATIO}x)"
        )
        ratio = next(c for c in zips if c["pes"] == 1)["checker_over_operation"]
        assert ratio <= _MAX_ZIP_RATIO, (
            f"a clean one-PE zip window's checker costs {ratio:.2f}x its "
            f"operation (allowed {_MAX_ZIP_RATIO}x)"
        )
