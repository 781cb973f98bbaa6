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

Every time is the best of :data:`_REPEATS` runs; ``checker_over_operation``
is the ratio of the two best times.  Gates: at 4 096 pairs per window
(the window size of the e2e ``stream-windows`` workload) the checker
costs at most :data:`_MAX_RATIO` times the operation, and a window of
a one-window stream costs the checker at most :data:`_MAX_SHORT_RATIO`
times a window of the long run.  Written to ``BENCH_settle_cost.json``;
``REPRO_BENCH_SMOKE=1`` shrinks the sweep and skips the gates and the
artifact.
"""

from __future__ import annotations

from pathlib import Path

from conftest import best_of, run_once, smoke_mode, write_artifact

from repro.core.params import SumCheckConfig
from repro.dataflow.pipeline import AdaptiveCheckPolicy
from repro.dataflow.streaming import StreamingKeyValueDIA
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

    once()  # warm-up: hash tables, kernel tier, allocator
    best_of(once, _REPEATS)
    return {
        "pairs_per_window": size,
        "windows": windows,
        "streams": streams,
        "checker_ms": best["checker"] * 1e3,
        "operation_ms": best["operation"] * 1e3,
        "checker_over_operation": best["checker"] / best["operation"],
    }


def test_settle_cost_sweep(benchmark):
    sizes = _SMOKE_SIZES if smoke_mode() else _SIZES
    windows = _SMOKE_WINDOWS if smoke_mode() else _WINDOWS
    shorts = _SMOKE_SHORT_STREAMS if smoke_mode() else _SHORT_STREAMS

    def sweep():
        cells = [_cell(size, windows) for size in sizes]
        long_ms = next(
            c["checker_ms"] for c in cells if c["pairs_per_window"] == _SHORT_SIZE
        )
        short = [_cell(_SHORT_SIZE, w, n) for w, n in shorts]
        for cell in short:
            cell["checker_over_long_stream"] = cell["checker_ms"] / long_ms
        return cells, short

    cells, short = run_once(benchmark, sweep)
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
