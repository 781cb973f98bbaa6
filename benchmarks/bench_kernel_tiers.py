"""Kernel-tier comparison: numpy oracle vs the optional numba backend.

Times every kernel in :data:`repro.kernels.dispatch.KERNEL_NAMES` on both
tiers (when the numba tier is importable and self-check-clean) over
checker-shaped inputs.  Written to ``BENCH_kernel_tiers.json``.

Gates (skipped in smoke mode):

* parity — every kernel's numba output is asserted bit-identical to the
  numpy oracle on the bench inputs (always checked when numba is
  available, even in smoke mode: correctness is free);
* when numba is available, no kernel may run slower than 1.5× the numpy
  oracle (the tier must never be a de-optimization — the dispatch would
  otherwise pick it under ``auto``).

On numba-free machines the artifact records the numpy timings alone with
``numba_available: false`` — the bench never installs anything.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from conftest import best_of, run_once, smoke_mode, write_artifact

from repro.kernels import get_kernels, numba_available

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_kernel_tiers.json"
_NUM_SEEDS = 8
_MAX_NUMBA_REGRESSION = 1.5


def _kernel_inputs(n, rng):
    """Checker-shaped inputs for every kernel signature."""
    T = _NUM_SEEDS
    keys = rng.integers(0, 2**64, n, dtype=np.uint64)
    seeds = rng.integers(0, 2**64, T, dtype=np.uint64)
    tables = rng.integers(0, 2**64, (8, T, 256), dtype=np.uint64)
    byte_idx = rng.integers(0, 256, (8, n)).astype(np.intp)
    buckets = rng.integers(0, 16, n).astype(np.intp)
    r = (1 << 15) - 19
    mod_vals = rng.integers(0, r, n, dtype=np.int64)
    weights = rng.integers(-(2**30), 2**30, n).astype(np.float64)
    mask = np.uint64((1 << 15) - 1)

    # Every callable allocates its own outputs and *returns* them, so the
    # same closure serves both the timing loop and the parity assertion
    # (allocation cost is identical across tiers).
    def tab_gather(k):
        out = np.empty((T, n), dtype=np.uint64)
        k.tab_gather(tables, byte_idx, out, np.empty_like(out))
        return out

    def scatter_add_mod(k):
        table = np.zeros(16, dtype=np.int64)
        k.scatter_add_mod(table, buckets, mod_vals, r)
        return table

    def mix_lanes(k):
        out = np.empty((T, n), dtype=np.uint64)
        k.mix_lanes(seeds, keys, mask, out)
        return out

    def mshift_lanes(k):
        out = np.empty((T, n), dtype=np.uint64)
        k.mshift_lanes(seeds | np.uint64(1), keys, np.uint64(32), out)
        return out

    return {
        "tab_gather": tab_gather,
        "scatter_add_mod": scatter_add_mod,
        "weighted_bincount": lambda k: k.weighted_bincount(
            buckets, weights, 16
        ),
        "mix_lanes": mix_lanes,
        "mshift_lanes": mshift_lanes,
    }


def _kernel_parity(name, call):
    """Bit-identity of the numba kernel vs the numpy oracle on bench inputs."""
    a = call(get_kernels("numpy"))
    b = call(get_kernels("numba"))
    assert np.array_equal(a, b), name


def test_kernel_tier_throughput(benchmark, overhead_elements):
    n = overhead_elements
    rng = np.random.default_rng(0xBEEF)
    calls = _kernel_inputs(n, rng)
    have_numba = numba_available()

    def time_kernels():
        kernels = {}
        for name, call in calls.items():
            if have_numba:
                _kernel_parity(name, call)
            row = {
                "elements": int(n),
                "numpy_seconds": best_of(
                    lambda c=call: c(get_kernels("numpy")), 3
                ),
            }
            if have_numba:
                nb = get_kernels("numba")
                call(nb)  # JIT warm-up outside the timed region
                row["numba_seconds"] = best_of(lambda c=call: c(nb), 3)
                row["numba_over_numpy"] = (
                    row["numba_seconds"] / row["numpy_seconds"]
                )
            kernels[name] = row
        return kernels

    kernels = run_once(benchmark, time_kernels)
    report = {
        "numba_available": have_numba,
        "max_allowed_numba_over_numpy": _MAX_NUMBA_REGRESSION,
        "kernels": kernels,
    }
    write_artifact(_ARTIFACT, report)
    benchmark.extra_info.update(
        numba_available=have_numba, artifact=str(_ARTIFACT)
    )
    print()
    for name, row in kernels.items():
        extra = (
            f", numba {row['numba_seconds'] * 1e3:.2f}ms "
            f"({row['numba_over_numpy']:.2f}x)"
            if "numba_seconds" in row
            else ""
        )
        print(f"{name}: numpy {row['numpy_seconds'] * 1e3:.2f}ms{extra}")
    if not smoke_mode() and have_numba:
        for name, row in kernels.items():
            assert row["numba_over_numpy"] <= _MAX_NUMBA_REGRESSION, (
                f"{name}: numba tier {row['numba_over_numpy']:.2f}x slower "
                f"than numpy (allowed {_MAX_NUMBA_REGRESSION}x)"
            )
