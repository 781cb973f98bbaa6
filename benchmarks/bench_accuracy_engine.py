"""Batched accuracy path vs the per-trial loop it replaced.

Times one Fig 3 cell (``8x16 Tab m15`` × Bitflip) and one Fig 5 cell
(``Tab4`` × Increment) through :mod:`repro.experiments.accuracy` and
through the per-trial baseline (``per_trial_sum_accuracy`` and
``per_trial_perm_accuracy`` in ``conftest.py``), asserts identical verdict
counts, and emits a ``BENCH_accuracy_engine.json`` artifact at the repo
root so future PRs can track the throughput trajectory.  The artifact's
``reference_*`` fields are the per-trial baseline's.

Scale knobs: ``REPRO_BENCH_TRIALS`` sets the *batched* trial count
(floored at 10 000 here so the artifact always reflects a paper-relevant
batch); the per-trial loop runs ``min(batched, 10 000)`` trials to keep
the comparison honest but bounded.
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import (
    per_trial_perm_accuracy,
    per_trial_sum_accuracy,
    run_once,
    smoke_mode,
    write_artifact,
)

from repro.core.params import PermCheckConfig, SumCheckConfig
from repro.experiments.accuracy import perm_checker_accuracy, sum_checker_accuracy

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_accuracy_engine.json"
_EQUIVALENCE_TRIALS = 1_000
_MIN_SPEEDUP = 20.0


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_accuracy_engine_speedup(benchmark, accuracy_trials):
    if smoke_mode():
        batched_trials = reference_trials = accuracy_trials
    else:
        batched_trials = max(accuracy_trials, 10_000)
        reference_trials = min(batched_trials, 10_000)
    sum_cfg = SumCheckConfig.parse("8x16 m15").with_hash("Tab")
    perm_cfg = PermCheckConfig(log_h=4, hash_family="Tab")

    # Equivalence gate: identical failure counts on a 1000-trial cell.
    for batched, per_trial, cfg, manipulator, seed in (
        (sum_checker_accuracy, per_trial_sum_accuracy, sum_cfg, "Bitflip", 0xF163),
        (perm_checker_accuracy, per_trial_perm_accuracy, perm_cfg, "Increment",
         0xF165),
    ):
        cell = (cfg, manipulator, _EQUIVALENCE_TRIALS)
        assert batched(*cell, seed=seed) == per_trial(*cell, seed=seed), (
            f"{manipulator} paths diverged"
        )

    sum_ref, sum_ref_s = _timed(
        lambda: per_trial_sum_accuracy(
            sum_cfg, "Bitflip", reference_trials, seed=0xF163
        )
    )
    sum_bat, sum_bat_s = _timed(
        lambda: run_once(
            benchmark,
            lambda: sum_checker_accuracy(
                sum_cfg, "Bitflip", batched_trials, seed=0xF163
            ),
        )
    )
    perm_ref, perm_ref_s = _timed(
        lambda: per_trial_perm_accuracy(
            perm_cfg, "Increment", reference_trials, seed=0xF165
        )
    )
    perm_bat, perm_bat_s = _timed(
        lambda: perm_checker_accuracy(
            perm_cfg, "Increment", batched_trials, seed=0xF165
        )
    )
    if batched_trials == reference_trials:
        assert sum_bat.failures == sum_ref.failures
        assert perm_bat.failures == perm_ref.failures

    sum_speedup = (sum_ref_s / reference_trials) / (sum_bat_s / batched_trials)
    perm_speedup = (perm_ref_s / reference_trials) / (perm_bat_s / batched_trials)
    report = {
        "sum_cell": {
            "config": sum_cfg.label(),
            "manipulator": "Bitflip",
            "reference_trials": reference_trials,
            "reference_seconds": sum_ref_s,
            "reference_us_per_trial": sum_ref_s / reference_trials * 1e6,
            "batched_trials": batched_trials,
            "batched_seconds": sum_bat_s,
            "batched_us_per_trial": sum_bat_s / batched_trials * 1e6,
            "speedup": sum_speedup,
            "failures": sum_bat.failures,
        },
        "perm_cell": {
            "config": perm_cfg.label(),
            "manipulator": "Increment",
            "reference_trials": reference_trials,
            "reference_seconds": perm_ref_s,
            "reference_us_per_trial": perm_ref_s / reference_trials * 1e6,
            "batched_trials": batched_trials,
            "batched_seconds": perm_bat_s,
            "batched_us_per_trial": perm_bat_s / batched_trials * 1e6,
            "speedup": perm_speedup,
            "failures": perm_bat.failures,
        },
        "equivalence_trials": _EQUIVALENCE_TRIALS,
        "min_required_speedup": _MIN_SPEEDUP,
    }
    write_artifact(_ARTIFACT, report)
    benchmark.extra_info.update(
        sum_speedup=sum_speedup, perm_speedup=perm_speedup, artifact=str(_ARTIFACT)
    )
    print(f"\nsum {sum_speedup:.1f}x, perm {perm_speedup:.1f}x -> {_ARTIFACT.name}")
    if not smoke_mode():
        assert sum_speedup >= _MIN_SPEEDUP, f"sum engine only {sum_speedup:.1f}x"
        assert perm_speedup >= _MIN_SPEEDUP, f"perm engine only {perm_speedup:.1f}x"
