"""Fault-injection accuracy for localization and repair.

The detection experiments (Fig 3) ask *whether* a checker catches an
injected fault; this harness asks the two questions the repair loop adds:

* **Precision** — when a Table 4 manipulator corrupts exactly one window
  of a multi-window run, does the per-window check reject exactly that
  window, and does :func:`repro.core.localize.localize_fault` pin the
  fault to key ranges that cover the manipulator's (known) sparse deltas?
* **Repair** — does :func:`repro.dataflow.repair.repair_reduce_window`
  heal the window to aggregates bit-identical to the clean run?

Each trial emulates the streaming engine's per-window settlement on a
multi-window workload (sequential semantics, ``comm=None``): the target
window's asserted output is aggregated from the *manipulated* input while
the checker sees the original — the paper's fault model, where the fault
lives inside the black-box reduction.  Because the manipulator reports its
exact per-key deltas, ground truth for "localized correctly" is exact, not
statistical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.localize import localize_fault
from repro.core.multiseed import MultiSeedSumChecker, condense_kv
from repro.core.params import SumCheckConfig
from repro.dataflow.repair import RepairPolicy, repair_reduce_window
from repro.faults.manipulators import get_kv_manipulator
from repro.util.rng import derive_seed, derive_seed_array
from repro.workloads.kv import aggregate_reference, sum_workload

__all__ = [
    "DEFAULT_MANIPULATORS",
    "LocalizationSummary",
    "LocalizationTrial",
    "run_localization_trials",
    "summarize_trials",
]

#: Table 4 roster exercised by default (all key-value manipulators).
DEFAULT_MANIPULATORS = (
    "Bitflip",
    "RandKey",
    "SwitchValues",
    "IncKey",
    "IncDec1",
    "IncDec2",
)


@dataclass
class LocalizationTrial:
    """Ground truth vs observed outcome of one injected-fault trial."""

    trial: int
    manipulator: str
    target_window: int
    detected_windows: list[int]
    exact_window: bool  # rejected exactly the corrupted window
    localized: bool  # FaultReport.localized on the rejected window
    keys_covered: bool  # every injected delta key inside report ranges
    range_count: int
    suspect_count: int
    bisection_rounds: int
    repaired: bool
    bit_identical: bool  # repaired output == clean aggregates
    repair_attempts: int
    check_seconds: float  # per-window check on the corrupted window
    localization_seconds: float


@dataclass
class LocalizationSummary:
    """Aggregate rates over a batch of trials."""

    trials: int
    exact_window_rate: float
    localized_rate: float
    key_cover_rate: float
    repair_rate: float
    bit_identical_rate: float
    mean_bisection_rounds: float
    mean_range_count: float
    mean_check_seconds: float
    mean_localization_seconds: float


def _in_ranges(keys: np.ndarray, ranges) -> np.ndarray:
    mask = np.zeros(keys.size, dtype=bool)
    for a, b in ranges:
        mask |= (keys >= np.uint64(a)) & (keys <= np.uint64(b))
    return mask


def _one_trial(
    config: SumCheckConfig,
    trial: int,
    manipulator: str,
    *,
    windows: int,
    elements_per_window: int,
    key_domain: int,
    num_seeds: int,
    seed: int,
    policy: RepairPolicy,
) -> LocalizationTrial:
    root = derive_seed(seed, "loc-trial", trial)
    target = trial % windows
    inputs = [
        sum_workload(
            elements_per_window,
            num_keys=key_domain,
            seed=derive_seed(root, "wl", w),
        )
        for w in range(windows)
    ]
    man_kwargs = {"rng": derive_seed(root, "fault")}
    if manipulator == "RandKey":
        man_kwargs["key_domain"] = key_domain
    man = get_kv_manipulator(manipulator, **man_kwargs)
    k, v = inputs[target]
    effect = man.apply(None, k, v)
    clean_out = aggregate_reference(k, v)
    bad_out = aggregate_reference(effect.keys, effect.values)

    check_seeds = derive_seed_array(
        derive_seed(root, "check"),
        "seed",
        np.arange(num_seeds, dtype=np.uint64),
    )
    checker = MultiSeedSumChecker(config, check_seeds)
    detected: list[int] = []
    check_s = 0.0
    for w, (wk, wv) in enumerate(inputs):
        out = bad_out if w == target else aggregate_reference(wk, wv)
        t0 = time.perf_counter()
        verdict = checker.check_local((wk, wv), out)
        elapsed = time.perf_counter() - t0
        if w == target:
            check_s = elapsed
        if not verdict.accepted:
            detected.append(w)

    exact = detected == [target]
    localized = False
    covered = False
    ranges = 0
    suspects = 0
    rounds = 0
    loc_s = 0.0
    report = None
    if target in detected:
        loc_seeds = derive_seed_array(
            derive_seed(root, "localize"),
            "seed",
            np.arange(policy.localization_seeds, dtype=np.uint64),
        )
        report = localize_fault(
            condense_kv(k, v),
            condense_kv(*bad_out),
            config,
            loc_seeds,
            None,
            window=target,
            max_rounds=policy.max_rounds,
            max_ranges=policy.max_ranges,
        )
        localized = report.localized
        ranges = report.num_ranges
        suspects = report.suspect_keys
        rounds = report.bisection_rounds
        loc_s = report.localization_seconds
        if localized:
            covered = bool(_in_ranges(effect.delta_keys, report.key_ranges).all())

    repaired = False
    identical = False
    attempts = 0
    if target in detected:
        outcome = repair_reduce_window(
            None,
            target,
            derive_seed(root, "repair"),
            config,
            lambda window_id, key_ranges: [inputs[window_id]],
            bad_out,
            policy,
            report=report,
        )
        repaired = outcome.healed
        attempts = outcome.attempts
        if repaired:
            identical = bool(
                np.array_equal(outcome.output[0], clean_out[0])
                and np.array_equal(outcome.output[1], clean_out[1])
            )

    return LocalizationTrial(
        trial=trial,
        manipulator=manipulator,
        target_window=target,
        detected_windows=detected,
        exact_window=exact,
        localized=localized,
        keys_covered=covered,
        range_count=ranges,
        suspect_count=suspects,
        bisection_rounds=rounds,
        repaired=repaired,
        bit_identical=identical,
        repair_attempts=attempts,
        check_seconds=check_s,
        localization_seconds=loc_s,
    )


def run_localization_trials(
    config: SumCheckConfig,
    trials: int,
    *,
    windows: int = 3,
    elements_per_window: int = 4096,
    key_domain: int = 1024,
    num_seeds: int = 2,
    manipulators=DEFAULT_MANIPULATORS,
    seed: int = 0,
    policy: RepairPolicy | None = None,
) -> list[LocalizationTrial]:
    """Run ``trials`` injected-fault trials, cycling the manipulator roster.

    Every trial is derived from ``seed`` alone (workloads, fault draw,
    checker seeds), so a batch is bit-reproducible.  ``key_domain`` keeps
    the workload's keys inside ``0..key_domain-1``; RandKey draws its
    replacement key from the same domain so the fault stays in-window.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    policy = policy or RepairPolicy()
    roster = list(manipulators)
    return [
        _one_trial(
            config,
            t,
            roster[t % len(roster)],
            windows=windows,
            elements_per_window=elements_per_window,
            key_domain=key_domain,
            num_seeds=num_seeds,
            seed=seed,
            policy=policy,
        )
        for t in range(trials)
    ]


def summarize_trials(trials: list[LocalizationTrial]) -> LocalizationSummary:
    """Collapse a trial batch to the rates the bench gates check."""
    n = len(trials)
    loc = [t for t in trials if t.localized]
    return LocalizationSummary(
        trials=n,
        exact_window_rate=sum(t.exact_window for t in trials) / n,
        localized_rate=len(loc) / n,
        key_cover_rate=sum(t.keys_covered for t in trials) / n,
        repair_rate=sum(t.repaired for t in trials) / n,
        bit_identical_rate=sum(t.bit_identical for t in trials) / n,
        mean_bisection_rounds=(
            sum(t.bisection_rounds for t in loc) / len(loc) if loc else 0.0
        ),
        mean_range_count=(
            sum(t.range_count for t in loc) / len(loc) if loc else 0.0
        ),
        mean_check_seconds=sum(t.check_seconds for t in trials) / n,
        mean_localization_seconds=sum(t.localization_seconds for t in trials)
        / n,
    )

