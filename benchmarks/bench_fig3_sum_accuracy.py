"""Fig 3: accuracy of the sum-aggregation checker per manipulator × config.

Paper setup: 50 000 power-law elements over 10^6 possible values, 4 PEs,
100 000 trials per cell, 16 configurations (Table 3 accuracy block × {CRC,
Tab}) × 6 manipulators (Table 4).  The y axis is failure rate / δ.

Expected shape (paper §7.1):
* ratios ≤ 1 throughout — Lemma 2 generally *overestimates* the modulus
  contribution;
* CRC behaves well on subtle manipulations but shows an **elevated ratio on
  IncDec1** (low-bit linearity);
* tabulation is uniformly consistent with the ideal analysis.

Trial counts scale via ``REPRO_BENCH_TRIALS`` (default 400 per cell; the
batched accuracy path makes the paper's 100 000 routine).
"""

from __future__ import annotations

from conftest import run_once

from repro.core.params import PAPER_TABLE3_ACCURACY, SumCheckConfig
from repro.experiments.accuracy import sum_checker_accuracy
from repro.experiments.report import format_table
from repro.faults.manipulators import SUM_MANIPULATORS

_HASHES = ("CRC", "Tab")


def test_fig3_sum_checker_accuracy(benchmark, accuracy_trials):
    def experiment():
        rows = []
        for manipulator in SUM_MANIPULATORS:
            for label in PAPER_TABLE3_ACCURACY:
                for hash_family in _HASHES:
                    cfg = SumCheckConfig.parse(label).with_hash(hash_family)
                    cell = sum_checker_accuracy(
                        cfg,
                        manipulator,
                        trials=accuracy_trials,
                        seed=0xF163,
                    )
                    rows.append(cell)
        return rows

    cells = run_once(benchmark, experiment)
    print()
    print(
        format_table(
            ["manipulator", "config", "fail rate", "δ", "ratio", "±σ"],
            [
                (
                    c.manipulator,
                    c.config,
                    f"{c.failure_rate:.4f}",
                    f"{c.expected_delta:.2e}",
                    f"{c.ratio:.3f}",
                    f"{c.stderr / c.expected_delta:.3f}",
                )
                for c in cells
            ],
        )
    )
    benchmark.extra_info["cells"] = len(cells)
    benchmark.extra_info["trials_per_cell"] = accuracy_trials

    # Shape assertions (only where the trial count gives statistical power:
    # expected failures >= ~10).  Ratio <= 1 within noise — except CRC on
    # the key-increment manipulators (IncKey, IncDec): those exercise
    # crc(k) vs crc(k+1), whose low output bits "change in similar ways for
    # different inputs" (§7.1) — the documented CRC anomaly, reported but
    # not bounded.  Tabulation must meet the bound on *every* manipulator.
    for c in cells:
        expected_failures = c.expected_delta * c.trials
        if expected_failures < 10:
            continue
        if "CRC" in c.config and c.manipulator in (
            "IncKey",
            "IncDec1",
            "IncDec2",
        ):
            continue
        slack = 5 * c.stderr / c.expected_delta if c.stderr else 0.5
        assert c.ratio <= 1.0 + max(slack, 0.25), (
            f"{c.manipulator} {c.config}: ratio {c.ratio:.2f} "
            f"exceeds δ beyond noise"
        )
    # The anomaly itself must be visible somewhere (as in the paper's plot).
    elevated = [
        c.ratio
        for c in cells
        if "CRC" in c.config
        and c.manipulator in ("IncKey", "IncDec1", "IncDec2")
        and c.expected_delta * c.trials >= 10
    ]
    benchmark.extra_info["crc_incdec_max_ratio"] = max(elevated, default=0.0)
    assert max(elevated, default=0.0) > 1.2, (
        "expected the paper's CRC low-bit anomaly on IncDec/IncKey"
    )
