"""Fig 5 (Appendix A): permutation/sort checker accuracy.

Paper setup: 10^6 elements uniform over 0..10^8−1, 4 PEs, 100 000 trials,
hash ∈ {CRC, Tab} × logH ∈ {1, 2, 3, 4, 6, 8, 12}, manipulators of Table 6.

Expected shape: ratios ≈ 1 for tabulation on every manipulator; **CRC fails
on Increment** (ratios far above 1 at several logH values, the paper plots
up to 6) because CRC's low output bits respond linearly to +1; CRC is fine
on the other manipulators.
"""

from __future__ import annotations

from conftest import run_once

from repro.core.params import PAPER_FIG5_LOG_H, PermCheckConfig
from repro.experiments.accuracy import perm_checker_accuracy
from repro.experiments.report import format_table
from repro.faults.manipulators import PERM_MANIPULATORS

_HASHES = ("CRC", "Tab")


def test_fig5_permutation_checker_accuracy(benchmark, accuracy_trials):
    def experiment():
        rows = []
        for manipulator in PERM_MANIPULATORS:
            for hash_family in _HASHES:
                for log_h in PAPER_FIG5_LOG_H:
                    cfg = PermCheckConfig(log_h=log_h, hash_family=hash_family)
                    cell = perm_checker_accuracy(
                        cfg,
                        manipulator,
                        trials=accuracy_trials,
                        seed=0xF165,
                    )
                    rows.append(cell)
        return rows

    cells = run_once(benchmark, experiment)
    print()
    print(
        format_table(
            ["manipulator", "config", "fail rate", "δ", "ratio"],
            [
                (
                    c.manipulator,
                    c.config,
                    f"{c.failure_rate:.4f}",
                    f"{c.expected_delta:.2e}",
                    f"{c.ratio:.3f}",
                )
                for c in cells
            ],
        )
    )
    benchmark.extra_info["cells"] = len(cells)

    # Shape assertion 1: tabulation matches the ideal bound everywhere
    # (within noise, where measurable).
    for c in cells:
        if not c.config.startswith("Tab"):
            continue
        if c.expected_delta * c.trials < 10:
            continue
        slack = 5 * c.stderr / c.expected_delta
        assert c.ratio <= 1.0 + max(slack, 0.25), (
            f"Tab {c.config} {c.manipulator}: ratio {c.ratio:.2f}"
        )
    # Shape assertion 2: CRC shows the Increment anomaly at some logH.
    crc_increment = [
        c
        for c in cells
        if c.config.startswith("CRC") and c.manipulator == "Increment"
    ]
    max_ratio = max(c.ratio for c in crc_increment)
    benchmark.extra_info["crc_increment_max_ratio"] = max_ratio
    assert max_ratio > 1.5, (
        f"expected the paper's CRC/Increment anomaly (ratio >> 1), "
        f"got max ratio {max_ratio:.2f}"
    )
