"""Tests for the experiment harness (accuracy/overhead/scaling/volume)."""

import numpy as np
import pytest

from repro.core.params import PermCheckConfig, SumCheckConfig
from repro.experiments.accuracy import (
    AccuracyCell,
    perm_checker_accuracy,
    perm_checker_accuracy_full,
    sum_checker_accuracy,
    sum_checker_accuracy_full,
)
from repro.experiments.report import format_table
from repro.experiments.scaling import measured_weak_scaling, modeled_weak_scaling
from repro.experiments.volume import checker_volume_table


class TestAccuracyCell:
    def test_derived_statistics(self):
        cell = AccuracyCell("c", "cfg", "m", trials=100, failures=25, expected_delta=0.5)
        assert cell.failure_rate == 0.25
        assert cell.ratio == 0.5
        assert 0 < cell.stderr < 0.06

    def test_zero_trials(self):
        cell = AccuracyCell("c", "cfg", "m", trials=0, failures=0, expected_delta=0.5)
        assert cell.failure_rate == 0.0 and cell.stderr == 0.0


class TestFastVsFullPathAgreement:
    """The load-bearing property: the exact fast path and the genuine
    end-to-end path estimate the same failure rate."""

    def test_sum_checker_paths_agree_statistically(self):
        cfg = SumCheckConfig(iterations=1, d=2, rhat=1 << 31, hash_family="Tab")
        fast = sum_checker_accuracy(
            cfg, "RandKey", trials=300, n_elements=2_000, num_keys=500, seed=7
        )
        full = sum_checker_accuracy_full(
            cfg, "RandKey", trials=300, n_elements=2_000, num_keys=500, seed=7
        )
        # Same workload, same per-trial seeds → identical verdicts.
        assert fast.failures == full.failures

    def test_perm_checker_paths_agree_statistically(self):
        cfg = PermCheckConfig(log_h=2, hash_family="Tab")
        fast = perm_checker_accuracy(
            cfg, "Increment", trials=300, n_elements=1_000, universe=10**6, seed=9
        )
        full = perm_checker_accuracy_full(
            cfg, "Increment", trials=300, n_elements=1_000, universe=10**6, seed=9
        )
        # Paths share manipulator draws (same trial seeds); verdict events
        # coincide because the common elements cancel exactly.
        assert fast.failures == full.failures

    def test_sum_fast_path_rate_matches_theory(self):
        """RandKey vs 1x2: miss iff both keys share the bucket → 1/2."""
        cfg = SumCheckConfig(iterations=1, d=2, rhat=1 << 31, hash_family="Mix")
        cell = sum_checker_accuracy(cfg, "RandKey", trials=2_000, seed=3)
        assert cell.failure_rate == pytest.approx(0.5, abs=0.05)

    def test_perm_fast_path_rate_matches_theory(self):
        cfg = PermCheckConfig(log_h=3, hash_family="Mix")
        cell = perm_checker_accuracy(cfg, "Randomize", trials=2_000, seed=4)
        assert cell.failure_rate == pytest.approx(1 / 8, abs=0.03)

    def test_strong_config_never_misses_in_small_sample(self):
        cfg = SumCheckConfig.parse("8x16 m15").with_hash("Tab64")
        cell = sum_checker_accuracy(cfg, "Bitflip", trials=200, seed=5)
        assert cell.failures == 0


class TestOverheadEngine:
    """The batched Table 5 engine: one workload, one interleaved sweep."""

    def test_full_table5_in_one_pass(self):
        from repro.core.params import PAPER_TABLE3_SCALING
        from repro.experiments.overhead import OverheadEngine

        engine = OverheadEngine(n_elements=5_000, repeats=1)
        rows = engine.measure_table5(PAPER_TABLE3_SCALING)
        labels = [r.label for r in rows]
        assert labels[:-1] == PAPER_TABLE3_SCALING
        assert labels[-1] == "local reduce (baseline)"
        assert all(r.ns_per_element > 0 for r in rows)

    def test_workload_generated_once(self):
        from repro.experiments.overhead import OverheadEngine

        engine = OverheadEngine(n_elements=2_000, repeats=1)
        engine.measure_table5(["4x8 m5"], include_baseline=True)
        keys_first = engine.kv_workload[0]
        engine.measure_table5(["4x4 m3"], include_baseline=False)
        assert engine.kv_workload[0] is keys_first

    def test_multiseed_row(self):
        from repro.experiments.overhead import OverheadEngine

        (row,) = OverheadEngine(n_elements=5_000, repeats=1).measure_table5(
            [], include_baseline=False,
            multiseed=[(SumCheckConfig.parse("4x8 m5"), 4)],
        )
        assert row.ns_per_element > 0
        assert "multi-seed" in row.label and "x4 seeds" in row.label

    def test_sort_rows_share_sweep(self):
        from repro.experiments.overhead import OverheadEngine

        rows = OverheadEngine(n_elements=5_000, repeats=1).measure_sort(
            ("CRC", "Mix")
        )
        assert [r.label for r in rows] == [
            "sort checker (CRC)",
            "sort checker (Mix)",
        ]
        assert all(r.ns_per_element > 0 for r in rows)

    def test_validation(self):
        from repro.experiments.overhead import OverheadEngine

        with pytest.raises(ValueError):
            OverheadEngine(n_elements=0)
        with pytest.raises(ValueError):
            OverheadEngine(repeats=0)


class TestScaling:
    def test_measured_points_structure(self):
        points = measured_weak_scaling(
            SumCheckConfig.parse("4x8 m5"),
            items_per_pe=2_000,
            pes=(1, 2),
            repeats=1,
            num_keys=1_000,
        )
        assert [pt.p for pt in points] == [1, 2]
        for pt in points:
            assert pt.time_with >= 0 and pt.time_without >= 0
            assert pt.ratio >= 1.0 or pt.time_with < pt.time_without

    def test_modeled_ratio_decreases_or_flat_with_p(self):
        points = modeled_weak_scaling(
            SumCheckConfig.parse("5x16 m5"),
            pes=(32, 256, 4096),
            check_local_ns=5.0,
            reduce_local_ns=90.0,
        )
        ratios = [pt.ratio for pt in points]
        assert ratios[-1] <= ratios[0] + 1e-9
        # With the paper's local-cost ratio the overhead is a few percent.
        assert ratios[-1] < 1.15

    def test_measured_multiseed_points(self):
        points = measured_weak_scaling(
            SumCheckConfig.parse("4x8 m5"),
            items_per_pe=2_000,
            pes=(1, 2),
            repeats=5,
            num_keys=1_000,
            num_seeds=4,
        )
        assert [pt.p for pt in points] == [1, 2]
        for pt in points:
            assert pt.time_with >= pt.time_without >= 0

    def test_modeled_multiseed_row(self):
        """The δ^T row: T× the table on the wire, amortized local cost."""
        single = modeled_weak_scaling(
            SumCheckConfig.parse("5x16 m5"),
            pes=(32, 4096),
            check_local_ns=5.0,
            reduce_local_ns=90.0,
        )
        multi = modeled_weak_scaling(
            SumCheckConfig.parse("5x16 m5"),
            pes=(32, 4096),
            check_local_ns=5.0 * 8,  # 8 seeds at the single-seed rate
            reduce_local_ns=90.0,
            num_seeds=8,
        )
        for s, m in zip(single, multi):
            assert m.ratio > s.ratio  # more seeds cost more...
            assert m.ratio < 1.0 + 8 * (s.ratio - 1.0) + 1e-9  # ...but < T×

    @pytest.mark.parametrize("num_seeds", [1, 4])
    def test_modeled_measures_missing_local_costs(self, num_seeds):
        """Local costs left unset come from one engine sweep."""
        cfg = SumCheckConfig.parse("4x8 m5")
        for given in ({}, {"check_local_ns": 5.0}, {"reduce_local_ns": 90.0}):
            (pt,) = modeled_weak_scaling(
                cfg, pes=(32,), measure_elements=2_000, num_seeds=num_seeds,
                **given,
            )
            assert pt.time_with > pt.time_without > 0, given

    def test_modeled_with_paper_constants_matches_fig4_band(self):
        """Feeding the paper's measured ns constants into the α–β model
        lands the overhead inside Fig 4's 1.01–1.12 band."""
        for label, ns in (("5x16 m5", 4.5), ("16x16 m15", 10.0)):
            points = modeled_weak_scaling(
                SumCheckConfig.parse(label),
                pes=(32, 128, 1024, 4096),
                check_local_ns=ns,
                reduce_local_ns=88.0,
            )
            for pt in points:
                assert 1.0 < pt.ratio < 1.25

    def test_modeled_streaming_windows_row(self):
        """Wire volume and settle latency scale linearly with windows;
        the local condensed-checker work is window-invariant."""
        from repro.experiments.scaling import modeled_streaming_windows

        cfg = SumCheckConfig.parse("8x16 m15")
        points = modeled_streaming_windows(
            cfg, windows=(1, 4, 16), check_local_ns=5.0, num_seeds=3
        )
        assert [pt.windows for pt in points] == [1, 4, 16]
        base = points[0]
        assert base.wire_bits_total == 3 * cfg.table_bits
        for pt in points:
            assert pt.wire_bits_total == pt.windows * base.wire_bits_total
            assert pt.settle_seconds == pytest.approx(
                pt.windows * base.settle_seconds
            )
            assert pt.local_seconds == base.local_seconds
            assert pt.wire_bits_per_window == base.wire_bits_total
            assert pt.total_seconds > pt.settle_seconds

    def test_modeled_streaming_windows_measures_local_cost(self):
        from repro.experiments.scaling import modeled_streaming_windows

        points = modeled_streaming_windows(
            SumCheckConfig.parse("8x16 m15"), windows=(1, 2),
            measure_elements=2_000,
        )
        assert points[0].local_seconds == points[1].local_seconds > 0


class TestVolume:
    def test_volume_flat_in_n(self):
        rows = checker_volume_table(
            checkers=("sum", "permutation"), ns=(500, 5_000), p=4, seed=1
        )
        by_checker = {}
        for r in rows:
            by_checker.setdefault(r.checker, []).append(r.bottleneck_bytes)
        for name, volumes in by_checker.items():
            assert volumes[0] == volumes[1], (name, volumes)

    def test_message_counts_polylog(self):
        rows = checker_volume_table(checkers=("sort",), ns=(2_000,), p=4, seed=2)
        assert all(r.max_messages_per_pe <= 32 for r in rows)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "---" in lines[1]


class TestLocalizationHarness:
    CONFIG = SumCheckConfig.parse("4x16 m15")

    def _trials(self, n=6, **kw):
        from repro.experiments.localization import run_localization_trials

        kw.setdefault("windows", 2)
        kw.setdefault("elements_per_window", 512)
        kw.setdefault("key_domain", 64)
        kw.setdefault("seed", 3)
        return run_localization_trials(self.CONFIG, n, **kw)

    def test_trials_detect_localize_and_repair(self):
        from repro.experiments.localization import DEFAULT_MANIPULATORS

        batch = self._trials(len(DEFAULT_MANIPULATORS))
        # One trial per Table 4 manipulator, targets cycling the windows.
        assert [t.manipulator for t in batch] == list(DEFAULT_MANIPULATORS)
        assert {t.target_window for t in batch} == {0, 1}
        for t in batch:
            assert t.exact_window, t.manipulator
            assert t.localized, t.manipulator
            assert t.keys_covered, t.manipulator
            assert t.repaired, t.manipulator
            assert t.bit_identical, t.manipulator
            assert t.repair_attempts >= 1

    def test_batch_is_bit_reproducible(self):
        from dataclasses import asdict

        def outcome(t):
            d = asdict(t)
            d.pop("check_seconds")
            d.pop("localization_seconds")
            return d

        a = self._trials(4)
        b = self._trials(4)
        # Identical up to wall-clock: workloads, faults, verdicts, ranges.
        assert [outcome(t) for t in a] == [outcome(t) for t in b]

    def test_summary_rates(self):
        from repro.experiments.localization import summarize_trials

        batch = self._trials(6)
        s = summarize_trials(batch)
        assert s.trials == 6
        assert s.exact_window_rate == 1.0
        assert s.localized_rate == 1.0
        assert s.key_cover_rate == 1.0
        assert s.repair_rate == 1.0
        assert s.bit_identical_rate == 1.0
        assert s.mean_bisection_rounds >= 0.0
        assert s.mean_check_seconds > 0.0

    def test_rejects_empty_batch(self):
        from repro.experiments.localization import run_localization_trials

        with pytest.raises(ValueError):
            run_localization_trials(self.CONFIG, 0)
