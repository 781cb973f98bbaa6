"""Tests for adaptive seed escalation in the dataflow pipeline.

Contract under test: one seed settles inline, folded from the raw pairs
without condensing; escalation (per policy) condenses each side once and
re-checks under ``T`` fresh seeds whose per-seed verdicts are identical to
independent single-seed checks.
"""

import sys

import numpy as np
import pytest

import repro.core.localize as localize_mod
import repro.core.multiseed as multiseed_mod
import repro.dataflow.pipeline as pipeline_mod
from repro.comm.context import Context
from repro.core.multiseed import MultiSeedSumChecker, check_sum_aggregation
from repro.core.params import SumCheckConfig
from repro.core.sort_checker import check_sort
from repro.core.zip_checker import check_zip
from repro.dataflow.dia import DIA
from repro.dataflow.pipeline import (
    AdaptiveCheckPolicy,
    CheckedRunStats,
    adaptive_permutation_check,
    adaptive_sum_check,
    adaptive_zip_check,
    checked_reduce_by_key,
    checked_sort,
)
from repro.faults.manipulators import get_kv_manipulator, get_seq_manipulator
from repro.workloads.kv import aggregate_reference, sum_workload
from repro.workloads.uniform import uniform_integers

WEAK = SumCheckConfig.parse("1x2 m4")
STRONG = SumCheckConfig.parse("8x16 m15")


class TestPolicy:
    def test_validates_mode(self):
        with pytest.raises(ValueError):
            AdaptiveCheckPolicy(escalate_on="sometimes")

    def test_validates_seed_count(self):
        with pytest.raises(ValueError):
            AdaptiveCheckPolicy(escalation_seeds=0)
        with pytest.raises(ValueError):
            AdaptiveCheckPolicy(
                escalation_seeds=np.zeros(0, dtype=np.uint64)
            )

    @pytest.mark.parametrize(
        "seeds, error",
        [
            (np.array([1.0, 2.0]), TypeError),
            (np.array([3, 1, 3], dtype=np.uint64), ValueError),
            (np.array([[1, 2], [3, 4]], dtype=np.uint64), ValueError),
        ],
        ids=["float", "duplicate", "2d"],
    )
    def test_validates_explicit_seed_array_at_construction(self, seeds, error):
        # Seeds resolve only on escalation; a bad array must fail here,
        # not crash the first rejected check.
        with pytest.raises(error):
            AdaptiveCheckPolicy(escalation_seeds=seeds)

    def test_num_escalation_seeds_needs_no_derivation(self):
        assert AdaptiveCheckPolicy(escalation_seeds=5).num_escalation_seeds == 5
        explicit = AdaptiveCheckPolicy(escalation_seeds=np.array([4, 2, 9]))
        assert explicit.num_escalation_seeds == 3

    def test_resolve_derives_from_primary_seed(self):
        policy = AdaptiveCheckPolicy(escalation_seeds=5)
        a = policy.resolve_seeds(7)
        b = policy.resolve_seeds(7)
        c = policy.resolve_seeds(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.size == 5

    def test_resolve_passes_explicit_array_through(self):
        seeds = np.array([3, 1, 4], dtype=np.uint64)
        policy = AdaptiveCheckPolicy(escalation_seeds=seeds)
        assert np.array_equal(policy.resolve_seeds(99), seeds)

    def test_should_escalate_matrix(self):
        assert AdaptiveCheckPolicy(escalate_on="reject").should_escalate(False)
        assert not AdaptiveCheckPolicy(escalate_on="reject").should_escalate(True)
        assert AdaptiveCheckPolicy(escalate_on="always").should_escalate(True)
        assert not AdaptiveCheckPolicy(escalate_on="never").should_escalate(False)


class TestOverheadRatio:
    """Satellite regression: zero-duration runs must not claim no overhead."""

    def test_zero_operation_with_checker_work_is_infinite(self):
        stats = CheckedRunStats(operation_seconds=0.0, checker_seconds=0.5)
        assert stats.overhead_ratio == float("inf")

    def test_zero_everything_is_neutral(self):
        stats = CheckedRunStats(operation_seconds=0.0, checker_seconds=0.0)
        assert stats.overhead_ratio == 1.0

    def test_escalation_counts_as_checker_work(self):
        stats = CheckedRunStats(
            operation_seconds=0.0,
            checker_seconds=0.0,
            escalated=True,
            escalation_seconds=0.2,
        )
        assert stats.overhead_ratio == float("inf")
        assert stats.total_seconds == pytest.approx(0.2)

    def test_normal_ratio_includes_escalation(self):
        stats = CheckedRunStats(
            operation_seconds=1.0,
            checker_seconds=0.1,
            escalated=True,
            escalation_seconds=0.4,
        )
        assert stats.overhead_ratio == pytest.approx(1.5)


class TestAdaptiveSumCheck:
    def _workload(self):
        keys, values = sum_workload(2_000, num_keys=100, seed=1)
        out_k, out_v = aggregate_reference(keys, values)
        bad_v = out_v.copy()
        # A cancelable ±1 pair: weak configs miss it when both keys share
        # a bucket, so per-seed verdicts genuinely vary.
        bad_v[0] += 1
        bad_v[1] -= 1
        return keys, values, out_k, out_v, bad_v

    def test_clean_run_does_not_escalate(self):
        keys, values, out_k, out_v, _ = self._workload()
        result = adaptive_sum_check(
            (keys, values), (out_k, out_v), STRONG, seed=2
        )
        assert result.accepted
        assert result.details["primary_accepted"]
        assert not result.details["adaptive"]["escalated"]
        assert result.details["adaptive"]["per_seed_accepted"] is None

    def test_primary_verdict_matches_single_seed_checker(self):
        keys, values, out_k, out_v, bad_v = self._workload()
        for seed in range(12):
            result = adaptive_sum_check(
                (keys, values), (out_k, bad_v), WEAK, seed=seed,
                policy=AdaptiveCheckPolicy(escalate_on="never"),
            )
            ref = check_sum_aggregation(
                (keys, values), (out_k, bad_v), WEAK, seed=seed
            )
            assert result.details["primary_accepted"] == ref.accepted
            assert result.accepted == ref.accepted

    def test_escalation_per_seed_matches_independent_checkers(self):
        keys, values, out_k, out_v, bad_v = self._workload()
        policy = AdaptiveCheckPolicy(escalation_seeds=16)
        # Find a primary seed whose weak checker misses the error, then
        # force escalation via "always" to exercise the suspicion path too.
        result = adaptive_sum_check(
            (keys, values), (out_k, bad_v), WEAK, seed=3,
            policy=AdaptiveCheckPolicy(escalation_seeds=16, escalate_on="always"),
        )
        adaptive = result.details["adaptive"]
        assert adaptive["escalated"]
        expected = [
            check_sum_aggregation(
                (keys, values), (out_k, bad_v), WEAK, seed=int(s)
            ).accepted
            for s in policy.resolve_seeds(3)
        ]
        assert adaptive["per_seed_accepted"] == expected
        assert any(expected) and not all(expected)  # weak: mixed verdicts
        assert not result.accepted  # any rejecting seed proves the error

    def test_rejecting_primary_escalates_and_confirms(self):
        keys, values, out_k, out_v, bad_v = self._workload()
        result = adaptive_sum_check(
            (keys, values), (out_k, bad_v), STRONG, seed=4,
            policy=AdaptiveCheckPolicy(escalation_seeds=8),
        )
        assert not result.details["primary_accepted"]
        assert result.details["adaptive"]["escalated"]
        # A real data error: every fresh seed confirms the rejection.
        assert result.details["adaptive"]["per_seed_accepted"] == [False] * 8
        assert not result.accepted

    def test_escalation_reuses_condensation(self, monkeypatch):
        """The primary settles on raw pairs; only escalation condenses."""
        keys, values, out_k, out_v, bad_v = self._workload()
        events = _record_condense_and_verdicts(monkeypatch, [pipeline_mod])
        result = adaptive_sum_check(
            (keys, values), (out_k, bad_v), STRONG, seed=5,
            policy=AdaptiveCheckPolicy(escalation_seeds=8),
        )
        assert result.details["adaptive"]["escalated"]
        # One condensation per side, escalation included, and both after
        # the primary verdict.
        assert events == ["verdict", "condense", "condense", "verdict"]

    def test_window_settle_matches_batch_over_concatenated_window(self):
        from repro.dataflow.streaming import settle_reduce_window

        keys, values, out_k, out_v, bad_v = self._workload()
        policy = AdaptiveCheckPolicy(escalation_seeds=16, escalate_on="always")
        chunks = [
            (keys[i : i + 300], values[i : i + 300])
            for i in range(0, keys.size, 300)
        ]
        # The black box asserts (out_k, bad_v) for the whole window.
        _, got, _, _, _ = settle_reduce_window(
            None, chunks, config=WEAK, seed_w=3, window=0, policy=policy,
            fault=lambda window, k, v: (out_k, bad_v),
        )
        ref = adaptive_sum_check(
            (keys, values), (out_k, bad_v), WEAK, seed=3, policy=policy
        )
        assert got.accepted == ref.accepted
        assert got.details["primary_accepted"] == ref.details["primary_accepted"]
        per_seed = got.details["adaptive"]["per_seed_accepted"]
        assert per_seed == ref.details["adaptive"]["per_seed_accepted"]
        assert any(per_seed) and not all(per_seed)  # weak: mixed verdicts

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_escalation_is_globally_consistent(self, p):
        keys, values = sum_workload(2_000, num_keys=100, seed=6)
        out_k, out_v = aggregate_reference(keys, values)
        bad_v = out_v.copy()
        bad_v[0] += 1  # corruption lands on one PE's slice only
        ctx = Context(p)

        def run(comm, k, v, ok, ov):
            return adaptive_sum_check(
                (k, v), (ok, ov), STRONG, seed=7,
                policy=AdaptiveCheckPolicy(escalation_seeds=6), comm=comm,
            )

        outs = ctx.run(
            run,
            per_rank_args=list(
                zip(
                    ctx.split(keys),
                    ctx.split(values),
                    ctx.split(out_k),
                    ctx.split(bad_v),
                )
            ),
        )
        for result in outs:
            assert not result.accepted
            assert result.details["adaptive"]["escalated"]
            assert (
                result.details["adaptive"]["per_seed_accepted"]
                == [False] * 6
            )


class TestCheckedPipelinesWithPolicy:
    def test_reduce_clean_run_stats(self):
        keys, values = sum_workload(2_000, num_keys=100, seed=8)
        ok, ov, result, stats = checked_reduce_by_key(
            None, keys, values, STRONG, seed=9,
            policy=AdaptiveCheckPolicy(),
        )
        assert result.accepted
        assert not stats.escalated
        assert stats.escalation_seconds == 0.0
        assert stats.escalation_seeds == 0
        ref_k, ref_v = aggregate_reference(keys, values)
        assert np.array_equal(ok, ref_k) and np.array_equal(ov, ref_v)

    @pytest.mark.parametrize("p", [1, 2])
    def test_reduce_fault_escalates(self, p):
        keys, values = sum_workload(2_000, num_keys=100, seed=10)
        ctx = Context(p)
        man = get_kv_manipulator("Bitflip")

        def run(comm, k, v):
            injected = man if comm.rank == 0 else None
            _, _, result, stats = checked_reduce_by_key(
                comm, k, v, STRONG, seed=11,
                manipulator=injected,
                manipulator_rng=np.random.default_rng(5),
                policy=AdaptiveCheckPolicy(escalation_seeds=4),
            )
            return result, stats

        outs = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        for result, stats in outs:
            assert not result.accepted
            assert stats.escalated
            assert stats.escalation_seeds == 4
            assert stats.escalation_seconds > 0.0
            assert (
                result.details["adaptive"]["per_seed_accepted"] == [False] * 4
            )

    @pytest.mark.parametrize(
        "magnitude", [1 << 20, 1 << 45, 1 << 62],
        ids=["float-path", "agg-path", "per-element"],
    )
    def test_checked_runs_leave_caller_arrays_unchanged(self, magnitude):
        """The checker reads the caller's int64 values without copying,
        so no checked path may write into them: the arrays are read-only
        here, and equal their copies after a rejected, escalated and
        localized check on every accumulation path."""
        from repro.core.localize import localize_fault

        rng = np.random.default_rng(magnitude.bit_length())
        keys = rng.integers(0, 40, 800).astype(np.uint64)
        values = rng.integers(-magnitude, magnitude, 800)
        frozen = (keys.copy(), values.copy())
        for array in (keys, values):
            array.setflags(write=False)
        ok, ov, result, stats = checked_reduce_by_key(
            None, keys, values, STRONG, seed=13,
            manipulator=get_kv_manipulator("Bitflip"),
            manipulator_rng=np.random.default_rng(5),
            policy=AdaptiveCheckPolicy(escalation_seeds=2),
        )
        assert not result.accepted and stats.escalated
        report = localize_fault((keys, values), (ok, ov), STRONG, seeds=[1, 2])
        assert report.localized
        MultiSeedSumChecker(STRONG, 3).local_tables(keys, values)
        assert np.array_equal(keys, frozen[0])
        assert np.array_equal(values, frozen[1])

    def test_sort_fault_escalates(self):
        data = uniform_integers(3_000, seed=12)
        man = get_seq_manipulator("Reset")
        out, result, stats = checked_sort(
            None, data, seed=13, log_h=64,
            manipulator=man, manipulator_rng=np.random.default_rng(6),
            policy=AdaptiveCheckPolicy(escalation_seeds=4),
        )
        assert not result.accepted
        assert stats.escalated and stats.escalation_seeds == 4
        assert result.details["adaptive"]["per_seed_accepted"] == [False] * 4

    def test_sort_clean_run(self):
        data = uniform_integers(3_000, seed=14)
        out, result, stats = checked_sort(
            None, data, seed=15, policy=AdaptiveCheckPolicy()
        )
        assert result.accepted
        assert not stats.escalated
        assert np.array_equal(out, np.sort(data))


class TestAdaptiveKwargsAndDeterministicCompanions:
    def test_non_hashsum_method_rejected_with_policy(self):
        data = uniform_integers(100, seed=40)
        dia = DIA(None, data)
        with pytest.raises(ValueError, match="hash-sum"):
            dia.sort_checked(policy=AdaptiveCheckPolicy(), method="gf64")
        with pytest.raises(ValueError, match="hash-sum"):
            dia.union_checked(
                DIA(None, data), policy=AdaptiveCheckPolicy(),
                method="polynomial",
            )

    def test_polynomial_knobs_rejected_with_policy(self):
        data = uniform_integers(100, seed=41)
        with pytest.raises(ValueError, match="delta"):
            DIA(None, data).sort_checked(
                policy=AdaptiveCheckPolicy(), delta=2.0**-20
            )

    def test_method_hashsum_still_accepted_with_policy(self):
        data = uniform_integers(100, seed=42)
        _, verdict = DIA(None, data).sort_checked(
            policy=AdaptiveCheckPolicy(), method="hashsum"
        )
        assert verdict.accepted

    @pytest.mark.parametrize("escalate_on", ["reject", "always"])
    def test_float_elements_rejected(self, escalate_on):
        # Truncated to words, [0.5, 1.5, 2.5] would match [0, 1, 2].
        from repro.dataflow.pipeline import adaptive_sort_check

        with pytest.raises(TypeError, match="integer"):
            adaptive_sort_check(
                np.array([0.5, 1.5, 2.5]), np.array([0.0, 1.0, 2.0]),
                policy=AdaptiveCheckPolicy(escalate_on=escalate_on),
            )

    @pytest.mark.parametrize("escalate_on", ["reject", "always"])
    def test_float_record_values_rejected(self, escalate_on):
        # Cast to int64, values 1.5 and 1.2 would encode alike.
        from repro.core.groupby_checker import default_partitioner
        from repro.dataflow.pipeline import adaptive_groupby_check

        keys = np.arange(8, dtype=np.uint64)
        with pytest.raises(TypeError, match="integer values"):
            adaptive_groupby_check(
                (keys, np.full(8, 1.5)), (keys, np.full(8, 1.2)),
                default_partitioner(1),
                policy=AdaptiveCheckPolicy(escalate_on=escalate_on),
            )

    def test_float_zip_columns_rejected(self):
        s2 = np.array([7, 8], dtype=np.uint64)
        with pytest.raises(TypeError, match="integer columns"):
            adaptive_zip_check(
                np.array([0.5, 1.5]), s2, np.array([0.0, 1.0]), s2,
                policy=AdaptiveCheckPolicy(escalate_on="always"),
            )

    def test_deterministic_failure_does_not_escalate(self):
        """An unsorted-but-complete output is proven wrong seed-free; the
        policy must not burn T fingerprint lanes confirming it."""
        from repro.dataflow.pipeline import adaptive_sort_check

        data = uniform_integers(500, seed=43)
        unsorted = data.copy()  # correct multiset, wrong order
        if np.array_equal(unsorted, np.sort(unsorted)):
            unsorted[0], unsorted[-1] = unsorted[-1], unsorted[0]
        result = adaptive_sort_check(
            data, unsorted, seed=44, policy=AdaptiveCheckPolicy()
        )
        assert not result.accepted
        assert not result.details["sorted"]
        assert not result.details["primary_accepted"]
        assert not result.details["adaptive"]["escalated"]

    def test_per_seed_reports_fingerprint_lanes_only(self):
        """With a deterministic failure, the escalation lanes still tell
        'the multiset matched' — they must not be masked to all-False."""
        from repro.dataflow.pipeline import adaptive_sort_check

        data = uniform_integers(500, seed=45)
        unsorted = data.copy()
        if np.array_equal(unsorted, np.sort(unsorted)):
            unsorted[0], unsorted[-1] = unsorted[-1], unsorted[0]
        result = adaptive_sort_check(
            data, unsorted, seed=46,
            policy=AdaptiveCheckPolicy(escalate_on="always",
                                       escalation_seeds=3),
        )
        assert not result.accepted  # sortedness failed
        assert result.details["adaptive"]["per_seed_accepted"] == [True] * 3


class TestDIAAdaptive:
    @pytest.mark.parametrize("p", [1, 2])
    def test_sort_checked_policy_clean(self, p):
        data = uniform_integers(2_000, seed=16)
        ctx = Context(p)

        def run(comm, chunk):
            out, verdict = DIA(comm, chunk).sort_checked(
                seed=17,
                policy=AdaptiveCheckPolicy(escalate_on="always",
                                           escalation_seeds=3),
            )
            return out.collect_local(), verdict

        outs = ctx.run(run, per_rank_args=ctx.split(data))
        for _, verdict in outs:
            assert verdict.accepted
            assert verdict.details["adaptive"]["escalated"]
            assert (
                verdict.details["adaptive"]["per_seed_accepted"] == [True] * 3
            )
        assert np.array_equal(
            np.concatenate([o[0] for o in outs]), np.sort(data)
        )

    def test_sort_escalation_matches_independent_check_sort(self):
        data = uniform_integers(1_000, seed=18)
        corrupted = np.sort(data)
        # Swap two *values* so the multiset differs but stays sorted enough
        corrupted = corrupted.copy()
        corrupted[0] = corrupted[0]  # keep sortedness; change multiset:
        corrupted[-1] += 1
        policy = AdaptiveCheckPolicy(escalation_seeds=10)
        # weak fingerprint (log_h=1) → mixed per-seed verdicts
        dia = DIA(None, data)
        out, verdict = dia.sort_checked(
            seed=19, policy=policy, log_h=1, iterations=1
        )
        # clean sort accepts; now drive the adaptive engine directly
        # against the corrupted output for the identity property.
        from repro.dataflow.pipeline import adaptive_permutation_check
        from repro.core.sort_checker import check_globally_sorted

        sortedness = check_globally_sorted(corrupted)
        result = adaptive_permutation_check(
            data, corrupted, seed=19,
            policy=AdaptiveCheckPolicy(escalation_seeds=10,
                                       escalate_on="always"),
            iterations=1, log_h=1,
            extra_ok=sortedness.accepted,
            checker="sort-adaptive",
        )
        expected = [
            check_sort(
                data, corrupted, iterations=1, log_h=1, seed=int(s)
            ).accepted
            for s in policy.resolve_seeds(19)
        ]
        assert result.details["adaptive"]["per_seed_accepted"] == expected
        assert any(expected) and not all(expected)

    def test_union_merge_checked_policy(self):
        a = np.sort(uniform_integers(800, seed=20))
        b = np.sort(uniform_integers(600, seed=21))
        da, db = DIA(None, a), DIA(None, b)
        policy = AdaptiveCheckPolicy(escalate_on="always", escalation_seeds=2)
        _, uv = da.union_checked(db, seed=22, policy=policy)
        _, mv = da.merge_checked(db, seed=22, policy=policy)
        for verdict in (uv, mv):
            assert verdict.accepted
            assert verdict.details["adaptive"]["per_seed_accepted"] == [True] * 2
        assert mv.details["sorted"]

    def test_zip_checked_policy_escalates_on_corruption(self):
        a = np.arange(500, dtype=np.int64)
        b = np.arange(500, dtype=np.int64) * 2
        # Sequential zip is the identity; corrupt via the adaptive engine.
        bad_first = a.copy()
        bad_first[3] += 1
        result = adaptive_zip_check(
            a, b, bad_first, b, seed=23,
            policy=AdaptiveCheckPolicy(escalation_seeds=5),
        )
        assert not result.accepted
        assert result.details["adaptive"]["escalated"]
        expected = [
            check_zip(a, b, bad_first, b, seed=int(s)).accepted
            for s in AdaptiveCheckPolicy(escalation_seeds=5).resolve_seeds(23)
        ]
        assert result.details["adaptive"]["per_seed_accepted"] == expected

    def test_zip_checked_policy_clean(self):
        a = np.arange(300, dtype=np.int64)
        b = np.arange(300, dtype=np.int64) + 7
        dia_a, dia_b = DIA(None, a), DIA(None, b)
        _, verdict = dia_a.zip_checked(
            dia_b, seed=24, policy=AdaptiveCheckPolicy()
        )
        assert verdict.accepted
        assert not verdict.details["adaptive"]["escalated"]

    def test_reduce_by_key_checked_policy(self):
        keys, values = sum_workload(1_500, num_keys=80, seed=25)
        kv = DIA(None, keys).with_values(values)
        out, verdict = kv.reduce_by_key_checked(
            STRONG, seed=26,
            policy=AdaptiveCheckPolicy(escalate_on="always",
                                       escalation_seeds=4),
        )
        assert verdict.accepted
        assert verdict.details["adaptive"]["per_seed_accepted"] == [True] * 4

    @pytest.mark.parametrize("p", [2])
    def test_group_by_key_checked_policy(self, p):
        keys, values = sum_workload(1_500, num_keys=80, seed=27)
        ctx = Context(p)

        def run(comm, k, v):
            kv = DIA(comm, k).with_values(v)
            (uk, groups), verdict = kv.group_by_key_checked(
                seed=28,
                policy=AdaptiveCheckPolicy(escalate_on="always",
                                           escalation_seeds=3),
            )
            return verdict

        outs = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        for verdict in outs:
            assert verdict.accepted
            assert verdict.details["placement_ok"]
            assert (
                verdict.details["adaptive"]["per_seed_accepted"] == [True] * 3
            )

    def test_groupby_escalation_matches_multiseed_checker(self):
        from repro.core.groupby_checker import (
            check_groupby_redistribution,
            default_partitioner,
        )

        keys, values = sum_workload(1_000, num_keys=60, seed=29)
        part = default_partitioner(1)
        bad_values = values.copy()
        bad_values[0] += 1
        policy = AdaptiveCheckPolicy(escalation_seeds=8, escalate_on="always")
        kv = DIA(None, keys).with_values(values)
        # Sequential group-by keeps records in place, so corrupt post via
        # the engine-level call for the identity property:
        from repro.core.groupby_checker import encode_records
        from repro.dataflow.pipeline import adaptive_permutation_check

        result = adaptive_permutation_check(
            encode_records(keys, values),
            encode_records(keys, bad_values),
            seed=30, policy=policy, iterations=1, log_h=1,
            extra_ok=True, checker="groupby-redistribution-adaptive",
            seed_path=("groupby-perm",),
        )
        expected = [
            check_groupby_redistribution(
                (keys, values), (keys, bad_values), part,
                iterations=1, log_h=1, seed=int(s),
            ).accepted
            for s in policy.resolve_seeds(30)
        ]
        assert result.details["adaptive"]["per_seed_accepted"] == expected
        assert any(expected) and not all(expected)


class TestEscalationSeedsOnlyWhenEscalating:
    """An accepted ``escalate_on="reject"`` check never derives the ``T``
    escalation seeds, and an adaptive window settle spends its primary
    seed, then the escalation seeds only on a reject."""

    ACCEPTED_ADAPTIVE = {
        "escalated": False,
        "escalate_on": "reject",
        "num_escalation_seeds": 8,
        "per_seed_accepted": None,
        "escalation_seconds": 0.0,
    }

    @pytest.fixture
    def no_resolve(self, monkeypatch):
        def refuse(self, primary_seed):
            raise AssertionError("escalation seeds derived on an accept")

        monkeypatch.setattr(AdaptiveCheckPolicy, "resolve_seeds", refuse)

    def test_accepted_checks_derive_no_seeds(self, no_resolve):
        keys, values = sum_workload(1_000, num_keys=50, seed=40)
        sum_res = adaptive_sum_check(
            (keys, values), aggregate_reference(keys, values), STRONG, seed=41
        )
        data = uniform_integers(500, seed=42)
        perm_res = adaptive_permutation_check(data, data[::-1], seed=43)
        a = np.arange(200, dtype=np.int64)
        zip_res = adaptive_zip_check(a, a + 1, a, a + 1, seed=44)
        for result in (sum_res, perm_res, zip_res):
            assert result.accepted
            assert result.details["adaptive"] == self.ACCEPTED_ADAPTIVE

    def _settle_both(self, fault_window):
        from repro.dataflow.streaming import (
            settle_reduce_window,
            settle_sum_window,
        )

        keys, values = sum_workload(1_200, num_keys=60, seed=46)
        chunks = [(keys[:600], values[:600]), (keys[600:], values[600:])]
        policy = AdaptiveCheckPolicy()

        def kv_fault(window, k, v):
            if window == fault_window and v.size:
                v = v.copy()
                v[0] += 1
            return k, v

        def sum_fault(window, v):
            return v + 1 if window == fault_window else v

        records = []
        for window in (0, 1):
            _, reduce_v, _, reduce_rec, _ = settle_reduce_window(
                None, chunks, config=STRONG, seed_w=50 + window,
                window=window, policy=policy, fault=kv_fault,
            )
            _, sum_v, _, sum_rec, _ = settle_sum_window(
                None, [v for _, v in chunks], config=STRONG,
                seed_w=60 + window, window=window, policy=policy,
                fault=sum_fault,
            )
            records += [(reduce_v, reduce_rec, 50 + window),
                        (sum_v, sum_rec, 60 + window)]
        return records

    def test_adaptive_window_settles_spend_primary_then_escalation(self):
        policy = AdaptiveCheckPolicy()
        for verdict, record, seed_w in self._settle_both(fault_window=1):
            adaptive = verdict.details["adaptive"]
            if record.window == 0:
                assert verdict.accepted
                assert adaptive == self.ACCEPTED_ADAPTIVE
                assert record.seeds_used == [seed_w]
            else:
                assert not verdict.accepted
                assert adaptive["per_seed_accepted"] == [False] * 8
                assert record.seeds_used == [seed_w] + [
                    int(s) for s in policy.resolve_seeds(seed_w)
                ]

    def test_accepted_window_settles_derive_no_seeds(self, no_resolve):
        for verdict, record, seed_w in self._settle_both(fault_window=None):
            assert verdict.details["adaptive"] == self.ACCEPTED_ADAPTIVE
            assert record.seeds_used == [seed_w]


def _record_condense_and_verdicts(monkeypatch, modules) -> list[str]:
    """Log ``condense_kv`` calls (via ``modules``' bindings) and settles."""
    events: list[str] = []
    condense = multiseed_mod.condense_kv
    verdicts = MultiSeedSumChecker.per_seed_verdicts

    def logged_condense(*args, **kwargs):
        events.append("condense")
        return condense(*args, **kwargs)

    def logged_verdicts(self, *args, **kwargs):
        events.append("verdict")
        return verdicts(self, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "condense_kv", logged_condense)
    monkeypatch.setattr(
        MultiSeedSumChecker, "per_seed_verdicts", logged_verdicts
    )
    return events


class TestCleanChecksNeverCondense:
    """A clean sum-family check folds its one-seed primary from the raw
    pairs: nothing is condensed (sorted) unless the check escalates or a
    rejected window is localized."""

    @pytest.fixture
    def no_condense(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a clean check condensed its input")

        original = multiseed_mod.condense_kv
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and getattr(module, "condense_kv", None) is original
            ):
                monkeypatch.setattr(module, "condense_kv", refuse)

    def test_accepting_checks_fold_raw_pairs(self, no_condense):
        from repro.dataflow.streaming import (
            settle_reduce_window,
            settle_sum_window,
        )

        keys, values = sum_workload(1_200, num_keys=60, seed=70)
        chunks = [(keys[:600], values[:600]), (keys[600:], values[600:])]
        policy = AdaptiveCheckPolicy()
        _, _, batch, _ = checked_reduce_by_key(
            None, keys, values, STRONG, seed=71, policy=policy
        )
        results = [batch]
        for window_policy in (policy, None):
            _, verdict, *_ = settle_reduce_window(
                None, chunks, config=STRONG, seed_w=72, window=0,
                policy=window_policy,
            )
            results.append(verdict)
        _, verdict, *_ = settle_sum_window(
            None, [v for _, v in chunks], config=STRONG, seed_w=73,
            window=0, policy=policy,
        )
        results.append(verdict)
        assert all(result.accepted for result in results)
        assert results[2].checker == "sum-aggregation"
        assert results[2].details == {
            "config": STRONG.label(), "streaming": True
        }

    def test_rejected_window_condenses_once_for_escalation_and_localization(
        self, monkeypatch
    ):
        from repro.dataflow.repair import RepairPolicy
        from repro.dataflow.streaming import settle_reduce_window

        keys, values = sum_workload(1_200, num_keys=60, seed=74)
        chunks = [(keys[:600], values[:600]), (keys[600:], values[600:])]

        def fault(window, k, v):
            v = v.copy()
            v[0] += 1
            return k, v

        events = _record_condense_and_verdicts(
            monkeypatch, [pipeline_mod, localize_mod]
        )
        _, verdict, _, record, _ = settle_reduce_window(
            None, chunks, config=STRONG, seed_w=75, window=0,
            policy=AdaptiveCheckPolicy(), fault=fault,
            reexecute=lambda window, ranges: chunks,
            repair=RepairPolicy(max_attempts=1),
        )
        assert not verdict.accepted
        assert record.escalated and record.report.localized
        # Localization reuses the sides the escalation condensed.
        assert events[:4] == ["verdict", "condense", "condense", "verdict"]
        assert events.count("condense") == 2
