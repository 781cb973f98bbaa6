"""Tests for window repair and quarantine (``repro.dataflow.repair``).

Properties under test: bounded retry with per-attempt seed escalation,
partial (localized-slice) patching that re-settles bit-identical to a
clean run, escalation to full recomputation when localization misleads,
permanent quarantine after the retry budget — and the streaming layer's
integration: a healed window replaces its output/verdict in place, a
quarantined window never stalls later windows, and the run's
:class:`CheckedRunStats` meter the whole trail.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.localize import localize_fault
from repro.core.params import SumCheckConfig
from repro.dataflow.pipeline import CheckedRunStats
from repro.dataflow.repair import (
    QuarantinedWindow,
    RepairPolicy,
    repair_reduce_window,
    repair_sum_window,
)
from repro.dataflow.streaming import (
    StreamingDIA,
    StreamingKeyValueDIA,
    window_seed,
)
from repro.util.rng import derive_seed_array
from repro.workloads.kv import aggregate_reference, sum_workload

CONFIG = SumCheckConfig.parse("8x16 m15")


def kv_chunks(keys, values, size):
    return [
        (keys[i : i + size], values[i : i + size])
        for i in range(0, keys.size, size)
    ]


class TestRepairPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RepairPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RepairPolicy(initial_seeds=0)
        with pytest.raises(ValueError):
            RepairPolicy(seed_cap=0)
        with pytest.raises(ValueError):
            RepairPolicy(seed_growth=0)
        with pytest.raises(ValueError):
            RepairPolicy(localization_seeds=0)

    def test_seed_escalation_capped(self):
        policy = RepairPolicy(
            max_attempts=5, initial_seeds=2, seed_growth=2, seed_cap=16
        )
        assert [policy.num_seeds(a) for a in range(5)] == [2, 4, 8, 16, 16]

    def test_attempt_seed_roots_fresh_and_distinct(self):
        policy = RepairPolicy()
        a0 = policy.attempt_seed_roots(99, 0)
        a1 = policy.attempt_seed_roots(99, 1)
        assert a0.size == policy.num_seeds(0)
        assert np.unique(a0).size == a0.size
        assert not np.intersect1d(a0, a1).size  # attempts never share seeds
        assert np.array_equal(a0, policy.attempt_seed_roots(99, 0))


class TestRepairReduceWindow:
    """Sequential (comm=None) repair of a single corrupted window."""

    def _window(self, seed=3):
        keys, values = sum_workload(2000, num_keys=90, seed=seed)
        clean = aggregate_reference(keys, values)
        return keys, values, clean

    def _corrupted(self, clean, at=30, delta=7):
        out_k, out_v = clean
        bad_v = out_v.copy()
        bad_v[at] += delta
        return out_k, bad_v

    def test_partial_patch_heals_bit_identical(self):
        keys, values, clean = self._window()
        bad = self._corrupted(clean)
        report = localize_fault((keys, values), bad, CONFIG, seeds=2)
        assert report.localized
        outcome = repair_reduce_window(
            None,
            4,
            window_seed=17,
            config=CONFIG,
            reexecute=lambda w, ranges: [(keys, values)],
            old_output=bad,
            policy=RepairPolicy(),
            report=report,
        )
        assert outcome.healed
        assert outcome.attempts == 1
        assert outcome.window == 4
        assert outcome.verdicts[-1].accepted
        assert outcome.verdicts[0].details["partial"] is True
        # The patched-and-resettled window equals the clean run exactly.
        assert np.array_equal(outcome.output[0], clean[0])
        assert np.array_equal(outcome.output[1], clean[1])

    def test_reexecute_sees_window_id_and_ranges(self):
        keys, values, clean = self._window(seed=5)
        bad = self._corrupted(clean, at=11)
        report = localize_fault((keys, values), bad, CONFIG, seeds=2)
        seen = []

        def reexecute(window_id, key_ranges):
            seen.append((window_id, list(key_ranges)))
            return [(keys, values)]

        repair_reduce_window(
            None, 8, 23, CONFIG, reexecute, bad, RepairPolicy(), report
        )
        assert seen[0][0] == 8
        assert seen[0][1] == report.key_ranges

    def test_no_report_recomputes_fully(self):
        keys, values, clean = self._window(seed=7)
        bad = self._corrupted(clean, at=2)
        outcome = repair_reduce_window(
            None,
            0,
            window_seed=9,
            config=CONFIG,
            reexecute=lambda w, ranges: [(keys, values)],
            old_output=bad,
            policy=RepairPolicy(),
            report=None,
        )
        assert outcome.healed
        assert outcome.verdicts[0].details["partial"] is False
        assert np.array_equal(outcome.output[1], clean[1])

    def test_misleading_report_falls_back_to_full_recompute(self):
        """Ranges that miss the fault fail the re-settle; the final
        attempt recomputes the window outright and heals."""
        keys, values, clean = self._window(seed=11)
        bad = self._corrupted(clean, at=50)
        wrong_key = int(clean[0][0])
        fake = localize_fault((keys, values), bad, CONFIG, seeds=2)
        fake.key_ranges = [(wrong_key, wrong_key)]  # misses index 50
        policy = RepairPolicy(max_attempts=2)
        outcome = repair_reduce_window(
            None,
            1,
            window_seed=31,
            config=CONFIG,
            reexecute=lambda w, ranges: [(keys, values)],
            old_output=bad,
            policy=policy,
            report=fake,
        )
        assert outcome.healed
        assert outcome.attempts == 2
        assert [v.accepted for v in outcome.verdicts] == [False, True]
        assert outcome.verdicts[0].details["partial"] is True
        assert outcome.verdicts[1].details["partial"] is False
        assert np.array_equal(outcome.output[1], clean[1])

    def test_retry_exhaustion_quarantines(self, monkeypatch):
        """A reduce that corrupts every re-execution exhausts the budget."""
        import repro.dataflow.repair as repair_mod

        keys, values, clean = self._window(seed=13)
        bad = self._corrupted(clean, at=8)
        real_reduce = repair_mod.reduce_by_key

        def lying_reduce(comm, k, v, partitioner=None):
            out_k, out_v = real_reduce(comm, k, v, partitioner)
            out_v = out_v.copy()
            out_v[0] += 1
            return out_k, out_v

        monkeypatch.setattr(repair_mod, "reduce_by_key", lying_reduce)
        policy = RepairPolicy(max_attempts=3)
        outcome = repair_reduce_window(
            None,
            6,
            window_seed=37,
            config=CONFIG,
            reexecute=lambda w, ranges: [(keys, values)],
            old_output=bad,
            policy=policy,
            report=None,
        )
        assert not outcome.healed
        assert outcome.attempts == 3
        assert outcome.output is None
        assert all(not v.accepted for v in outcome.verdicts)
        # Each attempt was judged under its escalated seed count.
        assert [v.details["num_seeds"] for v in outcome.verdicts] == [
            policy.num_seeds(a) for a in range(3)
        ]
        q = outcome.quarantine()
        assert isinstance(q, QuarantinedWindow)
        assert q.window == 6
        assert q.attempts == 3
        assert len(q.verdicts) == 3


class TestStreamingRepair:
    """reduce_by_key_checked with a reexecute callback: heal in place,
    or quarantine without stalling later windows."""

    def _stream(self, seed=11):
        keys, values = sum_workload(2000, num_keys=50, seed=seed)
        return keys, values, kv_chunks(keys, values, 250)

    def test_rejected_window_heals_in_place(self, monkeypatch):
        import repro.dataflow.streaming as streaming_mod

        keys, values, chunks = self._stream()
        clean = StreamingKeyValueDIA.from_chunks(
            None, chunks
        ).reduce_by_key_checked(CONFIG, seed=13, chunks_per_window=2)
        assert clean.accepted

        real_reduce = streaming_mod.reduce_by_key
        calls = {"n": 0}

        def lying_reduce(comm, k, v, partitioner=None):
            out_k, out_v = real_reduce(comm, k, v, partitioner)
            calls["n"] += 1
            if calls["n"] == 2 and out_v.size:  # corrupt window 1 only
                out_v = out_v.copy()
                out_v[0] += 1
            return out_k, out_v

        monkeypatch.setattr(streaming_mod, "reduce_by_key", lying_reduce)
        run = StreamingKeyValueDIA.from_chunks(
            None, chunks
        ).reduce_by_key_checked(
            CONFIG,
            seed=13,
            chunks_per_window=2,
            reexecute=lambda w, ranges: kv_chunks(keys, values, 250)[
                2 * w : 2 * (w + 1)
            ],
        )
        assert run.accepted  # healed: every final verdict accepts
        assert not run.quarantined
        for w, (out_k, out_v) in enumerate(run.outputs):
            assert np.array_equal(out_k, clean.outputs[w][0])
            assert np.array_equal(out_v, clean.outputs[w][1])
        assert run.stats.repaired_windows == 1
        assert run.stats.quarantined_windows == 0
        assert run.stats.localized
        assert run.stats.localization_seconds > 0.0

    def test_window_history_records_repair_trail(self, monkeypatch):
        import repro.dataflow.streaming as streaming_mod

        keys, values, chunks = self._stream(seed=17)
        real_reduce = streaming_mod.reduce_by_key
        calls = {"n": 0}

        def lying_reduce(comm, k, v, partitioner=None):
            out_k, out_v = real_reduce(comm, k, v, partitioner)
            calls["n"] += 1
            if calls["n"] == 2 and out_v.size:
                out_v = out_v.copy()
                out_v[0] += 1
            return out_k, out_v

        monkeypatch.setattr(streaming_mod, "reduce_by_key", lying_reduce)
        policy = RepairPolicy(localization_seeds=3)
        run = StreamingKeyValueDIA.from_chunks(
            None, chunks
        ).reduce_by_key_checked(
            CONFIG,
            seed=19,
            chunks_per_window=2,
            reexecute=lambda w, ranges: kv_chunks(keys, values, 250)[
                2 * w : 2 * (w + 1)
            ],
            repair=policy,
        )
        assert len(run.window_history) == len(run.verdicts) == 4
        healthy = [run.window_history[w] for w in (0, 2, 3)]
        assert all(
            rec.accepted and not rec.repaired and rec.report is None
            for rec in healthy
        )
        rec = run.window_history[1]
        assert rec.window == 1
        assert rec.repaired and rec.accepted and not rec.quarantined
        assert rec.repair_attempts == 1
        assert rec.report is not None and rec.report.localized
        assert rec.report.windows == [1]
        # seeds_used: primary + localization lanes + repair roots, in order.
        expected = 1 + policy.localization_seeds + policy.num_seeds(0)
        assert len(rec.seeds_used) == expected
        assert len(set(rec.seeds_used)) == expected

    def test_quarantine_does_not_stall_later_windows(self, monkeypatch):
        import repro.dataflow.repair as repair_mod
        import repro.dataflow.streaming as streaming_mod

        keys, values, chunks = self._stream(seed=23)
        real_reduce = streaming_mod.reduce_by_key
        calls = {"n": 0}

        def lying_stream_reduce(comm, k, v, partitioner=None):
            out_k, out_v = real_reduce(comm, k, v, partitioner)
            calls["n"] += 1
            if calls["n"] == 2 and out_v.size:
                out_v = out_v.copy()
                out_v[0] += 1
            return out_k, out_v

        def lying_repair_reduce(comm, k, v, partitioner=None):
            out_k, out_v = real_reduce(comm, k, v, partitioner)
            out_v = out_v.copy()
            out_v[0] += 1  # repair re-execution is just as broken
            return out_k, out_v

        monkeypatch.setattr(
            streaming_mod, "reduce_by_key", lying_stream_reduce
        )
        monkeypatch.setattr(repair_mod, "reduce_by_key", lying_repair_reduce)
        policy = RepairPolicy(max_attempts=2)
        run = StreamingKeyValueDIA.from_chunks(
            None, chunks
        ).reduce_by_key_checked(
            CONFIG,
            seed=29,
            chunks_per_window=2,
            reexecute=lambda w, ranges: kv_chunks(keys, values, 250)[
                2 * w : 2 * (w + 1)
            ],
            repair=policy,
        )
        assert not run.accepted
        # Every window settled; only window 1 stayed rejected.
        assert [v.accepted for v in run.verdicts] == [True, False, True, True]
        assert len(run.quarantined) == 1
        q = run.quarantined[0]
        assert q.window == 1
        assert q.attempts == 2
        assert run.window_history[1].quarantined
        assert not run.window_history[1].repaired
        assert run.stats.quarantined_windows == 1
        assert run.stats.repaired_windows == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_distributed_heal_matches_clean_run(self, p):
        keys, values = sum_workload(3000, num_keys=60, seed=31)
        shares = list(
            zip(np.array_split(keys, p), np.array_split(values, p))
        )

        def clean_job(comm, k, v):
            run = StreamingKeyValueDIA.from_chunks(
                comm, kv_chunks(k, v, 250)
            ).reduce_by_key_checked(CONFIG, seed=5, chunks_per_window=2)
            assert run.accepted
            return run.outputs

        clean_outputs = Context(p).run(clean_job, per_rank_args=shares)

        # Patch once, outside the SPMD job: every rank's thread shares
        # the module global, so per-thread patch/restore would race.
        import repro.dataflow.streaming as streaming_mod

        real_reduce = streaming_mod.reduce_by_key
        counts: dict[int, int] = {}

        def lying_reduce(c, kk, vv, partitioner=None):
            out_k, out_v = real_reduce(c, kk, vv, partitioner)
            n = counts.get(c.rank, 0) + 1
            counts[c.rank] = n
            if n == 2 and out_v.size:  # window 1, every rank
                out_v = out_v.copy()
                out_v[0] += 1
            return out_k, out_v

        def faulty_job(comm, k, v):
            chunks = kv_chunks(k, v, 250)
            run = StreamingKeyValueDIA.from_chunks(
                comm, chunks
            ).reduce_by_key_checked(
                CONFIG,
                seed=5,
                chunks_per_window=2,
                reexecute=lambda w, ranges: chunks[2 * w : 2 * (w + 1)],
            )
            assert run.accepted
            assert run.stats.repaired_windows == 1
            return run.outputs

        streaming_mod.reduce_by_key = lying_reduce
        try:
            healed_outputs = Context(p).run(faulty_job, per_rank_args=shares)
        finally:
            streaming_mod.reduce_by_key = real_reduce
        for rank in range(p):
            for (ck, cv), (hk, hv) in zip(
                clean_outputs[rank], healed_outputs[rank]
            ):
                assert np.array_equal(ck, hk)
                assert np.array_equal(cv, hv)


class TestRepairStats:
    def test_merge_accumulates_repair_fields(self):
        a = CheckedRunStats(
            operation_seconds=1.0,
            checker_seconds=0.5,
            windows=1,
            localized=True,
            bisection_rounds=7,
            localization_seconds=0.25,
            repaired_windows=1,
        )
        b = CheckedRunStats(
            operation_seconds=2.0,
            checker_seconds=0.5,
            windows=1,
            bisection_rounds=3,
            localization_seconds=0.05,
            quarantined_windows=1,
        )
        m = a.merge(b)
        assert m.localized  # sticky across windows
        assert m.bisection_rounds == 10
        assert m.localization_seconds == pytest.approx(0.3)
        assert m.repaired_windows == 1
        assert m.quarantined_windows == 1
        assert m.windows == 2

    def test_defaults_are_zero(self):
        s = CheckedRunStats(0.0, 0.0)
        assert not s.localized
        assert s.bisection_rounds == 0
        assert s.localization_seconds == 0.0
        assert s.repaired_windows == 0
        assert s.quarantined_windows == 0


class TestRepairRefusesWhatTheSettleRefuses:
    """A re-execution is read like the window it replaces: keys through
    ``_coerce_keys`` and values through ``_coerce_values``.  Cast, a sum
    repair healed a window of ``[0.9, 0.9]`` with total 0, and a reduce
    repair merged keys 1.5 and 1.7 into key 1."""

    def test_sum_repair_refuses_float_values(self):
        with pytest.raises(TypeError, match="integer values required"):
            repair_sum_window(
                None,
                window=0,
                window_seed=5,
                config=CONFIG,
                reexecute=lambda w, r: [np.array([0.9, 0.9])],
                policy=RepairPolicy(localize=False),
            )

    @pytest.mark.parametrize(
        "keys, values, match",
        [
            ([1.5, 1.7], [1, 2], "integer keys required"),
            ([1, 2], [0.5, 2.5], "integer values required"),
        ],
    )
    def test_reduce_repair_refuses_floats(self, keys, values, match):
        with pytest.raises(TypeError, match=match):
            repair_reduce_window(
                None,
                window=0,
                window_seed=5,
                config=CONFIG,
                reexecute=lambda w, r: [(np.array(keys), np.array(values))],
                old_output=(np.array([1], dtype=np.uint64), np.array([9])),
                policy=RepairPolicy(),
                report=None,
            )

    def test_streaming_window_reexecuted_as_floats_raises(self):
        chunks = [(np.array([1, 2]), np.array([3, 4]))] * 2

        def fault(window, keys, values):
            return keys, values + 1

        with pytest.raises(TypeError, match="integer keys required"):
            StreamingKeyValueDIA.from_chunks(None, chunks).reduce_by_key_checked(
                CONFIG,
                seed=3,
                chunks_per_window=2,
                reexecute=lambda w, r: [
                    (np.array([1.0, 2.0]), np.array([3, 4]))
                ],
                fault=fault,
            )


class TestSeedTrail:
    """``WindowRecord.seeds_used`` lists every root seed a window spent:
    its seed, then its localization seeds, then each repair attempt's
    roots, in that order."""

    def test_repaired_reduce_window(self, monkeypatch):
        import repro.dataflow.streaming as streaming_mod

        keys, values = sum_workload(2000, num_keys=50, seed=17)
        real_reduce = streaming_mod.reduce_by_key
        calls = {"n": 0}

        def lying_reduce(comm, k, v, partitioner=None):
            out_k, out_v = real_reduce(comm, k, v, partitioner)
            calls["n"] += 1
            if calls["n"] == 2 and out_v.size:
                out_v = out_v.copy()
                out_v[0] += 1
            return out_k, out_v

        monkeypatch.setattr(streaming_mod, "reduce_by_key", lying_reduce)
        policy = RepairPolicy(localization_seeds=3)
        run = StreamingKeyValueDIA.from_chunks(
            None, kv_chunks(keys, values, 250)
        ).reduce_by_key_checked(
            CONFIG,
            seed=19,
            chunks_per_window=2,
            reexecute=lambda w, ranges: kv_chunks(keys, values, 250)[
                2 * w : 2 * (w + 1)
            ],
            repair=policy,
        )
        rec = run.window_history[1]
        assert rec.repaired and rec.repair_attempts == 1
        seed_w = window_seed(19, 1)
        localization = derive_seed_array(
            seed_w,
            "localize",
            np.arange(policy.localization_seeds, dtype=np.uint64),
        )
        assert rec.seeds_used == [
            seed_w,
            *localization.tolist(),
            *policy.attempt_seed_roots(seed_w, 0).tolist(),
        ]
        assert run.window_history[0].seeds_used == [window_seed(19, 0)]

    @staticmethod
    def _attempt_trail(policy, seed_w):
        return [seed_w] + [
            int(s)
            for attempt in range(policy.max_attempts)
            for s in policy.attempt_seed_roots(seed_w, attempt)
        ]

    def test_quarantined_sum_window(self):
        policy = RepairPolicy(max_attempts=3)
        chunks = [np.array([1, 2]), np.array([3]), np.array([4, 5])]
        run = StreamingDIA.from_chunks(None, chunks).sum_checked(
            CONFIG,
            seed=23,
            chunks_per_window=2,
            reexecute=lambda w, r: chunks[2 * w : 2 * (w + 1)],
            repair=policy,
            fault=lambda w, values: values + (w == 1),
        )
        assert [rec.quarantined for rec in run.window_history] == [
            False,
            True,
        ]
        rec = run.window_history[1]
        assert rec.repair_attempts == policy.max_attempts
        assert rec.seeds_used == self._attempt_trail(
            policy, window_seed(23, 1)
        )

    def test_quarantined_zip_window(self):
        policy = RepairPolicy(max_attempts=2)
        first = [np.arange(4), np.arange(4, 8)]
        second = [np.arange(10, 14), np.arange(14, 18)]

        def fault(w, a, b):
            return (a + 1, b) if w == 0 else (a, b)

        run = StreamingDIA.from_chunks(None, first).zip_checked(
            StreamingDIA.from_chunks(None, second),
            seed=29,
            chunks_per_window=1,
            reexecute=lambda w, r: ([first[w]], [second[w]]),
            repair=policy,
            fault=fault,
        )
        assert [rec.quarantined for rec in run.window_history] == [
            True,
            False,
        ]
        rec = run.window_history[0]
        assert rec.repair_attempts == policy.max_attempts
        assert rec.seeds_used == self._attempt_trail(
            policy, window_seed(29, 0)
        )
