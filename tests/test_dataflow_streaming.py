"""Tests for the streaming DIA layer: windowed checked operations.

Covers chunked sources (``from_chunks`` / ``from_generator``), windowed
settlement (one settle per window, PEs with ragged chunk counts stay in
lockstep), adaptive escalation over the window's condensed aggregates,
per-window stats accumulation, and the batched exchange-offset helpers.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.params import SumCheckConfig
from repro.dataflow.exchange import Exchange, global_offsets
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.dataflow.ops.zip_op import zip_arrays
from repro.dataflow.pipeline import AdaptiveCheckPolicy, CheckedRunStats
from repro.dataflow.streaming import StreamingDIA, StreamingKeyValueDIA
from repro.workloads.kv import aggregate_reference, sum_workload

CONFIG = SumCheckConfig.parse("8x16 m15")


def kv_chunks(keys, values, size):
    return [
        (keys[i : i + size], values[i : i + size])
        for i in range(0, keys.size, size)
    ]


class TestStreamingReduceByKey:
    @pytest.mark.parametrize("mixed_key_dtypes", [False, True])
    def test_sequential_windows_match_batch_reduce(self, mixed_key_dtypes):
        keys, values = sum_workload(3_000, num_keys=80, seed=1)
        chunks = kv_chunks(keys, values, 400)
        if mixed_key_dtypes:
            # Every window holds one int64-keyed and one uint64-keyed chunk.
            chunks = [
                (k.astype(np.int64) if i % 2 else k, v)
                for i, (k, v) in enumerate(chunks)
            ]
        run = StreamingKeyValueDIA.from_chunks(
            None, chunks
        ).reduce_by_key_checked(CONFIG, seed=3, chunks_per_window=2)
        assert run.accepted
        assert run.stats.windows == 4  # ceil(8 chunks / 2)
        assert run.stats.elements_fed == keys.size
        assert len(run.outputs) == len(run.verdicts) == 4
        # Window w's output is the exact reduce of window w's elements.
        for w, (out_k, out_v) in enumerate(run.outputs):
            lo, hi = w * 800, (w + 1) * 800
            ek, ev = aggregate_reference(keys[lo:hi], values[lo:hi])
            assert np.array_equal(out_k, ek)
            assert np.array_equal(out_v, ev)

    def test_from_generator_is_lazy(self):
        pulled = []

        def gen():
            for i in range(4):
                pulled.append(i)
                yield (
                    np.full(10, i, dtype=np.uint64),
                    np.ones(10, dtype=np.int64),
                )

        dia = StreamingKeyValueDIA.from_generator(None, gen)
        assert pulled == []  # nothing materialized up front
        run = dia.reduce_by_key_checked(CONFIG, chunks_per_window=2)
        assert pulled == [0, 1, 2, 3]
        assert run.accepted and run.stats.windows == 2

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_windows(self, p):
        keys, values = sum_workload(4_000, num_keys=120, seed=5)
        ctx = Context(p)

        def job(comm, k, v):
            run = StreamingKeyValueDIA.from_chunks(
                comm, kv_chunks(k, v, 300)
            ).reduce_by_key_checked(CONFIG, seed=7, chunks_per_window=2)
            return run.accepted, run.stats.windows, run.outputs

        outs = ctx.run(
            job, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        assert all(o[0] for o in outs)
        # Same window count everywhere (windows are a global construct).
        assert len({o[1] for o in outs}) == 1

    def test_ragged_chunk_counts_stay_in_lockstep(self):
        """A PE whose stream dries up early keeps joining settles."""
        keys, values = sum_workload(1_200, num_keys=40, seed=9)
        ctx = Context(2)

        def job(comm, k, v):
            # 6 chunks on PE 0 vs 2 on PE 1 → 3 global windows; PE 1 joins
            # windows 2 and 3 with empty feeds.
            size = 100 if comm.rank == 0 else 400
            run = StreamingKeyValueDIA.from_chunks(
                comm, kv_chunks(k, v, size)
            ).reduce_by_key_checked(CONFIG, seed=1, chunks_per_window=2)
            return run.accepted, run.stats.windows

        outs = ctx.run(
            job, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        assert outs == [(True, 3), (True, 3)]

    def test_fault_confined_to_its_window(self):
        """A corrupted window rejects; clean windows still accept."""
        keys, values = sum_workload(2_000, num_keys=50, seed=11)
        chunks = kv_chunks(keys, values, 250)

        class LyingDIA(StreamingKeyValueDIA):
            pass

        dia = LyingDIA.from_chunks(None, chunks)
        # Corrupt the operation inside window 1 by monkeypatching the
        # reduce the window body calls — simplest black-box fault.
        import repro.dataflow.streaming as streaming_mod

        real_reduce = streaming_mod.reduce_by_key
        calls = {"n": 0}

        def lying_reduce(comm, k, v, partitioner=None):
            out_k, out_v = real_reduce(comm, k, v, partitioner)
            calls["n"] += 1
            if calls["n"] == 2 and out_v.size:
                out_v = out_v.copy()
                out_v[0] += 1
            return out_k, out_v

        streaming_mod.reduce_by_key = lying_reduce
        try:
            run = dia.reduce_by_key_checked(
                CONFIG, seed=13, chunks_per_window=2
            )
        finally:
            streaming_mod.reduce_by_key = real_reduce
        accepted = [v.accepted for v in run.verdicts]
        assert accepted == [True, False, True, True]
        assert not run.accepted

    def test_adaptive_escalation_per_window(self):
        keys, values = sum_workload(1_000, num_keys=30, seed=15)
        policy = AdaptiveCheckPolicy(escalation_seeds=4, escalate_on="always")
        run = StreamingKeyValueDIA.from_chunks(
            None, kv_chunks(keys, values, 250)
        ).reduce_by_key_checked(
            CONFIG, seed=3, chunks_per_window=2, policy=policy
        )
        assert run.accepted
        assert run.stats.windows == 2
        assert run.stats.escalated
        assert run.stats.escalation_seeds == 8  # 4 seeds × 2 windows
        for v in run.verdicts:
            adaptive = v.details["adaptive"]
            assert adaptive["escalated"]
            assert adaptive["per_seed_accepted"] == [True] * 4

    def test_keep_outputs_false_drops_payloads(self):
        keys, values = sum_workload(600, num_keys=20, seed=17)
        run = StreamingKeyValueDIA.from_chunks(
            None, kv_chunks(keys, values, 100)
        ).reduce_by_key_checked(
            CONFIG, chunks_per_window=3, keep_outputs=False
        )
        assert run.accepted and run.outputs == []
        assert len(run.verdicts) == run.stats.windows == 2

    def test_count_by_key_checked(self):
        keys, values = sum_workload(800, num_keys=25, seed=19)
        run = StreamingKeyValueDIA.from_chunks(
            None, kv_chunks(keys, values, 200)
        ).count_by_key_checked(CONFIG, chunks_per_window=4)
        assert run.accepted and run.stats.windows == 1
        out_k, out_v = run.outputs[0]
        ek, ev = aggregate_reference(
            keys, np.ones(keys.size, dtype=np.int64)
        )
        assert np.array_equal(out_k, ek) and np.array_equal(out_v, ev)


class TestStreamingSum:
    @pytest.mark.parametrize("p", [1, 3])
    def test_windowed_totals(self, p):
        values = np.arange(1, 901, dtype=np.int64)
        ctx = Context(p)

        def job(comm, v):
            chunks = [v[i : i + 100] for i in range(0, v.size, 100)]
            run = StreamingDIA.from_chunks(comm, chunks).sum_checked(
                CONFIG, seed=23, chunks_per_window=3
            )
            return run.accepted, [int(t) for t in run.outputs]

        outs = ctx.run(job, per_rank_args=ctx.split(values))
        assert all(o[0] for o in outs)
        # Every PE reports identical per-window global totals that sum to
        # the grand total.
        totals = outs[0][1]
        assert all(o[1] == totals for o in outs)
        assert sum(totals) == int(values.sum())


class TestStreamingZip:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_windowed_zip_accepts(self, p):
        a = np.arange(1_200, dtype=np.uint64)
        b = np.arange(1_200, dtype=np.uint64) * np.uint64(3)
        ctx = Context(p)

        def job(comm, x, y):
            s1 = StreamingDIA.from_chunks(
                comm, [x[i : i + 100] for i in range(0, x.size, 100)]
            )
            s2 = StreamingDIA.from_chunks(
                comm, [y[i : i + 100] for i in range(0, y.size, 100)]
            )
            run = s1.zip_checked(s2, seed=29, chunks_per_window=2)
            firsts = np.concatenate([f for f, _ in run.outputs])
            seconds = np.concatenate([s for _, s in run.outputs])
            return run.accepted, run.stats.windows, firsts, seconds

        outs = ctx.run(job, per_rank_args=list(zip(ctx.split(a), ctx.split(b))))
        assert all(o[0] for o in outs)
        got_first = np.concatenate([o[2] for o in outs])
        got_second = np.concatenate([o[3] for o in outs])
        # Window-by-window zip preserves index alignment overall.
        assert np.array_equal(np.sort(got_first), a)
        assert np.array_equal(got_second, got_first * np.uint64(3))

    def test_zip_detects_misaligned_output(self):
        a = np.arange(200, dtype=np.uint64)
        b = np.arange(200, dtype=np.uint64) + np.uint64(7)

        import repro.dataflow.streaming as streaming_mod

        real_zip = streaming_mod.zip_arrays

        def lying_zip(comm, s1, s2, return_offsets=False):
            first, second, offs = real_zip(comm, s1, s2, return_offsets=True)
            second = second.copy()
            if second.size:
                second[0] += np.uint64(1)
            return first, second, offs

        streaming_mod.zip_arrays = lying_zip
        try:
            run = StreamingDIA.from_chunks(
                None, [a[:100], a[100:]]
            ).zip_checked(
                StreamingDIA.from_chunks(None, [b[:100], b[100:]]),
                seed=31,
                chunks_per_window=4,
            )
        finally:
            streaming_mod.zip_arrays = real_zip
        assert not run.accepted

    def test_zip_adaptive_escalates_on_reject(self):
        a = np.arange(150, dtype=np.uint64)
        b = np.arange(150, dtype=np.uint64)

        import repro.dataflow.streaming as streaming_mod

        real_zip = streaming_mod.zip_arrays

        def lying_zip(comm, s1, s2, return_offsets=False):
            first, second, offs = real_zip(comm, s1, s2, return_offsets=True)
            second = second.copy()
            second[3] += np.uint64(9)
            return first, second, offs

        streaming_mod.zip_arrays = lying_zip
        try:
            run = StreamingDIA.from_chunks(None, [a]).zip_checked(
                StreamingDIA.from_chunks(None, [b]),
                seed=37,
                chunks_per_window=1,
                policy=AdaptiveCheckPolicy(escalation_seeds=3),
            )
        finally:
            streaming_mod.zip_arrays = real_zip
        assert not run.accepted
        adaptive = run.verdicts[0].details["adaptive"]
        assert adaptive["escalated"]
        # A true data error: every escalation seed rejects too.
        assert adaptive["per_seed_accepted"] == [False] * 3
        assert run.stats.escalation_seeds == 3


class TestCheckedRunStatsMerge:
    def test_merge_accumulates(self):
        a = CheckedRunStats(1.0, 0.5, windows=1, elements_fed=100)
        b = CheckedRunStats(
            2.0,
            0.25,
            escalated=True,
            escalation_seconds=0.25,
            escalation_seeds=8,
            windows=1,
            elements_fed=50,
        )
        m = a.merge(b)
        assert m.operation_seconds == 3.0
        assert m.checker_seconds == 0.75
        assert m.escalated and m.escalation_seconds == 0.25
        assert m.escalation_seeds == 8
        assert m.windows == 2 and m.elements_fed == 150
        assert m.total_seconds == 4.0
        assert m.overhead_ratio == pytest.approx(4.0 / 3.0)

    def test_accumulated_classmethod(self):
        stats = [
            CheckedRunStats(1.0, 1.0, windows=1, elements_fed=10)
            for _ in range(3)
        ]
        total = CheckedRunStats.accumulated(stats)
        assert total.windows == 3 and total.elements_fed == 30
        assert total.overhead_ratio == pytest.approx(2.0)


class TestExchangeOffsets:
    def test_global_offsets_matches_per_column(self):
        ctx = Context(4)

        def job(comm):
            counts = (comm.rank + 1, 10 * (comm.rank + 1), 7)
            return global_offsets(comm, *counts)

        outs = ctx.run(job)
        assert outs == [
            (0, 0, 0),
            (1, 10, 7),
            (3, 30, 14),
            (6, 60, 21),
        ]

    def test_sequential_offsets_zero(self):
        assert global_offsets(None, 5, 9) == (0, 0)

    def test_exchange_handle(self):
        ctx = Context(2)

        def job(comm):
            ex = Exchange(comm)
            off = ex.offsets(comm.rank + 1)
            dests = np.zeros(comm.rank + 1, dtype=np.int64)
            (got,) = ex.route(dests, np.full(comm.rank + 1, comm.rank))
            return off, got if comm.rank == 0 else None

        outs = ctx.run(job)
        assert outs[0][0] == (0,) and outs[1][0] == (1,)
        assert np.array_equal(np.sort(outs[0][1]), [0, 1, 1])

    @pytest.mark.parametrize("p", [2, 4])
    def test_zip_arrays_offsets(self, p):
        a = np.arange(40)
        b = np.arange(40) * 2
        ctx = Context(p)

        def job(comm, x, y):
            first, second, (off1, off2) = zip_arrays(
                comm, x, y, return_offsets=True
            )
            plain = zip_arrays(comm, x, y)
            return (
                np.array_equal(first, plain[0])
                and np.array_equal(second, plain[1]),
                off1,
                int(x.size),
            )

        outs = ctx.run(
            job, per_rank_args=list(zip(ctx.split(a), ctx.split(b)))
        )
        assert all(o[0] for o in outs)
        # Offsets are the exclusive prefix sums of local sizes.
        acc = 0
        for same, off1, size in outs:
            assert off1 == acc
            acc += size
