"""Tests for the streaming DIA layer: windowed checked operations.

Covers chunked sources (``from_chunks`` / ``from_generator``), windowed
settlement (one settle per window, PEs with ragged chunk counts stay in
lockstep), adaptive escalation over the window's condensed aggregates,
per-window stats accumulation, and the batched exchange-offset helpers.
"""

import time

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.params import SumCheckConfig
from repro.dataflow.exchange import Exchange, global_offsets
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.dataflow.ops.zip_op import zip_arrays
from repro.dataflow.pipeline import AdaptiveCheckPolicy, CheckedRunStats
from repro.dataflow.streaming import (
    StreamingDIA,
    StreamingKeyValueDIA,
    _WindowCheckers,
    settle_reduce_window,
    settle_sum_window,
    window_seed,
)
from repro.workloads.kv import aggregate_reference, sum_workload

CONFIG = SumCheckConfig.parse("8x16 m15")


def kv_chunks(keys, values, size):
    return [
        (keys[i : i + size], values[i : i + size])
        for i in range(0, keys.size, size)
    ]


def _plain(obj):
    """``obj`` with every timing field dropped, for record comparisons."""
    if isinstance(obj, dict):
        return {
            k: _plain(v) for k, v in obj.items() if not k.endswith("seconds")
        }
    if isinstance(obj, (list, tuple)):
        return type(obj)(_plain(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return {
            name: _plain(getattr(obj, name))
            for name in obj.__dataclass_fields__
            if not name.endswith("seconds")
        }
    return obj


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

    def test_block_derived_windows_match_per_window_settles(self):
        """130 windows open nine seed blocks (at windows 0, 1, 2, 4, …
        64, 128); window 64, the first of the 64-window block, is
        corrupted once (escalates, is localized and healed).  Every
        record equals the one a per-window ``settle_reduce_window`` call
        (which builds its own primary) produces."""
        keys, values = sum_workload(130 * 20, num_keys=60, seed=21)
        chunks = kv_chunks(keys, values, 20)
        policy = AdaptiveCheckPolicy(escalation_seeds=3)

        def make_fault():
            hit = set()

            def fault(window, k, v):
                if window == 64 and window not in hit:
                    hit.add(window)
                    v = v.copy()
                    v[0] += 1
                return k, v

            return fault

        def reexecute(w, ranges):
            return [chunks[w]]

        run = StreamingKeyValueDIA.from_chunks(
            None, chunks
        ).reduce_by_key_checked(
            CONFIG,
            seed=9,
            chunks_per_window=1,
            policy=policy,
            reexecute=reexecute,
            fault=make_fault(),
        )
        assert run.accepted and run.stats.windows == 130
        faulted = run.window_history[64]
        assert faulted.escalated and faulted.repaired
        assert [r.window for r in run.window_history if r.escalated] == [64]
        ref_fault = make_fault()
        for w, record in enumerate(run.window_history):
            output, _, _, ref, _ = settle_reduce_window(
                None,
                [chunks[w]],
                config=CONFIG,
                seed_w=window_seed(9, w),
                window=w,
                policy=policy,
                reexecute=reexecute,
                fault=ref_fault,
            )
            assert record.seed == window_seed(9, w)
            assert _plain(record) == _plain(ref), w
            assert np.array_equal(run.outputs[w][0], output[0])
            assert np.array_equal(run.outputs[w][1], output[1])

    def test_block_view_only_serves_its_own_seed_and_config(
        self, monkeypatch
    ):
        """A settle takes the block view only under the window seed and
        the checkers' config; any other seed (a daemon retry) or config
        builds its own primary.  Every primary folds under the settle's
        seed and config, and records match a settle without
        ``checkers``."""
        import repro.dataflow.streaming as streaming_mod

        real = streaming_mod._primary_tables
        folded = []

        def recording(primary, side):
            folded.append((primary.seeds.tolist(), primary.config))
            return real(primary, side)

        monkeypatch.setattr(streaming_mod, "_primary_tables", recording)
        keys, values = sum_workload(200, num_keys=20, seed=23)
        retry_seed = window_seed(4, 0) + 1
        for seed_w, config in (
            (window_seed(4, 0), CONFIG),
            (retry_seed, CONFIG),
            (window_seed(4, 0), SumCheckConfig.parse("4x16 m15")),
        ):
            folded.clear()
            ref = settle_reduce_window(
                None, [(keys, values)], config=config, seed_w=seed_w,
                window=0,
            )
            got = settle_reduce_window(
                None, [(keys, values)], config=config, seed_w=seed_w,
                window=0, checkers=_WindowCheckers(CONFIG, 4),
            )
            assert _plain(got[3]) == _plain(ref[3])
            ref = settle_sum_window(
                None, [values], config=config, seed_w=seed_w, window=0
            )
            got = settle_sum_window(
                None, [values], config=config, seed_w=seed_w, window=0,
                checkers=_WindowCheckers(CONFIG, 4),
            )
            assert _plain(got[3]) == _plain(ref[3])
            assert folded == [([seed_w], config)] * 4

    def test_block_derivation_is_charged_to_checker_seconds(
        self, monkeypatch
    ):
        import repro.dataflow.streaming as streaming_mod

        delay = 0.05
        real = streaming_mod.derive_seed_array
        blocks = []

        def slow_block(*args):
            blocks.append(args[2][0])
            time.sleep(delay)
            return real(*args)

        monkeypatch.setattr(streaming_mod, "derive_seed_array", slow_block)
        keys, values = sum_workload(70 * 4, num_keys=10, seed=25)
        run = StreamingKeyValueDIA.from_chunks(
            None, kv_chunks(keys, values, 4)
        ).reduce_by_key_checked(CONFIG, seed=1, chunks_per_window=1)
        # Blocks grow from one window to 64: a short stream derives at
        # most twice the windows it settles.
        assert run.accepted and blocks == [0, 1, 2, 4, 8, 16, 32, 64]
        assert run.stats.checker_seconds >= 8 * delay
        assert run.stats.operation_seconds < delay
        blocks.clear()
        run = StreamingDIA.from_chunks(
            None, [values[:4], values[4:8]]
        ).sum_checked(CONFIG, seed=1, chunks_per_window=1)
        assert run.accepted and blocks == [0, 1]
        assert run.stats.checker_seconds >= 2 * delay
        assert run.stats.operation_seconds < delay

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
    @pytest.mark.parametrize(
        "first_chunks, expected",
        [
            # Chunks of one dtype keep it.
            (
                [np.array([1, 2], np.int64), np.array([3], np.int64)],
                np.array([1, 2, 3], np.int64),
            ),
            (
                [np.array([1, 2], np.uint64), np.array([2**63 + 5], np.uint64)],
                np.array([1, 2, 2**63 + 5], np.uint64),
            ),
            # Mixed int64/uint64 chunks used to concatenate to float64:
            # 2**63 + 5 lost its low bits and a correct zip rejected, and
            # even exact values came back as floats.  They come back as
            # int64 when every value fits, else as uint64 words.
            (
                [np.array([1, 2], np.int64), np.array([2**63 + 5], np.uint64)],
                np.array([1, 2, 2**63 + 5], np.uint64),
            ),
            (
                [np.array([1, 2], np.int64), np.array([3], np.uint64)],
                np.array([1, 2, 3], np.int64),
            ),
            (
                [np.array([-1, 2], np.int64), np.array([3], np.uint64)],
                np.array([-1, 2, 3], np.int64),
            ),
            (
                [np.array([-1, 2], np.int64), np.array([2**63], np.uint64)],
                np.array([2**64 - 1, 2, 2**63], np.uint64),
            ),
        ],
        ids=[
            "int64",
            "uint64",
            "mixed-big",
            "mixed-small",
            "mixed-negative",
            "mixed-negative-big",
        ],
    )
    def test_mixed_dtype_chunks_zip_exactly(self, first_chunks, expected):
        second_chunks = [np.array([4, 5], np.int64), np.array([6], np.int64)]
        run = StreamingDIA.from_chunks(None, first_chunks).zip_checked(
            StreamingDIA.from_chunks(None, second_chunks),
            seed=41,
            chunks_per_window=2,
            policy=AdaptiveCheckPolicy(escalate_on="always"),
        )
        assert run.accepted
        assert run.verdicts[0].details["adaptive"]["per_seed_accepted"] == [
            True
        ] * AdaptiveCheckPolicy().num_escalation_seeds
        first, second = run.outputs[0]
        assert first.dtype == expected.dtype and second.dtype == np.int64
        assert first.tolist() == expected.tolist()
        assert second.tolist() == [4, 5, 6]

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
