"""Robustness tests for the multi-tenant checked streaming daemon.

Covers the degradation edges the service exists for: poison-chunk
isolation, queue-full shedding and pause backpressure, settlement
timeout → retry → quarantine, fatal-error containment, concurrency-safe
stats accumulation, and cross-tenant isolation under simulated comm
(a quarantined tenant never stalls a healthy tenant's windows).
"""

import threading
import time

import numpy as np
import pytest

from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.dataflow.pipeline import CheckedRunStats, StatsAccumulator
from repro.dataflow.repair import RepairPolicy
from repro.dataflow.streaming import settle_reduce_window, window_seed
from repro.service import (
    BACKPRESSURE_SHED,
    BackpressureTimeout,
    CheckedStreamService,
    TenantCommGrid,
    TenantConfig,
)
from repro.service.tenant import TenantStats
from repro.service.windows import ENGINES
from repro.util.rng import derive_seed

CONFIG = SumCheckConfig.parse("8x16 m15")


def sum_chunk(seed, n=64):
    return np.random.default_rng(seed).integers(0, 1 << 20, n).astype(np.int64)


class TestLifecycle:
    def test_unknown_op_rejected(self):
        svc = CheckedStreamService()
        with pytest.raises(ValueError, match="unknown op"):
            svc.register("t", TenantConfig(op="sort"))

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_non_positive_iterations_rejected(self, iterations):
        # Zero zip iterations would fail every settle and quarantine
        # every window; refuse the config up front instead.
        with pytest.raises(ValueError, match="iterations"):
            TenantConfig(op="zip", iterations=iterations)

    def test_duplicate_name_rejected(self):
        with CheckedStreamService() as svc:
            svc.register("t", TenantConfig(op="sum"))
            with pytest.raises(ValueError, match="already registered"):
                svc.register("t", TenantConfig(op="sum"))

    def test_submit_after_close_rejected(self):
        with CheckedStreamService() as svc:
            h = svc.register("t", TenantConfig(op="sum"))
            h.close()
            with pytest.raises(RuntimeError, match="closed"):
                h.submit(sum_chunk(0))

    def test_multi_tenant_outputs_match_ground_truth(self):
        with CheckedStreamService() as svc:
            handles = {}
            chunks = {}
            for t in range(4):
                name = f"t{t}"
                handles[name] = svc.register(
                    name,
                    TenantConfig(op="sum", config=CONFIG, seed=t,
                                 chunks_per_window=2),
                )
                chunks[name] = [sum_chunk(10 * t + c) for c in range(4)]
            for c in range(4):  # interleave across tenants
                for name, h in handles.items():
                    h.submit(chunks[name][c])
            for h in handles.values():
                h.close()
            assert svc.drain(timeout=60)
            for name, h in handles.items():
                res = h.result()
                assert res.accepted and res.error is None
                expected = [
                    int(np.sum(chunks[name][0]) + np.sum(chunks[name][1])),
                    int(np.sum(chunks[name][2]) + np.sum(chunks[name][3])),
                ]
                assert [int(o) for o in res.outputs] == expected
                view = res.stats
                assert view.windows_settled == 2
                assert view.success_rate == 1.0
                assert not view.degraded
            assert svc.run_stats().windows == 8


class TestPoisonIsolation:
    def test_poison_degrades_only_its_tenant(self):
        with CheckedStreamService() as svc:
            sick = svc.register(
                "sick", TenantConfig(op="sum", chunks_per_window=2)
            )
            healthy = svc.register(
                "healthy", TenantConfig(op="sum", chunks_per_window=2)
            )
            good = [sum_chunk(c) for c in range(4)]
            sick.submit(good[0])
            sick.submit("definitely not an array")  # poison
            sick.submit(np.array([[1, 2], [3, 4]]))  # wrong rank: poison
            sick.submit(good[1])
            for c in good:
                healthy.submit(c)
            sick.close()
            healthy.close()
            assert svc.drain(timeout=60)

            sick_res = sick.result()
            assert sick_res.error is None  # captured, not crashed
            assert len(sick_res.poisons) == 2
            assert sick_res.stats.poison_chunks == 2
            assert sick_res.stats.degraded
            # The valid chunks still settled (and accepted).
            assert [int(o) for o in sick_res.outputs] == [
                int(np.sum(good[0]) + np.sum(good[1]))
            ]
            assert sick_res.stats.windows_settled == 1
            assert all(v.accepted for v in sick_res.verdicts)

            healthy_res = healthy.result()
            assert healthy_res.accepted
            assert not healthy_res.stats.degraded
            assert healthy_res.stats.poison_chunks == 0

    def test_kv_poison_shapes(self):
        with CheckedStreamService() as svc:
            h = svc.register(
                "t", TenantConfig(op="reduce_by_key", chunks_per_window=1)
            )
            k = np.arange(8, dtype=np.uint64)
            h.submit((k, np.ones(7, dtype=np.int64)))  # length mismatch
            h.submit((k,))  # not a pair
            h.submit(
                (np.arange(8, dtype=np.float64), np.ones(8, dtype=np.int64))
            )  # float keys
            h.submit((k, np.ones(8, dtype=np.int64)))  # fine
            h.close()
            assert svc.drain(timeout=60)
            res = h.result()
            assert len(res.poisons) == 3
            assert res.stats.windows_settled == 1
            assert all(v.accepted for v in res.verdicts)


class _Gate:
    """Fault hook that blocks the first settle until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._first = True

    def __call__(self, window, values):
        if self._first:
            self._first = False
            self.entered.set()
            assert self.release.wait(timeout=30)
        return values


class TestBackpressure:
    def test_shed_records_dropped_chunks(self):
        gate = _Gate()
        with CheckedStreamService() as svc:
            h = svc.register(
                "t",
                TenantConfig(
                    op="sum",
                    chunks_per_window=1,
                    queue_capacity=2,
                    backpressure=BACKPRESSURE_SHED,
                    fault=gate,
                ),
            )
            assert h.submit(sum_chunk(0))  # worker takes it, blocks in settle
            assert gate.entered.wait(timeout=30)
            assert h.submit(sum_chunk(1))  # queue slot 1
            assert h.submit(sum_chunk(2))  # queue slot 2
            assert not h.submit(sum_chunk(3))  # full: shed
            assert not h.submit(sum_chunk(4))  # full: shed
            gate.release.set()
            h.close()
            assert svc.drain(timeout=60)
            view = h.stats()
            assert view.chunks_submitted == 5
            assert view.chunks_shed == 2
            assert view.elements_shed == 2 * 64
            assert view.chunks_ingested == 3
            assert view.windows_settled == 3
            assert h.result().accepted

    def test_pause_blocks_then_times_out(self):
        gate = _Gate()
        with CheckedStreamService() as svc:
            h = svc.register(
                "t",
                TenantConfig(
                    op="sum",
                    chunks_per_window=1,
                    queue_capacity=1,
                    fault=gate,
                ),
            )
            h.submit(sum_chunk(0))
            assert gate.entered.wait(timeout=30)
            h.submit(sum_chunk(1))  # fills the single slot
            with pytest.raises(BackpressureTimeout):
                h.submit(sum_chunk(2), timeout=0.05)
            gate.release.set()
            h.close()
            assert svc.drain(timeout=60)
            assert h.stats().windows_settled == 2
            assert h.result().accepted


class TestSettleRetry:
    def test_timeout_retries_then_quarantines(self):
        with CheckedStreamService() as svc:
            h = svc.register(
                "t",
                TenantConfig(
                    op="sum",
                    chunks_per_window=2,
                    settle_timeout=0.0,  # every attempt overruns
                    settle_retries=2,
                    retry_backoff=0.001,
                ),
            )
            other = svc.register("other", TenantConfig(op="sum"))
            for c in range(2):
                h.submit(sum_chunk(c))
                other.submit(sum_chunk(c))
            h.close()
            other.close()
            assert svc.drain(timeout=60)

            res = h.result()
            assert res.error is None  # quarantined, not crashed
            view = res.stats
            assert view.windows_settled == 1
            assert view.windows_quarantined == 1
            assert view.settle_retries == 2
            assert view.settle_failures == 1
            assert view.degraded
            assert len(res.quarantined) == 1
            assert res.verdicts[0].checker == "service-settle-failure"
            assert "budget" in res.verdicts[0].details["error"]
            # The daemon and its other tenants are unaffected.
            assert other.result().accepted

    def test_ragged_zip_output_rejects_without_retry(self):
        """A zip op that drops an element of ``first`` asserts a ragged
        output: the settle rejects the window instead of raising into
        the retry loop and quarantining it as a settle failure."""

        def drop(window, first, second):
            if window == 1:
                first = first[:-1]
            return first, second

        chunks = [(sum_chunk(c), sum_chunk(100 + c)) for c in range(6)]
        with CheckedStreamService() as svc:
            h = svc.register(
                "z", TenantConfig(op="zip", chunks_per_window=2, fault=drop)
            )
            for chunk in chunks:
                h.submit(chunk)
            h.close()
            assert svc.drain(timeout=60)
            res = h.result()
        assert [v.accepted for v in res.verdicts] == [True, False, True]
        assert not res.verdicts[1].details["length_ok"]
        view = res.stats
        assert view.windows_rejected == 1 and view.windows_quarantined == 0
        assert view.settle_retries == 0 and view.settle_failures == 0
        assert not view.degraded

    def test_flaky_settle_retries_then_succeeds(self):
        svc = CheckedStreamService()
        h = svc.register(
            "t",
            TenantConfig(
                op="sum",
                chunks_per_window=2,
                settle_retries=2,
                retry_backoff=0.001,
            ),
        )
        tenant = svc._get("t")
        real_settle = tenant.engine.settle_window
        calls = {"n": 0}

        def flaky(comm, window, seed_w, chunks):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient settle hiccup")
            return real_settle(comm, window, seed_w, chunks)

        tenant.engine.settle_window = flaky
        chunks = [sum_chunk(c) for c in range(2)]
        for c in chunks:
            h.submit(c)
        h.close()
        assert svc.drain(timeout=60)
        res = h.result()
        assert res.accepted
        assert res.stats.settle_retries == 1
        assert res.stats.windows_quarantined == 0
        assert [int(o) for o in res.outputs] == [int(sum(np.sum(c) for c in chunks))]
        # Retried settle used a fresh derived seed, recorded in history.
        assert res.window_history[0].seed != window_seed(0, 0)
        svc.shutdown(timeout=10)

    def test_retry_across_seed_block_boundary(self, monkeypatch):
        """66 one-chunk windows; window 64 opens the tenant's first
        64-window seed block: attempt 0 settles on its block-derived
        primary, then fails after the settle, and the
        retry settles under a fresh seed with a primary it builds
        itself.  Every record and output equals a per-window
        ``settle_reduce_window`` call under the seed that settled it."""
        chunks = [
            (
                np.arange(8, dtype=np.uint64) * np.uint64(w + 1),
                np.full(8, w + 1, dtype=np.int64),
            )
            for w in range(66)
        ]
        svc = CheckedStreamService()
        h = svc.register(
            "t",
            TenantConfig(
                op="reduce_by_key",
                config=CONFIG,
                seed=3,
                chunks_per_window=1,
                settle_retries=2,
                retry_backoff=0.001,
            ),
        )
        real_difference = MultiSeedSumChecker.local_difference
        primaries = []

        def recording(primary, input_kv, asserted_kv):
            primaries.append(int(primary.seeds[0]))
            return real_difference(primary, input_kv, asserted_kv)

        monkeypatch.setattr(
            MultiSeedSumChecker, "local_difference", recording
        )
        tenant = svc._get("t")
        real_settle = tenant.engine.settle_window
        attempts = []

        def flaky(comm, window, seed_w, chunks):
            result = real_settle(comm, window, seed_w, chunks)
            attempts.append((window, seed_w))
            if (window, seed_w) == (64, window_seed(3, 64)):
                raise RuntimeError("transient post-settle hiccup")
            return result

        tenant.engine.settle_window = flaky
        for c in chunks:
            h.submit(c)
        h.close()
        assert svc.drain(timeout=60)
        res = h.result()
        assert res.accepted and res.stats.settle_retries == 1
        retry_seed = derive_seed(window_seed(3, 64), "settle-retry", 1)
        assert [s for w, s in attempts if w == 64] == [
            window_seed(3, 64),
            retry_seed,
        ]
        # Every attempt's primary folds under that attempt's seed.
        assert primaries == [s for _, s in attempts]
        assert len(res.window_history) == 66
        for w, record in enumerate(res.window_history):
            seed_w = retry_seed if w == 64 else window_seed(3, w)
            output, verdict, _, ref, _ = settle_reduce_window(
                None, [chunks[w]], config=CONFIG, seed_w=seed_w, window=w
            )
            assert record.seed == seed_w
            assert record.seeds_used == ref.seeds_used == [seed_w]
            assert record.verdict.accepted and verdict.accepted
            assert record.verdict.details == verdict.details
            assert np.array_equal(res.outputs[w][0], output[0])
            assert np.array_equal(res.outputs[w][1], output[1])
        svc.shutdown(timeout=10)

    def test_block_derivation_is_charged_to_checker_seconds(
        self, monkeypatch
    ):
        import repro.dataflow.streaming as streaming_mod

        delay = 0.05
        real = streaming_mod.derive_seed_array

        def slow_block(*args):
            time.sleep(delay)
            return real(*args)

        monkeypatch.setattr(streaming_mod, "derive_seed_array", slow_block)
        with CheckedStreamService() as svc:
            h = svc.register(
                "t", TenantConfig(op="sum", config=CONFIG, chunks_per_window=1)
            )
            for c in range(3):
                h.submit(sum_chunk(c, n=4))
            h.close()
            assert svc.drain(timeout=60)
            assert h.result().accepted
            stats = svc.run_stats()
        assert stats.windows == 3
        assert stats.checker_seconds >= delay
        assert stats.operation_seconds < delay

    def test_fatal_worker_error_contained(self):
        svc = CheckedStreamService()
        h = svc.register(
            "t", TenantConfig(op="sum", chunks_per_window=1, queue_capacity=2)
        )
        other = svc.register("other", TenantConfig(op="sum"))
        tenant = svc._get("t")

        def exploding_validate(chunk):
            raise MemoryError("engine blew up")

        tenant.engine.validate = exploding_validate
        h.submit(sum_chunk(0))
        # Producer keeps submitting after the worker died; the drain loop
        # must keep consuming so pause-mode producers never deadlock.
        for c in range(1, 6):
            h.submit(sum_chunk(c), timeout=10)
        other.submit(sum_chunk(9))
        h.close()
        other.close()
        assert svc.drain(timeout=60)
        res = h.result()
        assert res.error is not None and "MemoryError" in res.error
        assert res.stats.degraded
        assert other.result().accepted  # daemon survives
        svc.shutdown(timeout=10)


class TestWindowSeeds:
    @pytest.mark.parametrize("op", sorted(ENGINES))
    def test_engines_read_window_seeds_from_blocks(self, op, monkeypatch):
        """Every engine, zip's included, reads attempt 0's seed from a
        seed block, and the seed is the window's scalar derivation."""
        import repro.dataflow.streaming as streaming_mod

        real = streaming_mod.derive_seed_array
        blocks = []

        def recording(*args):
            blocks.append(int(args[2][0]))
            return real(*args)

        monkeypatch.setattr(streaming_mod, "derive_seed_array", recording)
        engine = ENGINES[op](TenantConfig(op=op, seed=11))
        for w in (0, 1, 2, 63, 64, 65, 200, 3):
            assert engine.window_seed(w) == window_seed(11, w)
        # Windows 64 and 65 fall in the block opened at 63.
        assert blocks == [0, 1, 2, 63, 200, 3]

    @pytest.mark.parametrize("op", sorted(ENGINES))
    def test_non_integer_root_seed_refused(self, op):
        """A float root would reach the block derivation truncated (0.4
        and 0.6 both as 0); every engine refuses it, as ``window_seed``
        does, and so does registering such a tenant."""
        with pytest.raises(TypeError):
            ENGINES[op](TenantConfig(op=op, seed=0.5))
        with CheckedStreamService() as svc:
            with pytest.raises(TypeError):
                svc.register("t", TenantConfig(op=op, seed=0.5))
            assert svc.register("t", TenantConfig(op=op, seed=np.uint64(5)))
        assert ENGINES[op](TenantConfig(op=op, seed=np.int64(7))).window_seed(
            2
        ) == window_seed(7, 2)


class TestStatsSnapshot:
    class _Record:
        accepted = True
        repaired = False
        quarantined = False

    def _settle(self, stats, latency):
        stats.record_window(
            self._Record(), CheckedRunStats(0.001, 0.002, windows=1), latency
        )

    def test_polls_share_the_latencies_until_a_settle(self):
        stats = TenantStats()
        self._settle(stats, 0.25)
        first = stats.snapshot()
        for write in (
            stats.mark_degraded,
            stats.record_submitted,
            lambda: stats.record_shed(3),
            lambda: stats.record_ingested(1, 64),
            stats.record_poison,
            stats.record_settle_retry,
            stats.record_settle_failure,
        ):
            before = stats.snapshot()
            write()
            after = stats.snapshot()
            # Every write shows in the next snapshot, and with no settle
            # in between the latencies are shared, not copied.
            assert after != before
            assert after.settle_latencies is first.settle_latencies
        self._settle(stats, 0.5)
        settled = stats.snapshot()
        assert settled.settle_latencies == (0.25, 0.5)
        assert first.settle_latencies == (0.25,)
        assert stats.snapshot().settle_latencies is settled.settle_latencies

    def test_earlier_snapshot_unchanged_by_later_windows(self):
        stats = TenantStats()
        self._settle(stats, 0.5)
        stats.record_ingested(2, 128)
        early = stats.snapshot()
        fields = early.as_dict()
        self._settle(stats, 0.75)
        stats.record_poison()
        assert early.as_dict() == fields
        assert early.settle_latencies == (0.5,)
        assert early.windows_settled == 1 and early.run.windows == 1
        late = stats.snapshot()
        assert late.settle_latencies == (0.5, 0.75)
        assert late.windows_settled == 2 and late.run.windows == 2
        assert late.poison_chunks == 1 and late.degraded

    def test_service_stats_polls_share_the_latencies(self):
        with CheckedStreamService() as svc:
            h = svc.register(
                "t", TenantConfig(op="sum", config=CONFIG, chunks_per_window=1)
            )
            h.submit(sum_chunk(0))
            h.close()
            assert svc.drain(timeout=60)
            first, second = h.stats(), h.stats()
            assert first == second and first.windows_settled == 1
            assert first.settle_latencies is second.settle_latencies


class TestStatsAccumulator:
    def test_concurrent_merge_hammer(self):
        """Cross-thread accounting is exact under the accumulator rule."""
        acc = StatsAccumulator()
        threads = 8
        per_thread = 500

        def hammer(tid):
            for i in range(per_thread):
                acc.add(
                    CheckedRunStats(
                        operation_seconds=1.0,
                        checker_seconds=2.0,
                        windows=1,
                        elements_fed=10,
                        repaired_windows=i % 2,
                    )
                )

        pool = [
            threading.Thread(target=hammer, args=(t,)) for t in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = acc.snapshot()
        assert total.windows == threads * per_thread
        assert total.elements_fed == threads * per_thread * 10
        assert total.operation_seconds == float(threads * per_thread)
        assert total.checker_seconds == float(2 * threads * per_thread)
        assert total.repaired_windows == threads * (per_thread // 2)


class TestDistributedIsolation:
    @pytest.mark.streaming
    def test_quarantined_tenant_never_stalls_healthy_tenant(self):
        """Two ranks, two tenants on private networks: one tenant's
        persistent fault (repair loop → quarantine) must not delay or
        corrupt the healthy tenant's windows on either rank."""
        p = 2
        grid = TenantCommGrid(p)
        services = [
            CheckedStreamService(comm_factory=grid.factory(r)) for r in range(p)
        ]
        rng = np.random.default_rng(77)
        victim_chunks = {
            r: [
                (
                    rng.integers(0, 40, 128).astype(np.uint64),
                    rng.integers(0, 1 << 20, 128).astype(np.int64),
                )
                for _ in range(4)
            ]
            for r in range(p)
        }
        healthy_chunks = {
            r: [sum_chunk(100 + 10 * r + c, 128) for c in range(4)]
            for r in range(p)
        }
        handles = {}
        for r, svc in enumerate(services):

            def persistent_fault(window, keys, values, _r=r):
                if _r == 0 and values.size:  # rank 0's op is broken for good
                    values = values.copy()
                    values[0] += 1
                return keys, values

            def reexec(window, ranges, _r=r):
                return list(victim_chunks[_r][2 * window : 2 * window + 2])

            handles[("victim", r)] = svc.register(
                "victim",
                TenantConfig(
                    op="reduce_by_key",
                    config=CONFIG,
                    seed=3,
                    chunks_per_window=2,
                    reexecute=reexec,
                    repair=RepairPolicy(max_attempts=2),
                    fault=persistent_fault,
                ),
            )
            handles[("healthy", r)] = svc.register(
                "healthy",
                TenantConfig(op="sum", config=CONFIG, seed=4,
                             chunks_per_window=2),
            )
        for c in range(4):
            for r in range(p):
                handles[("victim", r)].submit(victim_chunks[r][c])
                handles[("healthy", r)].submit(healthy_chunks[r][c])
        for key in handles:
            handles[key].close()
        t0 = time.perf_counter()
        for svc in services:
            assert svc.drain(timeout=120)
        elapsed = time.perf_counter() - t0

        for r in range(p):
            victim = handles[("victim", r)].result()
            assert victim.stats.windows_quarantined == 2
            assert victim.stats.degraded
            healthy = handles[("healthy", r)].result()
            assert healthy.accepted
            assert not healthy.stats.degraded
            expected = [
                int(
                    sum(
                        int(np.sum(healthy_chunks[rr][2 * w + i]))
                        for rr in range(p)
                        for i in range(2)
                    )
                )
                for w in range(2)
            ]
            assert [int(o) for o in healthy.outputs] == expected
        assert elapsed < 60.0
        for svc in services:
            svc.shutdown(timeout=10)
        grid.close()

    def test_settle_timeout_retries_in_lockstep_across_ranks(self):
        """Retry consensus: a settle-timeout on ONE rank makes every rank
        of the tenant retry together under the same derived seed.

        Rank 0 gets a tight ``settle_timeout`` and a transient slowdown in
        window 0; rank 1's budget is unbounded, so on its own it would
        never retry — the extra consensus allreduce is what forces it to.
        Before that allreduce existed, this configuration desynced the
        tenant's collectives (the docstring said to keep the timeout
        unbounded on distributed tenants)."""
        p = 2
        grid = TenantCommGrid(p)
        services = [
            CheckedStreamService(comm_factory=grid.factory(r)) for r in range(p)
        ]
        rng = np.random.default_rng(91)
        chunks = {
            r: [
                (
                    rng.integers(0, 30, 96).astype(np.uint64),
                    rng.integers(0, 1 << 16, 96).astype(np.int64),
                )
                for _ in range(4)
            ]
            for r in range(p)
        }
        slowed = {"done": False}

        def slow_once(window, keys, values):
            if window == 0 and not slowed["done"]:
                slowed["done"] = True
                time.sleep(0.2)
            return keys, values

        handles = {}
        for r, svc in enumerate(services):
            handles[r] = svc.register(
                "t",
                TenantConfig(
                    op="reduce_by_key",
                    config=CONFIG,
                    seed=5,
                    chunks_per_window=2,
                    settle_timeout=0.05 if r == 0 else None,
                    settle_retries=2,
                    retry_backoff=0.001,
                    fault=slow_once if r == 0 else None,
                ),
            )
        for c in range(4):
            for r in range(p):
                handles[r].submit(chunks[r][c])
        for r in range(p):
            handles[r].close()
        for svc in services:
            assert svc.drain(timeout=120)
        results = {r: handles[r].result() for r in range(p)}
        for r in range(p):
            assert results[r].accepted
            assert results[r].stats.windows_quarantined == 0
            # Both ranks retried exactly once — rank 1 only because the
            # consensus allreduce told it rank 0 timed out.
            assert results[r].stats.settle_retries == 1
        # The lockstep evidence: both ranks settled every window under
        # the same (retry-derived) seeds.  (Outputs are key-sharded per
        # rank, so they are disjoint by construction, not equal.)
        trails = [
            [
                (rec.window, int(rec.seed), tuple(int(s) for s in rec.seeds_used))
                for rec in results[r].window_history
            ]
            for r in range(p)
        ]
        assert trails[0] == trails[1]
        for svc in services:
            svc.shutdown(timeout=10)
        grid.close()
