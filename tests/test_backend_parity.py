"""Cross-backend parity suite (``pytest -m backends``).

Re-runs the distributed checker / streaming / localization / service
scenarios on the shared-memory process backend and asserts the verdicts,
healed windows, localization reports, and settled outputs are
*bit-identical* to the thread-mailbox oracle.  Everything here must stay
deterministic per rank (no cross-rank shared closures), because process
workers do not share memory with each other.
"""

import threading

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.localize import localize_fault
from repro.core.multiseed import MultiSeedSumChecker, condense_kv
from repro.core.params import SumCheckConfig
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.dataflow.pipeline import checked_reduce_by_key
from repro.dataflow.repair import RepairPolicy
from repro.dataflow.streaming import StreamingDIA, StreamingKeyValueDIA
from repro.service.daemon import CheckedStreamService, TenantCommGrid
from repro.service.tenant import TenantConfig
from repro.workloads.kv import sum_workload

pytestmark = pytest.mark.backends

BACKENDS = ("threads", "processes")
CONFIG = SumCheckConfig.parse("4x16 m15")
SEEDS = [3, 11, 27]


def kv_chunks(keys, values, size):
    return [
        (keys[i : i + size], values[i : i + size])
        for i in range(0, keys.size, size)
    ]


def _run_on(backend, p, job, per_rank_args):
    ctx = Context(p, backend=backend)
    return ctx.run(job, per_rank_args=per_rank_args)


def _record_tuple(rec):
    return (
        rec.window,
        rec.accepted,
        int(rec.seed),
        tuple(int(s) for s in rec.seeds_used),
        rec.quarantined,
        rec.verdict.accepted,
        rec.verdict.checker,
    )


def _report_tuple(r):
    return (
        r.localized,
        tuple((int(a), int(b)) for a, b in r.key_ranges),
        tuple(r.pes),
        int(r.suspect_keys),
        r.bisection_rounds,
        r.exhausted,
        tuple(
            tuple(tuple(j) for j in t) for t in r.guilty_buckets
        ),
    )


class TestDistributedCheckerParity:
    @pytest.mark.parametrize("p", [2, 4])
    def test_multiseed_verdicts_bit_identical(self, p):
        keys, values = sum_workload(2_000, num_keys=100, seed=7)
        out_k = np.unique(keys)
        out_v = np.array(
            [values[keys == k].sum() for k in out_k], dtype=np.int64
        )
        bad_v = out_v.copy()
        bad_v[0] += 3

        def job(comm, k, v, ok, ov):
            multi = MultiSeedSumChecker(CONFIG, SEEDS)
            res = multi.check_distributed_condensed(
                comm, condense_kv(k, v), condense_kv(ok, ov)
            )
            return res.accepted, res.details["per_seed_accepted"]

        ctx = Context(p)
        args = list(
            zip(
                ctx.split(keys),
                ctx.split(values),
                ctx.split(out_k),
                ctx.split(bad_v),
            )
        )
        runs = {b: _run_on(b, p, job, args) for b in BACKENDS}
        assert runs["processes"] == runs["threads"]
        assert not runs["threads"][0][0]  # the fault is detected

    @pytest.mark.parametrize("p", [2, 3])
    def test_localization_reports_bit_identical(self, p):
        keys, values = sum_workload(3_000, num_keys=150, seed=37)
        shares_k = np.array_split(keys, p)
        shares_v = np.array_split(values, p)

        def job(comm, k, v):
            out_k, out_v = reduce_by_key(comm, k, v)
            bad_v = out_v.copy()
            if comm.rank == 1 and bad_v.size:
                bad_v[0] += 4
            report = localize_fault(
                (k, v), (out_k, bad_v), CONFIG, seeds=2, comm=comm
            )
            return _report_tuple(report)

        args = list(zip(shares_k, shares_v))
        runs = {b: _run_on(b, p, job, args) for b in BACKENDS}
        assert runs["processes"] == runs["threads"]
        assert runs["threads"][0][0]  # localized


class TestBatchExchangeAtScale:
    """``checked_reduce_by_key`` exchanges frames of megabytes between
    PEs, far above the 256 KiB ring; on processes it used to deadlock
    until the transport timed out (at 10^5 pairs per PE)."""

    @pytest.mark.parametrize(
        "p, pairs", [(2, 500_000), (3, 200_000), (4, 200_000)]
    )
    def test_verdicts_match_threads(self, p, pairs):
        rng = np.random.default_rng(p)
        keys = rng.integers(0, 1 << 62, p * pairs).astype(np.uint64)
        values = rng.integers(1, 1 << 20, p * pairs)
        cfg = SumCheckConfig.parse("8x16 m15")

        def job(comm, k, v):
            out_k, out_v, verdict, _ = checked_reduce_by_key(
                comm, k, v, cfg, seed=5
            )
            return verdict.accepted, verdict.details, int(out_k.size)

        args = list(zip(np.array_split(keys, p), np.array_split(values, p)))
        runs = {b: _run_on(b, p, job, args) for b in BACKENDS}
        assert runs["processes"] == runs["threads"]
        assert all(accepted for accepted, _, _ in runs["threads"])


class TestStreamingParity:
    @pytest.mark.parametrize("p", [2, 4])
    def test_windowed_reduce_with_heal_bit_identical(self, p):
        keys, values = sum_workload(4_000, num_keys=120, seed=5)

        def job(comm, k, v):
            chunks = kv_chunks(k, v, 300)

            fired = {"done": False}

            def fault(window, fk, fv):
                # Deterministic *transient* fault: window 1's first
                # execution on rank 0 is corrupted, the repair path's
                # re-execution comes back clean and the window heals.
                # (Per-rank closure state is fork-safe: nothing here is
                # shared across ranks.)
                if window == 1 and comm.rank == 0 and fv.size and not fired["done"]:
                    fired["done"] = True
                    fv = fv.copy()
                    fv[0] += 7
                return fk, fv

            def reexecute(window, ranges):
                return chunks[2 * window : 2 * window + 2]

            run = StreamingKeyValueDIA.from_chunks(
                comm, chunks
            ).reduce_by_key_checked(
                CONFIG,
                seed=13,
                chunks_per_window=2,
                fault=fault,
                reexecute=reexecute,
                repair=RepairPolicy(max_attempts=2),
            )
            outputs = [
                (ok.tolist(), ov.tolist()) for ok, ov in run.outputs
            ]
            return (
                run.accepted,
                [_record_tuple(r) for r in run.window_history],
                outputs,
                len(run.quarantined),
            )

        ctx = Context(p)
        args = list(zip(ctx.split(keys), ctx.split(values)))
        runs = {b: _run_on(b, p, job, args) for b in BACKENDS}
        assert runs["processes"] == runs["threads"]
        accepted, records, _, quarantined = runs["threads"][0]
        assert accepted and quarantined == 0
        # Window 1 was actually faulted and healed (extra seeds used).
        assert len(records[1][3]) > 1

    @pytest.mark.parametrize("p", [2, 4])
    def test_windowed_sum_totals_bit_identical(self, p):
        rng = np.random.default_rng(31)
        data = rng.integers(0, 1 << 20, 4_096).astype(np.int64)

        def job(comm, share):
            chunks = [share[i : i + 256] for i in range(0, share.size, 256)]
            run = StreamingDIA.from_chunks(comm, chunks).sum_checked(
                CONFIG, seed=3, chunks_per_window=2
            )
            return run.accepted, [int(o) for o in run.outputs]

        ctx = Context(p)
        args = ctx.split(data)
        runs = {b: _run_on(b, p, job, args) for b in BACKENDS}
        assert runs["processes"] == runs["threads"]
        assert runs["threads"][0][0]


class TestServiceParity:
    def test_distributed_tenants_bit_identical_across_grid_backends(self):
        p = 2
        rng = np.random.default_rng(55)
        tenant_chunks = {
            r: [
                (
                    rng.integers(0, 40, 128).astype(np.uint64),
                    rng.integers(0, 1 << 20, 128).astype(np.int64),
                )
                for _ in range(4)
            ]
            for r in range(p)
        }

        def run_grid(backend):
            grid = TenantCommGrid(p, backend=backend)
            try:
                services = [
                    CheckedStreamService(comm_factory=grid.factory(r))
                    for r in range(p)
                ]
                handles = {
                    r: services[r].register(
                        "t",
                        TenantConfig(
                            op="reduce_by_key",
                            config=CONFIG,
                            seed=9,
                            chunks_per_window=2,
                        ),
                    )
                    for r in range(p)
                }
                for c in range(4):
                    for r in range(p):
                        handles[r].submit(tenant_chunks[r][c])
                for r in range(p):
                    handles[r].close()
                for svc in services:
                    assert svc.drain(timeout=120)
                out = {}
                for r in range(p):
                    res = handles[r].result()
                    out[r] = (
                        res.accepted,
                        [v.accepted for v in res.verdicts],
                        [
                            (ok.tolist(), ov.tolist())
                            for ok, ov in res.outputs
                        ],
                    )
                for svc in services:
                    svc.shutdown(timeout=10)
                return out
            finally:
                grid.close()

        runs = {b: run_grid(b) for b in BACKENDS}
        assert runs["processes"] == runs["threads"]
        assert runs["threads"][0][0]
