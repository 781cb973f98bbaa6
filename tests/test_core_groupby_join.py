"""Tests for the invasive GroupBy/Join redistribution checkers (Cor 14/15)."""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.groupby_checker import (
    check_groupby_redistribution,
    default_partitioner,
    encode_records,
)
from repro.core.join_checker import check_join_redistribution
from repro.workloads.kv import sum_workload


class TestEncodeRecords:
    def test_deterministic(self):
        k = np.array([1, 2], dtype=np.uint64)
        v = np.array([3, 4], dtype=np.int64)
        assert np.array_equal(encode_records(k, v), encode_records(k, v))

    def test_key_and_value_sensitivity(self):
        k = np.array([1], dtype=np.uint64)
        assert encode_records(k, np.array([3]))[0] != encode_records(
            k, np.array([4])
        )[0]
        assert encode_records(np.array([1], dtype=np.uint64), np.array([3]))[
            0
        ] != encode_records(np.array([2], dtype=np.uint64), np.array([3]))[0]

    def test_signed_and_unsigned_values_encode_alike(self):
        k = np.array([1, 2], dtype=np.uint64)
        v = np.array([-1, 5], dtype=np.int64)
        assert np.array_equal(
            encode_records(k, v), encode_records(k, v.view(np.uint64))
        )

    def test_no_collisions_on_small_domain(self):
        keys = np.repeat(np.arange(100, dtype=np.uint64), 100)
        values = np.tile(np.arange(100, dtype=np.int64), 100)
        assert len(np.unique(encode_records(keys, values))) == 10_000


class TestGroupByChecker:
    @pytest.mark.parametrize("p", [2, 4])
    def test_accepts_correct_exchange(self, p):
        from repro.dataflow.ops.group_by_key import group_by_key

        keys, values = sum_workload(2_000, num_keys=100, seed=1)
        ctx = Context(p)

        def run(comm, k, v):
            part = default_partitioner(comm.size)
            _, _, post = group_by_key(
                comm, k, v, partitioner=part, return_exchange=True
            )
            return check_groupby_redistribution(
                (k, v), post, part, comm=comm, seed=2
            ).accepted

        verdicts = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        assert verdicts == [True] * p

    def test_detects_lost_record(self):
        keys, values = sum_workload(2_000, num_keys=100, seed=1)
        ctx = Context(2)

        def run(comm, k, v):
            from repro.dataflow.ops.group_by_key import group_by_key

            part = default_partitioner(comm.size)
            _, _, (pk, pv) = group_by_key(
                comm, k, v, partitioner=part, return_exchange=True
            )
            if comm.rank == 0 and pk.size:
                pk, pv = pk[1:], pv[1:]  # drop a record in transit
            return check_groupby_redistribution(
                (k, v), (pk, pv), part, comm=comm, seed=2
            ).accepted

        verdicts = ctx.run(
            run,
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )
        assert verdicts == [False] * 2

    def test_detects_misrouted_record(self):
        """A record at the wrong PE violates placement even if the global
        multiset is intact."""
        ctx = Context(2)
        part = default_partitioner(2)
        all_keys = np.arange(100, dtype=np.uint64)
        dests = part(all_keys)
        k0, k1 = all_keys[dests == 0], all_keys[dests == 1]

        def run(comm, mine, stolen):
            pre = (mine if comm.rank == 0 else stolen, np.ones_like(mine if comm.rank == 0 else stolen, dtype=np.int64))
            # Swap one record between the PEs' post-exchange slices.
            if comm.rank == 0:
                post_k = np.concatenate([mine[:-1], stolen[:1]])
            else:
                post_k = np.concatenate([stolen[1:], mine[-1:]])
            post = (post_k, np.ones_like(post_k, dtype=np.int64))
            return check_groupby_redistribution(
                pre, post, part, comm=comm, seed=3
            ).accepted

        verdicts = ctx.run(run, per_rank_args=[(k0, k1), (k0, k1)])
        assert verdicts == [False] * 2

    def test_sequential_trivial(self):
        part = default_partitioner(1)
        k = np.arange(10, dtype=np.uint64)
        v = np.ones(10, dtype=np.int64)
        assert check_groupby_redistribution((k, v), (k, v), part).accepted


class TestJoinChecker:
    def _relations(self):
        rk = np.array([1, 2, 3, 4, 5] * 40, dtype=np.uint64)
        rv = np.arange(200, dtype=np.int64)
        sk = np.array([2, 3, 4] * 30, dtype=np.uint64)
        sv = np.arange(90, dtype=np.int64)
        return (rk, rv), (sk, sv)

    @pytest.mark.parametrize("p", [2, 4])
    def test_hash_mode_accepts(self, p):
        from repro.dataflow.ops.join import hash_join

        (rk, rv), (sk, sv) = self._relations()
        ctx = Context(p)

        def run(comm, a, b, c, d):
            part = default_partitioner(comm.size)
            jx = hash_join(comm, (a, b), (c, d), partitioner=part)
            return check_join_redistribution(
                (a, b), (c, d), jx.r_post, jx.s_post,
                mode="hash", partitioner=part, comm=comm, seed=4,
            ).accepted

        verdicts = ctx.run(
            run,
            per_rank_args=list(
                zip(ctx.split(rk), ctx.split(rv), ctx.split(sk), ctx.split(sv))
            ),
        )
        assert verdicts == [True] * p

    def test_hash_mode_detects_corrupted_relation(self):
        from repro.dataflow.ops.join import hash_join

        (rk, rv), (sk, sv) = self._relations()
        ctx = Context(2)

        def run(comm, a, b, c, d):
            part = default_partitioner(comm.size)
            jx = hash_join(comm, (a, b), (c, d), partitioner=part)
            r_post = jx.r_post
            if comm.rank == 0 and r_post[1].size:
                vals = r_post[1].copy()
                vals[0] += 1  # silent corruption in transit
                r_post = (r_post[0], vals)
            return check_join_redistribution(
                (a, b), (c, d), r_post, jx.s_post,
                mode="hash", partitioner=part, comm=comm, seed=4,
            ).accepted

        verdicts = ctx.run(
            run,
            per_rank_args=list(
                zip(ctx.split(rk), ctx.split(rv), ctx.split(sk), ctx.split(sv))
            ),
        )
        assert verdicts == [False] * 2

    def test_range_mode_accepts_range_partition(self):
        ctx = Context(2)
        keys = np.arange(100, dtype=np.uint64)
        vals = np.ones(100, dtype=np.int64)
        # Range partition: PE0 gets keys < 50, PE1 the rest.
        pre = [
            ((keys[::2], vals[::2]), (keys[1::2], vals[1::2])),
            ((keys[::2], vals[::2]), (keys[1::2], vals[1::2])),
        ]

        def run(comm, r_pre, s_pre):
            lo, hi = (0, 50) if comm.rank == 0 else (50, 100)
            r_post_k = r_pre[0][(r_pre[0] >= lo) & (r_pre[0] < hi)]
            s_post_k = s_pre[0][(s_pre[0] >= lo) & (s_pre[0] < hi)]
            # Pre slices differ per PE in reality; for this test each PE
            # holds half of each relation.
            my_r_pre = (r_pre[0][comm.rank::2], r_pre[1][comm.rank::2])
            my_s_pre = (s_pre[0][comm.rank::2], s_pre[1][comm.rank::2])
            return check_join_redistribution(
                my_r_pre, my_s_pre,
                (r_post_k, np.ones_like(r_post_k, dtype=np.int64)),
                (s_post_k, np.ones_like(s_post_k, dtype=np.int64)),
                mode="range", comm=comm, seed=5,
            ).accepted

        # Build pre-splits so that the union of pre == union of post.
        verdicts = ctx.run(run, per_rank_args=pre)
        assert verdicts == [True] * 2

    @pytest.mark.parametrize(
        "pe0, pe1",
        [
            # PE0 holds key 60 (belongs right of PE1's key 50).
            ([10, 60], [50]),
            # Cast to int64, PE0's key 2^63 would wrap below PE1's key 5.
            ([2**63], [5]),
        ],
        ids=["small", "above-int64"],
    )
    def test_range_mode_detects_boundary_violation(self, pe0, pe1):
        ctx = Context(2)

        def run(comm):
            post_k = np.array(pe0 if comm.rank == 0 else pe1, dtype=np.uint64)
            pre_k = post_k  # permutation holds; placement does not
            ones = np.ones_like(post_k, dtype=np.int64)
            return check_join_redistribution(
                (pre_k, ones), (pre_k[:0], ones[:0]),
                (post_k, ones), (post_k[:0], ones[:0]),
                mode="range", comm=comm, seed=6,
            ).accepted

        assert ctx.run(run) == [False] * 2

    def test_mode_validation(self):
        empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            check_join_redistribution(empty, empty, empty, empty, mode="fuzzy")
        with pytest.raises(ValueError):
            check_join_redistribution(empty, empty, empty, empty, mode="hash")


class TestFloatValuesRejected:
    """Cast to int64, record values 1.5 and 1.2 both encode as 1, so a
    changed value would pass the redistribution check; float values
    raise instead."""

    KEYS = np.arange(8, dtype=np.uint64)

    def _records(self, value):
        return self.KEYS, np.full(self.KEYS.size, value)

    def test_encode_records(self):
        with pytest.raises(TypeError, match="integer values"):
            encode_records(*self._records(1.5))

    def test_groupby(self):
        with pytest.raises(TypeError, match="integer values"):
            check_groupby_redistribution(
                self._records(1.5), self._records(1.2), default_partitioner(1)
            )

    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_join(self, mode):
        s = (self.KEYS, np.arange(self.KEYS.size, dtype=np.int64))
        with pytest.raises(TypeError, match="integer values"):
            check_join_redistribution(
                self._records(1.5), s, self._records(1.2), s,
                mode=mode, partitioner=default_partitioner(1),
            )
