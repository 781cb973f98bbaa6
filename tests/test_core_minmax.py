"""Tests for the deterministic min/max checker (§6.2, Theorem 9)."""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.minmax_checker import check_max_aggregation, check_min_aggregation


def _kv():
    keys = np.array([1, 1, 2, 2, 3, 3, 3], dtype=np.uint64)
    values = np.array([5, 3, 8, 2, 7, 9, 7], dtype=np.int64)
    return keys, values


class TestMinSequential:
    def test_accepts_correct(self):
        keys, values = _kv()
        result = check_min_aggregation(
            (keys, values),
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([3, 2, 7], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        )
        assert result.accepted
        assert result.details["deterministic"]

    def test_rejects_min_too_small(self):
        """Asserted min below every element: property (b) fails."""
        keys, values = _kv()
        assert not check_min_aggregation(
            (keys, values),
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([1, 2, 7], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        ).accepted

    def test_rejects_min_too_large(self):
        """Asserted min above a real element: property (a) fails."""
        keys, values = _kv()
        assert not check_min_aggregation(
            (keys, values),
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([5, 2, 7], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        ).accepted

    def test_rejects_forgotten_key(self):
        keys, values = _kv()
        assert not check_min_aggregation(
            (keys, values),
            np.array([1, 2], dtype=np.uint64),
            np.array([3, 2], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
        ).accepted

    def test_rejects_invented_key(self):
        keys, values = _kv()
        assert not check_min_aggregation(
            (keys, values),
            np.array([1, 2, 3, 4], dtype=np.uint64),
            np.array([3, 2, 7, 1], dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        ).accepted

    def test_rejects_owner_out_of_range(self):
        keys, values = _kv()
        assert not check_min_aggregation(
            (keys, values),
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([3, 2, 7], dtype=np.int64),
            np.array([0, 0, 5], dtype=np.int64),  # PE 5 does not exist (p=1)
        ).accepted

    def test_rejects_duplicate_result_keys(self):
        keys, values = _kv()
        assert not check_min_aggregation(
            (keys, values),
            np.array([1, 1, 2, 3], dtype=np.uint64),
            np.array([3, 3, 2, 7], dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        ).accepted

    def test_empty_input_empty_result(self):
        empty_k = np.zeros(0, dtype=np.uint64)
        empty_v = np.zeros(0, dtype=np.int64)
        assert check_min_aggregation(
            (empty_k, empty_v), empty_k, empty_v, empty_v
        ).accepted

    def test_never_accepts_any_wrong_value_exhaustive(self):
        """Determinism: every possible wrong min is rejected (no δ)."""
        keys = np.array([7, 7, 7], dtype=np.uint64)
        values = np.array([4, 6, 9], dtype=np.int64)
        for claimed in range(0, 12):
            result = check_min_aggregation(
                (keys, values),
                np.array([7], dtype=np.uint64),
                np.array([claimed], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
            )
            assert result.accepted == (claimed == 4)


class TestMax:
    def test_accepts_correct(self):
        keys, values = _kv()
        assert check_max_aggregation(
            (keys, values),
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([5, 8, 9], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        ).accepted

    def test_rejects_wrong(self):
        keys, values = _kv()
        assert not check_max_aggregation(
            (keys, values),
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([5, 8, 8], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        ).accepted


class TestMinDistributed:
    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_accept_and_ownership(self, p):
        from repro.dataflow.ops.aggregates import min_by_key
        from repro.workloads.kv import sum_workload

        keys, values = sum_workload(1_000, num_keys=40, seed=5)
        ctx = Context(p)

        def run(comm, k, v):
            res = min_by_key(comm, k, v)
            return check_min_aggregation(
                (k, v), res.keys, res.values, res.owners, comm=comm, seed=1
            ).accepted

        verdicts = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        assert verdicts == [True] * p

    def test_distributed_detects_wrong_owner(self):
        """Certificate pointing at a PE that lacks the minimum: reject."""
        ctx = Context(2)
        # PE0 holds (1, 5); PE1 holds (1, 3).  True min 3 is at PE1.
        chunks = [
            (np.array([1], dtype=np.uint64), np.array([5], dtype=np.int64)),
            (np.array([1], dtype=np.uint64), np.array([3], dtype=np.int64)),
        ]

        def run(comm, k, v):
            return check_min_aggregation(
                (k, v),
                np.array([1], dtype=np.uint64),
                np.array([3], dtype=np.int64),
                np.array([0], dtype=np.int64),  # wrong owner: PE0
                comm=comm,
                seed=1,
            ).accepted

        verdicts = ctx.run(run, per_rank_args=chunks)
        assert verdicts == [False] * 2

    def test_distributed_detects_inconsistent_replicas(self):
        """Result integrity (§2): PEs holding different copies must reject."""
        ctx = Context(2)
        chunks = [
            (np.array([1], dtype=np.uint64), np.array([3], dtype=np.int64)),
            (np.array([1], dtype=np.uint64), np.array([3], dtype=np.int64)),
        ]

        def run(comm, k, v):
            claimed = 3 if comm.rank == 0 else 2  # divergent replicas
            return check_min_aggregation(
                (k, v),
                np.array([1], dtype=np.uint64),
                np.array([claimed], dtype=np.int64),
                np.array([0], dtype=np.int64),
                comm=comm,
                seed=1,
            ).accepted

        verdicts = ctx.run(run, per_rank_args=chunks)
        assert verdicts == [False] * 2


_I64 = np.iinfo(np.int64)
_EMPTY = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))


def _kv_chunk(keys, values):
    return np.array(keys, dtype=np.uint64), np.array(values, dtype=np.int64)


def _verdicts(chunks, check):
    """``check(comm, k, v).accepted`` on one PE per ``(keys, values)``."""
    ctx = Context(len(chunks))
    return ctx.run(
        lambda comm, k, v: check(comm, k, v).accepted, per_rank_args=chunks
    )


class TestInt64Extremes:
    """Maxima map onto minima by ``~v``; negation wrapped at int64 min."""

    # PE 0 holds int64 min, the last PE the maximum 0; at p = 3 the
    # middle PE holds nothing.
    CHUNKS = {
        2: [_kv_chunk([7], [_I64.min]), _kv_chunk([7], [0])],
        3: [_kv_chunk([7], [_I64.min]), _EMPTY, _kv_chunk([7], [0])],
    }

    @staticmethod
    def _max(comm, k, v, claimed):
        return check_max_aggregation(
            (k, v),
            np.array([7], dtype=np.uint64),
            np.array([claimed], dtype=np.int64),
            np.array([0 if comm is None else comm.size - 1], dtype=np.int64),
            comm=comm,
        )

    def test_max_with_int64_min_sequential(self):
        k, v = _kv_chunk([7, 7], [_I64.min, 0])
        assert self._max(None, k, v, 0).accepted
        assert not self._max(None, k, v, _I64.min).accepted

    @pytest.mark.parametrize("p", [2, 3])
    def test_max_with_int64_min_distributed(self, p):
        for claimed, want in ((0, True), (_I64.min, False)):
            verdicts = _verdicts(
                self.CHUNKS[p],
                lambda comm, k, v: self._max(comm, k, v, claimed),
            )
            assert verdicts == [want] * p, claimed

    def test_min_with_int64_extremes(self):
        k, v = _kv_chunk([7, 7], [_I64.max, _I64.min])
        for claimed in (_I64.min, _I64.max):
            result = check_min_aggregation(
                (k, v),
                np.array([7], dtype=np.uint64),
                np.array([claimed], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
            )
            assert result.accepted == (claimed == _I64.min)


class TestInventedKeyAtSentinel:
    """A result key no PE holds is rejected whatever value it asserts."""

    # Key 1 (min 3, max 5) sits on PE 0, key 2 (8) on PE 1; at p = 3 the
    # last PE holds nothing.  The invented key 99 goes to the last PE.
    CHUNKS = {
        2: [_kv_chunk([1, 1], [5, 3]), _kv_chunk([2], [8])],
        3: [_kv_chunk([1, 1], [5, 3]), _kv_chunk([2], [8]), _EMPTY],
    }
    CASES = [
        (check_min_aggregation, [3, 8], _I64.max),
        (check_max_aggregation, [5, 8], _I64.min + 1),
        (check_max_aggregation, [5, 8], _I64.min),
    ]

    @staticmethod
    def _check(check, values, comm, k, v, invented=None):
        keys, owners = [1, 2], [0, 0 if comm is None else 1]
        if invented is not None:
            keys, values = keys + [99], values + [invented]
            owners = owners + [0 if comm is None else comm.size - 1]
        return check(
            (k, v),
            np.array(keys, dtype=np.uint64),
            np.array(values, dtype=np.int64),
            np.array(owners, dtype=np.int64),
            comm=comm,
        )

    @pytest.mark.parametrize("check, values, invented", CASES)
    def test_sequential(self, check, values, invented):
        k, v = _kv_chunk([1, 1, 2], [5, 3, 8])
        assert self._check(check, values, None, k, v).accepted
        assert not self._check(check, values, None, k, v, invented).accepted

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("check, values, invented", CASES)
    def test_distributed(self, p, check, values, invented):
        for extra, want in ((None, True), (invented, False)):
            verdicts = _verdicts(
                self.CHUNKS[p],
                lambda comm, k, v: self._check(check, values, comm, k, v, extra),
            )
            assert verdicts == [want] * p, extra
