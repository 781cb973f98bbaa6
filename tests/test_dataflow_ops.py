"""Tests for the mini-Thrill dataflow operations."""

import numpy as np
import pytest

from repro.comm.context import Context, SPMDError
from repro.core.groupby_checker import default_partitioner
from repro.dataflow.exchange import exchange_by_destination, global_offset
from repro.dataflow.ops.group_by_key import group_by_key
from repro.dataflow.ops.join import hash_join
from repro.dataflow.ops.merge import merge_sorted
from repro.dataflow.ops.reduce_by_key import local_aggregate, reduce_by_key
from repro.dataflow.ops.sort import sample_sort
from repro.dataflow.ops.union import union_arrays
from repro.dataflow.ops.zip_op import zip_arrays
from repro.hashing.families import get_family
from repro.util.rng import derive_seed
from repro.workloads.kv import aggregate_reference, sum_workload


def _exchange_inputs(p: int, layout: str):
    """Per-PE ``(destinations, (uint64, int32, float64 columns))``.

    ``spread`` sends rows everywhere; ``one_target`` sends every row to
    the last PE; ``empty_pes`` gives odd PEs no rows and routes only to
    even PEs, so odd PEs receive nothing either.
    """
    rng = np.random.default_rng(1000 * p + len(layout))
    inputs = []
    for r in range(p):
        n = 0 if layout == "empty_pes" and r % 2 else 40 + 13 * r
        if layout == "spread":
            dests = rng.integers(0, p, n, dtype=np.int64)
        elif layout == "one_target":
            dests = np.full(n, p - 1, dtype=np.uint64)
        else:
            dests = (2 * rng.integers(0, (p + 1) // 2, n)).astype(np.int32)
        columns = (
            rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
            rng.integers(-(2**31), 2**31, n, dtype=np.int32),
            rng.standard_normal(n),
        )
        inputs.append((dests, columns))
    return inputs


def _route_reference(inputs, rank: int):
    """What ``rank`` receives, per column: each source's rows bound for it
    in a stable argsort of the source's destinations, sources in rank
    order."""
    parts = []
    for dests, columns in inputs:
        order = np.argsort(dests, kind="stable")
        mine = order[dests[order] == rank]
        parts.append([c[mine] for c in columns])
    return [np.concatenate(col) for col in zip(*parts)]


def _assert_routes_like_reference(ctx, inputs):
    outs = ctx.run(
        lambda comm, dests, columns: exchange_by_destination(
            comm, dests, *columns
        ),
        per_rank_args=inputs,
    )
    for rank, got in enumerate(outs):
        want = _route_reference(inputs, rank)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestExchange:
    def test_routing(self):
        ctx = Context(3)

        def run(comm):
            keys = np.arange(9, dtype=np.uint64) + comm.rank * 9
            dests = (keys % np.uint64(3)).astype(np.int64)
            (received,) = exchange_by_destination(comm, dests, keys)
            return received

        out = ctx.run(run)
        for rank, received in enumerate(out):
            assert np.all(received % 3 == rank)
        total = np.sort(np.concatenate(out))
        assert np.array_equal(total, np.arange(27, dtype=np.uint64))

    def test_multiple_columns_stay_aligned(self):
        ctx = Context(2)

        def run(comm):
            keys = np.arange(10, dtype=np.uint64)
            vals = keys.astype(np.int64) * 7
            dests = (keys % np.uint64(2)).astype(np.int64)
            k, v = exchange_by_destination(comm, dests, keys, vals)
            return bool(np.all(v == k.astype(np.int64) * 7))

        assert ctx.run(run) == [True, True]

    @pytest.mark.parametrize("layout", ["spread", "one_target", "empty_pes"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_stable_argsort_reference(self, p, layout):
        _assert_routes_like_reference(Context(p), _exchange_inputs(p, layout))

    @pytest.mark.backends
    @pytest.mark.parametrize("layout", ["spread", "one_target", "empty_pes"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_stable_argsort_reference_on_processes(self, p, layout):
        _assert_routes_like_reference(
            Context(p, backend="processes"), _exchange_inputs(p, layout)
        )

    def test_non_integer_destinations_refused(self):
        """Float ranks used to be truncated: 1.7 went to PE 1 and 0.9 to
        PE 0, and sequentially 0.4 passed as PE 0."""
        with pytest.raises(TypeError, match="float64"):
            exchange_by_destination(None, [0.4, 0.2], np.arange(2))
        with pytest.raises(TypeError, match="bool"):
            exchange_by_destination(None, np.zeros(2, dtype=bool))
        ctx = Context(2)
        with pytest.raises(SPMDError, match="TypeError: .*float64"):
            ctx.run(
                lambda comm: exchange_by_destination(
                    comm, np.array([0.0, 1.7, 1.2, 0.9]), np.arange(4)
                )
            )
        # The dtype decides for an empty array too (an empty list reads as
        # float64), so a PE without rows refuses with its peers.
        with pytest.raises(TypeError, match="float64"):
            exchange_by_destination(None, [], np.zeros(0))
        empty = np.zeros(0, dtype=np.int64)
        assert exchange_by_destination(None, empty, np.zeros(0))[0].size == 0

    def test_out_of_range_destination_rejected(self):
        ctx = Context(2)
        with pytest.raises(SPMDError):
            ctx.run(
                lambda comm: exchange_by_destination(
                    comm,
                    np.array([5], dtype=np.int64),
                    np.array([1], dtype=np.uint64),
                )
            )

    def test_global_offset(self):
        ctx = Context(4)
        out = ctx.run(lambda comm: global_offset(comm, comm.rank + 1))
        assert out == [0, 1, 3, 6]

    def test_sequential_identity(self):
        keys = np.arange(5, dtype=np.uint64)
        (out,) = exchange_by_destination(None, np.zeros(5, dtype=np.int64), keys)
        assert np.array_equal(out, keys)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_empty_locals(self, p):
        """PEs with nothing to send must still complete the collective."""
        ctx = Context(p)

        def run(comm):
            k, v = exchange_by_destination(
                comm,
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.uint64),
                np.zeros(0, dtype=np.float64),
            )
            return k.dtype, k.size, v.dtype, v.size

        outs = ctx.run(run)
        assert outs == [(np.dtype(np.uint64), 0, np.dtype(np.float64), 0)] * p

    def test_some_pes_empty(self):
        ctx = Context(2)

        def run(comm):
            if comm.rank == 0:
                keys = np.arange(6, dtype=np.uint64)
                dests = (keys % np.uint64(2)).astype(np.int64)
            else:
                keys = np.zeros(0, dtype=np.uint64)
                dests = np.zeros(0, dtype=np.int64)
            (received,) = exchange_by_destination(comm, dests, keys)
            return received.tolist()

        outs = ctx.run(run)
        assert outs == [[0, 2, 4], [1, 3, 5]]

    @pytest.mark.parametrize("p", [1, 2])
    def test_zero_columns(self, p):
        """Destinations without payload columns: a pure routing no-op."""
        ctx = Context(p)
        outs = ctx.run(
            lambda comm: exchange_by_destination(
                comm, np.zeros(3, dtype=np.int64)
            )
        )
        assert outs == [()] * p
        assert exchange_by_destination(None, np.zeros(3, dtype=np.int64)) == ()

    def test_single_rank_comm_is_identity(self):
        ctx = Context(1)

        def run(comm):
            keys = np.arange(4, dtype=np.uint64)
            vals = keys.astype(np.int64) * 3
            k, v = exchange_by_destination(
                comm, np.zeros(4, dtype=np.int64), keys, vals
            )
            return np.array_equal(k, keys) and np.array_equal(v, vals)

        assert ctx.run(run) == [True]

    def test_list_columns_accepted_everywhere(self):
        """Regression: list columns worked sequentially but crashed the
        distributed fancy-indexing path before coercion was hoisted."""
        (seq,) = exchange_by_destination(None, [0, 0], [5, 6])
        assert seq.tolist() == [5, 6]
        ctx = Context(1)
        outs = ctx.run(
            lambda comm: exchange_by_destination(comm, [0, 0], [5, 6])[
                0
            ].tolist()
        )
        assert outs == [[5, 6]]

    def test_misaligned_column_rejected(self):
        """Regression: a short/long column used to silently drop rows on
        the distributed path instead of failing loudly."""
        with pytest.raises(ValueError, match="rows"):
            exchange_by_destination(
                None, np.zeros(3, dtype=np.int64), np.arange(2)
            )
        ctx = Context(2)
        with pytest.raises(SPMDError):
            ctx.run(
                lambda comm: exchange_by_destination(
                    comm,
                    np.zeros(2, dtype=np.int64),
                    np.arange(5, dtype=np.uint64),
                )
            )


class TestDefaultPartitioner:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_places_keys_as_hash_mod_p(self, p):
        keys = np.random.default_rng(p).integers(
            0, 2**64 - 1, 5000, dtype=np.uint64, endpoint=True
        )
        before = keys.copy()
        fn = get_family("Mix").instance(derive_seed(0, "partitioner"))
        part = default_partitioner(p)
        ranks = part(keys)
        assert ranks.dtype == np.int64
        want = (fn.hash_array(keys) % np.uint64(p)).astype(np.int64)
        assert np.array_equal(ranks, want)
        assert np.array_equal(keys, before)
        # Signed keys place as their two's-complement words.
        assert np.array_equal(part(keys.view(np.int64)), ranks)
        assert default_partitioner(p) is part
        assert default_partitioner(p, seed=0) is part
        assert default_partitioner(p, seed=1) is not part

    @pytest.mark.parametrize("num_pes", [0, -3])
    def test_no_pes_refused(self, num_pes):
        """``default_partitioner(0)`` used to warn about a division by
        zero and send every key to PE 0."""
        with pytest.raises(ValueError, match="num_pes must be >= 1"):
            default_partitioner(num_pes)


class TestLocalAggregate:
    def test_matches_reference(self, kv_small):
        keys, values = kv_small
        lk, lv = local_aggregate(keys, values)
        rk, rv = aggregate_reference(keys, values)
        assert np.array_equal(lk, rk) and np.array_equal(lv, rv)

    @pytest.mark.parametrize(
        "layout",
        ["increasing", "duplicates", "reversed", "shuffled", "zipf", "signed",
         "empty"],
    )
    def test_layouts_match_reference_and_own_their_output(self, layout):
        """Every layout equals the sort-and-``reduceat`` reference; unsorted
        unique keys (``reversed``, ``shuffled``) skip the segment sum."""
        rng = np.random.default_rng(11)
        base = np.unique(
            rng.integers(0, 2**64 - 1, 400, dtype=np.uint64, endpoint=True)
        )
        keys = {
            "increasing": base,
            "duplicates": np.sort(np.repeat(base, 3)),
            "reversed": base[::-1],
            "shuffled": np.random.default_rng(12).permutation(base),
            "zipf": np.random.default_rng(13).zipf(1.3, 2000).astype(np.uint64),
            # Increasing as int64, not as the uint64 words aggregated.
            "signed": np.array([-5, -1, 0, 3], dtype=np.int64),
            "empty": base[:0],
        }[layout]
        values = rng.integers(-(2**40), 2**40, keys.size)
        keys_before, values_before = keys.copy(), values.copy()
        lk, lv = local_aggregate(keys, values)
        rk, rv = aggregate_reference(keys, values)
        assert lk.dtype == np.uint64 and lv.dtype == np.int64
        assert np.array_equal(lk, rk) and np.array_equal(lv, rv)
        lk[...] = 7
        lv[...] = 7
        assert np.array_equal(keys, keys_before)
        assert np.array_equal(values, values_before)

    def test_empty(self):
        k, v = local_aggregate(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
        )
        assert k.size == 0 and v.size == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            local_aggregate(np.array([1], dtype=np.uint64), np.array([1, 2]))


class TestReduceByKey:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_reference(self, p, kv_small):
        keys, values = kv_small
        ref_k, ref_v = aggregate_reference(keys, values)
        ctx = Context(p)
        outs = ctx.run(
            lambda comm, k, v: reduce_by_key(comm, k, v),
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )
        got_k = np.concatenate([o[0] for o in outs])
        got_v = np.concatenate([o[1] for o in outs])
        order = np.argsort(got_k)
        assert np.array_equal(got_k[order], ref_k)
        assert np.array_equal(got_v[order], ref_v)

    def test_keys_are_disjoint_across_pes(self, kv_small):
        keys, values = kv_small
        ctx = Context(4)
        outs = ctx.run(
            lambda comm, k, v: reduce_by_key(comm, k, v),
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )
        all_keys = np.concatenate([o[0] for o in outs])
        assert len(np.unique(all_keys)) == all_keys.size


class TestIntegerColumns:
    """Reductions and aggregates refuse non-integer keys and values with
    a ``TypeError`` naming the dtype, sequentially and on every PE.
    Cast, ``reduce_by_key(None, [1.5, 1.7, 2.2], [1, 2, 4])`` returned
    keys ``[1, 2]`` with sums ``[3, 4]``, ``min_by_key`` read 3.9 as 3,
    and bool keys passed as 0/1."""

    @staticmethod
    def _ops():
        from repro.dataflow.ops.aggregates import (
            average_by_key,
            max_by_key,
            median_by_key,
            min_by_key,
        )

        return {
            "local_aggregate": lambda comm, k, v: local_aggregate(k, v),
            "reduce_by_key": reduce_by_key,
            "average_by_key": average_by_key,
            "min_by_key": min_by_key,
            "max_by_key": max_by_key,
            "median_by_key": median_by_key,
        }

    INTS = np.array([1, 2, 1, 4], dtype=np.int64)

    @pytest.mark.parametrize(
        "column, bad, dtype",
        [
            ("keys", np.array([1.5, 1.7, 2.2, 1.5]), "float64"),
            ("keys", np.array([True, False, True, True]), "bool"),
            ("values", np.array([3.9, 1.0, 2.5, 0.5]), "float64"),
            ("values", np.array([True, False, True, True]), "bool"),
            ("values", np.array([1, 2, 3, 4], dtype=np.float32), "float32"),
        ],
    )
    @pytest.mark.parametrize(
        "op",
        [
            "local_aggregate",
            "reduce_by_key",
            "average_by_key",
            "min_by_key",
            "max_by_key",
            "median_by_key",
        ],
    )
    def test_non_integer_columns_refused(self, op, column, bad, dtype):
        fn = self._ops()[op]
        keys, values = (bad, self.INTS) if column == "keys" else (self.INTS, bad)
        with pytest.raises(TypeError, match=f"integer {column} .*{dtype}"):
            fn(None, keys, values)
        ctx = Context(2)
        with pytest.raises(
            SPMDError, match=f"TypeError: integer {column} .*{dtype}"
        ):
            ctx.run(
                lambda comm, k, v: fn(comm, k, v),
                per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
            )

    @staticmethod
    def _plain_ops():
        from repro.dataflow.ops.aggregates import median_by_key
        from repro.dataflow.ops.sort_merge_join import sort_merge_join

        ints = TestIntegerColumns.INTS
        return {
            "group_by_key": group_by_key,
            "hash_join": lambda comm, k, v: hash_join(
                comm, (k, v), (ints, ints)
            ),
            "sort_merge_join": lambda comm, k, v: sort_merge_join(
                comm, (ints, ints), (k, v)
            ),
            # The column under test is the explicit uids, read as values.
            "median_by_key uids": lambda comm, k, v: median_by_key(
                comm, ints[: v.size], ints[: v.size], uids=v
            ),
        }

    @pytest.mark.parametrize(
        "bad, dtype",
        [
            (np.array([1.5, 1.7, 2.2, 1.5]), "float64"),
            (np.array([True, False, True, True]), "bool"),
        ],
    )
    @pytest.mark.parametrize(
        "op, column",
        [
            ("group_by_key", "keys"),
            ("group_by_key", "values"),
            ("hash_join", "keys"),
            ("hash_join", "values"),
            ("sort_merge_join", "keys"),
            ("sort_merge_join", "values"),
            ("median_by_key uids", "values"),
        ],
    )
    def test_plain_ops_refuse_non_integer_columns(self, op, column, bad, dtype):
        """Cast, ``group_by_key(None, [1.5, 1.7, 2.2], [1, 2, 4])``
        grouped keys ``[1, 2]``, both joins matched key 1.5 with 1.7 as
        key 1, and ``median_by_key`` read uids 0.2 and 0.7 as uid 0."""
        fn = self._plain_ops()[op]
        keys, values = (bad, self.INTS) if column == "keys" else (self.INTS, bad)
        with pytest.raises(TypeError, match=f"integer {column} .*{dtype}"):
            fn(None, keys, values)
        ctx = Context(2)
        with pytest.raises(
            SPMDError, match=f"TypeError: integer {column} .*{dtype}"
        ):
            ctx.run(
                lambda comm, k, v: fn(comm, k, v),
                per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
            )

    def test_plain_ops_keep_twos_complement_keys(self):
        from repro.dataflow.ops.sort_merge_join import sort_merge_join

        top = (1 << 64) - 1
        keys, groups = group_by_key(None, np.array([-1, 2]), [5, 6])
        assert keys.tolist() == [2, top]
        assert [g.tolist() for g in groups] == [[6], [5]]
        r = (np.array([-1]), np.array([1]))
        s = (np.array([top], dtype=np.uint64), np.array([2]))
        for join in (hash_join, sort_merge_join):
            assert join(None, r, s).keys.tolist() == [top]

    def test_signed_and_empty_columns_still_reduce(self):
        keys, values = reduce_by_key(None, np.array([-1, 2, -1]), [5, 6, 7])
        assert keys.tolist() == [2, (1 << 64) - 1] and values.tolist() == [6, 12]
        empty = np.zeros(0, dtype=np.int32)
        keys, values = reduce_by_key(None, empty, empty)
        assert keys.dtype == np.uint64 and values.dtype == np.int64
        assert keys.size == values.size == 0

    def test_dtype_alone_decides(self):
        """An empty float column is refused like a full one (``[]`` is
        float64 to numpy), so a PE holding no pairs raises with the
        others."""
        with pytest.raises(TypeError, match="integer keys .*float64"):
            reduce_by_key(None, [], np.zeros(0, dtype=np.int64))
        with pytest.raises(TypeError, match="integer values .*float64"):
            local_aggregate(np.zeros(0, dtype=np.uint64), [])


class TestGroupByKey:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_groups_complete(self, p, kv_small):
        keys, values = kv_small
        ctx = Context(p)
        outs = ctx.run(
            lambda comm, k, v: group_by_key(comm, k, v),
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )
        total = 0
        seen_keys = []
        for uk, groups in outs:
            seen_keys.extend(uk.tolist())
            total += sum(g.size for g in groups)
        assert total == keys.size
        assert len(seen_keys) == len(set(seen_keys))  # each key at one PE

    def test_group_sums_match_reference(self, kv_small):
        keys, values = kv_small
        ref_k, ref_v = aggregate_reference(keys, values)
        ref = dict(zip(ref_k.tolist(), ref_v.tolist()))
        ctx = Context(4)
        outs = ctx.run(
            lambda comm, k, v: group_by_key(comm, k, v),
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )
        for uk, groups in outs:
            for key, group in zip(uk.tolist(), groups):
                assert int(group.sum()) == ref[key]


class TestSampleSort:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_sorts(self, p):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 10**7, 5_000).astype(np.uint64)
        ctx = Context(p)
        outs = ctx.run(
            lambda comm, c: sample_sort(comm, c), per_rank_args=ctx.split(data)
        )
        merged = np.concatenate(outs)
        assert np.array_equal(merged, np.sort(data))

    def test_skewed_input(self):
        data = np.concatenate(
            [np.zeros(3_000, dtype=np.uint64), np.arange(100, dtype=np.uint64)]
        )
        ctx = Context(4)
        outs = ctx.run(
            lambda comm, c: sample_sort(comm, c), per_rank_args=ctx.split(data)
        )
        assert np.array_equal(np.concatenate(outs), np.sort(data))

    def test_empty_pe(self):
        ctx = Context(4)
        chunks = [
            np.arange(100, dtype=np.uint64),
            np.zeros(0, dtype=np.uint64),
            np.arange(50, dtype=np.uint64),
            np.zeros(0, dtype=np.uint64),
        ]
        outs = ctx.run(lambda comm, c: sample_sort(comm, c), per_rank_args=chunks)
        expected = np.sort(np.concatenate(chunks))
        assert np.array_equal(np.concatenate(outs), expected)


class TestMergeZipUnionJoin:
    def test_merge_sorted(self):
        rng = np.random.default_rng(2)
        a = np.sort(rng.integers(0, 1000, 300).astype(np.uint64))
        b = np.sort(rng.integers(0, 1000, 200).astype(np.uint64))
        ctx = Context(2)
        outs = ctx.run(
            lambda comm, x, y: merge_sorted(comm, x, y),
            per_rank_args=list(zip(ctx.split(a), ctx.split(b))),
        )
        merged = np.concatenate(outs)
        assert np.array_equal(merged, np.sort(np.concatenate([a, b])))

    def test_zip_rejects_unequal_lengths(self):
        ctx = Context(2)
        with pytest.raises(SPMDError):
            ctx.run(
                lambda comm: zip_arrays(
                    comm,
                    np.arange(comm.rank + 1, dtype=np.uint64),
                    np.arange(5, dtype=np.uint64),
                )
            )

    def test_union_is_local_concat(self):
        out = union_arrays(None, np.array([1, 2]), np.array([3]))
        assert out.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_hash_join_row_count(self, p):
        rk = np.array([1, 2, 2, 3], dtype=np.uint64)
        rv = np.array([10, 20, 21, 30], dtype=np.int64)
        sk = np.array([2, 2, 3, 9], dtype=np.uint64)
        sv = np.array([200, 201, 300, 900], dtype=np.int64)
        ctx = Context(p)
        outs = ctx.run(
            lambda comm, a, b, c, d: hash_join(comm, (a, b), (c, d)).keys.size,
            per_rank_args=list(
                zip(ctx.split(rk), ctx.split(rv), ctx.split(sk), ctx.split(sv))
            ),
        )
        # key 2: 2x2 = 4 pairs; key 3: 1x1 = 1 pair.
        assert sum(outs) == 5

    def test_hash_join_pairs_correct(self):
        rk = np.array([7, 7], dtype=np.uint64)
        rv = np.array([1, 2], dtype=np.int64)
        sk = np.array([7], dtype=np.uint64)
        sv = np.array([9], dtype=np.int64)
        jx = hash_join(None, (rk, rv), (sk, sv))
        got = sorted(zip(jx.keys.tolist(), jx.r_values.tolist(), jx.s_values.tolist()))
        assert got == [(7, 1, 9), (7, 2, 9)]


class TestAggregatesAgainstNumpy:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_median_by_key_matches_numpy(self, p):
        from repro.dataflow.ops.aggregates import median_by_key

        keys, values = sum_workload(600, num_keys=20, seed=8)
        ctx = Context(p)
        outs = ctx.run(
            lambda comm, k, v: median_by_key(comm, k, v),
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )
        res = outs[0]
        for key, num, den in zip(
            res.keys.tolist(), res.numerators.tolist(), res.denominators.tolist()
        ):
            expected = float(np.median(values[keys == key]))
            assert num / den == pytest.approx(expected)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_min_max_by_key_match_numpy(self, p):
        from repro.dataflow.ops.aggregates import max_by_key, min_by_key

        keys, values = sum_workload(600, num_keys=20, seed=9)
        ctx = Context(p)
        mins = ctx.run(
            lambda comm, k, v: min_by_key(comm, k, v),
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )[0]
        maxs = ctx.run(
            lambda comm, k, v: max_by_key(comm, k, v),
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )[0]
        for key, mn in zip(mins.keys.tolist(), mins.values.tolist()):
            assert mn == values[keys == key].min()
        for key, mx in zip(maxs.keys.tolist(), maxs.values.tolist()):
            assert mx == values[keys == key].max()

    def test_min_owner_actually_holds_minimum(self):
        from repro.dataflow.ops.aggregates import min_by_key

        keys, values = sum_workload(600, num_keys=20, seed=10)
        ctx = Context(4)
        key_chunks = ctx.split(keys)
        val_chunks = ctx.split(values)
        res = ctx.run(
            lambda comm, k, v: min_by_key(comm, k, v),
            per_rank_args=list(zip(key_chunks, val_chunks)),
        )[0]
        for key, mn, owner in zip(
            res.keys.tolist(), res.values.tolist(), res.owners.tolist()
        ):
            k_chunk = key_chunks[owner]
            v_chunk = val_chunks[owner]
            assert mn in v_chunk[k_chunk == key]

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_average_by_key_exact_fractions(self, p):
        from repro.dataflow.ops.aggregates import average_by_key
        from math import gcd

        keys, values = sum_workload(600, num_keys=20, seed=11)
        ctx = Context(p)
        outs = ctx.run(
            lambda comm, k, v: average_by_key(comm, k, v),
            per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
        )
        for res in outs:
            for key, num, den, count in zip(
                res.keys.tolist(),
                res.numerators.tolist(),
                res.denominators.tolist(),
                res.counts.tolist(),
            ):
                mask = keys == key
                assert count == int(mask.sum())
                assert num / den == pytest.approx(values[mask].mean())
                assert gcd(abs(num), den) == 1  # lowest terms
