"""Tests for the derived checkers under a seed array, and condensed reuse.

The load-bearing property mirrors ``test_core_multiseed.py``: a derived
check called with ``T`` seeds returns per-seed verdicts identical to ``T``
calls with one seed each, while touching the raw data once.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.average_checker import check_average_aggregation
from repro.core.groupby_checker import (
    check_groupby_redistribution,
    default_partitioner,
)
from repro.core.integrity import replicated_digest, replicated_digest_multiseed
from repro.core.median_checker import check_median_aggregation
from repro.core.minmax_checker import check_max_aggregation, check_min_aggregation
from repro.core.multiseed import (
    MultiSeedSumChecker,
    check_count_aggregation,
    check_sum_aggregation,
    condense_kv,
)
from repro.core.params import SumCheckConfig
from repro.core.permutation_checker import (
    MultiSeedHashSumChecker,
    check_permutation_hashsum,
    condense_side,
)
from repro.core.sum_checker import reference_tables
from repro.dataflow.pipeline import adaptive_groupby_check
from repro.workloads.kv import aggregate_reference, sum_workload

SEEDS = np.arange(12, dtype=np.uint64) * np.uint64(997) + np.uint64(3)
WEAK = SumCheckConfig.parse("1x2 m4")  # weak → per-seed verdicts vary
STRONG = SumCheckConfig.parse("8x16 m15")


class TestReplicatedDigestMultiseed:
    def test_matches_scalar_digests(self, rng):
        arrays = (
            rng.integers(0, 1000, 5_000).astype(np.uint64),
            rng.integers(-50, 50, 5_000).astype(np.int64),
            np.arange(7, dtype=np.int32).reshape(7, 1),
        )
        got = replicated_digest_multiseed(SEEDS, *arrays)
        assert got == [replicated_digest(int(s), *arrays) for s in SEEDS]

    def test_no_arrays(self):
        got = replicated_digest_multiseed(SEEDS)
        assert got == [replicated_digest(int(s)) for s in SEEDS]

    def test_distinguishes_content(self, rng):
        a = rng.integers(0, 2**63, 100).astype(np.uint64)
        b = a.copy()
        b[3] += 1
        assert replicated_digest_multiseed(SEEDS, a) != (
            replicated_digest_multiseed(SEEDS, b)
        )


class TestCondensedReuse:
    """check_*_condensed over a shared condensation == direct check."""

    def test_sum_checker_condensed_matches(self):
        keys, values = sum_workload(3_000, num_keys=150, seed=5)
        out_k, out_v = aggregate_reference(keys, values)
        bad_v = out_v.copy()
        bad_v[1] += 1
        multi = MultiSeedSumChecker(WEAK, SEEDS)
        cin = condense_kv(keys, values)
        cout = condense_kv(out_k, bad_v)
        direct = multi.check_local((keys, values), (out_k, bad_v))
        condensed = multi.check_local_condensed(cin, cout)
        assert (
            condensed.details["per_seed_accepted"]
            == direct.details["per_seed_accepted"]
        )
        # The same condensations serve a different seed set — no new pass.
        other = MultiSeedSumChecker(WEAK, SEEDS + np.uint64(1000))
        ref = other.check_local((keys, values), (out_k, bad_v))
        assert (
            other.check_local_condensed(cin, cout).details["per_seed_accepted"]
            == ref.details["per_seed_accepted"]
        )

    def test_operator_mismatch_rejected(self):
        keys, values = sum_workload(100, num_keys=10, seed=6)
        plus = condense_kv(keys, values, "+")
        xor = condense_kv(keys, values, "xor")
        with pytest.raises(ValueError):
            MultiSeedSumChecker(WEAK, SEEDS, "xor").local_tables_condensed(plus)
        with pytest.raises(ValueError):
            MultiSeedSumChecker(WEAK, SEEDS, "+").local_tables_condensed(xor)

    def test_distributed_condensed_matches(self):
        keys, values = sum_workload(2_000, num_keys=100, seed=7)
        out_k, out_v = aggregate_reference(keys, values)
        bad_v = out_v.copy()
        bad_v[0] += 3
        sequential = MultiSeedSumChecker(WEAK, SEEDS).check_local(
            (keys, values), (out_k, bad_v)
        )
        ctx = Context(2)

        def run(comm, k, v, ok, ov):
            multi = MultiSeedSumChecker(WEAK, SEEDS)
            return multi.check_distributed_condensed(
                comm, condense_kv(k, v), condense_kv(ok, ov)
            ).details["per_seed_accepted"]

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
        assert outs == [sequential.details["per_seed_accepted"]] * 2

    def test_condense_side_handles_multi_sequence(self, rng):
        a = rng.integers(0, 100, 500).astype(np.uint64)
        b = rng.integers(0, 100, 300).astype(np.uint64)
        multi = MultiSeedHashSumChecker(SEEDS, iterations=2, log_h=16)
        fps = multi.fingerprints_condensed(condense_side([a, b]))
        for t, seed in enumerate(SEEDS):
            one = MultiSeedHashSumChecker(int(seed), iterations=2, log_h=16)
            assert fps[t] == one.fingerprints([a, b])[0]


class TestCountWrapper:
    def test_matches_single_seed_counts(self):
        keys, _ = sum_workload(1_500, num_keys=80, seed=10)
        out_k, out_c = aggregate_reference(keys, np.ones(keys.size, np.int64))
        bad_c = out_c.copy()
        bad_c[4] += 1
        got = check_count_aggregation(
            keys, (out_k, bad_c), config=WEAK, seed=SEEDS
        )
        expected = [
            check_count_aggregation(
                keys, (out_k, bad_c), config=WEAK, seed=int(s)
            ).accepted
            for s in SEEDS
        ]
        assert got.details["per_seed_accepted"] == expected
        ones = np.ones(keys.size, dtype=np.int64)
        assert expected == [
            np.array_equal(
                reference_tables(WEAK, int(s), keys, ones),
                reference_tables(WEAK, int(s), out_k, bad_c),
            )
            for s in SEEDS
        ]

    def test_sum_wrapper_accepts_correct(self):
        keys, values = sum_workload(1_000, num_keys=60, seed=11)
        out = aggregate_reference(keys, values)
        res = check_sum_aggregation(
            (keys, values), out, config=STRONG, seed=SEEDS
        )
        assert res.accepted
        assert res.details["per_seed_accepted"] == [True] * SEEDS.size


class TestAverageMultiseed:
    def _case(self):
        keys = np.array([1, 1, 1, 2, 2, 3], dtype=np.uint64)
        values = np.array([4, 5, 9, 10, 20, 7], dtype=np.int64)
        out_keys = np.array([1, 2, 3], dtype=np.uint64)
        num = np.array([6, 15, 7], dtype=np.int64)
        den = np.array([1, 1, 1], dtype=np.int64)
        counts = np.array([3, 2, 1], dtype=np.int64)
        return keys, values, out_keys, num, den, counts

    def test_accepts_correct(self):
        keys, values, out_keys, num, den, counts = self._case()
        res = check_average_aggregation(
            (keys, values), out_keys, num, den, counts, config=STRONG,
            seed=SEEDS,
        )
        assert res.accepted
        assert res.details["per_seed_accepted"] == [True] * SEEDS.size

    @pytest.mark.parametrize("comm_size", [None, 2])
    def test_per_seed_matches_instances(self, comm_size):
        keys, values, out_keys, num, den, counts = self._case()
        bad_num = num.copy()
        bad_num[0] += 1  # subtle: weak config misses it under some seeds

        def single(seed, comm=None, args=None):
            k, v, ok = args if args else (keys, values, out_keys)
            return check_average_aggregation(
                (k, v), ok, bad_num, den, counts,
                config=WEAK, seed=seed, comm=comm,
            ).accepted

        if comm_size is None:
            got = check_average_aggregation(
                (keys, values), out_keys, bad_num, den, counts,
                config=WEAK, seed=SEEDS,
            )
            expected = [single(int(s)) for s in SEEDS]
            assert got.details["per_seed_accepted"] == expected
            assert got.accepted == all(expected)
        else:
            ctx = Context(comm_size)

            def run(comm, k, v):
                # result columns replicated; input distributed
                multi = check_average_aggregation(
                    (k, v), out_keys, bad_num, den, counts,
                    config=WEAK, seed=SEEDS, comm=comm,
                )
                singles = [
                    check_average_aggregation(
                        (k, v), out_keys, bad_num, den, counts,
                        config=WEAK, seed=int(s), comm=comm,
                    ).accepted
                    for s in SEEDS
                ]
                return multi.details["per_seed_accepted"], singles

            outs = ctx.run(
                run,
                per_rank_args=list(zip(ctx.split(keys), ctx.split(values))),
            )
            for per_seed, singles in outs:
                assert per_seed == singles

    def test_structural_failure_rejects_every_seed(self):
        keys, values, out_keys, num, den, counts = self._case()
        bad_counts = counts.copy()
        bad_counts[0] = 4  # den=1 divides, but sums no longer match; make
        bad_den = den.copy()
        bad_den[0] = 5  # 5 does not divide count 3 → structural rejection
        res = check_average_aggregation(
            (keys, values), out_keys, num, bad_den, counts,
            config=WEAK, seed=SEEDS,
        )
        assert not res.accepted
        assert res.details["per_seed_accepted"] == [False] * SEEDS.size
        assert not res.details["structural_ok"]

    def test_empty_input(self):
        empty_u = np.zeros(0, dtype=np.uint64)
        empty_i = np.zeros(0, dtype=np.int64)
        res = check_average_aggregation(
            (empty_u, empty_i), empty_u, empty_i, empty_i, empty_i,
            config=WEAK, seed=SEEDS,
        )
        assert res.accepted


class TestMedianMultiseed:
    def _case(self):
        keys = np.array([1, 1, 1, 2, 2, 2, 2], dtype=np.uint64)
        values = np.array([3, 9, 5, 1, 2, 8, 4], dtype=np.int64)
        out_keys = np.array([1, 2], dtype=np.uint64)
        num = np.array([5, 3], dtype=np.int64)  # med(3,5,9)=5, med(1,2,4,8)=3
        den = np.array([1, 1], dtype=np.int64)
        return keys, values, out_keys, num, den

    def test_accepts_correct(self):
        keys, values, out_keys, num, den = self._case()
        res = check_median_aggregation(
            keys, values, out_keys, num, den, config=STRONG, seed=SEEDS
        )
        assert res.accepted
        assert res.details["per_seed_accepted"] == [True] * SEEDS.size

    def test_per_seed_matches_instances(self):
        keys, values, out_keys, num, den = self._case()
        bad_num = num.copy()
        bad_num[0] = 6  # wrong median, weak config → mixed verdicts
        got = check_median_aggregation(
            keys, values, out_keys, bad_num, den, config=WEAK, seed=SEEDS
        )
        expected = [
            check_median_aggregation(
                keys, values, out_keys, bad_num, den,
                config=WEAK, seed=int(s),
            ).accepted
            for s in SEEDS
        ]
        assert got.details["per_seed_accepted"] == expected

    def test_structural_failure_rejects_every_seed(self):
        keys, values, out_keys, num, den = self._case()
        res = check_median_aggregation(
            keys, values, out_keys[:1], num[:1], den[:1], config=WEAK,
            seed=SEEDS,
        )
        assert res.details["per_seed_accepted"] == [False] * SEEDS.size

    @pytest.mark.parametrize("p", [2])
    def test_distributed_matches_sequential(self, p):
        keys, values, out_keys, num, den = self._case()
        sequential = check_median_aggregation(
            keys, values, out_keys, num, den, config=STRONG, seed=SEEDS
        )
        ctx = Context(p)

        def run(comm, k, v):
            return check_median_aggregation(
                k, v, out_keys, num, den, config=STRONG, seed=SEEDS,
                comm=comm,
            ).details["per_seed_accepted"]

        outs = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        assert outs == [sequential.details["per_seed_accepted"]] * p


class TestMinMaxMultiseed:
    def _kv(self):
        keys = np.array([1, 1, 2, 2, 3, 3, 3], dtype=np.uint64)
        values = np.array([5, 3, 8, 2, 7, 9, 7], dtype=np.int64)
        return keys, values

    def test_sequential_accepts_correct(self):
        keys, values = self._kv()
        res = check_min_aggregation(
            (keys, values),
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([3, 2, 7], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
            seed=SEEDS,
        )
        assert res.accepted
        assert res.details["per_seed_accepted"] == [True] * SEEDS.size

    def test_max_rejects_wrong_value_every_seed(self):
        keys, values = self._kv()
        res = check_max_aggregation(
            (keys, values),
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([5, 8, 8], dtype=np.int64),  # max of key 3 is 9
            np.zeros(3, dtype=np.int64),
            seed=SEEDS,
        )
        assert res.details["per_seed_accepted"] == [False] * SEEDS.size

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_matches_single_seed_instances(self, p):
        keys, values = self._kv()
        res_keys = np.array([1, 2, 3], dtype=np.uint64)
        res_vals = np.array([3, 2, 7], dtype=np.int64)
        ctx = Context(p)
        # The certificate owner of each key is the PE holding its minimum.
        owners = np.zeros(3, dtype=np.int64)
        chunks = ctx.split(keys)
        vchunks = ctx.split(values)
        for key_idx, (key, val) in enumerate(zip(res_keys, res_vals)):
            for rank, (ck, cv) in enumerate(zip(chunks, vchunks)):
                if np.any((ck == key) & (cv == val)):
                    owners[key_idx] = rank
                    break

        def run(comm, k, v):
            multi = check_min_aggregation(
                (k, v), res_keys, res_vals, owners, comm=comm, seed=SEEDS
            )
            singles = [
                check_min_aggregation(
                    (k, v), res_keys, res_vals, owners, comm=comm, seed=int(s)
                ).accepted
                for s in SEEDS
            ]
            return multi.details["per_seed_accepted"], singles

        outs = ctx.run(run, per_rank_args=list(zip(chunks, vchunks)))
        for per_seed, singles in outs:
            assert per_seed == singles == [True] * SEEDS.size

    def test_distributed_detects_diverged_replica(self):
        keys, values = self._kv()
        res_keys = np.array([1, 2, 3], dtype=np.uint64)
        res_vals = np.array([3, 2, 7], dtype=np.int64)
        owners = np.zeros(3, dtype=np.int64)
        ctx = Context(2)

        def run(comm, k, v):
            vals = res_vals.copy()
            if comm.rank == 1:
                vals[0] += 1  # rank 1 holds a corrupted replica
            return check_min_aggregation(
                (k, v), res_keys, vals, owners, comm=comm, seed=SEEDS
            ).details["per_seed_accepted"]

        outs = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        for per_seed in outs:
            assert per_seed == [False] * SEEDS.size


class TestGroupByMultiseed:
    def test_per_seed_matches_instances(self):
        keys, values = sum_workload(2_000, num_keys=100, seed=12)
        ctx = Context(2)

        def run(comm, k, v):
            from repro.dataflow.ops.group_by_key import group_by_key

            part = default_partitioner(comm.size)
            _, _, (pk, pv) = group_by_key(
                comm, k, v, partitioner=part, return_exchange=True
            )
            if comm.rank == 0 and pk.size:
                pv = pv.copy()
                pv[0] += 1  # corrupt one record: weak log_h → mixed verdicts
            multi = check_groupby_redistribution(
                (k, v), (pk, pv), part, comm=comm,
                iterations=1, log_h=1, seed=SEEDS,
            )
            singles = [
                check_groupby_redistribution(
                    (k, v), (pk, pv), part, comm=comm,
                    iterations=1, log_h=1, seed=int(s),
                ).accepted
                for s in SEEDS
            ]
            return multi.details["per_seed_accepted"], singles

        outs = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        for per_seed, singles in outs:
            assert per_seed == singles
            assert any(per_seed) and not all(per_seed)  # weak: both occur

    def test_sequential_accepts_identity(self):
        part = default_partitioner(1)
        k = np.arange(10, dtype=np.uint64)
        v = np.ones(10, dtype=np.int64)
        res = check_groupby_redistribution((k, v), (k, v), part, seed=SEEDS)
        assert res.accepted
        assert res.details["per_seed_accepted"] == [True] * SEEDS.size


def _on_pe0(comm, *arrays):
    """``arrays`` sequentially and on PE 0, their empty slices elsewhere."""
    if comm is None or comm.rank == 0:
        return arrays
    return tuple(a[:0] for a in arrays)


def _six_checks(config):
    """Each of the six aggregation checks as ``fn(seed, comm, k, v)``.

    Every check gets a wrong result: the sum family's errors are
    opposite deltas on keys 1 and 2, which ``WEAK`` misses under some
    seeds (same bucket); min/max reject deterministically.  Results
    are replicated, except that the sum family's distributed output sits
    on PE 0; inputs may be a PE's slice.
    """
    keys = np.array([1, 1, 1, 2, 2, 2, 2, 3], dtype=np.uint64)
    values = np.array([3, 9, 5, 1, 2, 8, 4, 6], dtype=np.int64)
    out_k = np.array([1, 2, 3], dtype=np.uint64)
    sums = np.array([18, 14, 6], dtype=np.int64)  # true: 17, 15, 6
    counts = np.array([3, 4, 1], dtype=np.int64)
    owners = np.zeros(3, dtype=np.int64)
    checks = {
        "sum": lambda seed, comm, k, v: check_sum_aggregation(
            (k, v), _on_pe0(comm, out_k, sums),
            config=config, seed=seed, comm=comm,
        ),
        "count": lambda seed, comm, k, v: check_count_aggregation(
            k, _on_pe0(comm, out_k, counts[[1, 0, 2]]),
            config=config, seed=seed, comm=comm,
        ),
        "average": lambda seed, comm, k, v: check_average_aggregation(
            (k, v), *_on_pe0(comm, out_k, sums, counts, counts),
            config=config, seed=seed, comm=comm,
        ),
        "median": lambda seed, comm, k, v: check_median_aggregation(
            k, v, out_k, np.array([4, 4, 6]), np.ones(3, dtype=np.int64),
            config=config, seed=seed, comm=comm,
        ),
        "min": lambda seed, comm, k, v: check_min_aggregation(
            (k, v), out_k, np.array([3, 1, 7]), owners, comm=comm, seed=seed
        ),
        "max": lambda seed, comm, k, v: check_max_aggregation(
            (k, v), out_k, np.array([9, 8, 5]), owners, comm=comm, seed=seed
        ),
    }
    return keys, values, checks


_KEYS, _VALUES, _CHECKS = _six_checks(WEAK)


class TestSeedArrays:
    """A seed array is T scalar calls; a scalar seed is T = 1."""

    @pytest.mark.parametrize("name", sorted(_CHECKS))
    @pytest.mark.parametrize("p", [None, 2])
    def test_per_seed_equals_scalar_calls(self, name, p):
        check = _CHECKS[name]

        def run(comm, k, v):
            multi = check(SEEDS, comm, k, v)
            singles = [check(int(s), comm, k, v) for s in SEEDS]
            return multi, singles

        if p is None:
            outs = [run(None, _KEYS, _VALUES)]
        else:
            ctx = Context(p)
            outs = ctx.run(
                run,
                per_rank_args=list(zip(ctx.split(_KEYS), ctx.split(_VALUES))),
            )
        for multi, singles in outs:
            expected = [single.accepted for single in singles]
            assert multi.details["per_seed_accepted"] == expected
            assert multi.accepted == all(expected)
            assert multi.details["num_seeds"] == SEEDS.size
            for single in singles:
                assert single.details["num_seeds"] == 1
                assert single.details["per_seed_accepted"] == [single.accepted]
        if name in ("min", "max"):
            assert expected == [False] * SEEDS.size
        else:
            assert any(expected) and not all(expected), expected

    @pytest.mark.parametrize(
        "seed", [2**64, -(2**63) - 1, True, 1.0],
        ids=["2^64", "-2^63-1", "True", "1.0"],
    )
    def test_out_of_range_or_non_integer_seed_refused(self, seed):
        # Coercing these would alias another seed's checker (2^64 wraps to
        # 0, True is 1) or truncate; every check refuses them instead.
        for check in _CHECKS.values():
            with pytest.raises(TypeError):
                check(seed, None, _KEYS, _VALUES)
        with pytest.raises(TypeError):
            check_permutation_hashsum(_KEYS, _KEYS, seed=seed)
        for groupby in (check_groupby_redistribution, adaptive_groupby_check):
            with pytest.raises(TypeError):
                groupby(
                    (_KEYS, _VALUES), (_KEYS, _VALUES),
                    default_partitioner(1), seed=seed,
                )


class TestFloatColumnsRefused:
    """Float value columns would be truncated into wrong acceptances."""

    def test_min(self):
        with pytest.raises(TypeError):
            check_min_aggregation(
                (np.array([4, 4], dtype=np.uint64), np.array([1.5, 1.7])),
                np.array([4], dtype=np.uint64),
                np.array([1], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
            )

    def test_max_asserted(self):
        with pytest.raises(TypeError):
            check_max_aggregation(
                (np.array([4], dtype=np.uint64), np.array([2])),
                np.array([4], dtype=np.uint64),
                np.array([2.5]),
                np.zeros(1, dtype=np.int64),
            )

    def test_average(self):
        with pytest.raises(TypeError):
            check_average_aggregation(
                (np.array([4, 4], dtype=np.uint64), np.array([1.5, 2.5])),
                np.array([4], dtype=np.uint64),
                np.array([3]), np.array([2]), np.array([2]),
            )

    @pytest.mark.parametrize("column", ["numerators", "denominators", "counts"])
    def test_average_asserted_columns(self, column):
        args = {
            "numerators": np.array([2]),
            "denominators": np.array([1]),
            "counts": np.array([2]),
        }
        args[column] = args[column].astype(np.float64)
        with pytest.raises(TypeError):
            check_average_aggregation(
                (np.array([4, 4], dtype=np.uint64), np.array([1, 3])),
                np.array([4], dtype=np.uint64),
                args["numerators"], args["denominators"], args["counts"],
            )

    def test_median(self):
        with pytest.raises(TypeError):
            check_median_aggregation(
                np.array([4, 4, 4], dtype=np.uint64),
                np.array([0.2, 1.4, 2.6]),
                np.array([4], dtype=np.uint64),
                np.array([1]),
                np.array([1]),
            )


class TestTraffic:
    """The merged checks add no collective.

    Per PE: (messages sent, bytes sent, messages received, bytes
    received) on threads (8x16 m15: a 256-byte packed table, one-byte
    flags, 8-byte digests).  A sum-family verdict is one recursive-doubling
    allreduce, so every PE sends as many table bytes as it receives.
    """

    PER_PE = {
        2: {
            "sum": [(1, 256, 1, 256), (1, 256, 1, 256)],
            "count": [(1, 256, 1, 256), (1, 256, 1, 256)],
            "average": [(1, 513, 1, 513), (1, 513, 1, 513)],
            "median": [(2, 257, 2, 257), (2, 257, 2, 257)],
            "min": [(2, 9, 1, 1), (1, 1, 2, 9)],
            "max": [(2, 9, 1, 1), (1, 1, 2, 9)],
        },
        3: {
            "sum": [(2, 512, 2, 512), (1, 256, 1, 256), (1, 256, 1, 256)],
            "count": [(2, 512, 2, 512), (1, 256, 1, 256), (1, 256, 1, 256)],
            "average": [
                (2, 1026, 2, 1026), (1, 513, 1, 513), (1, 513, 1, 513),
            ],
            "median": [(4, 514, 4, 514), (2, 257, 2, 257), (2, 257, 2, 257)],
            "min": [(4, 18, 2, 2), (1, 1, 2, 9), (1, 1, 2, 9)],
            "max": [(4, 18, 2, 2), (1, 1, 2, 9), (1, 1, 2, 9)],
        },
    }

    @staticmethod
    def _traffic(name, p, seed):
        check = _six_checks(STRONG)[2][name]

        def run(comm, k, v):
            check(seed, comm, k, v)
            m = comm.meter
            return (
                m.messages_sent, m.bytes_sent,
                m.messages_received, m.bytes_received,
            )

        ctx = Context(p)
        return ctx.run(
            run, per_rank_args=list(zip(ctx.split(_KEYS), ctx.split(_VALUES)))
        )

    @pytest.mark.parametrize("name", sorted(_CHECKS))
    @pytest.mark.parametrize("p", [2, 3])
    def test_one_seed_sends_single_seed_traffic(self, name, p):
        assert self._traffic(name, p, 5) == self.PER_PE[p][name]

    @pytest.mark.parametrize("name", ["min", "max"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_extremum_seed_count_adds_no_message(self, name, p):
        one = self._traffic(name, p, 5)
        four = self._traffic(name, p, SEEDS[:4])
        assert [(t[0], t[2]) for t in four] == [(t[0], t[2]) for t in one]
