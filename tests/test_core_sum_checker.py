"""Tests for the §4 sum-aggregation checker (Algorithm 1) under one seed."""

import numpy as np
import pytest

from repro.core.multiseed import (
    MultiSeedSumChecker,
    check_count_aggregation,
    check_sum_aggregation,
)
from repro.core.params import SumCheckConfig
from repro.core.sum_checker import (
    _scatter_add_mod,
    draw_moduli,
    reference_tables,
)
from repro.workloads.kv import aggregate_reference, sum_workload

CFG = SumCheckConfig.parse("4x8 m15")
STRONG = SumCheckConfig.parse("8x16 m15")


@pytest.fixture(scope="module")
def workload():
    keys, values = sum_workload(5_000, num_keys=400, seed=11)
    out_k, out_v = aggregate_reference(keys, values)
    return keys, values, out_k, out_v


class TestOneSidedError:
    """A checker must never reject a correct result."""

    def test_accepts_correct_result(self, workload):
        keys, values, out_k, out_v = workload
        for seed in range(25):
            result = check_sum_aggregation(
                (keys, values), (out_k, out_v), CFG, seed=seed
            )
            assert result.accepted, f"false rejection at seed {seed}"

    def test_accepts_permuted_output(self, workload):
        keys, values, out_k, out_v = workload
        perm = np.random.default_rng(0).permutation(out_k.size)
        result = check_sum_aggregation(
            (keys, values), (out_k[perm], out_v[perm]), CFG, seed=3
        )
        assert result.accepted

    def test_accepts_distributed_output_split(self, workload):
        """The asserted result may live anywhere — only multisets matter."""
        keys, values, out_k, out_v = workload
        # Split one key's sum into two partial entries is NOT allowed (it
        # changes the multiset) — but splitting the key *list* is fine.
        half = out_k.size // 2
        checker = MultiSeedSumChecker(CFG, 5)
        t1 = checker.local_tables(out_k[:half], out_v[:half])
        t2 = checker.local_tables(out_k[half:], out_v[half:])
        combined = checker.combine(t1, t2)
        full = checker.local_tables(out_k, out_v)
        assert np.array_equal(combined, full)

    def test_empty_input_empty_output(self):
        empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        assert check_sum_aggregation(empty, empty, CFG, seed=1).accepted


class TestDetection:
    def test_single_value_off_by_one(self, workload):
        keys, values, out_k, out_v = workload
        bad = out_v.copy()
        bad[7] += 1
        result = check_sum_aggregation((keys, values), (out_k, bad), STRONG, seed=2)
        assert not result.accepted

    def test_dropped_key(self, workload):
        keys, values, out_k, out_v = workload
        result = check_sum_aggregation(
            (keys, values), (out_k[1:], out_v[1:]), STRONG, seed=2
        )
        assert not result.accepted

    def test_extra_key(self, workload):
        keys, values, out_k, out_v = workload
        ek = np.append(out_k, np.uint64(10**9))
        ev = np.append(out_v, np.int64(1))
        result = check_sum_aggregation((keys, values), (ek, ev), STRONG, seed=2)
        assert not result.accepted

    def test_swapped_keys(self, workload):
        keys, values, out_k, out_v = workload
        bad_k = out_k.copy()
        # Swap the sums of two keys with different sums.
        i, j = 0, 1
        assert out_v[i] != out_v[j] or True
        bad_v = out_v.copy()
        bad_v[i], bad_v[j] = out_v[j], out_v[i]
        if bad_v[i] != out_v[i]:
            result = check_sum_aggregation(
                (keys, values), (bad_k, bad_v), STRONG, seed=2
            )
            assert not result.accepted

    def test_detection_rate_matches_bound(self):
        """Weak config (1x2 m31): single-key faults evade with P ≈ 1/2."""
        cfg = SumCheckConfig(iterations=1, d=2, rhat=1 << 31)
        misses = 0
        trials = 400
        for seed in range(trials):
            checker = MultiSeedSumChecker(cfg, seed)
            if not checker.detects_delta(
                np.array([123], dtype=np.uint64), np.array([5], dtype=np.int64)
            )[0]:
                misses += 1
        # P[miss] = P[both keys同bucket]... single key: delta lands in one
        # bucket; the diff is nonzero there unless 5 ≡ 0 mod r (impossible
        # for r > 5) — wait: a single-key delta is ALWAYS detected for d≥1.
        assert misses == 0

    def test_two_key_cancellation_rate(self):
        """Two opposite deltas evade iff hashed to the same bucket (P=1/d)."""
        cfg = SumCheckConfig(iterations=1, d=2, rhat=1 << 31)
        misses = sum(
            not MultiSeedSumChecker(cfg, seed).detects_delta(
                np.array([123, 456], dtype=np.uint64),
                np.array([5, -5], dtype=np.int64),
            )[0]
            for seed in range(600)
        )
        assert 0.4 < misses / 600 < 0.6  # expect 1/2


class TestDeltaShortcut:
    """detects_delta must agree exactly with the full check."""

    @pytest.mark.parametrize("seed", range(30))
    def test_agreement_on_random_faults(self, seed):
        rng = np.random.default_rng(seed)
        keys, values = sum_workload(500, num_keys=50, seed=seed)
        out_k, out_v = aggregate_reference(keys, values)
        # Random sparse fault on the output.
        idx = rng.integers(out_k.size)
        delta = int(rng.integers(1, 100))
        bad_v = out_v.copy()
        bad_v[idx] += delta
        cfg = SumCheckConfig(iterations=1, d=2, rhat=8)  # weak → misses occur
        checker = MultiSeedSumChecker(cfg, seed * 17)
        full = checker.check_local((keys, values), (out_k, bad_v))
        shortcut = checker.detects_delta(
            np.array([out_k[idx]], dtype=np.uint64),
            np.array([delta], dtype=np.int64),
        )[0]
        assert full.accepted == (not shortcut)


class TestWireFormat:
    @pytest.mark.parametrize(
        "label", ["4x8 m5", "1x2 m31", "8x16 m15", "3x37 m7"]
    )
    def test_pack_unpack_round_trip(self, label):
        cfg = SumCheckConfig.parse(label)
        checker = MultiSeedSumChecker(cfg, 1)
        rng = np.random.default_rng(0)
        table = np.stack(
            [
                rng.integers(0, int(m), cfg.d, dtype=np.int64)
                for m in checker.moduli[0]
            ]
        )[None]
        assert np.array_equal(checker.unpack(checker.pack(table)), table)

    def test_packed_size_matches_table_bits(self):
        cfg = SumCheckConfig.parse("8x16 m15")
        checker = MultiSeedSumChecker(cfg, 1)
        table = np.zeros((1, cfg.iterations, cfg.d), dtype=np.int64)
        packed = checker.pack(table)
        assert len(packed) == (cfg.table_bits + 7) // 8


class TestModuli:
    def test_in_half_open_interval(self):
        cfg = SumCheckConfig.parse("8x16 m5")
        for seed in range(20):
            moduli = draw_moduli(cfg, seed)
            assert np.all(moduli > cfg.rhat)
            assert np.all(moduli <= 2 * cfg.rhat)

    def test_vary_across_iterations_and_seeds(self):
        cfg = SumCheckConfig.parse("8x16 m15")
        a = draw_moduli(cfg, 1)
        b = draw_moduli(cfg, 2)
        assert not np.array_equal(a, b)
        assert len(set(a.tolist())) > 1


class TestXorOperator:
    def test_accepts_correct_xor_aggregation(self):
        keys = np.array([1, 1, 2, 2, 2], dtype=np.uint64)
        values = np.array([3, 5, 7, 9, 11], dtype=np.int64)
        out_k = np.array([1, 2], dtype=np.uint64)
        out_v = np.array([3 ^ 5, 7 ^ 9 ^ 11], dtype=np.int64)
        result = check_sum_aggregation(
            (keys, values), (out_k, out_v), STRONG, seed=1, operator="xor"
        )
        assert result.accepted

    def test_detects_xor_fault(self):
        keys = np.array([1, 1, 2], dtype=np.uint64)
        values = np.array([3, 5, 7], dtype=np.int64)
        out_k = np.array([1, 2], dtype=np.uint64)
        out_v = np.array([3 ^ 5 ^ 1, 7], dtype=np.int64)
        result = check_sum_aggregation(
            (keys, values), (out_k, out_v), STRONG, seed=1, operator="xor"
        )
        assert not result.accepted

    def test_rejects_unknown_operator(self):
        kv = (np.array([1], dtype=np.uint64), np.array([1], dtype=np.int64))
        with pytest.raises(ValueError):
            check_sum_aggregation(kv, kv, CFG, operator="min")
        with pytest.raises(ValueError):
            reference_tables(CFG, 0, *kv, operator="min")


class TestCountAggregation:
    def test_accepts_correct_counts(self):
        keys = np.array([5, 5, 5, 9], dtype=np.uint64)
        out = (np.array([5, 9], dtype=np.uint64), np.array([3, 1], dtype=np.int64))
        assert check_count_aggregation(keys, out, STRONG, seed=1).accepted

    def test_detects_wrong_count(self):
        keys = np.array([5, 5, 5, 9], dtype=np.uint64)
        out = (np.array([5, 9], dtype=np.uint64), np.array([2, 1], dtype=np.int64))
        assert not check_count_aggregation(keys, out, STRONG, seed=1).accepted


class TestScatterAddMod:
    def test_matches_python_dict(self, rng):
        r = 101
        d = 16
        buckets = rng.integers(0, d, 5_000).astype(np.intp)
        values = rng.integers(0, r, 5_000, dtype=np.int64)
        table = np.zeros(d, dtype=np.int64)
        _scatter_add_mod(table, buckets, values, r)
        ref = [0] * d
        for b, v in zip(buckets.tolist(), values.tolist()):
            ref[b] = (ref[b] + v) % r
        assert table.tolist() == ref

    def test_huge_modulus_chunks_exactly(self, rng):
        # r near 2^51 forces ~2-element chunks: the deferred-modulo path
        # must stay exact across many chunk boundaries.
        r = (1 << 51) - 129
        buckets = rng.integers(0, 4, 64).astype(np.intp)
        values = rng.integers(0, r, 64, dtype=np.int64)
        table = np.zeros(4, dtype=np.int64)
        _scatter_add_mod(table, buckets, values, r)
        ref = [0, 0, 0, 0]
        for b, v in zip(buckets.tolist(), values.tolist()):
            ref[b] = (ref[b] + v) % r
        assert table.tolist() == ref

    def test_empty_is_noop(self):
        table = np.arange(5, dtype=np.int64)
        _scatter_add_mod(
            table, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64), 7
        )
        assert table.tolist() == [0, 1, 2, 3, 4]


class TestInt64MinRegression:
    """The fast-path guard must survive |int64 min| (np.abs overflows)."""

    def test_batched_tables_equal_exact_scatter_path(self):
        from repro.hashing.bitgroups import BucketAssigner
        from repro.hashing.families import get_family
        from repro.util.rng import derive_seed

        cfg = SumCheckConfig.parse("4x8 m15")
        keys = np.array([7, 11, 7, 13], dtype=np.uint64)
        values = np.array([-(2**63), 3, 5, -(2**63)], dtype=np.int64)
        buckets = BucketAssigner(
            get_family(cfg.hash_family), cfg.d, cfg.iterations,
            derive_seed(3, "sum-checker", "buckets"),
        ).assign(keys)
        moduli = draw_moduli(cfg, 3)
        expected = np.zeros((cfg.iterations, cfg.d), dtype=np.int64)
        for j in range(cfg.iterations):
            r = int(moduli[j])
            _scatter_add_mod(expected[j], buckets[j], values % r, r)
        tables = MultiSeedSumChecker(cfg, 3).local_tables(keys, values)
        assert np.array_equal(tables[0], expected)
        assert np.array_equal(reference_tables(cfg, 3, keys, values), expected)

    def test_max_magnitude_is_overflow_safe(self):
        from repro.core.sum_checker import _max_magnitude

        assert _max_magnitude(np.array([-(2**63)], dtype=np.int64)) == 2**63
        assert _max_magnitude(np.array([], dtype=np.int64)) == 0
        assert _max_magnitude(np.array([-3, 2], dtype=np.int64)) == 3
        # np.abs is the broken baseline this guards against.
        assert int(np.abs(np.array([-(2**63)], dtype=np.int64)).max()) < 0

    @pytest.mark.parametrize(
        "name",
        [
            "empty", "zeros", "small-random", "wide-random", "full-random",
            "int64-min", "int64-extremes", "2^62", "nmax-below", "abs-sum-above",
            "float-rounding",
        ],
    )
    def test_magnitude_bound_covers_abs_sum(self, name):
        from repro.core.sum_checker import _magnitude_bound

        rng = np.random.default_rng(len(name))
        i64 = np.iinfo(np.int64)
        values = {
            "empty": [],
            "zeros": [0] * 9,
            "small-random": rng.integers(-1000, 1001, 10_000),
            "wide-random": rng.integers(-(2**45), 2**45, 10_000),
            "full-random": rng.integers(i64.min, i64.max, 1_000),
            "int64-min": [i64.min],
            "int64-extremes": [i64.min, i64.max, i64.min],
            "2^62": [2**62, -(2**62), 2**62 - 1],
            "nmax-below": [2**50 - 1] * 4,
            "abs-sum-above": [2**51, -(2**51), 1],
            # Σ|v| ≈ 2^62 in float64: pairwise rounding must stay covered.
            "float-rounding": (2**48 + 2 * rng.integers(0, 2**20, 16_384) + 1),
        }[name]
        values = np.asarray(values, dtype=np.int64)
        assert _magnitude_bound(values) >= sum(abs(int(v)) for v in values)

    def test_guard_chooses_slow_path_not_inexact_float(self):
        # One int64-min value among small ones: the old guard computed a
        # *negative* bound and took the float64 bincount path, whose sums
        # (−2^63 + small) exceed the 2^52 mantissa and round.
        cfg = SumCheckConfig(iterations=1, d=2, rhat=1 << 15)
        keys = np.array([5, 5], dtype=np.uint64)
        values = np.array([-(2**63), 1], dtype=np.int64)
        r = int(draw_moduli(cfg, 1)[0])
        for table in (
            MultiSeedSumChecker(cfg, 1).local_tables(keys, values),
            reference_tables(cfg, 1, keys, values),
        ):
            assert table.ravel()[table.ravel() != 0][0] == (
                (-(2**63) + 1) % r
            )


class TestInputValidation:
    def test_float_values_rejected(self):
        with pytest.raises(TypeError):
            check_sum_aggregation(
                (np.array([1], dtype=np.uint64), np.array([1.5])),
                (np.array([1], dtype=np.uint64), np.array([1], dtype=np.int64)),
                CFG,
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_sum_aggregation(
                (np.array([1, 2], dtype=np.uint64), np.array([1], dtype=np.int64)),
                (np.array([1], dtype=np.uint64), np.array([1], dtype=np.int64)),
                CFG,
            )

    def test_float_keys_rejected(self):
        # astype(np.uint64) would truncate 1.5 and 1.7 to the same key 1,
        # merging distinct keys — the checker could then accept an output
        # it must reject.  Non-integer key dtypes now raise instead.
        with pytest.raises(TypeError):
            check_sum_aggregation(
                (np.array([1.5, 1.7]), np.array([1, 2], dtype=np.int64)),
                (
                    np.array([1], dtype=np.uint64),
                    np.array([3], dtype=np.int64),
                ),
                CFG,
            )

    def test_signed_keys_coerced(self):
        keys = np.array([-1, 5], dtype=np.int64)
        values = np.array([2, 3], dtype=np.int64)
        result = check_sum_aggregation((keys, values), (keys, values), CFG, seed=1)
        assert result.accepted


class TestDistributed:
    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_matches_sequential(self, p, workload):
        from repro.comm.context import Context

        keys, values, out_k, out_v = workload
        bad_v = out_v.copy()
        bad_v[0] += 1
        ctx = Context(p)
        key_chunks = ctx.split(keys)
        val_chunks = ctx.split(values)
        ok_chunks = ctx.split(out_k)
        ov_chunks = ctx.split(out_v)
        bad_chunks = ctx.split(bad_v)

        def good(comm, k, v, ok, ov):
            return check_sum_aggregation(
                (k, v), (ok, ov), STRONG, seed=9, comm=comm
            ).accepted

        verdicts = ctx.run(
            good,
            per_rank_args=list(
                zip(key_chunks, val_chunks, ok_chunks, ov_chunks)
            ),
        )
        assert verdicts == [True] * p

        verdicts = ctx.run(
            good,
            per_rank_args=list(
                zip(key_chunks, val_chunks, ok_chunks, bad_chunks)
            ),
        )
        assert verdicts == [False] * p


class TestWireFormatChunked:
    """The chunked bit-(un)packing must stay exact for any residue width.

    A one-seed checker's wire carries one ``(iterations, d)`` table."""

    @pytest.mark.parametrize("log_rhat", [2, 4, 6, 10, 16, 30])
    def test_round_trip_property_odd_residue_bits(self, log_rhat):
        # rhat = 2^k gives residue_bits = k + 1: odd widths for even k.
        cfg = SumCheckConfig(iterations=5, d=13, rhat=1 << log_rhat)
        checker = MultiSeedSumChecker(cfg, log_rhat)
        rng = np.random.default_rng(log_rhat)
        for _ in range(5):
            table = np.stack(
                [
                    rng.integers(0, int(m), cfg.d, dtype=np.int64)
                    for m in checker.moduli[0]
                ]
            )
            assert np.array_equal(checker.unpack(checker.pack(table[None]))[0], table)
            assert len(checker.pack(table[None])) == (cfg.table_bits + 7) // 8

    def test_round_trip_one_residue_bit(self):
        # r̂ = 1 is the width floor: r is always 2, one bit per residue.
        cfg = SumCheckConfig(iterations=3, d=5, rhat=1)
        checker = MultiSeedSumChecker(cfg, 7)
        assert cfg.residue_bits == 1
        assert np.all(checker.moduli == 2)
        rng = np.random.default_rng(7)
        table = rng.integers(0, 2, (cfg.iterations, cfg.d), dtype=np.int64)
        assert np.array_equal(checker.unpack(checker.pack(table[None]))[0], table)
        assert len(checker.pack(table[None])) == (cfg.table_bits + 7) // 8

    def test_round_trip_widest_residues(self):
        # r̂ near 2^62 gives 63-bit residues — the widest int64 can carry.
        cfg = SumCheckConfig(iterations=2, d=7, rhat=(1 << 62) - 1)
        checker = MultiSeedSumChecker(cfg, 5)
        assert cfg.residue_bits == 63
        assert np.all(checker.moduli > cfg.rhat)
        rng = np.random.default_rng(5)
        table = np.stack(
            [
                rng.integers(0, int(m), cfg.d, dtype=np.int64)
                for m in checker.moduli[0]
            ]
        )
        assert np.array_equal(checker.unpack(checker.pack(table[None]))[0], table)

    @pytest.mark.parametrize("extra", [-3, 1, 7])
    def test_round_trip_table_not_multiple_of_pack_chunk(self, extra):
        from repro.core.sum_checker import _PACK_CHUNK_RESIDUES

        cfg = SumCheckConfig(
            iterations=1, d=_PACK_CHUNK_RESIDUES + extra, rhat=1 << 2
        )
        checker = MultiSeedSumChecker(cfg, extra & 7)
        rng = np.random.default_rng(extra & 7)
        table = rng.integers(
            0, int(checker.moduli[0, 0]), (1, cfg.d), dtype=np.int64
        )
        assert np.array_equal(checker.unpack(checker.pack(table[None]))[0], table)
        assert len(checker.pack(table[None])) == (cfg.table_bits + 7) // 8

    def test_xor_wire_round_trip(self):
        # The xor operator ships raw 64-bit lanes; negative int64 views
        # must survive the trip bit-for-bit.
        cfg = SumCheckConfig.parse("4x8 m5")
        checker = MultiSeedSumChecker(cfg, 2, operator="xor")
        rng = np.random.default_rng(2)
        table = rng.integers(
            -(2**63), 2**63, (cfg.iterations, cfg.d), dtype=np.int64
        )
        assert np.array_equal(checker.unpack(checker.pack(table[None]))[0], table)

    def test_many_chunk_boundaries(self):
        # A table larger than the pack chunk exercises chunk stitching.
        from repro.core.sum_checker import _PACK_CHUNK_RESIDUES

        cfg = SumCheckConfig(
            iterations=3, d=_PACK_CHUNK_RESIDUES // 2 + 5, rhat=1 << 4
        )
        checker = MultiSeedSumChecker(cfg, 2)
        rng = np.random.default_rng(2)
        table = np.stack(
            [
                rng.integers(0, int(m), cfg.d, dtype=np.int64)
                for m in checker.moduli[0]
            ]
        )
        assert np.array_equal(checker.unpack(checker.pack(table[None]))[0], table)


class TestVectorizedModuli:
    def test_same_drawn_values_as_scalar_loop(self):
        """The batched modulus draw reproduces the historical per-iteration
        scalar draws exactly."""
        from repro.util.rng import derive_seed, uniform_below

        for label, seed in (("8x16 m15", 3), ("1x2 m31", 0xF163), ("16x16 m15", 9)):
            cfg = SumCheckConfig.parse(label)
            expected = [
                cfg.rhat
                + 1
                + uniform_below(
                    derive_seed(seed, "sum-checker", "modulus", j), cfg.rhat
                )
                for j in range(cfg.iterations)
            ]
            assert draw_moduli(cfg, seed).tolist() == expected
            assert MultiSeedSumChecker(cfg, seed).moduli.tolist() == [expected]

    def test_batched_moduli_match_scalar_draws(self):
        cfg = SumCheckConfig.parse("4x8 m7")
        seeds = np.arange(20, dtype=np.uint64) * np.uint64(101) + np.uint64(3)
        matrix = draw_moduli(cfg, seeds)
        assert matrix.shape == (20, cfg.iterations)
        for t in range(20):
            assert np.array_equal(matrix[t], draw_moduli(cfg, int(seeds[t])))
