"""Tests for the multi-seed batched checkers (core/multiseed.py).

The load-bearing property: every per-seed table, verdict and fingerprint is
bit-identical to the corresponding single-seed checker instance, across
hash families and reduce operators.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.multiseed import (
    MultiSeedHashSumChecker,
    MultiSeedSumChecker,
    _pairs_condensed,
)
from repro.core.params import SumCheckConfig
from repro.core.permutation_checker import (
    HashSumPermutationChecker,
    wide_weighted_sum,
)
from repro.core.sum_checker import SumAggregationChecker
from repro.workloads.kv import aggregate_reference, sum_workload

SEEDS = np.arange(6, dtype=np.uint64) * np.uint64(1337) + np.uint64(5)


@pytest.fixture(scope="module")
def workload():
    keys, values = sum_workload(4_000, num_keys=300, seed=17)
    out_k, out_v = aggregate_reference(keys, values)
    bad_v = out_v.copy()
    bad_v[3] += 1
    return keys, values, out_k, out_v, bad_v


def _distinct_keys_workload(num_keys: int):
    """Pairs over exactly ``num_keys`` distinct keys (a third repeated)."""
    uniq = np.arange(num_keys, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    keys = np.concatenate([uniq, uniq[: num_keys // 3]])
    values = np.random.default_rng(num_keys).integers(-50, 51, size=keys.size)
    return keys, values


class TestPerSeedIdentity:
    """Multi-seed output must equal T independent single-seed checkers."""

    @pytest.mark.parametrize("family", ["Mix", "CRC", "Tab", "Tab64", "MShift"])
    @pytest.mark.parametrize("operator", ["+", "xor"])
    def test_tables_match_instances(self, family, operator, workload):
        keys, values = workload[:2]
        cfg = SumCheckConfig.parse("4x8 m5").with_hash(family)
        multi = MultiSeedSumChecker(cfg, SEEDS, operator=operator)
        tables = multi.local_tables(keys, values)
        raw = multi.local_tables_condensed(
            _pairs_condensed(keys, values, operator)
        )
        assert tables.shape == (SEEDS.size, cfg.iterations, cfg.d)
        for t, seed in enumerate(SEEDS):
            ref = SumAggregationChecker(cfg, int(seed), operator=operator)
            ref_tables = ref.local_tables(keys, values)
            assert np.array_equal(tables[t], ref_tables)
            assert np.array_equal(raw[t], ref_tables)

    @pytest.mark.parametrize(
        "num_seeds",
        # T = 17 derives its seed trees vectorized (more than 16 roots).
        [1, 6, 17],
        ids=lambda t: f"T{t}",
    )
    @pytest.mark.parametrize(
        "label, num_keys",
        [
            pytest.param(label, None, id=label)
            for label in ("3x37 m7", "1x2 m31", "8x16 m15")
        ]
        + [
            # Unique-key counts on both sides of every d**m super-group
            # width boundary (the width is capped at d**m <= keys).
            pytest.param(label, k, id=f"{label}-k{k}")
            for label, d in (("24x2 CRC m15", 2), ("8x16 m15", 16))
            for k in sorted(
                {0, 1, d - 1, d, d * d - 1, d * d, (1 << 16) - 1, 1 << 16}
            )
        ]
        + [
            # Super-groups of mixed widths ([3, 3, 2] groups at 4096
            # keys) through the stacked and the broadcast fused kernels.
            pytest.param(label, k, id=f"{label}-k{k}")
            for label in ("8x16 Tab64 m15", "8x16 MShift m15")
            for k in (4095, 4096)
        ],
    )
    def test_tables_match_across_configs(
        self, label, num_keys, num_seeds, workload
    ):
        if num_keys is None:
            keys, values = workload[:2]
        else:
            keys, values = _distinct_keys_workload(num_keys)
        cfg = SumCheckConfig.parse(label)
        seeds = np.arange(num_seeds, dtype=np.uint64) * np.uint64(
            1337
        ) + np.uint64(5)
        multi = MultiSeedSumChecker(cfg, seeds)
        raw_pairs = _pairs_condensed(keys, values)
        tables = multi.local_tables(keys, values)
        raw = multi.local_tables_condensed(raw_pairs)
        for t, seed in enumerate(seeds):
            ref_tables = SumAggregationChecker(cfg, int(seed)).local_tables(
                keys, values
            )
            assert np.array_equal(tables[t], ref_tables)
            assert np.array_equal(raw[t], ref_tables)
            # The seed's one-seed view folds the same table.
            view = multi.seed_view(t).local_tables_condensed(raw_pairs)
            assert np.array_equal(view[0], ref_tables)

    @pytest.mark.parametrize("operator", ["+", "xor"])
    def test_seed_view_derives_nothing(self, operator, workload, monkeypatch):
        import repro.core.multiseed as multiseed_mod

        keys, values, out_k, out_v, bad_v = workload
        cfg = SumCheckConfig.parse("8x16 m15")
        seeds = np.arange(64, dtype=np.uint64) * np.uint64(31) + np.uint64(2)
        block = MultiSeedSumChecker(cfg, seeds, operator=operator)

        def derive(*args, **kwargs):
            raise AssertionError("a seed view must not derive anything")

        for name in ("derive_seed_array", "draw_moduli", "evaluation_seeds"):
            monkeypatch.setattr(multiseed_mod, name, derive)
        views = {t: block.seed_view(t) for t in (0, 17, 63)}
        monkeypatch.undo()
        for t, view in views.items():
            fresh = MultiSeedSumChecker(cfg, [seeds[t]], operator=operator)
            assert view.num_seeds == 1 and view.seeds.tolist() == [seeds[t]]
            assert np.shares_memory(view.moduli, block.moduli)
            assert np.array_equal(view.moduli, fresh.moduli)
            for side in ((keys, values), (out_k, bad_v)):
                raw = _pairs_condensed(*side, operator)
                assert np.array_equal(
                    view.local_tables_condensed(raw),
                    fresh.local_tables_condensed(raw),
                )
            got = view.check_local((keys, values), (out_k, bad_v))
            want = fresh.check_local((keys, values), (out_k, bad_v))
            assert got.details == want.details
        with pytest.raises(IndexError):
            block.seed_view(64)

    @pytest.mark.parametrize("operator", ["+", "xor"])
    def test_verdicts_match_instances(self, operator, workload):
        keys, values, out_k, out_v, bad_v = workload
        cfg = SumCheckConfig.parse("1x2 m4")  # weak → per-seed verdicts vary
        seeds = np.arange(30, dtype=np.uint64)
        multi = MultiSeedSumChecker(cfg, seeds, operator=operator)
        result = multi.check_local((keys, values), (out_k, bad_v))
        expected = [
            SumAggregationChecker(cfg, int(s), operator=operator)
            .check_local((keys, values), (out_k, bad_v))
            .accepted
            for s in seeds
        ]
        assert result.details["per_seed_accepted"] == expected
        assert result.accepted == all(expected)

    def test_accepts_correct_result_everywhere(self, workload):
        keys, values, out_k, out_v = workload[:4]
        cfg = SumCheckConfig.parse("4x8 m5")
        result = MultiSeedSumChecker(cfg, SEEDS).check_local(
            (keys, values), (out_k, out_v)
        )
        assert result.accepted
        assert result.details["per_seed_accepted"] == [True] * SEEDS.size

    def test_detects_delta_matches_instances(self):
        cfg = SumCheckConfig.parse("1x2 m4")
        seeds = np.arange(40, dtype=np.uint64)
        dk = np.array([123, 456], dtype=np.uint64)
        dv = np.array([5, -5], dtype=np.int64)
        flags = MultiSeedSumChecker(cfg, seeds).detects_delta(dk, dv)
        expected = np.array(
            [
                SumAggregationChecker(cfg, int(s)).detects_delta(dk, dv)
                for s in seeds
            ]
        )
        assert np.array_equal(flags, expected)
        assert flags.any() and not flags.all()  # weak config: both occur

    def test_single_seed_degenerates_to_instance(self, workload):
        keys, values = workload[:2]
        cfg = SumCheckConfig.parse("4x8 m5")
        tables = MultiSeedSumChecker(cfg, [9]).local_tables(keys, values)
        ref = SumAggregationChecker(cfg, 9).local_tables(keys, values)
        assert np.array_equal(tables[0], ref)

    def test_seed_chunking_is_invisible(self, workload):
        """Block boundaries in the batched hash pass must not matter."""
        keys, values = workload[:2]
        cfg = SumCheckConfig.parse("4x8 m5")
        whole = MultiSeedSumChecker(cfg, SEEDS).local_tables(keys, values)
        tiny = MultiSeedSumChecker(
            cfg, SEEDS, chunk_elements=1
        ).local_tables(keys, values)
        assert np.array_equal(whole, tiny)


class TestMagnitudePaths:
    """All accumulation paths (float-fast, agg-mod, per-element) are exact,
    from condensed and from raw pairs alike."""

    CFG = SumCheckConfig.parse("4x8 m15")

    def _assert_matches_instances(self, keys, values):
        multi = MultiSeedSumChecker(self.CFG, SEEDS)
        tables = multi.local_tables(keys, values)
        raw = multi.local_tables_condensed(_pairs_condensed(keys, values))
        for t, seed in enumerate(SEEDS):
            ref = SumAggregationChecker(self.CFG, int(seed))
            ref_tables = ref.local_tables(keys, values)
            assert np.array_equal(tables[t], ref_tables)
            assert np.array_equal(raw[t], ref_tables)

    def test_small_values_use_float_bincount(self):
        # Σ|v| < 2^52: the float64 bincount path with deferred modulo.
        keys = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        values = np.array([2**40, -7, 5, 5, -(2**40)], dtype=np.int64)
        self._assert_matches_instances(keys, values)

    def test_int64_min_values(self):
        keys = np.array([1, 2, 1, 3], dtype=np.uint64)
        values = np.array([-(2**63), 3, 5, -(2**63)], dtype=np.int64)
        self._assert_matches_instances(keys, values)

    def test_overflowing_aggregate_falls_back_per_element(self):
        # Σ|v| ≥ 2^63: per-key aggregation is skipped, lanes stay exact.
        keys = np.array([1, 2, 1, 3], dtype=np.uint64)
        values = np.array([2**62, 2**62, -(2**63), 7], dtype=np.int64)
        self._assert_matches_instances(keys, values)

    def test_mid_range_uses_int64_aggregation(self):
        # 2^52 ≤ bound < 2^63: the agg-mod path (int64 scatter, chunked mod).
        keys = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        values = np.array([2**50, -(2**41), 5, 5, 2**50], dtype=np.int64)
        self._assert_matches_instances(keys, values)

    def test_empty_input(self):
        empty_k = np.zeros(0, dtype=np.uint64)
        empty_v = np.zeros(0, dtype=np.int64)
        tables = MultiSeedSumChecker(self.CFG, SEEDS).local_tables(
            empty_k, empty_v
        )
        assert not tables.any()


class TestWireFormat:
    @pytest.mark.parametrize("label", ["4x8 m5", "3x37 m7", "8x16 m15"])
    def test_pack_unpack_round_trip(self, label):
        cfg = SumCheckConfig.parse(label)
        multi = MultiSeedSumChecker(cfg, SEEDS)
        rng = np.random.default_rng(3)
        tables = np.stack(
            [
                np.stack(
                    [
                        rng.integers(0, int(m), cfg.d, dtype=np.int64)
                        for m in multi.moduli[t]
                    ]
                )
                for t in range(SEEDS.size)
            ]
        )
        assert np.array_equal(multi.unpack(multi.pack(tables)), tables)

    def test_packed_size_covers_all_seeds(self):
        cfg = SumCheckConfig.parse("8x16 m15")
        multi = MultiSeedSumChecker(cfg, SEEDS)
        payload = multi.pack(
            np.zeros((SEEDS.size, cfg.iterations, cfg.d), dtype=np.int64)
        )
        assert multi.table_bits == SEEDS.size * cfg.table_bits
        assert len(payload) == (multi.table_bits + 7) // 8

    def test_xor_wire_round_trip(self):
        cfg = SumCheckConfig.parse("4x8 m5")
        multi = MultiSeedSumChecker(cfg, SEEDS, operator="xor")
        rng = np.random.default_rng(4)
        tables = (
            rng.integers(
                -(2**63), 2**63, (SEEDS.size, cfg.iterations, cfg.d),
                dtype=np.int64,
            )
        )
        assert np.array_equal(multi.unpack(multi.pack(tables)), tables)


class TestDistributed:
    @pytest.mark.parametrize("p", [2, 4])
    def test_matches_sequential_per_seed(self, p, workload):
        keys, values, out_k, out_v, bad_v = workload
        cfg = SumCheckConfig.parse("1x4 m4")  # weak → mixed per-seed verdicts
        seeds = np.arange(20, dtype=np.uint64)
        sequential = MultiSeedSumChecker(cfg, seeds).check_local(
            (keys, values), (out_k, bad_v)
        )
        ctx = Context(p)

        def run(comm, k, v, ok, ov):
            return MultiSeedSumChecker(cfg, seeds).check_distributed(
                comm, (k, v), (ok, ov)
            )

        results = ctx.run(
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
        for result in results:
            assert (
                result.details["per_seed_accepted"]
                == sequential.details["per_seed_accepted"]
            )
            assert result.accepted == sequential.accepted

    def test_single_collective_per_check(self, workload):
        """All T seeds settle in one reduce + one bcast (no per-seed trips)."""
        keys, values, out_k, out_v = workload[:4]
        cfg = SumCheckConfig.parse("4x8 m5")
        seeds = np.arange(16, dtype=np.uint64)
        ctx = Context(4)

        def run(comm, k, v, ok, ov):
            return MultiSeedSumChecker(cfg, seeds).check_distributed(
                comm, (k, v), (ok, ov)
            ).accepted

        verdicts = ctx.run(
            run,
            per_rank_args=list(
                zip(
                    ctx.split(keys),
                    ctx.split(values),
                    ctx.split(out_k),
                    ctx.split(out_v),
                )
            ),
        )
        assert verdicts == [True] * 4
        # A binomial-tree reduce plus broadcast over p PEs costs 2(p−1)
        # messages for the whole 16-seed check.
        assert ctx.traffic_summary()["total_messages"] == 2 * (4 - 1)


class TestMultiSeedPermutation:
    @pytest.mark.parametrize("family", ["Mix", "CRC", "Tab"])
    def test_fingerprints_match_instances(self, family, rng):
        elements = rng.integers(0, 500, 2_000).astype(np.uint64)  # duplicates
        multi = MultiSeedHashSumChecker(
            SEEDS, iterations=2, hash_family=family, log_h=8
        )
        fps = multi.fingerprints(elements)
        for t, seed in enumerate(SEEDS):
            ref = HashSumPermutationChecker(2, family, 8, int(seed))
            assert fps[t] == ref.fingerprint(elements)

    def test_verdicts_match_instances(self, rng):
        elements = rng.integers(0, 10**6, 3_000).astype(np.uint64)
        output = np.sort(elements)
        bad = output.copy()
        bad[5] += 1
        multi = MultiSeedHashSumChecker(SEEDS, iterations=1, log_h=2)
        result = multi.check(elements, bad)
        expected = [
            HashSumPermutationChecker(1, "Mix", 2, int(s))
            .check(elements, bad)
            .accepted
            for s in SEEDS
        ]
        assert result.details["per_seed_accepted"] == expected
        assert multi.check(elements, output).accepted

    def test_multi_sequence_sides(self, rng):
        elements = rng.integers(0, 1000, 1_500).astype(np.uint64)
        multi = MultiSeedHashSumChecker(SEEDS, iterations=2, log_h=16)
        split = [elements[:400], elements[400:]]
        assert multi.fingerprints(split) == multi.fingerprints(elements)

    def test_chunking_is_invisible(self, rng):
        elements = rng.integers(0, 300, 1_000).astype(np.uint64)
        a = MultiSeedHashSumChecker(SEEDS, log_h=16)
        b = MultiSeedHashSumChecker(SEEDS, log_h=16, chunk_elements=1)
        assert a.fingerprints(elements) == b.fingerprints(elements)

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_single_allreduce(self, p, rng):
        elements = np.arange(2_000, dtype=np.uint64)
        output = elements[::-1].copy()
        ctx = Context(p)

        def run(comm, e, o):
            return MultiSeedHashSumChecker(SEEDS, log_h=16).check(
                e, o, comm=comm
            ).accepted

        verdicts = ctx.run(
            run, per_rank_args=list(zip(ctx.split(elements), ctx.split(output)))
        )
        assert verdicts == [True] * p

    def test_log_h_validation(self):
        with pytest.raises(ValueError):
            MultiSeedHashSumChecker(SEEDS, hash_family="CRC", log_h=33)


class TestWideWeightedSum:
    def test_matches_python_reference(self, rng):
        values = rng.integers(0, 2**63, 200).astype(np.uint64) * np.uint64(2)
        weights = rng.integers(1, 2**20, 200).astype(np.uint64)
        expected = sum(int(v) * int(w) for v, w in zip(values, weights))
        assert wide_weighted_sum(values, weights) == expected

    def test_rejects_oversized_weights(self):
        with pytest.raises(ValueError):
            wide_weighted_sum(
                np.array([1], dtype=np.uint64),
                np.array([1 << 32], dtype=np.uint64),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            wide_weighted_sum(
                np.array([1, 2], dtype=np.uint64),
                np.array([1], dtype=np.uint64),
            )


class TestValidation:
    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            MultiSeedSumChecker(SumCheckConfig.parse("4x8 m5"), SEEDS, "min")

    def test_rejects_empty_seed_array(self):
        with pytest.raises(ValueError):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"), np.zeros(0, dtype=np.uint64)
            )

    def test_rejects_float_seeds(self):
        # Same policy as _coerce_keys: truncation could collapse
        # "independent" seeds (0.4 and 0.6 both become 0).
        with pytest.raises(TypeError):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"), np.array([0.4, 0.6])
            )

    def test_rejects_bad_chunk_budget(self):
        with pytest.raises(ValueError):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"), SEEDS, chunk_elements=0
            )

    def test_rejects_length_mismatch(self, workload):
        keys = workload[0]
        multi = MultiSeedSumChecker(SumCheckConfig.parse("4x8 m5"), SEEDS)
        with pytest.raises(ValueError):
            multi.local_tables(keys, np.zeros(3, dtype=np.int64))

    def test_rejects_duplicate_seeds(self):
        # Duplicates silently weaken δ^T to δ^(distinct): refuse them.
        with pytest.raises(ValueError, match="distinct"):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"), np.array([3, 5, 3])
            )
        with pytest.raises(ValueError, match="distinct"):
            MultiSeedHashSumChecker(np.array([7, 7], dtype=np.uint64))

    def test_duplicate_detection_runs_after_sign_coercion(self):
        # -1 (int64) and 2^64-1 (uint64) are the same seed after coercion;
        # the signed form alone must still be accepted as distinct seeds.
        cfg = SumCheckConfig.parse("4x8 m5")
        with pytest.raises(ValueError, match="distinct"):
            MultiSeedSumChecker(cfg, np.array([-1, -1], dtype=np.int64))
        MultiSeedSumChecker(cfg, np.array([-1, 5], dtype=np.int64))  # ok

    def test_rejects_2d_seed_array(self):
        with pytest.raises(ValueError):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"),
                np.arange(4, dtype=np.uint64).reshape(2, 2),
            )

    def test_perm_empty_key_arrays(self):
        multi = MultiSeedHashSumChecker(SEEDS, iterations=2, log_h=16)
        empty = np.zeros(0, dtype=np.uint64)
        assert multi.fingerprints(empty) == [[0, 0]] * SEEDS.size
        result = multi.check(empty, empty)
        assert result.accepted
        assert result.details["per_seed_accepted"] == [True] * SEEDS.size

    def test_sum_empty_vs_nonempty_rejects(self):
        multi = MultiSeedSumChecker(SumCheckConfig.parse("8x16 m15"), SEEDS)
        empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        nonempty = (
            np.array([1], dtype=np.uint64),
            np.array([5], dtype=np.int64),
        )
        result = multi.check_local(nonempty, empty)
        assert not result.accepted
        assert result.details["per_seed_accepted"] == [False] * SEEDS.size

    def test_signed_seed_array_coerced(self, workload):
        keys, values = workload[:2]
        cfg = SumCheckConfig.parse("4x8 m5")
        a = MultiSeedSumChecker(cfg, np.array([-1, 5], dtype=np.int64))
        b = MultiSeedSumChecker(
            cfg, np.array([2**64 - 1, 5], dtype=np.uint64)
        )
        assert np.array_equal(
            a.local_tables(keys, values), b.local_tables(keys, values)
        )
