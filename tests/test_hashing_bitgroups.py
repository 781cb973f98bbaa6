"""Tests for bit-parallel bucket assignment (§4 Optimizations)."""

import numpy as np
import pytest

from repro.hashing.bitgroups import (
    BucketAssigner,
    evaluation_seeds,
    iter_bucket_blocks,
    iter_superbucket_blocks,
    split_bit_groups,
)
from repro.hashing.families import get_family
from repro.util.rng import derive_seed


class TestSplitBitGroups:
    def test_reconstruction(self):
        h = np.array([0b110100101101], dtype=np.uint64)
        groups = split_bit_groups(h, group_bits=3, num_groups=4, total_bits=12)
        reassembled = sum(
            int(g[0]) << (3 * i) for i, g in enumerate(groups)
        )
        assert reassembled == 0b110100101101

    def test_group_bounds(self):
        h = np.arange(100, dtype=np.uint64) * np.uint64(0x9E3779B9)
        for g in split_bit_groups(h, 4, 8, 32):
            assert int(g.max()) < 16

    def test_too_many_groups_raises(self):
        h = np.array([1], dtype=np.uint64)
        with pytest.raises(ValueError):
            split_bit_groups(h, group_bits=8, num_groups=5, total_bits=32)

    def test_zero_group_bits_raises(self):
        with pytest.raises(ValueError):
            split_bit_groups(np.array([1], dtype=np.uint64), 0, 1, 32)


class TestBucketAssigner:
    def test_shape_and_range(self):
        ba = BucketAssigner(get_family("Mix"), d=16, iterations=6, seed=1)
        keys = np.arange(500, dtype=np.uint64)
        idx = ba.assign(keys)
        assert idx.shape == (6, 500)
        assert idx.min() >= 0 and idx.max() < 16

    def test_bit_parallel_single_evaluation(self):
        """One 64-bit hash yields 16 four-bit groups (the §7.1 trick)."""
        ba = BucketAssigner(get_family("Tab64"), d=16, iterations=16, seed=1)
        assert ba.bit_parallel
        assert ba.num_hash_evaluations == 1

    def test_bit_parallel_overflow_to_second_evaluation(self):
        ba = BucketAssigner(get_family("Tab64"), d=16, iterations=17, seed=1)
        assert ba.num_hash_evaluations == 2

    def test_crc_32bit_budget(self):
        # CRC provides 32 bits -> 8 groups of 4 bits per evaluation.
        ba = BucketAssigner(get_family("CRC"), d=16, iterations=8, seed=1)
        assert ba.num_hash_evaluations == 1
        ba = BucketAssigner(get_family("CRC"), d=16, iterations=9, seed=1)
        assert ba.num_hash_evaluations == 2

    def test_general_d_one_evaluation_per_iteration(self):
        ba = BucketAssigner(get_family("Mix"), d=37, iterations=3, seed=1)
        assert not ba.bit_parallel
        assert ba.num_hash_evaluations == 3
        idx = ba.assign(np.arange(100, dtype=np.uint64))
        assert idx.max() < 37

    def test_iterations_are_distinct_functions(self):
        ba = BucketAssigner(get_family("Mix"), d=64, iterations=4, seed=1)
        idx = ba.assign(np.arange(200, dtype=np.uint64))
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(idx[i], idx[j])

    def test_deterministic(self):
        keys = np.arange(50, dtype=np.uint64)
        a = BucketAssigner(get_family("Tab"), 8, 4, seed=9).assign(keys)
        b = BucketAssigner(get_family("Tab"), 8, 4, seed=9).assign(keys)
        assert np.array_equal(a, b)

    def test_scalar_matches_vector(self):
        ba = BucketAssigner(get_family("Mix"), d=8, iterations=5, seed=2)
        keys = np.array([17, 99], dtype=np.uint64)
        idx = ba.assign(keys)
        assert ba.assign_one(17) == idx[:, 0].tolist()

    def test_rejects_bad_parameters(self):
        fam = get_family("Mix")
        with pytest.raises(ValueError):
            BucketAssigner(fam, d=1, iterations=1, seed=0)
        with pytest.raises(ValueError):
            BucketAssigner(fam, d=4, iterations=0, seed=0)

    def test_bucket_distribution_roughly_uniform(self):
        ba = BucketAssigner(get_family("Tab64"), d=8, iterations=1, seed=3)
        idx = ba.assign(np.arange(80_000, dtype=np.uint64))
        counts = np.bincount(idx[0], minlength=8)
        assert counts.min() > 8_500 and counts.max() < 11_500


class TestAssignBatch:
    @pytest.mark.parametrize("d", [16, 17])
    @pytest.mark.parametrize("family_name", ["CRC", "Tab", "Mix"])
    def test_matches_per_seed_assigners(self, family_name, d):
        fam = get_family(family_name)
        rng = np.random.default_rng(7)
        seeds = rng.integers(0, 2**63, 5, dtype=np.uint64)
        keys = rng.integers(0, 2**64, 30, dtype=np.uint64)
        owner = rng.integers(0, 5, 30).astype(np.intp)
        assigner = BucketAssigner(fam, d, 8, seed=0)
        got = assigner.assign_batch(seeds, keys, owner)
        assert got.shape == (8, 30)
        for t in range(5):
            pick = owner == t
            expected = BucketAssigner(fam, d, 8, int(seeds[t])).assign(
                keys[pick]
            )
            assert np.array_equal(got[:, pick], expected), (family_name, d, t)


class TestFusedFields:
    """``bucket_lanes`` extracts fields of any widths from one base pass."""

    FIELDS = [(0, 12), (12, 12), (24, 8), (3, 5), (9, 1)]

    @staticmethod
    def _count_base_passes(hasher):
        name = (
            "_gather_block" if hasattr(hasher, "_gather_block") else "_eval_block"
        )
        real = getattr(hasher, name)
        calls = []

        def counting(*args):
            calls.append(args[1:3])  # (start, end)
            return real(*args)

        setattr(hasher, name, counting)
        return calls

    @pytest.mark.parametrize("family_name", ["Mix", "MShift", "Tab", "Tab64"])
    @pytest.mark.parametrize("num_seeds, num_keys", [(1, 16), (3, 4096), (64, 2000)])
    def test_mixed_width_fields_equal_lane_fields(
        self, family_name, num_seeds, num_keys
    ):
        rng = np.random.default_rng(num_keys)
        keys = rng.integers(0, 2**63, num_keys).astype(np.uint64)
        seeds = rng.integers(0, 2**63, num_seeds).astype(np.uint64)
        hasher = get_family(family_name).multiseed_hasher(keys)
        lanes = hasher.lanes(seeds)
        calls = self._count_base_passes(hasher)
        out = np.empty((len(self.FIELDS), num_seeds, num_keys), dtype=np.intp)
        hasher.bucket_lanes(seeds, self.FIELDS, out)
        for (shift, width), got in zip(self.FIELDS, out):
            want = (lanes >> np.uint64(shift)) & np.uint64((1 << width) - 1)
            assert np.array_equal(got, want.astype(np.intp)), (shift, width)
        # One base pass per key block, shared by every field.
        blocks = [(s, e) for s, e in calls]
        assert blocks == sorted(set(blocks))
        assert blocks[0][0] == 0 and blocks[-1][1] == num_keys

    @pytest.mark.parametrize("family_name", ["Mix", "MShift", "Tab64"])
    def test_superblocks_one_base_pass_per_evaluation(
        self, family_name, monkeypatch
    ):
        # 4096 keys at 8x16 pack widths [3, 3, 2]: one fused call (one
        # base pass) must serve all three super-groups.
        fam = get_family(family_name)
        cls = type(fam.multiseed_hasher(np.zeros(1, dtype=np.uint64)))
        real = cls.bucket_lanes
        calls = []

        def counting(self, seeds, fields, out, modulus=0):
            calls.append([width for _, width in fields])
            return real(self, seeds, fields, out, modulus)

        monkeypatch.setattr(cls, "bucket_lanes", counting)
        keys = np.arange(4096, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        seeds = np.array([5], dtype=np.uint64)
        (_, _, supers), = iter_superbucket_blocks(fam, 16, 8, seeds, keys)
        assert [m for _, m, _ in supers] == [3, 3, 2]
        assert calls == [[12, 12, 8]]

    @pytest.mark.parametrize("family_name", ["Mix", "Tab64"])
    def test_modulus_row_equals_lanes_mod_d(self, family_name):
        keys = np.arange(1000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        seeds = np.array([3, 11], dtype=np.uint64)
        hasher = get_family(family_name).multiseed_hasher(keys)
        out = np.empty((1, 2, keys.size), dtype=np.intp)
        hasher.bucket_lanes(seeds, [], out, modulus=37)
        want = (hasher.lanes(seeds) % np.uint64(37)).astype(np.intp)
        assert np.array_equal(out[0], want)


class TestEvaluationSeeds:
    @pytest.mark.parametrize("family_name", ["Mix", "CRC", "Tab64"])
    @pytest.mark.parametrize("d, iterations", [(16, 8), (16, 20), (37, 3)])
    def test_blocks_match_with_and_without_eval_seeds(
        self, family_name, d, iterations
    ):
        fam = get_family(family_name)
        seeds = np.arange(5, dtype=np.uint64) * np.uint64(977) + np.uint64(1)
        keys = np.arange(300, dtype=np.uint64) * np.uint64(7919)
        ev = evaluation_seeds(fam, d, iterations, seeds)
        for e in range(ev.shape[0]):
            for t, s in enumerate(seeds):
                assert int(ev[e, t]) == derive_seed(int(s), "bucket", e)
        plain = list(iter_bucket_blocks(fam, d, iterations, seeds, keys, 600))
        given = list(
            iter_bucket_blocks(
                fam, d, iterations, seeds, keys, 600, eval_seeds=ev
            )
        )
        assert len(plain) == len(given) > 1
        for (s0, c0, b0), (s1, c1, b1) in zip(plain, given):
            assert (s0, c0) == (s1, c1) and np.array_equal(b0, b1)
        if d & (d - 1) == 0:
            plain = list(
                iter_superbucket_blocks(fam, d, iterations, seeds, keys, 600)
            )
            given = list(
                iter_superbucket_blocks(
                    fam, d, iterations, seeds, keys, 600, eval_seeds=ev
                )
            )
            for (_, _, s0), (_, _, s1) in zip(plain, given):
                assert [(j, m) for j, m, _ in s0] == [(j, m) for j, m, _ in s1]
                for (_, _, i0), (_, _, i1) in zip(s0, s1):
                    assert np.array_equal(i0, i1)

    def test_wrong_shape_raises(self):
        fam = get_family("Mix")
        seeds = np.arange(3, dtype=np.uint64)
        ev = evaluation_seeds(fam, 16, 8, seeds)
        keys = np.arange(10, dtype=np.uint64)
        with pytest.raises(ValueError, match="eval_seeds"):
            list(iter_bucket_blocks(fam, 16, 8, seeds[:2], keys, eval_seeds=ev))
        with pytest.raises(ValueError, match="eval_seeds"):
            list(
                iter_superbucket_blocks(
                    fam, 16, 20, seeds, keys, eval_seeds=ev
                )
            )
