"""Tests for bit-parallel bucket assignment (§4 Optimizations)."""

import numpy as np
import pytest

from repro.hashing.bitgroups import (
    BucketAssigner,
    assign_buckets_batch,
    evaluation_seeds,
)
from repro.hashing.families import get_family
from repro.util.rng import derive_seed


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
        got = assign_buckets_batch(fam, d, 8, seeds, keys, owner)
        assert got.shape == (8, 30)
        for t in range(5):
            pick = owner == t
            expected = BucketAssigner(fam, d, 8, int(seeds[t])).assign(
                keys[pick]
            )
            assert np.array_equal(got[:, pick], expected), (family_name, d, t)


class TestEvaluationSeeds:
    @pytest.mark.parametrize("family_name", ["Mix", "CRC", "Tab64"])
    @pytest.mark.parametrize("d, iterations", [(16, 8), (16, 20), (37, 3)])
    def test_matches_derive_seed(self, family_name, d, iterations):
        fam = get_family(family_name)
        seeds = np.arange(5, dtype=np.uint64) * np.uint64(977) + np.uint64(1)
        ev = evaluation_seeds(fam, d, iterations, seeds)
        assert ev.shape[0] == BucketAssigner(
            fam, d, iterations, 0
        ).num_hash_evaluations
        for e in range(ev.shape[0]):
            for t, s in enumerate(seeds):
                assert int(ev[e, t]) == derive_seed(int(s), "bucket", e)
