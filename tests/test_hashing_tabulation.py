"""Tests for tabulation hashing."""

import numpy as np
import pytest

from repro.hashing.tabulation import TabulationHash, tabulation_tables


class TestTables:
    def test_shape(self):
        t = tabulation_tables(1, 4)
        assert t.shape == (4, 256)

    def test_deterministic(self):
        assert np.array_equal(tabulation_tables(9, 8), tabulation_tables(9, 8))

    def test_seed_sensitivity(self):
        assert not np.array_equal(tabulation_tables(1, 4), tabulation_tables(2, 4))

    def test_out_bits_mask(self):
        t = tabulation_tables(1, 4, out_bits=12)
        assert int(t.max()) < (1 << 12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            tabulation_tables(1, 0)
        with pytest.raises(ValueError):
            tabulation_tables(1, 9)
        with pytest.raises(ValueError):
            tabulation_tables(1, 4, out_bits=0)


class TestTabulationHash:
    def test_scalar_matches_vector(self):
        th = TabulationHash(7, key_bits=64, out_bits=32)
        keys = np.array([0, 1, 256, 2**40, 2**64 - 1], dtype=np.uint64)
        vec = th.hash_array(keys)
        for k, v in zip(keys, vec):
            assert th.hash_one(int(k)) == int(v)

    def test_32bit_variant_uses_four_tables(self):
        th = TabulationHash(7, key_bits=32)
        assert th.num_tables == 4
        assert TabulationHash(7, key_bits=64).num_tables == 8

    def test_rejects_other_key_bits(self):
        with pytest.raises(ValueError):
            TabulationHash(7, key_bits=48)

    def test_seed_changes_function(self):
        keys = np.arange(100, dtype=np.uint64)
        a = TabulationHash(1).hash_array(keys)
        b = TabulationHash(2).hash_array(keys)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        keys = np.arange(50, dtype=np.uint64)
        assert np.array_equal(
            TabulationHash(5).hash_array(keys), TabulationHash(5).hash_array(keys)
        )

    def test_output_within_bits(self):
        th = TabulationHash(3, out_bits=16)
        keys = np.arange(1000, dtype=np.uint64)
        assert int(th.hash_array(keys).max()) < (1 << 16)

    def test_xor_structure(self):
        """h(x) is the XOR of per-byte table entries (defining property)."""
        th = TabulationHash(11, key_bits=32, out_bits=32)
        key = 0x0403_0201
        expected = (
            int(th.tables[0][0x01])
            ^ int(th.tables[1][0x02])
            ^ int(th.tables[2][0x03])
            ^ int(th.tables[3][0x04])
        )
        assert th.hash_one(key) == expected

    def test_uniformity_rough(self):
        """Bucket counts over 64 buckets stay near uniform (3-independence)."""
        th = TabulationHash(13, out_bits=32)
        keys = np.arange(64_000, dtype=np.uint64)
        buckets = th.hash_array(keys) % np.uint64(64)
        counts = np.bincount(buckets.astype(np.intp), minlength=64)
        assert counts.min() > 700 and counts.max() < 1300


class TestBatchedTables:
    def test_stack_matches_scalar_tables(self):
        from repro.hashing.tabulation import tabulation_tables_batch

        seeds = np.array([0, 1, 999, 2**63 + 5], dtype=np.uint64)
        stack = tabulation_tables_batch(seeds, 4, 32)
        assert stack.shape == (4, 4, 256)
        for t, s in enumerate(seeds):
            assert np.array_equal(stack[t], tabulation_tables(int(s), 4, 32))

    def test_rejects_bad_args(self):
        from repro.hashing.tabulation import tabulation_tables_batch

        seeds = np.arange(2, dtype=np.uint64)
        with pytest.raises(ValueError):
            tabulation_tables_batch(seeds, 0)
        with pytest.raises(ValueError):
            tabulation_tables_batch(seeds, 4, out_bits=65)


class TestBatchedHash:
    @pytest.mark.parametrize("key_bits,out_bits", [(32, 32), (64, 64)])
    def test_matches_instances_sparse_and_dense(self, key_bits, out_bits):
        from repro.hashing.tabulation import (
            _DENSE_KEYS_PER_SEED,
            tabulation_hash_batch,
        )

        rng = np.random.default_rng(3)
        seeds = rng.integers(0, 2**63, 5, dtype=np.uint64)
        # Sparse (few keys per seed) and dense (past the table threshold)
        # regimes must agree with the per-seed instances.
        for count in (12, 5 * _DENSE_KEYS_PER_SEED + 1):
            keys = rng.integers(0, 2**64, count, dtype=np.uint64)
            owner = rng.integers(0, 5, count).astype(np.intp)
            got = tabulation_hash_batch(seeds, owner, keys, key_bits, out_bits)
            for i in range(count):
                fn = TabulationHash(
                    int(seeds[owner[i]]), key_bits=key_bits, out_bits=out_bits
                )
                assert int(got[i]) == fn.hash_one(int(keys[i]))

    def test_rejects_bad_key_bits(self):
        from repro.hashing.tabulation import tabulation_hash_batch

        with pytest.raises(ValueError):
            tabulation_hash_batch(
                np.arange(1, dtype=np.uint64),
                np.zeros(1, dtype=np.intp),
                np.arange(1, dtype=np.uint64),
                key_bits=16,
            )
