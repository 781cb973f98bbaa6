"""Tests for the hash-family registry."""

import numpy as np
import pytest

from repro.hashing.families import (
    get_family,
    list_families,
    seeds_per_block,
)


class TestRegistry:
    def test_known_families(self):
        names = list_families()
        for expected in ("CRC", "CRC4", "Tab", "Tab64", "Mix", "MShift"):
            assert expected in names

    def test_case_insensitive(self):
        assert get_family("crc").name == "CRC"
        assert get_family("TAB64").name == "Tab64"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_family("nope")

    @pytest.mark.parametrize("name", ["CRC", "CRC4", "Tab", "Tab64", "Mix", "MShift"])
    def test_instances_work(self, name):
        fam = get_family(name)
        fn = fam.instance(seed=42)
        keys = np.array([0, 1, 12345], dtype=np.uint64)
        out = fn.hash_array(keys)
        assert out.shape == keys.shape
        # Output fits the family's declared bit width.
        assert int(out.max()) < (1 << fam.bits)
        # Scalar agrees with vector.
        for k, v in zip(keys, out):
            assert fn.hash_one(int(k)) == int(v)

    @pytest.mark.parametrize("name", ["CRC", "CRC4", "Tab", "Tab64", "Mix"])
    def test_seeding_gives_distinct_functions(self, name):
        fam = get_family(name)
        keys = np.arange(64, dtype=np.uint64)
        a = fam.instance(1).hash_array(keys)
        b = fam.instance(2).hash_array(keys)
        assert not np.array_equal(a, b)

    def test_crc4_differs_from_crc(self):
        keys = np.array([123456], dtype=np.uint64)
        a = get_family("CRC").instance(0).hash_array(keys)
        b = get_family("CRC4").instance(0).hash_array(keys)
        assert a[0] != b[0]


class TestInstanceCache:
    def test_same_seed_returns_cached_object(self):
        fam = get_family("Tab")
        assert fam.instance(4242) is fam.instance(4242)

    def test_cached_instances_stay_correct(self):
        fam = get_family("Tab64")
        keys = np.arange(32, dtype=np.uint64)
        first = fam.instance(77).hash_array(keys)
        again = fam.instance(77).hash_array(keys)
        assert np.array_equal(first, again)


class TestBatchedFamilyHash:
    @pytest.mark.parametrize(
        "name", ["CRC", "CRC4", "Tab", "Tab64", "Mix", "MShift"]
    )
    def test_hash_array_batch_matches_instances(self, name):
        fam = get_family(name)
        rng = np.random.default_rng(11)
        seeds = rng.integers(0, 2**63, 6, dtype=np.uint64)
        keys = rng.integers(0, 2**64, 40, dtype=np.uint64)
        owner = rng.integers(0, 6, 40).astype(np.intp)
        got = fam.hash_array_batch(seeds, owner, keys)
        for i in range(keys.size):
            exp = fam.instance(int(seeds[owner[i]])).hash_array(
                keys[i : i + 1]
            )[0]
            assert int(got[i]) == int(exp), (name, i)

    def test_generic_fallback_matches_kernel(self):
        # Force the per-seed fallback path and compare with the kernel.
        fam = get_family("Mix")
        rng = np.random.default_rng(2)
        seeds = rng.integers(0, 2**63, 3, dtype=np.uint64)
        keys = rng.integers(0, 2**64, 20, dtype=np.uint64)
        owner = rng.integers(0, 3, 20).astype(np.intp)
        fast = fam.hash_array_batch(seeds, owner, keys)
        kernel, fam._batch_kernel = fam._batch_kernel, None
        try:
            slow = fam.hash_array_batch(seeds, owner, keys)
        finally:
            fam._batch_kernel = kernel
        assert np.array_equal(fast, slow)


class TestSeedsPerBlock:
    def test_block_sizes(self):
        assert seeds_per_block(250, 100) == 2
        assert seeds_per_block(10, 50) == 1  # never stalls at 0
        assert seeds_per_block(1 << 20, 1) == 1 << 20
        assert seeds_per_block(100, 0) == 100  # empty keys: any block works

    @pytest.mark.parametrize("chunk", [0, -1, -100])
    def test_rejects_non_positive_chunks(self, chunk):
        with pytest.raises(ValueError, match="chunk_elements"):
            seeds_per_block(chunk, 10)
