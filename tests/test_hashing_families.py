"""Tests for the hash-family registry."""

import numpy as np
import pytest

from repro.hashing.families import (
    HashFamily,
    InstanceLaneHasher,
    get_family,
    iter_hash_blocks,
    list_families,
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


class TestKernelLessFamily:
    """A family registered with its factory alone hashes a key array
    under many seeds through its seeded instances."""

    @pytest.mark.parametrize("name", ["Tab64", "MShift"])
    def test_prepared_form_matches_instances(self, name):
        src = get_family(name)
        fam = HashFamily(name + "Bare", src._factory, src.bits, "factory only")
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 2**64, 70_000, dtype=np.uint64)
        seeds = rng.integers(0, 2**64, 2, dtype=np.uint64)
        hasher = fam.multiseed_hasher(keys)
        assert isinstance(hasher, InstanceLaneHasher)
        blocks = 0
        for i, start, end, h in iter_hash_blocks(hasher, keys, seeds):
            want = src.instance(int(seeds[i]))
            assert np.array_equal(h, want.hash_array(keys[start:end]))
            blocks += 1
        assert blocks == 4  # two seeds over two blocks of 2^16 keys
