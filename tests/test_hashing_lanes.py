"""Property suite for the unified LaneHasher interface.

Every registered family must expose a lane hasher whose lanes are
bit-identical to per-seed ``instance(...).hash_array`` — across lane
counts, duplicate-heavy keys, output truncation, and awkward key-array
layouts — so no multi-seed consumer ever falls back to the tiled
per-seed path.  The stacked tabulation kernel and the chunked tiled
fallback (for custom, kernel-less families) get their own sections.
"""

import numpy as np
import pytest

from repro.core.multiseed import MultiSeedSumChecker
from repro.core.permutation_checker import MultiSeedHashSumChecker
from repro.core.params import SumCheckConfig
from repro.hashing.families import (
    HashFamily,
    LaneHasher,
    get_family,
    hash_lanes,
    list_families,
)
from repro.hashing.tabulation import (
    StackedLaneHasher,
    TabulationHash,
    stacked_tabulation_tables,
    tabulation_lanes,
    tabulation_tables,
)

ALL_FAMILIES = list_families()
LANE_COUNTS = (1, 2, 32)


def _key_variants(rng):
    """Key arrays the lane kernels must handle identically to instances."""
    dup_heavy = rng.integers(0, 7, 400, dtype=np.uint64) * np.uint64(
        0x0101_0101_0101_0101
    )
    wide = rng.integers(0, 2**64, 301, dtype=np.uint64)
    non_contiguous = wide[::2]
    int64_view = wide.view(np.int64)  # includes values above 2^63
    return {
        "duplicate-heavy": dup_heavy,
        "full-width": wide,
        "non-contiguous": non_contiguous,
        "int64-view": int64_view,
        "empty": np.zeros(0, dtype=np.uint64),
    }


class TestLaneEquivalence:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("num_seeds", LANE_COUNTS)
    def test_lanes_match_instances(self, family, num_seeds, rng):
        fam = get_family(family)
        seeds = rng.integers(0, 2**64, num_seeds, dtype=np.uint64)
        for label, keys in _key_variants(rng).items():
            as_u64 = np.asarray(keys, dtype=np.uint64).ravel()
            lanes = hash_lanes(fam, seeds, keys)
            assert lanes.shape == (num_seeds, as_u64.size), (family, label)
            for t, seed in enumerate(seeds):
                expected = fam.instance(int(seed)).hash_array(as_u64)
                assert np.array_equal(lanes[t], expected), (
                    family, label, t,
                )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_no_registered_family_falls_through_to_tiling(self, family, rng):
        # The contract the multi-seed checkers rely on: every registered
        # family hands hash_lanes/iter_bucket_blocks a LaneHasher, so the
        # O(T·n) tiled path is reserved for custom registrations.
        fam = get_family(family)
        keys = rng.integers(0, 2**64, 64, dtype=np.uint64)
        hasher = fam.multiseed_hasher(keys)
        assert hasher is not None, f"{family} fell back to the tiled path"
        assert isinstance(hasher, LaneHasher)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_hasher_reuse_across_seed_blocks(self, family, rng):
        # One hasher, many lanes() calls — the access pattern of
        # iter_bucket_blocks and fingerprints_condensed.
        fam = get_family(family)
        keys = rng.integers(0, 2**64, 100, dtype=np.uint64)
        hasher = fam.multiseed_hasher(keys)
        seeds = rng.integers(0, 2**64, 6, dtype=np.uint64)
        blocks = [hasher.lanes(seeds[i : i + 2]) for i in range(0, 6, 2)]
        assert np.array_equal(np.vstack(blocks), hash_lanes(fam, seeds, keys))

    def test_lanes_fit_family_bits(self, rng):
        keys = rng.integers(0, 2**64, 50, dtype=np.uint64)
        seeds = rng.integers(0, 2**64, 3, dtype=np.uint64)
        for family in ALL_FAMILIES:
            fam = get_family(family)
            lanes = hash_lanes(fam, seeds, keys)
            assert int(lanes.max(initial=0)) < (1 << fam.bits), family


class TestStackedTabulation:
    @pytest.mark.parametrize("num_tables,out_bits", [(4, 32), (8, 64), (8, 17)])
    def test_stacked_tables_match_per_seed_tables(self, num_tables, out_bits, rng):
        seeds = rng.integers(0, 2**64, 5, dtype=np.uint64)
        stacked = stacked_tabulation_tables(seeds, num_tables, out_bits)
        assert stacked.shape == (num_tables, 256, seeds.size)
        assert stacked.flags.c_contiguous
        for t, seed in enumerate(seeds):
            assert np.array_equal(
                stacked[..., t], tabulation_tables(int(seed), num_tables, out_bits)
            )

    @pytest.mark.parametrize("key_bits", [32, 64])
    @pytest.mark.parametrize("out_bits", [17, 32, 64])
    def test_lanes_match_instances_with_truncation(self, key_bits, out_bits, rng):
        seeds = rng.integers(0, 2**64, 7, dtype=np.uint64)
        keys = rng.integers(0, 2**64, 257, dtype=np.uint64)
        lanes = tabulation_lanes(seeds, keys, key_bits, out_bits)
        for t, seed in enumerate(seeds):
            fn = TabulationHash(int(seed), key_bits=key_bits, out_bits=out_bits)
            assert np.array_equal(lanes[t], fn.hash_array(keys))

    def test_lanes_cross_block_boundaries(self, rng):
        # More lane-matrix elements than one cache block: the chunked
        # gather must tile the key axis without seams.
        from repro.hashing.tabulation import _LANE_BLOCK_ELEMENTS

        num_seeds = 16
        n = 2 * (_LANE_BLOCK_ELEMENTS // num_seeds) + 17
        seeds = rng.integers(0, 2**64, num_seeds, dtype=np.uint64)
        keys = rng.integers(0, 2**64, n, dtype=np.uint64)
        lanes = tabulation_lanes(seeds, keys, 64, 64)
        hasher = StackedLaneHasher(keys, 64, 64)
        assert np.array_equal(lanes, hasher.lanes(seeds))
        spot = [0, n // 2, n - 1]
        for t in (0, num_seeds - 1):
            fn = TabulationHash(int(seeds[t]), key_bits=64, out_bits=64)
            for i in spot:
                assert int(lanes[t, i]) == fn.hash_one(int(keys[i]))

    def test_empty_keys(self, rng):
        seeds = rng.integers(0, 2**64, 3, dtype=np.uint64)
        lanes = tabulation_lanes(seeds, np.zeros(0, dtype=np.uint64))
        assert lanes.shape == (3, 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            StackedLaneHasher(np.zeros(1, dtype=np.uint64), key_bits=48)
        with pytest.raises(ValueError):
            StackedLaneHasher(np.zeros(1, dtype=np.uint64), out_bits=0)


class TestChunkedTiledFallback:
    def _spy_family(self, sizes):
        src = get_family("Mix")

        def spy_kernel(seeds, owner, keys):
            sizes.append(keys.size)
            return src._batch_kernel(seeds, owner, keys)

        return HashFamily(
            "MixSpy", src._factory, 64, "kernel-less spy",
            batch_kernel=spy_kernel,
        )

    def test_fallback_is_memory_bounded(self, rng):
        # The fallback must chunk over seeds: peak tiled-key scratch stays
        # at chunk_elements, not seeds.size * keys.size.
        sizes = []
        fam = self._spy_family(sizes)
        src = get_family("Mix")
        keys = rng.integers(0, 2**64, 100, dtype=np.uint64)
        seeds = rng.integers(0, 2**64, 37, dtype=np.uint64)
        lanes = hash_lanes(fam, seeds, keys, chunk_elements=250)
        assert max(sizes) <= 250
        assert len(sizes) == -(-37 // (250 // 100))  # ceil(T / seeds-per-block)
        for t, seed in enumerate(seeds):
            assert np.array_equal(
                lanes[t], src.instance(int(seed)).hash_array(keys)
            )

    def test_fallback_chunk_smaller_than_keys(self, rng):
        # chunk_elements below one key row still makes progress, one seed
        # at a time.
        sizes = []
        fam = self._spy_family(sizes)
        keys = rng.integers(0, 2**64, 50, dtype=np.uint64)
        seeds = rng.integers(0, 2**64, 3, dtype=np.uint64)
        lanes = hash_lanes(fam, seeds, keys, chunk_elements=10)
        assert max(sizes) == 50 and len(sizes) == 3
        assert lanes.shape == (3, 50)

    def test_fallback_empty_keys(self):
        fam = self._spy_family([])
        lanes = hash_lanes(fam, np.arange(4, dtype=np.uint64),
                           np.zeros(0, dtype=np.uint64))
        assert lanes.shape == (4, 0)

    def test_rejects_bad_chunk(self, rng):
        fam = self._spy_family([])
        with pytest.raises(ValueError):
            hash_lanes(
                fam,
                np.arange(2, dtype=np.uint64),
                np.arange(4, dtype=np.uint64),
                chunk_elements=0,
            )


class TestDuplicateSeedsStillRejected:
    """The δ^T guarantee needs distinct seeds — end-to-end, post-refactor."""

    def test_multiseed_sum_checker_rejects_duplicates(self):
        cfg = SumCheckConfig(iterations=2, d=4, rhat=1 << 10)
        with pytest.raises(ValueError, match="distinct"):
            MultiSeedSumChecker(cfg, np.array([7, 7], dtype=np.uint64))

    def test_multiseed_hashsum_checker_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            MultiSeedHashSumChecker(np.array([3, 5, 3], dtype=np.uint64))

    @pytest.mark.parametrize("family", ["Tab", "Tab64", "CRC", "Mix"])
    def test_distinct_seeds_accepted_per_family(self, family):
        cfg = SumCheckConfig(
            iterations=2, d=4, rhat=1 << 10, hash_family=family
        )
        checker = MultiSeedSumChecker(cfg, np.array([1, 2], dtype=np.uint64))
        assert checker.num_seeds == 2
