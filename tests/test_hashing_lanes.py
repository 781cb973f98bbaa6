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

from repro.core.multiseed import MultiSeedSumChecker, seed_bucket_rows
from repro.core.permutation_checker import MultiSeedHashSumChecker
from repro.core.params import SumCheckConfig
from repro.hashing.bitgroups import (
    BucketAssigner,
    evaluation_seeds,
    superbucket_plan,
)
from repro.hashing.families import (
    _HASH_BLOCK_KEYS,
    HashFamily,
    LaneHasher,
    get_family,
    hash_lanes,
    iter_hash_blocks,
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
#: A CRC clone registered without a lane kernel: it reaches the
#: batch-kernel fallback of ``hash_lanes``.
BARE_CRC = "CRC without lane kernel"


def _family(name):
    if name != BARE_CRC:
        return get_family(name)
    src = get_family("CRC")
    return HashFamily(
        "CRCbare", src._factory, src.bits, "no lane kernel",
        batch_kernel=src._batch_kernel,
    )


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
        # family hands hash_lanes/iter_hash_blocks a LaneHasher, so the
        # O(T·n) tiled path is reserved for custom registrations.
        fam = get_family(family)
        keys = rng.integers(0, 2**64, 64, dtype=np.uint64)
        hasher = fam.multiseed_hasher(keys)
        assert hasher is not None, f"{family} fell back to the tiled path"
        assert isinstance(hasher, LaneHasher)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_hasher_reuse_across_seed_blocks(self, family, rng):
        # One hasher, many lanes() calls: a prepared form serves any
        # number of seeds.
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


class TestOneSeedPath:
    """One seed at a time over one prepared form: the bucket rows every
    sum-family path reads, and the hash blocks beneath them."""

    # d = 2 and 64 give 1- and 6-bit fields (6 does not divide a 32- or
    # 64-bit hash: CRC fits 5 fields an evaluation); 9 iterations take
    # two evaluations of a 32-bit family at d = 16.
    @pytest.mark.parametrize("family", [*ALL_FAMILIES, BARE_CRC])
    @pytest.mark.parametrize("d", [2, 16, 37, 64])
    @pytest.mark.parametrize("iterations", [1, 3, 9])
    @pytest.mark.parametrize(
        "num_keys", [0, 1, (1 << 16) - 1, (1 << 16) + 1]
    )
    def test_rows_and_blocks_match_instances(
        self, family, d, iterations, num_keys
    ):
        fam = _family(family)
        rng = np.random.default_rng(num_keys + d)
        keys = rng.integers(0, 2**64, num_keys, dtype=np.uint64)
        roots = np.array([11, 2**63 + 5], dtype=np.uint64)
        ev = evaluation_seeds(fam, d, iterations, roots)
        hasher = fam.multiseed_hasher(keys)
        for t, root in enumerate(roots.tolist()):
            rows = seed_bucket_rows(fam, hasher, keys, ev[:, t], d, iterations)
            want = BucketAssigner(fam, d, iterations, root).assign(keys)
            assert rows.dtype == np.intp and np.array_equal(rows, want)
        seeds = ev[:, 0]
        blocks = 0
        for i, start, end, h in iter_hash_blocks(fam, hasher, keys, seeds):
            want = fam.build(int(seeds[i])).hash_array(keys[start:end])
            assert np.array_equal(h, want), (i, start)
            blocks += 1
        assert blocks == seeds.size * -(-num_keys // _HASH_BLOCK_KEYS)
        if hasher is not None and num_keys > 4:
            # An unaligned block straight through hash_into.
            out = np.empty(num_keys - 4, dtype=np.uint64)
            hasher.hash_into(int(seeds[0]), 3, num_keys - 1, out, out.copy())
            want = fam.build(int(seeds[0])).hash_array(keys[3:-1])
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("family", ["CRC", "Tab64", "Mix"])
    def test_one_hash_pass_per_evaluation_and_block(self, family):
        # 4096 keys at 8x16 pack super-group widths [12, 12, 8]: one hash
        # of each key block serves all three fields.
        fam = get_family(family)
        keys = np.arange(4096, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        hasher = fam.multiseed_hasher(keys)
        calls = []
        real = hasher.hash_into

        def counting(seed, start, end, out, scratch):
            calls.append((seed, start, end))
            real(seed, start, end, out, scratch)

        hasher.hash_into = counting
        plan = superbucket_plan(fam.bits, 16, 8, keys.size)
        ev = evaluation_seeds(fam, 16, 8, np.array([5], dtype=np.uint64))
        rows = seed_bucket_rows(fam, hasher, keys, ev[:, 0], 16, 8, plan)
        assert [width for *_, width in plan[0].groups] == [12, 12, 8]
        assert rows.shape == (3, keys.size)
        assert calls == [(int(ev[0, 0]), 0, keys.size)]


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
