"""Property suite for the prepared forms of a key array.

Every family — each registered one, and a clone registered without a
multiseed kernel, which gets the instance-backed form — prepares a key
array once (``multiseed_hasher``), and every seed's ``hash_into`` blocks
over that form, read through :func:`iter_hash_blocks`, are bit-identical
to the seeded ``instance(seed).hash_array`` — across seed counts,
duplicate-heavy keys, output truncation, awkward key-array layouts and
key arrays that cross a hash block.
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
    InstanceLaneHasher,
    LaneHasher,
    StackedLaneHasher,
    get_family,
    iter_hash_blocks,
    list_families,
)
from repro.hashing.tabulation import TabulationHash

ALL_FAMILIES = list_families()
SEED_COUNTS = (1, 2, 32)
#: A CRC clone registered without a multiseed kernel: its prepared form
#: is the instance-backed one.
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
    """Key arrays the prepared forms must handle identically to instances."""
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


def _assert_blocks_match_instances(fam, hasher, keys, seeds, label=None):
    """Every block :func:`iter_hash_blocks` yields equals the seeded
    instance's hashes of those keys, and fits the family's width."""
    blocks = 0
    for i, start, end, h in iter_hash_blocks(hasher, keys, seeds):
        want = fam.instance(int(seeds[i])).hash_array(keys[start:end])
        assert np.array_equal(h, want), (fam.name, label, i, start)
        assert int(h.max(initial=0)) < (1 << fam.bits), (fam.name, label)
        blocks += 1
    assert blocks == seeds.size * -(-keys.size // _HASH_BLOCK_KEYS)


class TestPreparedForms:
    @pytest.mark.parametrize("family", [*ALL_FAMILIES, BARE_CRC])
    @pytest.mark.parametrize("num_seeds", SEED_COUNTS)
    def test_blocks_match_instances(self, family, num_seeds, rng):
        fam = _family(family)
        seeds = rng.integers(0, 2**64, num_seeds, dtype=np.uint64)
        for label, keys in _key_variants(rng).items():
            as_u64 = np.asarray(keys, dtype=np.uint64).ravel()
            hasher = fam.multiseed_hasher(keys)
            assert hasher.num_keys == as_u64.size, (family, label)
            _assert_blocks_match_instances(fam, hasher, as_u64, seeds, label)

    @pytest.mark.parametrize("family", [*ALL_FAMILIES, BARE_CRC])
    def test_every_family_has_a_prepared_form(self, family, rng):
        # The contract the checkers rely on: multiseed_hasher never
        # returns None, and a family registered without a multiseed
        # kernel hashes through its seeded instances.
        fam = _family(family)
        hasher = fam.multiseed_hasher(
            rng.integers(0, 2**64, 64, dtype=np.uint64)
        )
        assert isinstance(hasher, LaneHasher)
        if family in (BARE_CRC, "Mix", "MShift"):
            assert isinstance(hasher, InstanceLaneHasher)

    @pytest.mark.parametrize("family", [*ALL_FAMILIES, BARE_CRC])
    def test_one_form_serves_any_seeds(self, family, rng):
        # One prepared form, several reads: each seed's blocks do not
        # depend on which seeds were hashed over the form before.
        fam = _family(family)
        keys = rng.integers(0, 2**64, 100, dtype=np.uint64)
        hasher = fam.multiseed_hasher(keys)
        seeds = rng.integers(0, 2**64, 6, dtype=np.uint64)
        parts = [
            h.copy()
            for i in range(0, 6, 2)
            for *_, h in iter_hash_blocks(hasher, keys, seeds[i : i + 2])
        ]
        whole = [h.copy() for *_, h in iter_hash_blocks(hasher, keys, seeds)]
        assert np.array_equal(np.vstack(parts), np.vstack(whole))

    @pytest.mark.parametrize("family", [*ALL_FAMILIES, BARE_CRC])
    @pytest.mark.parametrize("num_seeds", SEED_COUNTS)
    def test_lanes_match_instances(self, family, num_seeds, rng):
        # ``lanes`` is one hash_into per seed over every key.
        fam = _family(family)
        keys = rng.integers(0, 2**64, 50, dtype=np.uint64)
        seeds = rng.integers(0, 2**64, num_seeds, dtype=np.uint64)
        lanes = fam.multiseed_hasher(keys).lanes(seeds)
        assert lanes.shape == (num_seeds, keys.size)
        for t, seed in enumerate(seeds.tolist()):
            want = fam.instance(seed).hash_array(keys)
            assert np.array_equal(lanes[t], want), (family, t)


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
        _assert_blocks_match_instances(fam, hasher, keys, seeds)
        if num_keys > 4:
            # An unaligned block straight through hash_into.
            out = np.empty(num_keys - 4, dtype=np.uint64)
            hasher.hash_into(int(seeds[0]), 3, num_keys - 1, out, out.copy())
            want = fam.instance(int(seeds[0])).hash_array(keys[3:-1])
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
    @pytest.mark.parametrize("key_bits", [32, 64])
    @pytest.mark.parametrize("out_bits", [17, 32, 64])
    def test_blocks_match_instances_with_truncation(
        self, key_bits, out_bits, rng
    ):
        seeds = rng.integers(0, 2**64, 7, dtype=np.uint64)
        keys = rng.integers(0, 2**64, 257, dtype=np.uint64)
        hasher = StackedLaneHasher(keys, key_bits, out_bits)
        for i, start, end, h in iter_hash_blocks(hasher, keys, seeds):
            fn = TabulationHash(int(seeds[i]), key_bits, out_bits)
            assert np.array_equal(h, fn.hash_array(keys[start:end]))

    def test_empty_keys(self, rng):
        seeds = rng.integers(0, 2**64, 3, dtype=np.uint64)
        hasher = StackedLaneHasher(np.zeros(0, dtype=np.uint64))
        assert hasher.num_keys == 0
        assert hasher.lanes(seeds).shape == (3, 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            StackedLaneHasher(np.zeros(1, dtype=np.uint64), key_bits=48)
        with pytest.raises(ValueError):
            StackedLaneHasher(np.zeros(1, dtype=np.uint64), out_bits=0)


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
