"""Tests for the CRC affinity kernel (one hash pass, many seed lanes).

The load-bearing identity: CRC-32C is GF(2)-linear in its initial state,
``crc(x, s) = crc(x, 0) ⊕ crc(0^len, s)``, so every seed lane of the
multi-seed checkers follows from ONE table-lookup pass plus a per-seed
XOR constant.  Everything here checks bit-identity against the per-seed
kernels that predate the affinity path.
"""

import numpy as np
import pytest

from repro.hashing.crc32c import (
    _TABLE,
    crc32c_seed_constants,
    crc32c_u64_array,
    crc32c_zero_advance,
)
from repro.hashing.families import (
    AffineLaneHasher,
    get_family,
    iter_hash_blocks,
)


def _advance_bytewise(states: np.ndarray, length: int) -> np.ndarray:
    crc = states.astype(np.uint32, copy=True)
    for _ in range(length):
        crc = (crc >> np.uint32(8)) ^ _TABLE[crc & np.uint32(0xFF)]
    return crc


class TestZeroAdvance:
    @pytest.mark.parametrize(
        "length", [0, 1, 3, 8, 64, 65, 129, 1_000, 123_457]
    )
    def test_matches_bytewise_loop(self, length, rng):
        states = rng.integers(0, 2**32, 16).astype(np.uint32)
        got = crc32c_zero_advance(states, length)
        assert np.array_equal(got, _advance_bytewise(states, length))

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            crc32c_zero_advance(np.zeros(1, dtype=np.uint32), -1)

    def test_zero_length_is_identity_copy(self):
        states = np.array([1, 2, 3], dtype=np.uint32)
        out = crc32c_zero_advance(states, 0)
        assert np.array_equal(out, states)
        out[0] = 99
        assert states[0] == 1  # a copy, not a view

    def test_linearity_in_state(self, rng):
        # advance(a ⊕ b) = advance(a) ⊕ advance(b): the property the
        # matrix-power path relies on.
        a = rng.integers(0, 2**32, 8).astype(np.uint32)
        b = rng.integers(0, 2**32, 8).astype(np.uint32)
        for length in (5, 777):
            assert np.array_equal(
                crc32c_zero_advance(a ^ b, length),
                crc32c_zero_advance(a, length)
                ^ crc32c_zero_advance(b, length),
            )


class TestAffinityIdentity:
    @pytest.mark.parametrize("nbytes", [1, 4, 8])
    def test_constants_reproduce_seeded_crc(self, nbytes, rng):
        """crc(x, s) == crc(x, 0) ⊕ c(s) for every seed and width."""
        keys = rng.integers(0, 2**63, 500).astype(np.uint64)
        seeds = rng.integers(0, 2**64, 33, dtype=np.uint64)
        base = crc32c_u64_array(keys, 0, nbytes).astype(np.uint64)
        for seed in seeds:
            ref = crc32c_u64_array(
                keys, int(seed) & 0xFFFFFFFF, nbytes
            ).astype(np.uint64)
            assert np.array_equal(
                base ^ crc32c_seed_constants(seed, nbytes), ref
            )

    @pytest.mark.parametrize("nbytes", [4, 8])
    def test_one_seed_matches_array_path(self, nbytes):
        """A fold's block asks for one seed's constant, computed on
        Python ints: it equals the zero-advance of the seed's low 32 bits
        through the array path, as a uint64."""
        seeds = np.random.default_rng(7).integers(
            0, 2**64, 200, dtype=np.uint64
        )
        states = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        want = crc32c_zero_advance(states, nbytes).tolist()
        for convert in (np.uint64, int):
            got = [crc32c_seed_constants(convert(s), nbytes) for s in seeds]
            assert all(type(c) is np.uint64 for c in got)
            assert [int(c) for c in got] == want

    @pytest.mark.parametrize("family", ["CRC", "CRC4"])
    def test_family_hasher_blocks_match_instances(self, family, rng):
        fam = get_family(family)
        keys = rng.integers(0, 2**64, 300, dtype=np.uint64)
        seeds = rng.integers(0, 2**64, 11, dtype=np.uint64)
        hasher = fam.multiseed_hasher(keys)
        assert isinstance(hasher, AffineLaneHasher)
        for i, start, end, h in iter_hash_blocks(hasher, keys, seeds):
            want = fam.instance(int(seeds[i])).hash_array(keys[start:end])
            assert np.array_equal(h, want)

    @pytest.mark.parametrize("family", ["Mix", "Tab", "Tab64", "MShift"])
    def test_non_affine_families_have_non_affine_hashers(self, family):
        # Since the LaneHasher generalization every registered family has
        # a lane hasher; only CRC's exposes the affine structure.
        fam = get_family(family)
        hasher = fam.multiseed_hasher(np.arange(4, dtype=np.uint64))
        assert hasher is not None
        assert not isinstance(hasher, AffineLaneHasher)
