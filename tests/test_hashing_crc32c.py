"""Tests for the software CRC-32C implementation."""

import numpy as np
import pytest

from repro.hashing.crc32c import (
    crc32c_bytes,
    crc32c_checksum,
    crc32c_u64,
    crc32c_u64_array,
)


class TestKnownVectors:
    def test_rfc_vector(self):
        # RFC 3720 / common library test vector.
        assert crc32c_checksum(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c_checksum(b"") == 0

    def test_all_zeros_32(self):
        # iSCSI test vector: 32 bytes of zeros.
        assert crc32c_checksum(bytes(32)) == 0x8A9136AA

    def test_all_ones_32(self):
        assert crc32c_checksum(b"\xff" * 32) == 0x62A8AB43


class TestScalar:
    def test_deterministic(self):
        assert crc32c_u64(12345, 7) == crc32c_u64(12345, 7)

    def test_seed_changes_value(self):
        assert crc32c_u64(12345, 1) != crc32c_u64(12345, 2)

    def test_distinct_keys(self):
        outs = {crc32c_u64(k) for k in range(2000)}
        assert len(outs) == 2000  # CRC is injective on short inputs

    def test_matches_bytes_form(self):
        x = 0xDEADBEEF12345678
        assert crc32c_u64(x, 5) == crc32c_bytes(x.to_bytes(8, "little"), 5)


class TestVectorized:
    def test_matches_scalar(self):
        keys = np.array(
            [0, 1, 255, 256, 2**32 - 1, 2**32, 2**63, 2**64 - 1],
            dtype=np.uint64,
        )
        for seed in (0, 1, 0xFFFFFFFF):
            vec = crc32c_u64_array(keys, seed)
            for k, v in zip(keys, vec):
                assert crc32c_u64(int(k), seed) == int(v)

    def test_nbytes_variants(self):
        keys = np.array([0, 1, 99999999], dtype=np.uint64)
        for nbytes in (1, 2, 4, 8):
            vec = crc32c_u64_array(keys, 3, nbytes=nbytes)
            for k, v in zip(keys, vec):
                data = int(k).to_bytes(8, "little")[:nbytes]
                assert crc32c_bytes(data, 3) == int(v)

    def test_four_byte_differs_from_eight(self):
        keys = np.array([12345], dtype=np.uint64)
        assert crc32c_u64_array(keys, 0, 4)[0] != crc32c_u64_array(keys, 0, 8)[0]

    def test_rejects_bad_nbytes(self):
        with pytest.raises(ValueError):
            crc32c_u64_array(np.array([1], dtype=np.uint64), 0, nbytes=0)
        with pytest.raises(ValueError):
            crc32c_u64_array(np.array([1], dtype=np.uint64), 0, nbytes=9)

    def test_empty_array(self):
        assert crc32c_u64_array(np.array([], dtype=np.uint64)).size == 0


class TestSlicingKernel:
    """The slicing-table kernel against the pure-Python byte loop."""

    @staticmethod
    def _bytewise(keys, seeds, nbytes):
        keys = np.asarray(keys, dtype=np.uint64)
        seeds = np.broadcast_to(np.asarray(seeds, dtype=np.uint64), keys.shape)
        return np.array(
            [
                crc32c_bytes(
                    int(k).to_bytes(8, "little")[:nbytes], int(s) & 0xFFFFFFFF
                )
                for k, s in zip(keys.ravel(), seeds.ravel())
            ],
            dtype=np.uint32,
        ).reshape(keys.shape)

    @pytest.mark.parametrize("nbytes", range(1, 9))
    @pytest.mark.parametrize(
        "seed",
        # Seeds >= 2^32 hash like their low 32 bits.
        [0, 1, 0xFFFFFFFF, 2**32, 2**32 + 7, 2**64 - 1],
    )
    def test_scalar_seed_matches_bytewise(self, nbytes, seed, rng):
        keys = rng.integers(0, 2**64, 64, dtype=np.uint64)
        keys[:4] = [0, 1, 2**64 - 1, 2**63]
        got = crc32c_u64_array(keys, np.uint64(seed), nbytes)
        assert got.dtype == np.uint32
        assert np.array_equal(got, self._bytewise(keys, seed, nbytes))
        assert np.array_equal(crc32c_u64_array(keys, seed, nbytes), got)

    @pytest.mark.parametrize("nbytes", range(1, 9))
    def test_array_seeds_match_bytewise(self, nbytes, rng):
        keys = rng.integers(0, 2**64, 64, dtype=np.uint64)
        seeds = rng.integers(0, 2**64, 64, dtype=np.uint64)
        seeds[:2] = [2**32 + 3, 2**64 - 1]
        got = crc32c_u64_array(keys, seeds, nbytes)
        assert np.array_equal(got, self._bytewise(keys, seeds, nbytes))
        signed = crc32c_u64_array(keys, seeds.view(np.int64), nbytes)
        assert np.array_equal(signed, got)

    @pytest.mark.parametrize("seed", [5, np.array([5, 2**40 + 5])])
    def test_key_shapes(self, seed, rng):
        grid = rng.integers(0, 2**64, (3, 4), dtype=np.uint64)
        seeds = seed if np.ndim(seed) == 0 else np.resize(seed, 4)
        two_d = crc32c_u64_array(grid, seeds, 8)
        assert two_d.shape == (3, 4)
        assert np.array_equal(two_d, self._bytewise(grid, seeds, 8))
        strided = grid.T[::2]  # non-contiguous view, shape (2, 3)
        assert not strided.flags.c_contiguous
        seeds_t = seed if np.ndim(seed) == 0 else np.resize(seed, 3)
        assert np.array_equal(
            crc32c_u64_array(strided, seeds_t, 8),
            self._bytewise(strided, seeds_t, 8),
        )
        scalar = crc32c_u64_array(np.uint64(2**63 + 9), 5, 4)
        assert scalar.shape == ()
        assert int(scalar) == crc32c_bytes(
            (2**63 + 9).to_bytes(8, "little")[:4], 5
        )
        empty = crc32c_u64_array(np.zeros((0, 3), dtype=np.uint64), 5)
        assert empty.shape == (0, 3) and empty.dtype == np.uint32

    def test_several_slicing_blocks(self, rng):
        from repro.hashing.crc32c import _SLICE_BLOCK

        keys = rng.integers(0, 2**64, 2 * _SLICE_BLOCK + 3, dtype=np.uint64)
        got = crc32c_u64_array(keys, 9, 8)
        pick = np.r_[0:3, _SLICE_BLOCK - 1 : _SLICE_BLOCK + 2, -3:0]
        assert np.array_equal(got[pick], self._bytewise(keys[pick], 9, 8))


class TestLinearity:
    """CRC is affine over GF(2) — the structural root of the paper's
    observed Increment anomaly (crc(x) ^ crc(x+1) is input-independent for
    fixed carry length)."""

    def test_difference_pattern_constant_for_even_inputs(self):
        pattern = None
        for x in (0, 2, 4, 1000, 123456):
            d = crc32c_u64(x) ^ crc32c_u64(x + 1)
            if pattern is None:
                pattern = d
            assert d == pattern

    def test_seed_cancels_in_difference(self):
        for seed in (0, 7, 0xABCDEF):
            d = crc32c_u64(10, seed) ^ crc32c_u64(11, seed)
            assert d == crc32c_u64(10, 0) ^ crc32c_u64(11, 0)


class TestPerElementSeeds:
    def test_array_seed_matches_scalar_seed(self):
        keys = np.array([0, 1, 123456789, 2**48 + 7], dtype=np.uint64)
        seeds = np.array([5, 0xFFFFFFFF, 2**40, 9], dtype=np.uint64)
        for nbytes in (4, 8):
            got = crc32c_u64_array(keys, seeds, nbytes)
            for i in range(keys.size):
                exp = crc32c_u64_array(
                    keys[i : i + 1], int(seeds[i]), nbytes
                )[0]
                assert int(got[i]) == int(exp)

    def test_scalar_seed_broadcasts(self):
        keys = np.arange(10, dtype=np.uint64)
        assert np.array_equal(
            crc32c_u64_array(keys, 7), crc32c_u64_array(keys, np.uint64(7))
        )
