"""Tests for the SplitMix64 seeding substrate."""

import numpy as np
import pytest

from repro.util.rng import (
    derive_seed,
    splitmix64,
    splitmix64_array,
    uniform_below,
)


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_distinct_inputs_distinct_outputs(self):
        outs = {splitmix64(i) for i in range(1000)}
        assert len(outs) == 1000

    def test_range(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_vector_matches_scalar(self):
        xs = np.array([0, 1, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
        vec = splitmix64_array(xs)
        for x, v in zip(xs, vec):
            assert splitmix64(int(x)) == int(v)

    def test_vector_does_not_mutate_input(self):
        xs = np.array([1, 2, 3], dtype=np.uint64)
        copy = xs.copy()
        splitmix64_array(xs)
        assert np.array_equal(xs, copy)

    def test_avalanche(self):
        """Flipping one input bit flips ~half the output bits on average."""
        flips = []
        for i in range(64):
            a = splitmix64(0x123456789ABCDEF)
            b = splitmix64(0x123456789ABCDEF ^ (1 << i))
            flips.append(bin(a ^ b).count("1"))
        mean = sum(flips) / len(flips)
        assert 24 < mean < 40


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_path_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
        assert derive_seed(1) != derive_seed(2)

    def test_mixed_labels(self):
        assert derive_seed(7, "x", 3, "y") != derive_seed(7, "x", 3, "z")

    def test_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


class TestUniformBelow:
    def test_bounds(self):
        for bound in (1, 2, 3, 7, 100, 2**40):
            for s in range(20):
                assert 0 <= uniform_below(s, bound) < bound

    def test_bound_one(self):
        assert uniform_below(99, 1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            uniform_below(1, 0)
        with pytest.raises(ValueError):
            uniform_below(1, -5)

    def test_roughly_uniform(self):
        counts = [0] * 4
        for s in range(4000):
            counts[uniform_below(s, 4)] += 1
        for c in counts:
            assert 800 < c < 1200

    def test_deterministic(self):
        assert uniform_below(5, 1000) == uniform_below(5, 1000)


class TestDeriveSeedArray:
    def test_matches_scalar_over_roots(self):
        from repro.util.rng import _SCALAR_FOLD_MAX_ROOTS, derive_seed_array

        roots = np.array([0, 1, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
        got = derive_seed_array(roots, "sum-checker", "modulus", 3)
        for r, g in zip(roots, got):
            assert derive_seed(int(r), "sum-checker", "modulus", 3) == int(g)

        edge = roots
        counters = np.array([0, 7, 2**64 - 1], dtype=np.uint64)
        # Root counts on both sides of the scalar-fold / vectorized switch,
        # each array carrying the edge roots as-is.
        for n in (
            _SCALAR_FOLD_MAX_ROOTS - 1,
            _SCALAR_FOLD_MAX_ROOTS,
            _SCALAR_FOLD_MAX_ROOTS + 1,
        ):
            roots = np.concatenate(
                [edge, 1000 + np.arange(n - edge.size, dtype=np.uint64)]
            )
            got = derive_seed_array(roots, "sum-checker", "modulus", 3)
            assert got.shape == (n,)
            for r, g in zip(roots, got):
                assert derive_seed(int(r), "sum-checker", "modulus", 3) == int(g)
            # Mixed labels: an array label after string labels, then more
            # int/str labels folded on the broadcast (n, 3) state.
            got = derive_seed_array(
                roots[:, None], "bucket", np.int64(-2), counters, 5, "x"
            )
            assert got.shape == (n, counters.size)
            for i, r in enumerate(roots):
                for j, c in enumerate(counters):
                    want = derive_seed(int(r), "bucket", -2, int(c), 5, "x")
                    assert want == int(got[i, j])
        # 0-d roots: Python int, numpy scalar and 0-d array.
        for root in (2**64 - 1, np.uint64(12345), np.array(9, dtype=np.uint64)):
            got = derive_seed_array(root, "trial", 4)
            assert got.shape == ()
            assert int(got) == derive_seed(int(root), "trial", 4)
            got = derive_seed_array(root, "adaptive-escalation", counters)
            assert [int(g) for g in got] == [
                derive_seed(int(root), "adaptive-escalation", int(c))
                for c in counters
            ]

    def test_scalar_root_with_counter_array(self):
        from repro.util.rng import derive_seed_array

        counters = np.arange(16, dtype=np.uint64)
        got = derive_seed_array(7, "trial", counters)
        for t, g in zip(counters, got):
            assert derive_seed(7, "trial", int(t)) == int(g)


class TestUniformBelowArray:
    def test_matches_scalar(self):
        from repro.util.rng import uniform_below_array

        seeds = np.arange(200, dtype=np.uint64)
        for bound in (1, 2, 7, 1 << 15, 10**6, (1 << 32) + 1):
            got = uniform_below_array(seeds, bound)
            for s, g in zip(seeds, got):
                assert uniform_below(int(s), bound) == int(g), bound

    def test_rejects_nonpositive(self):
        from repro.util.rng import uniform_below_array

        with pytest.raises(ValueError):
            uniform_below_array(np.arange(3, dtype=np.uint64), 0)


class TestSplitMixStreams:
    def test_batch_matches_scalar_streams(self):
        from repro.util.rng import SplitMixStream, SplitMixStreamBatch

        seeds = np.array([derive_seed(5, "trial", t) for t in range(8)])
        batch = SplitMixStreamBatch(seeds)
        scalars = [SplitMixStream(int(s)) for s in seeds]
        # Full draws and masked draws interleaved: counters must track.
        full = batch.integers(1000)
        for st, v in zip(scalars, full):
            assert st.integers(1000) == int(v)
        idx = np.array([1, 4, 6])
        masked = batch.integers(33, index=idx)
        for i, v in zip(idx, masked):
            assert scalars[i].integers(33) == int(v)
        full2 = batch.integers(10**6)
        for st, v in zip(scalars, full2):
            assert st.integers(10**6) == int(v)

    def test_stream_draws_in_bounds(self):
        from repro.util.rng import SplitMixStream

        stream = SplitMixStream(99)
        draws = [stream.integers(10) for _ in range(500)]
        assert set(draws) <= set(range(10))
        assert len(set(draws)) == 10  # all residues appear in 500 draws
