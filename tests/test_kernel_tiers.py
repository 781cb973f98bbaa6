"""Kernel-tier contract suite: dispatch, parity, chunk-bounded fallback.

The tiered kernels (:mod:`repro.kernels`) are only admissible if every
backend is *bit-identical* to the numpy oracle — a faster wrong verdict
would break the paper's one-sided-error guarantee.  This suite pins:

* ``REPRO_KERNEL_TIER`` resolution (valid values, invalid → ``ValueError``,
  explicit-numba-unavailable → one ``RuntimeWarning`` then numpy);
* the numpy kernels against hand-rolled Python references;
* numba/numpy parity per kernel across dtypes and edge shapes (skipped
  when numba is absent — the suite must pass in the numba-free matrix);
* the O(chunk) scratch bound of the tiled ``hash_lanes`` fallback under a
  forced kernel-tier environment.
"""

import warnings

import numpy as np
import pytest

from repro.core.multiseed import MultiSeedSumChecker, condense_kv
from repro.core.params import SumCheckConfig
from repro.hashing.families import HashFamily, get_family, hash_lanes
from repro.hashing.mixers import MultiplyShiftHash, SplitMixHash
from repro.kernels import (
    KERNEL_NAMES,
    active_tier,
    get_kernels,
    numba_available,
    resolve_tier,
    seeds_per_block,
)
from repro.kernels import dispatch
from repro.kernels import numpy_backend
from repro.util.rng import derive_seed_array

HAVE_NUMBA = numba_available()

_CONFIG = SumCheckConfig(iterations=4, d=16, rhat=1 << 15)
_SEEDS = np.arange(1, 9, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


@pytest.fixture
def clean_env(monkeypatch):
    """Unset the tier env var and forget sticky/warned dispatch state."""
    monkeypatch.delenv(dispatch.ENV_VAR, raising=False)
    dispatch._reset_for_tests()
    yield monkeypatch
    dispatch._reset_for_tests()


# ---------------------------------------------------------------------------
# Tier resolution
# ---------------------------------------------------------------------------


class TestTierResolution:
    def test_unset_env_means_auto(self, clean_env):
        assert resolve_tier() == ("numba" if numba_available() else "numpy")

    @pytest.mark.parametrize("value", ["", "  ", "auto", " AUTO "])
    def test_auto_spellings(self, clean_env, value):
        clean_env.setenv(dispatch.ENV_VAR, value)
        assert resolve_tier() == ("numba" if numba_available() else "numpy")

    @pytest.mark.parametrize("value", ["numpy", "NumPy", " numpy\t"])
    def test_numpy_forced(self, clean_env, value):
        clean_env.setenv(dispatch.ENV_VAR, value)
        assert resolve_tier() == "numpy"
        assert get_kernels().name == "numpy"
        assert get_kernels() is numpy_backend

    @pytest.mark.parametrize("value", ["cuda", "jit", "1", "none"])
    def test_invalid_env_raises(self, clean_env, value):
        clean_env.setenv(dispatch.ENV_VAR, value)
        with pytest.raises(ValueError, match=dispatch.ENV_VAR):
            resolve_tier()
        with pytest.raises(ValueError, match="cuda|jit|1|none"):
            resolve_tier(value)

    def test_explicit_tier_overrides_env(self, clean_env):
        # A call-site override never consults the environment.
        clean_env.setenv(dispatch.ENV_VAR, "bogus")
        assert resolve_tier("numpy") == "numpy"
        assert get_kernels("numpy").name == "numpy"

    def test_active_tier_matches_get_kernels(self, clean_env):
        assert get_kernels().name == active_tier()

    def test_both_backends_expose_the_signature_set(self):
        backends = [numpy_backend]
        if HAVE_NUMBA:
            from repro.kernels import numba_backend

            backends.append(numba_backend)
        for backend in backends:
            for kernel in KERNEL_NAMES:
                assert callable(getattr(backend, kernel)), (
                    backend.name, kernel,
                )


class TestNumbaUnavailableFallback:
    @pytest.mark.skipif(HAVE_NUMBA, reason="numba importable in this env")
    def test_explicit_numba_warns_once_and_falls_back(self, clean_env):
        clean_env.setenv(dispatch.ENV_VAR, "numba")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_tier() == "numpy"
        # Once per process: the second resolution is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_tier() == "numpy"
            assert get_kernels().name == "numpy"

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba importable in this env")
    def test_auto_is_silent_without_numba(self, clean_env):
        clean_env.setenv(dispatch.ENV_VAR, "auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_tier() == "numpy"

    def test_sticky_selfcheck_failure_disables_tier(self, clean_env):
        # Simulate a load-time self-check failure: the tier must stay off
        # for the whole process and the fallback warning must say why.
        clean_env.setitem(dispatch._state, "numba", None)
        clean_env.setitem(dispatch._state, "numba_failed", True)
        clean_env.setitem(
            dispatch._state, "numba_error", "RuntimeError: oracle mismatch"
        )
        clean_env.setitem(dispatch._state, "warned_fallback", False)
        assert not numba_available()
        assert resolve_tier("auto") == "numpy"
        with pytest.warns(RuntimeWarning, match="oracle mismatch"):
            assert resolve_tier("numba") == "numpy"
        assert get_kernels("numba").name == "numpy"

    def test_checkers_run_under_forced_numba_env(self, clean_env, rng):
        # End-to-end graceful degradation: a full multi-seed check under
        # REPRO_KERNEL_TIER=numba works on any machine (warning or not).
        clean_env.setenv(dispatch.ENV_VAR, "numba")
        keys = rng.integers(0, 500, 4_000, dtype=np.uint64)
        values = rng.integers(-50, 50, 4_000, dtype=np.int64)
        checker = MultiSeedSumChecker(_CONFIG, _SEEDS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = checker.check_local((keys, values), (keys, values))
        assert res.accepted
        assert res.details["per_seed_accepted"] == [True] * _SEEDS.size


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


# ---------------------------------------------------------------------------
# Numpy kernels vs hand-rolled references
# ---------------------------------------------------------------------------


def _key_variants(rng):
    wide = rng.integers(0, 2**64, 301, dtype=np.uint64)
    return {
        "full-width": wide,
        "int64-view": wide.view(np.int64).astype(np.uint64),
        "duplicate-heavy": rng.integers(0, 7, 400, dtype=np.uint64)
        * np.uint64(0x0101_0101_0101_0101),
        "empty": np.zeros(0, dtype=np.uint64),
    }


class TestNumpyKernelCorrectness:
    def test_tab_gather_matches_scalar_xor(self, rng):
        num_tables, T, n = 4, 3, 57
        tables = rng.integers(0, 2**64, (num_tables, T, 256), dtype=np.uint64)
        byte_idx = rng.integers(0, 256, (num_tables, n)).astype(np.intp)
        out = np.empty((T, n), dtype=np.uint64)
        tmp = np.empty_like(out)
        numpy_backend.tab_gather(tables, byte_idx, out, tmp)
        for t in range(T):
            for i in range(n):
                acc = 0
                for j in range(num_tables):
                    acc ^= int(tables[j, t, byte_idx[j, i]])
                assert int(out[t, i]) == acc

    def test_scatter_add_mod_matches_python_dict(self, rng):
        r = 101
        d = 16
        buckets = rng.integers(0, d, 5_000).astype(np.intp)
        values = rng.integers(0, r, 5_000, dtype=np.int64)
        table = np.zeros(d, dtype=np.int64)
        numpy_backend.scatter_add_mod(table, buckets, values, r)
        ref = [0] * d
        for b, v in zip(buckets.tolist(), values.tolist()):
            ref[b] = (ref[b] + v) % r
        assert table.tolist() == ref

    def test_scatter_add_mod_huge_modulus_chunks_exactly(self, rng):
        # r near 2^51 forces ~2-element chunks: the deferred-modulo path
        # must stay exact across many chunk boundaries.
        r = (1 << 51) - 129
        buckets = rng.integers(0, 4, 64).astype(np.intp)
        values = rng.integers(0, r, 64, dtype=np.int64)
        table = np.zeros(4, dtype=np.int64)
        numpy_backend.scatter_add_mod(table, buckets, values, r)
        ref = [0, 0, 0, 0]
        for b, v in zip(buckets.tolist(), values.tolist()):
            ref[b] = (ref[b] + v) % r
        assert table.tolist() == ref

    def test_scatter_add_mod_empty_is_noop(self):
        table = np.arange(5, dtype=np.int64)
        numpy_backend.scatter_add_mod(
            table, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64), 7
        )
        assert table.tolist() == [0, 1, 2, 3, 4]

    def test_mix_lanes_matches_splitmix_instances(self, rng):
        seeds = rng.integers(0, 2**64, 5, dtype=np.uint64)
        keys = rng.integers(0, 2**64, 97, dtype=np.uint64)
        for bits in (64, 32, 15):
            mask = np.uint64((1 << bits) - 1 if bits < 64 else 2**64 - 1)
            out = np.empty((5, 97), dtype=np.uint64)
            numpy_backend.mix_lanes(seeds, keys, mask, out)
            for t, seed in enumerate(seeds):
                expected = SplitMixHash(int(seed), bits).hash_array(keys)
                assert np.array_equal(out[t], expected), bits

    def test_mshift_lanes_matches_multiply_shift_instances(self, rng):
        seeds = rng.integers(0, 2**64, 5, dtype=np.uint64)
        keys = rng.integers(0, 2**64, 97, dtype=np.uint64)
        multipliers = derive_seed_array(seeds, "multiply-shift") | np.uint64(1)
        out = np.empty((5, 97), dtype=np.uint64)
        numpy_backend.mshift_lanes(multipliers, keys, np.uint64(32), out)
        for t, seed in enumerate(seeds):
            expected = MultiplyShiftHash(int(seed), 32).hash_array(keys)
            assert np.array_equal(out[t], expected)


# ---------------------------------------------------------------------------
# Numba parity (skipped when the tier is unavailable)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba tier unavailable")
class TestNumbaParity:
    @pytest.fixture
    def nb(self):
        from repro.kernels import numba_backend

        return numba_backend

    @pytest.mark.parametrize("variant", list(_key_variants(
        np.random.default_rng(0)
    )))
    def test_mix_and_mshift_parity(self, nb, rng, variant):
        keys = _key_variants(rng)[variant]
        seeds = rng.integers(0, 2**64, 6, dtype=np.uint64)
        mask = np.uint64((1 << 33) - 1)
        a = np.empty((6, keys.size), dtype=np.uint64)
        b = np.empty_like(a)
        numpy_backend.mix_lanes(seeds, keys, mask, a)
        nb.mix_lanes(seeds, keys, mask, b)
        assert np.array_equal(a, b)
        mult = seeds | np.uint64(1)
        numpy_backend.mshift_lanes(mult, keys, np.uint64(31), a)
        nb.mshift_lanes(mult, keys, np.uint64(31), b)
        assert np.array_equal(a, b)

    def test_tab_gather_parity(self, nb, rng):
        tables = rng.integers(0, 2**64, (8, 4, 256), dtype=np.uint64)
        byte_idx = rng.integers(0, 256, (8, 333)).astype(np.intp)
        a = np.empty((4, 333), dtype=np.uint64)
        tmp = np.empty_like(a)
        b = np.empty_like(a)
        tmp2 = np.empty_like(a)
        numpy_backend.tab_gather(tables, byte_idx, a, tmp)
        nb.tab_gather(tables, byte_idx, b, tmp2)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, 1, 4_097])
    def test_scatter_add_mod_parity(self, nb, rng, n):
        r = (1 << 50) + 7
        buckets = rng.integers(0, 16, n).astype(np.intp)
        values = rng.integers(0, r, n, dtype=np.int64)
        a = np.zeros(16, dtype=np.int64)
        b = np.zeros(16, dtype=np.int64)
        numpy_backend.scatter_add_mod(a, buckets, values, r)
        nb.scatter_add_mod(b, buckets, values, r)
        assert np.array_equal(a, b)

    def test_weighted_bincount_parity(self, nb, rng):
        buckets = rng.integers(0, 64, 2_000).astype(np.intp)
        weights = rng.integers(-(2**40), 2**40, 2_000).astype(np.float64)
        a = numpy_backend.weighted_bincount(buckets, weights, 64)
        b = nb.weighted_bincount(buckets, weights, 64)
        assert np.array_equal(a, b)

    def test_end_to_end_tables_identical_across_tiers(self, clean_env, rng):
        keys = rng.integers(0, 900, 6_000, dtype=np.uint64)
        values = rng.integers(-1_000, 1_000, 6_000, dtype=np.int64)
        condensed = condense_kv(keys, values)
        tables = {}
        for tier in ("numpy", "numba"):
            clean_env.setenv(dispatch.ENV_VAR, tier)
            checker = MultiSeedSumChecker(_CONFIG, _SEEDS)
            tables[tier] = checker.local_tables_condensed(condensed)
        assert np.array_equal(tables["numpy"], tables["numba"])


# ---------------------------------------------------------------------------
# Tiled-fallback scratch bound under a forced tier environment
# ---------------------------------------------------------------------------


class TestFallbackScratchUnderTierEnv:
    @pytest.mark.parametrize("tier", ["numpy", "numba"])
    def test_hash_lanes_fallback_stays_chunk_bounded(
        self, clean_env, rng, tier
    ):
        # The kernel-less fallback must obey seeds_per_block whatever
        # REPRO_KERNEL_TIER says — the env var selects kernels, it never
        # re-opens the O(T·n) tiling regression.
        clean_env.setenv(dispatch.ENV_VAR, tier)
        sizes = []
        src = get_family("Mix")

        def spy_kernel(seeds, owner, keys):
            sizes.append(keys.size)
            return src._batch_kernel(seeds, owner, keys)

        fam = HashFamily(
            "MixSpyTier", src._factory, 64, "kernel-less spy",
            batch_kernel=spy_kernel,
        )
        keys = rng.integers(0, 2**64, 100, dtype=np.uint64)
        seeds = rng.integers(0, 2**64, 37, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lanes = hash_lanes(fam, seeds, keys, chunk_elements=250)
        assert max(sizes) <= 250  # peak tiled scratch is O(chunk)
        assert len(sizes) == -(-37 // seeds_per_block(250, 100))
        for t, seed in enumerate(seeds):
            assert np.array_equal(
                lanes[t], src.instance(int(seed)).hash_array(keys)
            )
