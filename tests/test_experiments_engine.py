"""Tests for the batched accuracy path (experiments/accuracy.py).

The load-bearing property: the batched path is *exactly* a per-trial loop
over the manipulators' ``apply``, vectorized — same `derive_seed` tree,
same stream draws, same verdict for every single trial, for every
manipulator and hash family.
"""

import numpy as np
import pytest

from repro.core.params import PermCheckConfig, SumCheckConfig
from repro.core.permutation_checker import MultiSeedHashSumChecker
from repro.core.sum_checker import draw_moduli, reference_tables
from repro.experiments import accuracy
from repro.experiments.accuracy import (
    _kv_manipulator,
    _seq_manipulator,
    _storage_aware_family,
    perm_change_verdicts,
    perm_checker_accuracy,
    perm_checker_verdicts,
    sum_checker_accuracy,
    sum_checker_verdicts,
    sum_delta_verdicts,
)
from repro.faults.manipulators import (
    PERM_MANIPULATORS,
    SUM_MANIPULATORS,
    KVManipulationBatch,
)
from repro.util.rng import SplitMixStream, derive_seed
from repro.workloads.kv import sum_workload
from repro.workloads.uniform import uniform_integers

_SUM_FAMILIES = ("CRC", "Tab", "Mix")
_PERM_FAMILIES = ("CRC", "Tab", "Mix")
_TRIALS = 300
_N_ELEMENTS = 2_000
_NUM_KEYS = 500
_UNIVERSE = 10**6


def _reference_sum_verdicts(config, manipulator, trials, seed):
    """Per-trial detection flags of a loop over ``apply`` (the oracle)."""
    keys, values = sum_workload(
        _N_ELEMENTS, _NUM_KEYS, seed=derive_seed(seed, "wl")
    )
    man = _kv_manipulator(manipulator, _NUM_KEYS)
    effective = config.with_hash(
        _storage_aware_family(config.hash_family, _NUM_KEYS)
    )
    out = np.zeros(trials, dtype=bool)
    for trial in range(trials):
        rng = SplitMixStream(derive_seed(seed, "trial", trial))
        effect = man.apply(rng, keys, values)
        out[trial] = reference_tables(
            effective,
            derive_seed(seed, "checker", trial),
            effect.delta_keys,
            effect.delta_values,
        ).any()
    return out


def _reference_perm_verdicts(config, manipulator, trials, seed):
    sequence = uniform_integers(
        min(10**6, 1 << 16), _UNIVERSE, seed=derive_seed(seed, "wl")
    )
    man = _seq_manipulator(manipulator, _UNIVERSE)
    family = _storage_aware_family(config.hash_family, _UNIVERSE)
    out = np.zeros(trials, dtype=bool)
    for trial in range(trials):
        rng = SplitMixStream(derive_seed(seed, "trial", trial))
        change = man.apply(rng, sequence)
        checker = MultiSeedHashSumChecker(
            derive_seed(seed, "hash", trial),
            iterations=config.iterations,
            hash_family=family,
            log_h=config.log_h,
        )
        (lambdas,) = checker.lambda_values(change.removed, change.added)
        out[trial] = any(lam != 0 for lam in lambdas)
    return out


class TestSumEngineMatchesReference:
    @pytest.mark.parametrize("family", _SUM_FAMILIES)
    @pytest.mark.parametrize("manipulator", sorted(SUM_MANIPULATORS))
    def test_per_trial_verdicts_identical(self, manipulator, family):
        # A weak config so both detections and misses occur in 300 trials.
        config = SumCheckConfig.parse("1x2 m2").with_hash(family)
        seed = 0xE1
        got = sum_checker_verdicts(
            config, manipulator, _TRIALS, n_elements=_N_ELEMENTS,
            num_keys=_NUM_KEYS, seed=seed,
        )
        expected = _reference_sum_verdicts(config, manipulator, _TRIALS, seed)
        assert np.array_equal(got, expected)
        assert got.any() and not got.all(), "test config should be fallible"

    def test_strong_config_and_chunking(self, monkeypatch):
        config = SumCheckConfig.parse("8x16 m15").with_hash("Tab")
        # 64-trial chunks split 150 trials three ways; results must not
        # depend on the chunk boundaries.
        monkeypatch.setattr(accuracy, "_CHUNK_TRIALS", 64)
        got = sum_checker_verdicts(
            config, "Bitflip", 150, n_elements=_N_ELEMENTS,
            num_keys=_NUM_KEYS, seed=1,
        )
        expected = _reference_sum_verdicts(config, "Bitflip", 150, 1)
        assert np.array_equal(got, expected)

    def test_cell_equality_via_public_api(self):
        config = SumCheckConfig.parse("4x4 m3").with_hash("CRC")
        kwargs = dict(n_elements=_N_ELEMENTS, num_keys=_NUM_KEYS, seed=3)
        cell = sum_checker_accuracy(config, "IncDec2", 1_000, **kwargs)
        detected = _reference_sum_verdicts(config, "IncDec2", 1_000, 3)
        assert cell.trials == 1_000
        assert cell.failures == int((~detected).sum())


class TestPermEngineMatchesReference:
    @pytest.mark.parametrize("family", _PERM_FAMILIES)
    @pytest.mark.parametrize("manipulator", sorted(PERM_MANIPULATORS))
    def test_per_trial_verdicts_identical(self, manipulator, family):
        config = PermCheckConfig(log_h=2, hash_family=family)
        seed = 0xE5
        got = perm_checker_verdicts(
            config, manipulator, _TRIALS, universe=_UNIVERSE, seed=seed
        )
        expected = _reference_perm_verdicts(config, manipulator, _TRIALS, seed)
        assert np.array_equal(got, expected)
        assert got.any() and not got.all(), "log_h=2 should be fallible"

    def test_multi_iteration_checker(self):
        config = PermCheckConfig(log_h=1, hash_family="Mix", iterations=3)
        got = perm_checker_verdicts(
            config, "Randomize", _TRIALS, universe=_UNIVERSE, seed=11
        )
        expected = _reference_perm_verdicts(config, "Randomize", _TRIALS, 11)
        assert np.array_equal(got, expected)

    def test_cell_equality_via_public_api(self):
        config = PermCheckConfig(log_h=3, hash_family="Tab")
        cell = perm_checker_accuracy(
            config, "SetEqual", 1_000, universe=_UNIVERSE, seed=5
        )
        detected = _reference_perm_verdicts(config, "SetEqual", 1_000, 5)
        assert cell.trials == 1_000
        assert cell.failures == int((~detected).sum())


class TestEdgeCases:
    @pytest.mark.parametrize("trials", [0, 1])
    def test_sum_trial_count_edges(self, trials):
        config = SumCheckConfig.parse("4x4 m3").with_hash("Tab")
        kwargs = dict(n_elements=_N_ELEMENTS, num_keys=_NUM_KEYS, seed=9)
        cell = sum_checker_accuracy(config, "RandKey", trials, **kwargs)
        detected = _reference_sum_verdicts(config, "RandKey", trials, 9)
        assert cell.trials == trials
        assert cell.failures == int((~detected).sum())

    @pytest.mark.parametrize("trials", [0, 1])
    def test_perm_trial_count_edges(self, trials):
        config = PermCheckConfig(log_h=2, hash_family="CRC")
        cell = perm_checker_accuracy(
            config, "Increment", trials, universe=_UNIVERSE, seed=9
        )
        detected = _reference_perm_verdicts(config, "Increment", trials, 9)
        assert cell.trials == trials
        assert cell.failures == int((~detected).sum())

    def test_verdict_kernel_validates_trial_counts(self):
        config = SumCheckConfig.parse("4x4 m3")
        delta = KVManipulationBatch(
            owner=np.zeros(1, dtype=np.intp),
            delta_keys=np.array([1], dtype=np.uint64),
            delta_values=np.array([1], dtype=np.int64),
            trials=1,
        )
        with pytest.raises(ValueError):
            sum_delta_verdicts(config, np.arange(2, dtype=np.uint64), delta)


class TestVerdictKernelsDirect:
    def test_sum_delta_verdicts_vs_scalar_checkers(self):
        """The kernel equals per-seed reference tables on a shared delta."""
        config = SumCheckConfig.parse("2x4 m2").with_hash("Mix")
        trials = 200
        seeds = np.arange(trials, dtype=np.uint64) * np.uint64(13) + np.uint64(5)
        dk = np.array([7, 8], dtype=np.uint64)
        dv = np.array([3, -3], dtype=np.int64)
        delta = KVManipulationBatch(
            owner=np.repeat(np.arange(trials, dtype=np.intp), 2),
            delta_keys=np.tile(dk, trials),
            delta_values=np.tile(dv, trials),
            trials=trials,
        )
        got = sum_delta_verdicts(config, seeds, delta)
        for t in range(trials):
            assert got[t] == reference_tables(config, int(seeds[t]), dk, dv).any()
        assert got.any() and not got.all()

    def test_perm_change_verdicts_vs_scalar_checkers(self):
        config = PermCheckConfig(log_h=2, hash_family="Tab")
        trials = 200
        seeds = np.arange(trials, dtype=np.uint64) * np.uint64(3) + np.uint64(1)
        removed = np.full(trials, 12345, dtype=np.uint64)
        added = np.full(trials, 54321, dtype=np.uint64)
        got = perm_change_verdicts(config, "Tab", seeds, removed, added)
        for t in range(trials):
            checker = MultiSeedHashSumChecker(
                int(seeds[t]),
                iterations=config.iterations,
                hash_family="Tab",
                log_h=config.log_h,
            )
            (lambdas,) = checker.lambda_values(
                removed[t : t + 1], added[t : t + 1]
            )
            assert got[t] == any(lam != 0 for lam in lambdas)

    def test_huge_modulus_stays_exact(self):
        """Residue sums beyond float64's 2^52 mantissa must not flip verdicts.

        Three same-bucket residues near 2r̂ = 2^53 overflow the float64
        fast path; the kernel must fall back to exact int64 accumulation
        and agree with the reference fold.
        """
        config = SumCheckConfig(iterations=1, d=2, rhat=1 << 52, hash_family="Mix")
        trials = 16
        seeds = np.arange(trials, dtype=np.uint64)
        dk = np.array([10, 11, 12], dtype=np.uint64)
        delta = KVManipulationBatch(
            owner=np.repeat(np.arange(trials, dtype=np.intp), 3),
            delta_keys=np.tile(dk, trials),
            delta_values=np.zeros(3 * trials, dtype=np.int64),
            trials=trials,
        )
        for t in range(trials):
            r = int(draw_moduli(config, int(seeds[t]))[0])
            dv = np.array([r - 1, r - 1, 3 - 2 * r], dtype=np.int64)
            delta.delta_values[3 * t : 3 * t + 3] = dv
        got = sum_delta_verdicts(config, seeds, delta)
        for t in range(trials):
            expected = reference_tables(
                config,
                int(seeds[t]),
                delta.delta_keys[3 * t : 3 * t + 3],
                delta.delta_values[3 * t : 3 * t + 3],
            ).any()
            assert got[t] == expected, t

    def test_perm_log_h_out_of_range(self):
        config = PermCheckConfig(log_h=40, hash_family="Mix")
        with pytest.raises(ValueError):
            perm_change_verdicts(
                config,
                "Tab",  # 32-bit family cannot serve log_h=40
                np.arange(2, dtype=np.uint64),
                np.array([1, 2], dtype=np.uint64),
                np.array([3, 4], dtype=np.uint64),
            )
