"""Ablation: bit-parallel hashing (§4 "Optimizations" / §7.1).

The paper computes one 32-bit hash value and partitions it into bit groups
instead of evaluating one hash function per iteration.  This bench
quantifies that choice: the same configuration with a power-of-two d (bit
groups from one evaluation) versus a non-power-of-two d of similar size
(one evaluation + modulo per iteration).
"""

from __future__ import annotations

import numpy as np

from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.hashing.bitgroups import evaluation_seeds
from repro.hashing.families import get_family
from repro.workloads.kv import sum_workload

_SEED = 0xAB17


def _make(label: str):
    cfg = SumCheckConfig.parse(label)
    checker = MultiSeedSumChecker(cfg, [_SEED])
    keys, values = sum_workload(200_000, seed=1)
    return checker, keys, values


def _hash_evaluations(checker) -> int:
    """Hash passes one seed spends per fold (rows of its evaluation seeds)."""
    cfg = checker.config
    return evaluation_seeds(
        get_family(cfg.hash_family), cfg.d, cfg.iterations, [_SEED]
    ).shape[0]


def test_bitparallel_pow2_buckets(benchmark):
    """8 iterations × 16 buckets — one hash evaluation, 8 bit groups."""
    checker, keys, values = _make("8x16 Tab64 m15")
    assert _hash_evaluations(checker) == 1
    benchmark(checker.local_tables, keys, values)


def test_general_buckets_mod_d(benchmark):
    """8 iterations × 17 buckets — d not a power of two: 8 evaluations."""
    checker, keys, values = _make("8x17 Tab64 m15")
    assert _hash_evaluations(checker) == 8
    benchmark(checker.local_tables, keys, values)


def test_bitparallel_detection_unchanged(benchmark):
    """Bit groups are as good as independent hashes for detection.

    Sanity-check the accuracy is not degraded: a single-key fault must be
    detected at a rate consistent with 1 − δ for both bucket schemes.
    Runs through the batched verdict kernel (one call per scheme instead
    of 300 checker constructions); ``sum_delta_verdicts`` is asserted
    trial-identical to per-trial ``detects_delta`` by the engine tests.
    """
    from repro.experiments.accuracy import sum_delta_verdicts
    from repro.faults.manipulators import KVManipulationBatch

    def run():
        trials = 300
        seeds = np.arange(trials, dtype=np.uint64) * np.uint64(7) + np.uint64(1)
        delta = KVManipulationBatch(
            owner=np.repeat(np.arange(trials, dtype=np.intp), 2),
            delta_keys=np.tile(np.array([123, 124], dtype=np.uint64), trials),
            delta_values=np.tile(np.array([5, -5], dtype=np.int64), trials),
            trials=trials,
        )
        misses = {}
        for label in ("8x16 Tab64 m15", "8x17 Tab64 m15"):
            cfg = SumCheckConfig.parse(label)
            detected = sum_delta_verdicts(cfg, seeds, delta)
            misses[label] = int(trials - detected.sum())
        return misses, trials

    misses, trials = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, missed in misses.items():
        delta = SumCheckConfig.parse(label).failure_bound
        # δ ≈ 6e-10 here: any miss at 300 trials would be a red flag.
        assert missed <= max(1, 10 * delta * trials), (label, missed)
