"""Batched trial engine for the Fig 3 / Fig 5 accuracy experiments.

The per-trial reference loop in :mod:`repro.experiments.accuracy` costs
~0.3 ms/trial: every trial re-derives seeds, rebuilds a checker
(regenerating 8–16 KB of tabulation tables), and hashes a handful of keys
in a fresh tiny numpy call.  Following the paper's own bit-parallel
philosophy (§7.1: one wide evaluation serves many iterations), this engine
evaluates many *trials* per numpy kernel call:

* all per-trial randomness is drawn up front from the same ``derive_seed``
  tree the reference loop walks (vectorized SplitMix64 streams);
* fault sampling happens through the manipulators'
  ``sample_delta_batch``/``sample_change_batch`` kernels;
* checker randomness (moduli, bucket hashes, fingerprint hashes) is drawn
  by stacked kernels — one tabulation-table build / CRC pass / mix per
  hash evaluation for the whole batch.

Equivalence is exact, not statistical: trial ``t`` of the engine consumes
the same seeds and draws as trial ``t`` of the reference loop, so the
verdict vectors — and hence the :class:`AccuracyCell` counts — are
identical.  ``tests/test_experiments_engine.py`` asserts this per trial
for every manipulator and hash family.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import PermCheckConfig, SumCheckConfig
from repro.core.sum_checker import draw_moduli
from repro.experiments.accuracy import (
    AccuracyCell,
    _kv_manipulator,
    _seq_manipulator,
    _storage_aware_family,
)
from repro.faults.manipulators import KVManipulationBatch
from repro.hashing.bitgroups import assign_buckets_batch
from repro.hashing.families import get_family
from repro.util.rng import (
    SplitMixStreamBatch,
    derive_seed,
    derive_seed_array,
    splitmix64_array,
)
from repro.workloads.kv import sum_workload
from repro.workloads.uniform import uniform_integers

#: Trials evaluated per numpy pass; bounds the stacked-table scratch to a
#: few tens of MB (8192 trials × 8 tables × 256 entries × 8 B ≈ 134 MB
#: worst case for Tab64, half that for Tab).
DEFAULT_CHUNK_TRIALS = 8192


def sum_delta_verdicts(
    config: SumCheckConfig,
    checker_seeds: np.ndarray,
    delta: KVManipulationBatch,
) -> np.ndarray:
    """Does trial ``t``'s checker detect its delta?  For many trials at once.

    ``checker_seeds[t]`` seeds trial ``t``'s checker; ``delta`` carries the
    trials' sparse per-key aggregate deltas.  Returns a boolean ``(T,)``
    vector — exact: the minireduction residues of each trial's deltas are
    computed mod that trial's drawn moduli under that trial's bucket
    hashes, matching :func:`~repro.core.sum_checker.reference_tables`
    under ``checker_seeds[t]`` bit for bit (a trial detects iff its
    table is non-zero).
    """
    checker_seeds = np.asarray(checker_seeds, dtype=np.uint64).ravel()
    trials = checker_seeds.size
    if delta.trials != trials:
        raise ValueError(
            f"{delta.trials} delta trials vs {trials} checker seeds"
        )
    cfg = config
    family = get_family(cfg.hash_family)
    moduli = draw_moduli(cfg, checker_seeds)  # (T, iterations)
    bucket_seeds = derive_seed_array(checker_seeds, "sum-checker", "buckets")
    buckets = assign_buckets_batch(
        family, cfg.d, cfg.iterations, bucket_seeds, delta.delta_keys, delta.owner
    )
    owner = delta.owner.astype(np.int64)
    values = delta.delta_values.astype(np.int64)
    detected = np.zeros(trials, dtype=bool)
    # The float64 bincount is exact only while a slot's residue sum stays
    # below the 2^52 mantissa headroom: at most max-entries-per-trial
    # residues, each < 2r̂.  Paper configs (r̂ ≤ 2^31, ≤ 8 deltas) clear it
    # by far; for extreme r̂ fall back to an exact int64 scatter-add.
    max_entries = int(np.bincount(owner, minlength=trials).max()) if owner.size else 0
    float_exact = max_entries * 2 * cfg.rhat < (1 << 52)
    for j in range(cfg.iterations):
        r = moduli[:, j]
        residues = values % r[owner]
        slot = owner * cfg.d + buckets[j]
        if float_exact:
            sums = np.bincount(
                slot,
                weights=residues.astype(np.float64),
                minlength=trials * cfg.d,
            ).astype(np.int64)
        else:
            sums = np.zeros(trials * cfg.d, dtype=np.int64)
            np.add.at(sums, slot, residues)
        table = sums.reshape(trials, cfg.d) % r[:, None]
        detected |= table.any(axis=1)
    return detected


def perm_change_verdicts(
    config: PermCheckConfig,
    hash_family: str,
    hash_seeds: np.ndarray,
    removed: np.ndarray,
    added: np.ndarray,
) -> np.ndarray:
    """``MultiSeedHashSumChecker(...).lambda_values != 0`` for many trials.

    For single-element changes the wide hash sums differ by
    ``h(removed) − h(added)``, so trial ``t`` detects its fault iff some
    iteration's truncated hashes differ.  ``hash_seeds[t]`` is the one-seed
    checker's root seed; iteration functions derive from it exactly
    as :class:`~repro.core.permutation_checker.MultiSeedHashSumChecker`
    does.
    """
    hash_seeds = np.asarray(hash_seeds, dtype=np.uint64).ravel()
    trials = hash_seeds.size
    family = get_family(hash_family)
    if not 1 <= config.log_h <= family.bits:
        raise ValueError(
            f"log_h={config.log_h} out of range for {family.name} "
            f"({family.bits} output bits)"
        )
    mask = np.uint64((1 << config.log_h) - 1)
    owner = np.arange(trials, dtype=np.intp)
    removed = np.asarray(removed, dtype=np.uint64)
    added = np.asarray(added, dtype=np.uint64)
    undetected = np.ones(trials, dtype=bool)
    # Fold the "perm-checker" label once; iterations only branch on their
    # counter (identical to derive_seed_array(hash_seeds, "perm-checker", j)).
    prefix = derive_seed_array(hash_seeds, "perm-checker")
    for j in range(config.iterations):
        fn_seeds = splitmix64_array(prefix ^ np.uint64(j))
        h_removed = family.hash_array_batch(fn_seeds, owner, removed) & mask
        h_added = family.hash_array_batch(fn_seeds, owner, added) & mask
        undetected &= h_removed == h_added
    return ~undetected


class BatchedSumAccuracy:
    """Vectorized Fig 3 cell: same seed tree as ``sum_checker_accuracy``."""

    def __init__(
        self,
        config: SumCheckConfig,
        manipulator: str,
        n_elements: int = 50_000,
        num_keys: int = 10**6,
        seed: int = 0,
        chunk_trials: int = DEFAULT_CHUNK_TRIALS,
    ):
        if chunk_trials < 1:
            raise ValueError(f"chunk_trials must be >= 1, got {chunk_trials}")
        self.config = config
        self.manipulator = manipulator
        self.seed = seed
        self.chunk_trials = chunk_trials
        self.keys, self.values = sum_workload(
            n_elements, num_keys, seed=derive_seed(seed, "wl")
        )
        self.man = _kv_manipulator(manipulator, num_keys)
        self.effective = config.with_hash(
            _storage_aware_family(config.hash_family, num_keys)
        )

    def verdicts(self, trials: int) -> np.ndarray:
        """Per-trial detection flags, identical to the reference loop's."""
        detected = np.zeros(trials, dtype=bool)
        for start in range(0, trials, self.chunk_trials):
            ids = np.arange(start, min(start + self.chunk_trials, trials))
            stream = SplitMixStreamBatch(
                derive_seed_array(self.seed, "trial", ids.astype(np.uint64))
            )
            delta = self.man.sample_delta_batch(stream, self.keys, self.values)
            checker_seeds = derive_seed_array(
                self.seed, "checker", ids.astype(np.uint64)
            )
            detected[ids] = sum_delta_verdicts(
                self.effective, checker_seeds, delta
            )
        return detected

    def run(self, trials: int) -> AccuracyCell:
        detected = self.verdicts(trials)
        return AccuracyCell(
            checker="sum-aggregation",
            config=self.config.label(),
            manipulator=self.manipulator,
            trials=trials,
            failures=int(trials - detected.sum()),
            expected_delta=self.config.failure_bound,
        )


class BatchedPermAccuracy:
    """Vectorized Fig 5 cell: same seed tree as ``perm_checker_accuracy``."""

    def __init__(
        self,
        config: PermCheckConfig,
        manipulator: str,
        n_elements: int = 10**6,
        universe: int = 10**8,
        seed: int = 0,
        chunk_trials: int = DEFAULT_CHUNK_TRIALS,
    ):
        if chunk_trials < 1:
            raise ValueError(f"chunk_trials must be >= 1, got {chunk_trials}")
        self.config = config
        self.manipulator = manipulator
        self.seed = seed
        self.chunk_trials = chunk_trials
        self.sequence = uniform_integers(
            min(n_elements, 1 << 16), universe, seed=derive_seed(seed, "wl")
        )
        self.man = _seq_manipulator(manipulator, universe)
        self.family = _storage_aware_family(config.hash_family, universe)

    def verdicts(self, trials: int) -> np.ndarray:
        """Per-trial detection flags, identical to the reference loop's."""
        detected = np.zeros(trials, dtype=bool)
        for start in range(0, trials, self.chunk_trials):
            ids = np.arange(start, min(start + self.chunk_trials, trials))
            stream = SplitMixStreamBatch(
                derive_seed_array(self.seed, "trial", ids.astype(np.uint64))
            )
            change = self.man.sample_change_batch(stream, self.sequence)
            hash_seeds = derive_seed_array(
                self.seed, "hash", ids.astype(np.uint64)
            )
            detected[ids] = perm_change_verdicts(
                self.config, self.family, hash_seeds, change.removed, change.added
            )
        return detected

    def run(self, trials: int) -> AccuracyCell:
        detected = self.verdicts(trials)
        return AccuracyCell(
            checker="permutation-hashsum",
            config=self.config.label(),
            manipulator=self.manipulator,
            trials=trials,
            failures=int(trials - detected.sum()),
            expected_delta=self.config.failure_bound,
        )
