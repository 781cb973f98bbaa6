"""Failure-rate estimation — the Fig 3 / Fig 5 accuracy experiments.

The paper measures, per (checker configuration × manipulator) cell, the
fraction of 100 000 trials in which the checker *fails to detect* an
injected fault, and plots it relative to the configuration's failure bound
δ.  Two execution paths per cell:

* **batched** — the exact fast path.  The checker's verdict is a
  deterministic function of the fault's sparse effect (per-key aggregate
  deltas for the sum checker, removed/added elements for the permutation
  checker) and of the drawn hash/modulus randomness, so a trial needs
  neither the data's copy nor the operation.  Many trials run per numpy
  kernel call, following the paper's own bit-parallel philosophy (§7.1:
  one wide evaluation serves many iterations):

  - all per-trial randomness is drawn up front from one ``derive_seed``
    tree (vectorized SplitMix64 streams);
  - fault sampling happens through the manipulators'
    ``sample_delta_batch``/``sample_change_batch`` kernels;
  - checker randomness (moduli, bucket hashes, fingerprint hashes) is
    drawn by stacked kernels — one tabulation-table build / CRC pass /
    mix per hash evaluation for the whole batch.

  This is what makes ``REPRO_BENCH_TRIALS=100000`` routine.
* **full** — the genuine end-to-end run: manipulate the data, execute the
  black-box operation, run the complete checker.  Used for validation and
  affordable at reduced trial counts.  Trial ``t`` of both paths consumes
  the same seeds and stream draws, so the two estimate identical failure
  counts; ``tests/test_experiments_engine.py`` asserts the batched
  verdicts per trial, for every manipulator and hash family, against a
  loop over the manipulators' ``apply``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multiseed import check_sum_aggregation
from repro.core.params import PermCheckConfig, SumCheckConfig
from repro.core.permutation_checker import MultiSeedHashSumChecker
from repro.core.sum_checker import draw_moduli
from repro.faults.manipulators import (
    KVManipulationBatch,
    get_kv_manipulator,
    get_seq_manipulator,
)
from repro.hashing.bitgroups import assign_buckets_batch
from repro.hashing.families import get_family
from repro.util.bits import ceil_log2
from repro.util.rng import (
    SplitMixStream,
    SplitMixStreamBatch,
    derive_seed,
    derive_seed_array,
    splitmix64_array,
)
from repro.workloads.kv import aggregate_reference, sum_workload
from repro.workloads.uniform import uniform_integers

#: Trials evaluated per numpy pass; bounds the stacked-table scratch to a
#: few tens of MB (8192 trials × 8 tables × 256 entries × 8 B ≈ 134 MB
#: worst case for Tab64, half that for Tab).
_CHUNK_TRIALS = 8192


@dataclass
class AccuracyCell:
    """One cell of an accuracy figure."""

    checker: str
    config: str
    manipulator: str
    trials: int
    failures: int
    expected_delta: float

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    @property
    def ratio(self) -> float:
        """failure rate / expected maximum failure rate δ (the y axis)."""
        return self.failure_rate / self.expected_delta

    @property
    def stderr(self) -> float:
        """Standard error of the failure-rate estimate (binomial)."""
        p = self.failure_rate
        return (p * (1 - p) / self.trials) ** 0.5 if self.trials else 0.0


def _storage_aware_family(name: str, domain: int) -> str:
    """Hash the element's *stored* width, as the paper's implementation does.

    Thrill stores the experiment's 32-bit elements in 32-bit words and the
    hardware CRC consumes exactly those bytes; CRC over the same value
    zero-extended to 64 bits is a *different function* with different
    low-bit anomalies.  The "CRC" label therefore resolves to the 4-byte
    CRC variant whenever the element domain fits 32 bits.
    """
    if name.upper() == "CRC" and domain <= (1 << 32):
        return "CRC4"
    return name


def _kv_manipulator(name: str, num_keys: int):
    if name == "Bitflip":
        return get_kv_manipulator(
            "Bitflip", key_bits=ceil_log2(num_keys), value_bits=21
        )
    if name == "RandKey":
        return get_kv_manipulator("RandKey", key_domain=num_keys)
    return get_kv_manipulator(name)


def _chunked_verdicts(seed: int, trials: int, chunk_verdicts) -> np.ndarray:
    """Detection flags of trials ``0..trials-1``, :data:`_CHUNK_TRIALS` at a time.

    ``chunk_verdicts(stream, ids)`` returns the flags of trials ``ids``;
    ``stream`` holds their fault streams, seeded as the full path seeds
    trial ``t``'s ``SplitMixStream``.
    """
    detected = np.zeros(trials, dtype=bool)
    for start in range(0, trials, _CHUNK_TRIALS):
        ids = np.arange(start, min(start + _CHUNK_TRIALS, trials), dtype=np.uint64)
        stream = SplitMixStreamBatch(derive_seed_array(seed, "trial", ids))
        detected[start : start + ids.size] = chunk_verdicts(stream, ids)
    return detected


def _cell(
    checker: str,
    config: SumCheckConfig | PermCheckConfig,
    manipulator: str,
    trials: int,
    failures: int,
) -> AccuracyCell:
    return AccuracyCell(
        checker=checker,
        config=config.label(),
        manipulator=manipulator,
        trials=trials,
        failures=failures,
        expected_delta=config.failure_bound,
    )


# ---------------------------------------------------------------------------
# Sum checker accuracy (Fig 3)
# ---------------------------------------------------------------------------


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


def sum_checker_verdicts(
    config: SumCheckConfig,
    manipulator: str,
    trials: int,
    n_elements: int = 50_000,
    num_keys: int = 10**6,
    seed: int = 0,
) -> np.ndarray:
    """Per-trial detection flags of a Fig 3 cell (``True`` = detected).

    Workload: ``n_elements`` power-law pairs over ``num_keys`` possible keys
    (paper: 50 000 elements, 10^6 values); a fresh fault and fresh checker
    randomness per trial.  The table is linear in the pairs and the
    correct output's table equals the input's, so trial ``t`` detects iff
    its deltas' table under ``derive_seed(seed, "checker", t)`` is
    non-zero.
    """
    keys, values = sum_workload(n_elements, num_keys, seed=derive_seed(seed, "wl"))
    man = _kv_manipulator(manipulator, num_keys)
    effective = config.with_hash(
        _storage_aware_family(config.hash_family, num_keys)
    )

    def chunk_verdicts(stream, ids):
        delta = man.sample_delta_batch(stream, keys, values)
        checker_seeds = derive_seed_array(seed, "checker", ids)
        return sum_delta_verdicts(effective, checker_seeds, delta)

    return _chunked_verdicts(seed, trials, chunk_verdicts)


def sum_checker_accuracy(
    config: SumCheckConfig,
    manipulator: str,
    trials: int,
    n_elements: int = 50_000,
    num_keys: int = 10**6,
    seed: int = 0,
) -> AccuracyCell:
    """Fig 3 cell, fast path: the undetected trials of
    :func:`sum_checker_verdicts`."""
    detected = sum_checker_verdicts(
        config, manipulator, trials, n_elements, num_keys, seed
    )
    return _cell(
        "sum-aggregation", config, manipulator, trials,
        int(trials - detected.sum()),
    )


def sum_checker_accuracy_full(
    config: SumCheckConfig,
    manipulator: str,
    trials: int,
    n_elements: int = 2_000,
    num_keys: int = 10**4,
    seed: int = 0,
) -> AccuracyCell:
    """Fig 3 cell, full path: aggregate manipulated data, run Algorithm 1."""
    keys, values = sum_workload(n_elements, num_keys, seed=derive_seed(seed, "wl"))
    man = _kv_manipulator(manipulator, num_keys)
    effective = config.with_hash(
        _storage_aware_family(config.hash_family, num_keys)
    )
    failures = 0
    for trial in range(trials):
        rng = SplitMixStream(derive_seed(seed, "trial", trial))
        manipulated = man.apply(rng, keys, values)
        out_k, out_v = aggregate_reference(manipulated.keys, manipulated.values)
        result = check_sum_aggregation(
            (keys, values),
            (out_k, out_v),
            effective,
            seed=derive_seed(seed, "checker", trial),
        )
        if result.accepted:
            failures += 1
    return _cell("sum-aggregation", config, manipulator, trials, failures)


# ---------------------------------------------------------------------------
# Permutation checker accuracy (Fig 5 / Appendix A)
# ---------------------------------------------------------------------------


def _seq_manipulator(name: str, universe: int):
    if name == "Bitflip":
        return get_seq_manipulator("Bitflip", bit_width=ceil_log2(universe))
    if name == "Randomize":
        return get_seq_manipulator("Randomize", universe=universe)
    return get_seq_manipulator(name)


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


def perm_checker_verdicts(
    config: PermCheckConfig,
    manipulator: str,
    trials: int,
    n_elements: int = 10**6,
    universe: int = 10**8,
    seed: int = 0,
) -> np.ndarray:
    """Per-trial detection flags of a Fig 5 cell (``True`` = detected).

    For a single-element manipulation (all of Table 6), the wide hash-sum
    fingerprints of input and output differ by ``h(new) − h(old)``, so the
    checker misses the fault iff the truncated hashes collide.  Only the
    (old, new) pair needs drawing and hashing per trial — the rest of the
    sequence contributes identically to both sides, so the fault is drawn
    from the first ``min(n_elements, 2^16)`` elements.
    """
    sequence = uniform_integers(
        min(n_elements, 1 << 16), universe, seed=derive_seed(seed, "wl")
    )
    man = _seq_manipulator(manipulator, universe)
    family = _storage_aware_family(config.hash_family, universe)

    def chunk_verdicts(stream, ids):
        change = man.sample_change_batch(stream, sequence)
        hash_seeds = derive_seed_array(seed, "hash", ids)
        return perm_change_verdicts(
            config, family, hash_seeds, change.removed, change.added
        )

    return _chunked_verdicts(seed, trials, chunk_verdicts)


def perm_checker_accuracy(
    config: PermCheckConfig,
    manipulator: str,
    trials: int,
    n_elements: int = 10**6,
    universe: int = 10**8,
    seed: int = 0,
) -> AccuracyCell:
    """Fig 5 cell, fast path: the undetected trials of
    :func:`perm_checker_verdicts`."""
    detected = perm_checker_verdicts(
        config, manipulator, trials, n_elements, universe, seed
    )
    return _cell(
        "permutation-hashsum", config, manipulator, trials,
        int(trials - detected.sum()),
    )


def perm_checker_accuracy_full(
    config: PermCheckConfig,
    manipulator: str,
    trials: int,
    n_elements: int = 4_000,
    universe: int = 10**8,
    seed: int = 0,
) -> AccuracyCell:
    """Fig 5 cell, full path: manipulate before sorting, run the checker.

    Manipulations are applied before sorting "in order to test the
    permutation checker and not the trivial sortedness check" (§7.2) — so
    the measured event is the permutation fingerprint colliding.
    """
    sequence = uniform_integers(n_elements, universe, seed=derive_seed(seed, "wl"))
    man = _seq_manipulator(manipulator, universe)
    family = _storage_aware_family(config.hash_family, universe)
    failures = 0
    for trial in range(trials):
        rng = SplitMixStream(derive_seed(seed, "trial", trial))
        manipulated = man.apply(rng, sequence)
        output = np.sort(manipulated.sequence)
        checker = MultiSeedHashSumChecker(
            derive_seed(seed, "hash", trial),
            iterations=config.iterations,
            hash_family=family,
            log_h=config.log_h,
        )
        if checker.check(sequence, output).accepted:
            failures += 1
    return _cell("permutation-hashsum", config, manipulator, trials, failures)


def detection_allowance(injected: int, delta: float, tail: float = 1e-6) -> int:
    """Largest undetected-corruption count still consistent with ``delta``.

    Under the paper's analytic model an injected corruption escapes a
    checker with probability at most ``delta`` per settlement, so the
    number of misses among ``injected`` independent injections is
    stochastically dominated by ``Binomial(injected, delta)``.  The
    allowance is the largest ``k`` with ``P[X >= k] >= tail`` — any
    observed miss count *above* it is evidence of a real checker defect
    rather than analytic bad luck.  At the repo's failure bounds this is
    0 or 1 for any realistic injection count — the soak harness gates
    its undetected-corruption count against it.
    """
    if injected < 0:
        raise ValueError(f"injected must be >= 0, got {injected}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    if injected == 0 or delta == 0.0:
        return 0
    # pmf recurrence keeps this dependency-free and exact enough for the
    # tiny (n, delta) regime the gates live in.
    pmf = [(1.0 - delta) ** injected]
    ratio = delta / (1.0 - delta)
    for i in range(injected):
        pmf.append(pmf[-1] * (injected - i) / (i + 1) * ratio)
    allowance = 0
    survival = 1.0
    for k in range(1, injected + 1):
        survival -= pmf[k - 1]
        if survival < tail:
            break
        allowance = k
    return allowance
