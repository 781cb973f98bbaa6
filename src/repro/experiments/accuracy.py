"""Failure-rate estimation — the Fig 3 / Fig 5 accuracy experiments.

The paper measures, per (checker configuration × manipulator) cell, the
fraction of 100 000 trials in which the checker *fails to detect* an
injected fault, and plots it relative to the configuration's failure bound
δ.  Three execution paths per cell:

* **batched** (default) — the exact fast-path verdicts, evaluated many
  trials per numpy kernel call by :mod:`repro.experiments.engine`.  This
  is what makes `REPRO_BENCH_TRIALS=100000` routine (≥20× over the
  per-trial loop).
* **reference** — the per-trial loop over the same exact shortcut: the
  checker's verdict is a deterministic function of the fault's sparse
  effect (per-key aggregate deltas for the sum checker, removed/added
  elements for the permutation checker) and of the drawn hash/modulus
  randomness.  The batched engine reproduces this path trial for trial
  (same `derive_seed` tree, same stream draws); it is kept as the oracle.
* **full** — the genuine end-to-end run: manipulate the data, execute the
  black-box operation, run the complete checker.  Used for validation and
  affordable at reduced trial counts.  Shares the reference path's trial
  seeds, so the two estimate identical failure counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multiseed import check_sum_aggregation
from repro.core.params import PermCheckConfig, SumCheckConfig
from repro.core.permutation_checker import MultiSeedHashSumChecker
from repro.core.sum_checker import reference_tables
from repro.faults.manipulators import get_kv_manipulator, get_seq_manipulator
from repro.util.bits import ceil_log2
from repro.util.rng import SplitMixStream, derive_seed
from repro.workloads.kv import aggregate_reference, sum_workload
from repro.workloads.uniform import uniform_integers

#: Execution paths accepted by the accuracy entry points.
ACCURACY_MODES = ("batched", "reference")


def _check_mode(mode: str) -> None:
    if mode not in ACCURACY_MODES:
        raise ValueError(
            f"unknown accuracy mode {mode!r}; expected one of {ACCURACY_MODES}"
        )


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


def sum_checker_accuracy(
    config: SumCheckConfig,
    manipulator: str,
    trials: int,
    n_elements: int = 50_000,
    num_keys: int = 10**6,
    seed: int = 0,
    mode: str = "batched",
) -> AccuracyCell:
    """Fig 3 cell, fast path: exact verdicts from sparse fault deltas.

    Workload: ``n_elements`` power-law pairs over ``num_keys`` possible keys
    (paper: 50 000 elements, 10^6 values); a fresh fault and fresh checker
    randomness per trial.  ``mode="batched"`` vectorizes the trials through
    :mod:`repro.experiments.engine`; ``mode="reference"`` runs the
    per-trial oracle loop — both produce identical verdicts per trial.
    """
    _check_mode(mode)
    if mode == "batched":
        from repro.experiments.engine import BatchedSumAccuracy

        return BatchedSumAccuracy(
            config, manipulator, n_elements=n_elements, num_keys=num_keys,
            seed=seed,
        ).run(trials)
    keys, values = sum_workload(n_elements, num_keys, seed=derive_seed(seed, "wl"))
    man = _kv_manipulator(manipulator, num_keys)
    effective = config.with_hash(
        _storage_aware_family(config.hash_family, num_keys)
    )
    failures = 0
    for trial in range(trials):
        rng = SplitMixStream(derive_seed(seed, "trial", trial))
        effect = man.sample_delta(rng, keys, values)
        # The table is linear in the pairs and the correct output's table
        # equals the input's, so the check rejects iff the deltas' table
        # is non-zero.
        table = reference_tables(
            effective,
            derive_seed(seed, "checker", trial),
            effect.delta_keys,
            effect.delta_values,
        )
        if not np.any(table):
            failures += 1
    return AccuracyCell(
        checker="sum-aggregation",
        config=config.label(),
        manipulator=manipulator,
        trials=trials,
        failures=failures,
        expected_delta=config.failure_bound,
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
    return AccuracyCell(
        checker="sum-aggregation",
        config=config.label(),
        manipulator=manipulator,
        trials=trials,
        failures=failures,
        expected_delta=config.failure_bound,
    )


# ---------------------------------------------------------------------------
# Permutation checker accuracy (Fig 5 / Appendix A)
# ---------------------------------------------------------------------------


def _seq_manipulator(name: str, universe: int):
    if name == "Bitflip":
        return get_seq_manipulator("Bitflip", bit_width=ceil_log2(universe))
    if name == "Randomize":
        return get_seq_manipulator("Randomize", universe=universe)
    return get_seq_manipulator(name)


def perm_checker_accuracy(
    config: PermCheckConfig,
    manipulator: str,
    trials: int,
    n_elements: int = 10**6,
    universe: int = 10**8,
    seed: int = 0,
    mode: str = "batched",
) -> AccuracyCell:
    """Fig 5 cell, fast path.

    For a single-element manipulation (all of Table 6), the wide hash-sum
    fingerprints of input and output differ by ``h(new) − h(old)``, so the
    checker misses the fault iff the truncated hashes collide.  Only the
    (old, new) pair needs drawing and hashing per trial — the rest of the
    sequence contributes identically to both sides.  ``mode`` selects the
    vectorized engine or the per-trial reference loop (identical verdicts).
    """
    _check_mode(mode)
    if mode == "batched":
        from repro.experiments.engine import BatchedPermAccuracy

        return BatchedPermAccuracy(
            config, manipulator, n_elements=n_elements, universe=universe,
            seed=seed,
        ).run(trials)
    sequence = uniform_integers(
        min(n_elements, 1 << 16), universe, seed=derive_seed(seed, "wl")
    )
    man = _seq_manipulator(manipulator, universe)
    family = _storage_aware_family(config.hash_family, universe)
    failures = 0
    for trial in range(trials):
        rng = SplitMixStream(derive_seed(seed, "trial", trial))
        change = man.sample_change(rng, sequence)
        # Same checker (same seed derivation) as the full path, applied to
        # the removed/added elements only: the common elements cancel in
        # the wide hash sums, so the λ values are identical.
        checker = MultiSeedHashSumChecker(
            derive_seed(seed, "hash", trial),
            iterations=config.iterations,
            hash_family=family,
            log_h=config.log_h,
        )
        if checker.check(change.removed, change.added).accepted:
            failures += 1
    return AccuracyCell(
        checker="permutation-hashsum",
        config=config.label(),
        manipulator=manipulator,
        trials=trials,
        failures=failures,
        expected_delta=config.failure_bound,
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
    return AccuracyCell(
        checker="permutation-hashsum",
        config=config.label(),
        manipulator=manipulator,
        trials=trials,
        failures=failures,
        expected_delta=config.failure_bound,
    )


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
