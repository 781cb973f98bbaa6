"""Average-aggregation checker (§6.1, Corollary 8).

Per-key averages are computed with the (value, count)-pair trick: reduce
``(v, 1)`` pairs componentwise, then divide.  The count column is exactly
the certificate the checker needs: multiplying the asserted average back by
the count *undoes the division* and reconstructs the per-key sums, which the
§4 sum checker can verify against the input.

To keep the one-sided-error guarantee exact we treat averages as exact
rationals ``num/den`` (the paper works over integers and flags the
floating-point case as future work): the reconstruction requires
``den | count`` and yields ``sum = num · (count / den)`` with no rounding.

The paper also warns that averages and counts could be mis-scaled in a way
that cancels (double the averages, halve the counts) — hence the checker
*simultaneously* verifies the count column with a count aggregation check,
sharing the bucket hash with the value check (the ⊕ on (value, count)
triples of §6.1).
"""

from __future__ import annotations

import numpy as np

from repro.core import domain
from repro.core.base import CheckResult
from repro.core.multiseed import _DEFAULT_CONFIG, MultiSeedSumChecker
from repro.core.params import SumCheckConfig


def reconstruct_sums(
    numerators: np.ndarray, denominators: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Undo the final division: ``sum_k = avg_k · count_k``, exactly.

    Returns ``(sums, valid)``; ``valid[i]`` is False where the asserted
    average cannot be an average of ``count`` integers at all (``den`` does
    not divide ``count``, or non-positive count/denominator) — such rows are
    immediate rejections without any probabilistic step.
    """
    numerators = domain.values(numerators)
    denominators = domain.values(denominators)
    counts = domain.values(counts)
    valid = (denominators > 0) & (counts > 0) & (counts % denominators == 0)
    safe_den = np.where(valid, denominators, 1)
    quotient = counts // safe_den
    # Overflow guard: |num| * quotient must stay well inside int64.
    with np.errstate(over="ignore"):
        magnitude = np.abs(numerators.astype(np.float64)) * quotient.astype(
            np.float64
        )
    if np.any(magnitude[valid] >= 2.0**62):
        raise OverflowError(
            "reconstructed sums exceed the int64 range supported by the "
            "sum checker; rescale the input values"
        )
    sums = numerators * quotient
    return sums, valid


def check_average_aggregation(
    input_kv,
    asserted_keys,
    asserted_numerators,
    asserted_denominators,
    certificate_counts,
    config: SumCheckConfig | None = None,
    seed=0,
    comm=None,
) -> CheckResult:
    """Corollary 8: check per-key averages given the count certificate.

    ``input_kv = (keys, values)`` is the operation's (local) input; the
    asserted result provides for each key an exact rational average
    ``num/den`` plus the certificate count.  Both may be distributed — the
    reconstruction is componentwise, so averages and counts only need to be
    co-located per key (exactly the paper's requirement).

    ``seed`` is one root seed or an array of ``T`` distinct roots.  The
    reconstruction and its structural test are seed-independent and run
    once; both coupled columns go through one
    :class:`~repro.core.multiseed.MultiSeedSumChecker` and, distributed,
    settle in one ``allreduce``.  ``per_seed_accepted[t]`` equals the check
    under ``seeds[t]`` alone.
    """
    cfg = config or _DEFAULT_CONFIG
    in_keys = domain.words(input_kv[0])
    in_values = domain.values(input_kv[1])
    out_keys = domain.words(asserted_keys)
    sums, valid = reconstruct_sums(
        asserted_numerators, asserted_denominators, certificate_counts
    )
    structurally_ok = bool(np.all(valid))
    counts = domain.values(certificate_counts)

    # The two coupled checks of §6.1 share all checker randomness: one
    # checker, applied to the value column and to the count column (the
    # (value, count)-pair ⊕ of the paper, evaluated componentwise).
    checker = MultiSeedSumChecker(cfg, seed)
    ones = np.ones(in_keys.shape, dtype=np.int64)
    diff_values = checker.difference(
        checker.local_tables(in_keys, in_values),
        checker.local_tables(out_keys, sums),
    )
    diff_counts = checker.difference(
        checker.local_tables(in_keys, ones),
        checker.local_tables(out_keys, counts),
    )

    def verdicts(ok, values_diff, counts_diff) -> list[bool]:
        zero = ~np.any(values_diff != 0, axis=(1, 2)) & ~np.any(
            counts_diff != 0, axis=(1, 2)
        )
        return [ok and bool(z) for z in zero]

    if comm is None:
        per_seed = verdicts(structurally_ok, diff_values, diff_counts)
    else:

        def wire_op(a, b):
            ok_a, va, ca = a
            ok_b, vb, cb = b
            return (
                ok_a and ok_b,
                checker.pack(
                    checker.combine(checker.unpack(va), checker.unpack(vb))
                ),
                checker.pack(
                    checker.combine(checker.unpack(ca), checker.unpack(cb))
                ),
            )

        payload = (
            structurally_ok,
            checker.pack(diff_values),
            checker.pack(diff_counts),
        )
        # Every PE reads its verdicts from the identical combined bytes.
        ok, values_packed, counts_packed = comm.allreduce(payload, wire_op)
        per_seed = verdicts(
            ok, checker.unpack(values_packed), checker.unpack(counts_packed)
        )

    return CheckResult(
        accepted=all(per_seed),
        checker="average-aggregation",
        details={
            "config": cfg.label(),
            "certificate": "per-key counts (distributed)",
            "structural_ok": structurally_ok,
            "num_seeds": checker.num_seeds,
            "per_seed_accepted": per_seed,
        },
    )
