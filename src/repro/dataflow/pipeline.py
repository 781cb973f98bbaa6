"""Checked operations: run an operation with its checker interleaved.

Mirrors how the paper integrates checkers into Thrill (§7 "Scaling
Behavior"): elements are forwarded to the checker as they are passed to the
operation, so the measured cost is the whole reduce-check pipeline.  A
manipulator may be planted inside the black box to exercise the failure
path (the experiment harness does exactly that).

:class:`AdaptiveCheckPolicy` adds the "verify cheaply first, escalate on
suspicion" layer: every checked operation runs ONE seed inline and
re-checks under ``T`` escalation seeds only when the primary verdict fails
(or unconditionally, for a hardened δ^T run).  A sum-family primary
folds its one-seed tables straight from the raw pairs (one hash per
pair, no sort, as in the paper's Algorithm 1), and a permutation-family
primary hashes the raw sequences the same way; only escalation condenses
each side to its unique keys, once, and evaluates all ``T`` seed lanes
against those aggregates.  Each family (sum, permutation, zip) makes its
own ``T``-seed re-check call; one function builds every adaptive verdict,
which accepts iff the primary and every escalation seed accept.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core import domain
from repro.core.base import CheckResult
from repro.core.multiseed import (
    CondensedKV,
    MultiSeedSumChecker,
    _pairs_condensed,
    condense_kv,
)
from repro.core.groupby_checker import encode_records, records_placed
from repro.core.params import SumCheckConfig
from repro.core.permutation_checker import check_permutation_hashsum
from repro.core.sort_checker import check_globally_sorted, check_sort
from repro.core.zip_checker import check_zip
from repro.dataflow.exchange import global_offsets
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.dataflow.ops.sort import sample_sort
from repro.util.rng import default_generator, derive_seed_array


@dataclass
class CheckedRunStats:
    """Timing split of a checked run (for the Fig 4 overhead ratio).

    ``checker_seconds`` covers the primary (1-seed) check;
    ``escalation_seconds`` the multi-seed re-check when an
    :class:`AdaptiveCheckPolicy` triggered one.  Windowed streaming runs
    accumulate one instance per window via :meth:`merge`: ``windows``
    counts settled windows, ``elements_fed`` the stream elements consumed,
    and ``overhead_ratio`` on the merged stats is the whole run's ratio.

    Rejected-window handling is metered alongside checking cost:
    ``localized`` flags that at least one failed verdict went through
    :func:`repro.core.localize.localize_fault` (``bisection_rounds`` and
    ``localization_seconds`` accumulate its work), ``repaired_windows``
    counts windows healed by re-execution, ``quarantined_windows`` those
    that exhausted the retry budget.  Repair-side re-execution time is
    *not* part of ``overhead_ratio`` — it is replacement work, not
    checking overhead.
    """

    operation_seconds: float
    checker_seconds: float
    escalated: bool = False
    escalation_seconds: float = 0.0
    escalation_seeds: int = 0
    windows: int = 0
    elements_fed: int = 0
    localized: bool = False
    bisection_rounds: int = 0
    localization_seconds: float = 0.0
    repaired_windows: int = 0
    quarantined_windows: int = 0

    @property
    def total_seconds(self) -> float:
        return (
            self.operation_seconds
            + self.checker_seconds
            + self.escalation_seconds
        )

    def merge(self, other: "CheckedRunStats") -> "CheckedRunStats":
        """Accumulate another (window's) stats into a combined record.

        ``merge`` is pure — it returns a fresh record and never mutates
        either operand — so the *ownership rule* for concurrent use is:
        a ``stats = stats.merge(new)`` read-modify-write cycle must have
        exactly one writer (e.g. the single worker thread that settles a
        tenant's windows).  Cross-thread accumulation (many tenants into
        one run record) must go through :class:`StatsAccumulator`, which
        serializes the cycle under a lock.
        """
        return CheckedRunStats(
            operation_seconds=self.operation_seconds + other.operation_seconds,
            checker_seconds=self.checker_seconds + other.checker_seconds,
            escalated=self.escalated or other.escalated,
            escalation_seconds=(
                self.escalation_seconds + other.escalation_seconds
            ),
            escalation_seeds=self.escalation_seeds + other.escalation_seeds,
            windows=self.windows + other.windows,
            elements_fed=self.elements_fed + other.elements_fed,
            localized=self.localized or other.localized,
            bisection_rounds=self.bisection_rounds + other.bisection_rounds,
            localization_seconds=(
                self.localization_seconds + other.localization_seconds
            ),
            repaired_windows=self.repaired_windows + other.repaired_windows,
            quarantined_windows=(
                self.quarantined_windows + other.quarantined_windows
            ),
        )

    @classmethod
    def accumulated(cls, stats) -> "CheckedRunStats":
        """Merge an iterable of per-window stats into one record."""
        total = cls(operation_seconds=0.0, checker_seconds=0.0)
        for s in stats:
            total = total.merge(s)
        return total

    @property
    def overhead_ratio(self) -> float:
        if self.operation_seconds == 0.0:
            # A zero-duration operation with real checker work is *all*
            # overhead; reporting 1.0 here made zero-duration micro-runs
            # claim "no overhead".  1.0 is only right when nothing at all
            # was measured.
            if self.checker_seconds + self.escalation_seconds == 0.0:
                return 1.0
            return float("inf")
        return self.total_seconds / self.operation_seconds


class StatsAccumulator:
    """Thread-safe accumulation of :class:`CheckedRunStats`.

    ``CheckedRunStats.merge`` is pure, so the only concurrency hazard is
    the read-modify-write cycle around it: two threads that both read the
    current total, merge their window, and write back will silently drop
    one window.  This accumulator owns that cycle under a lock — the
    multi-tenant service daemon pushes every tenant's per-window stats
    through one instance and reads an exact run-level total at any time.
    """

    def __init__(self, initial: CheckedRunStats | None = None):
        self._lock = threading.Lock()
        self._total = (
            initial
            if initial is not None
            else CheckedRunStats(operation_seconds=0.0, checker_seconds=0.0)
        )

    def add(self, stats: CheckedRunStats) -> None:
        """Merge one (window's) stats record into the running total."""
        with self._lock:
            self._total = self._total.merge(stats)

    def snapshot(self) -> CheckedRunStats:
        """The current total (immutable — safe to hold across updates)."""
        with self._lock:
            return self._total


@dataclass
class AdaptiveCheckPolicy:
    """Escalation policy: 1 seed inline, ``T`` seeds on suspicion.

    The checkers have one-sided error: a rejection *proves* the result (or
    the checker's own wire traffic) is corrupt, so before paying for a
    re-execution the pipeline confirms the verdict under ``T`` fresh seeds
    — at condensed-aggregate cost: each side is condensed once and all
    ``T`` lanes evaluate against it.  Modes:

    * ``"reject"`` (default) — escalate only when the primary verdict
      rejects; the per-seed flags tell a true data error (every seed
      rejects, failure probability of a wrong confirmation δ^T) from a
      checker-side glitch.
    * ``"always"`` — hardened mode: every check runs all escalation seeds
      (δ^T on every accept) while still condensing the data once.
    * ``"never"`` — adaptive bookkeeping without any escalation.

    ``escalation_seeds`` is either a count (seeds derive from the primary
    seed) or an explicit array of root seeds.  An explicit array must pass
    the multi-seed checkers' rules (integer, distinct, 1-d) here: the
    seeds are only resolved when a check escalates, and a bad array must
    not turn a detected fault into a crash.  ``num_escalation_seeds`` is
    ``T``, known without deriving any seed.
    """

    escalation_seeds: int | np.ndarray = 8
    escalate_on: str = "reject"

    def __post_init__(self):
        if self.escalate_on not in ("reject", "always", "never"):
            raise ValueError(
                f"escalate_on must be 'reject', 'always' or 'never', "
                f"got {self.escalate_on!r}"
            )
        # Normalised once: ``_explicit_seeds`` is the validated root array,
        # or None when the seeds derive from the primary seed.
        self._explicit_seeds: np.ndarray | None = None
        if isinstance(self.escalation_seeds, (int, np.integer)):
            if self.escalation_seeds < 1:
                raise ValueError(
                    f"need at least 1 escalation seed, "
                    f"got {self.escalation_seeds}"
                )
            self.num_escalation_seeds = int(self.escalation_seeds)
        else:
            domain.seeds(self.escalation_seeds)
            self._explicit_seeds = np.atleast_1d(
                np.asarray(self.escalation_seeds)
            )
            self.num_escalation_seeds = int(self._explicit_seeds.size)

    def resolve_seeds(self, primary_seed: int) -> np.ndarray:
        """The escalation root seeds (derived when given as a count)."""
        if self._explicit_seeds is None:
            return derive_seed_array(
                primary_seed,
                "adaptive-escalation",
                np.arange(self.num_escalation_seeds, dtype=np.uint64),
            )
        return self._explicit_seeds

    def should_escalate(self, primary_accepted: bool) -> bool:
        if self.escalate_on == "always":
            return True
        return self.escalate_on == "reject" and not primary_accepted


def _adaptive_result(
    policy: AdaptiveCheckPolicy,
    checker: str,
    primary_ok: bool,
    per_seed: list[bool] | None,
    escalation_start: float,
    details: dict,
) -> CheckResult:
    """An adaptive check's verdict, built the same way for every family.

    ``per_seed`` holds the escalation seeds' flags, or None when the
    check did not escalate; ``escalation_start`` is the
    ``time.perf_counter()`` reading taken before the escalation decision.
    The check accepts iff the primary and every escalation seed accept.
    ``details`` (the family's own keys) come first.
    """
    escalated = per_seed is not None
    return CheckResult(
        accepted=bool(primary_ok) and (not escalated or all(per_seed)),
        checker=checker,
        details={
            **details,
            "primary_accepted": bool(primary_ok),
            "adaptive": {
                "escalated": escalated,
                "escalate_on": policy.escalate_on,
                "num_escalation_seeds": policy.num_escalation_seeds,
                "per_seed_accepted": per_seed,
                "escalation_seconds": (
                    time.perf_counter() - escalation_start
                    if escalated
                    else 0.0
                ),
            },
        },
    )


def _run_stats(
    result: CheckResult,
    operation_seconds: float,
    checker_seconds: float,
    **counts,
) -> CheckedRunStats:
    """A checked run's stats, the escalation time split off when adaptive."""
    adaptive = result.details.get("adaptive")
    escalation_seconds = (
        adaptive["escalation_seconds"] if adaptive is not None else 0.0
    )
    escalated = bool(adaptive and adaptive["escalated"])
    return CheckedRunStats(
        operation_seconds=operation_seconds,
        checker_seconds=checker_seconds - escalation_seconds,
        escalated=escalated,
        escalation_seconds=escalation_seconds,
        escalation_seeds=(
            adaptive["num_escalation_seeds"] if escalated else 0
        ),
        **counts,
    )


def _primary_tables(primary: MultiSeedSumChecker, side) -> np.ndarray:
    """The one-seed ``primary``'s tables of one check side.

    Raw ``(keys, values)`` pairs fold without sorting
    (:func:`~repro.core.multiseed._pairs_condensed`); a
    :class:`CondensedKV` side folds as given.
    """
    if not isinstance(side, CondensedKV):
        side = _pairs_condensed(*side, primary.operator)
    return primary.local_tables_condensed(side)


def _settle_sum(
    primary: MultiSeedSumChecker,
    diff: np.ndarray,
    sides: list,
    seed: int,
    policy: AdaptiveCheckPolicy | None,
    comm,
    **plain_details,
) -> CheckResult:
    """Settle a sum check whose one-seed ``primary`` folded ``diff``.

    ``diff`` is the primary's local ⊕-difference table of the
    ``[input, asserted]`` ``sides``.  Without a ``policy`` the result is
    the plain ``"sum-aggregation"`` verdict, its details the config label
    plus ``plain_details``.  With one, each raw side is condensed once,
    after the primary verdict and only when the policy escalates, and the
    ``T`` escalation lanes fold from those condensations.  The
    condensations replace the raw sides in ``sides``, so a localization of
    the rejected check reuses them.
    """
    operator = primary.operator
    config = primary.config
    primary_ok = primary.per_seed_verdicts(diff, comm)[0]
    if policy is None:
        return CheckResult(
            accepted=bool(primary_ok),
            checker="sum-aggregation",
            details={"config": config.label(), **plain_details},
        )

    per_seed = None
    t0 = time.perf_counter()
    if policy.should_escalate(primary_ok):
        sides[:] = [
            side
            if isinstance(side, CondensedKV)
            else condense_kv(*side, operator)
            for side in sides
        ]
        per_seed = MultiSeedSumChecker(
            config, policy.resolve_seeds(seed), operator
        ).check_distributed_condensed(comm, *sides).details[
            "per_seed_accepted"
        ]
    return _adaptive_result(
        policy,
        "sum-aggregation-adaptive",
        primary_ok,
        per_seed,
        t0,
        {"config": config.label(), "operator": operator},
    )


def adaptive_sum_check(
    input_side,
    asserted_side,
    config: SumCheckConfig,
    seed: int = 0,
    policy: AdaptiveCheckPolicy | None = None,
    comm=None,
    operator: str = "+",
) -> CheckResult:
    """Theorem 1 check with 1-seed primary and policy-driven escalation.

    ``input_side`` / ``asserted_side`` are ``(keys, values)`` pairs or
    already-built :class:`~repro.core.multiseed.CondensedKV` objects.
    The primary folds raw pairs as they are, without sorting; escalation
    condenses each raw side exactly once and evaluates its ``T`` seed
    lanes against those aggregates.  The primary verdict (and each
    escalation seed's verdict) is identical to a fresh single-seed
    checker under that seed; the primary verdict is globally agreed
    before the escalation decision, so all PEs escalate together.
    """
    primary = MultiSeedSumChecker(config, [seed], operator)
    return _settle_sum(
        primary,
        primary.difference(
            _primary_tables(primary, input_side),
            _primary_tables(primary, asserted_side),
        ),
        [input_side, asserted_side],
        seed,
        policy or AdaptiveCheckPolicy(),
        comm,
    )


def adaptive_permutation_check(
    e_side,
    o_side,
    seed: int = 0,
    policy: AdaptiveCheckPolicy | None = None,
    comm=None,
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    extra_ok: bool = True,
    extra_details: dict | None = None,
    checker: str = "permutation-adaptive",
    seed_path: tuple = (),
) -> CheckResult:
    """Hash-sum permutation check with policy-driven escalation.

    The one-seed primary hashes the raw sides as they are, without
    sorting; escalation condenses each side once to (uniques, counts) and
    evaluates its ``T`` seed lanes over those condensations.  ``extra_ok``
    folds in a deterministic companion verdict (sortedness, placement)
    that is seed-free and therefore computed once by the caller;
    ``seed_path`` maps root seeds to the underlying checker's fingerprint
    seeds (e.g. ``("groupby-perm",)``), keeping per-seed verdicts
    identical to fresh single-seed checks.
    """
    policy = policy or AdaptiveCheckPolicy()
    # Derive only from a validated root: a bool or out-of-range seed is
    # refused here as it is without a seed path.
    primary_seed = (
        derive_seed_array(domain.seeds(seed), *seed_path)
        if seed_path
        else seed
    )
    primary = check_permutation_hashsum(
        e_side, o_side, iterations, hash_family, log_h, primary_seed, comm
    )
    # Escalation keys on the *seeded* fingerprint verdict alone: a failed
    # deterministic companion (sortedness, placement) is exact and needs
    # no multi-seed confirmation, so re-hashing T lanes for it would be
    # pure waste.  per_seed likewise reports the fingerprint lanes only —
    # the deterministic verdict lives in extra_details / primary_accepted.
    per_seed = None
    t0 = time.perf_counter()
    if policy.should_escalate(primary.accepted):
        roots = policy.resolve_seeds(seed)
        esc_seeds = (
            derive_seed_array(roots, *seed_path) if seed_path else roots
        )
        per_seed = check_permutation_hashsum(
            e_side, o_side, iterations, hash_family, log_h, esc_seeds, comm
        ).details["per_seed_accepted"]
    return _adaptive_result(
        policy,
        checker,
        primary.accepted and bool(extra_ok),
        per_seed,
        t0,
        {
            **(extra_details or {}),
            "iterations": iterations,
            "hash_family": hash_family,
            "log_h": log_h,
        },
    )


def hashsum_only_kwargs(kwargs: dict) -> dict:
    """Validate ``check_sort``/``check_union``-style kwargs for adaptive use.

    The multi-seed machinery exists only for the hash-sum fingerprint, so
    the adaptive paths accept ``method="hashsum"`` at most and none of the
    polynomial/GF(2^64) knobs — rejected here with a pointed error instead
    of a ``TypeError`` from an inner signature.
    """
    kwargs = dict(kwargs)
    method = kwargs.pop("method", "hashsum")
    if method != "hashsum":
        raise ValueError(
            "adaptive checking supports only the hash-sum fingerprint "
            f"(method='hashsum'), got method={method!r}"
        )
    unsupported = set(kwargs) - {"iterations", "hash_family", "log_h"}
    if unsupported:
        raise ValueError(
            "adaptive checking does not support "
            f"{sorted(unsupported)} (hash-sum fingerprint only)"
        )
    return kwargs


def adaptive_sort_check(
    e_values,
    o_values,
    seed: int = 0,
    policy: AdaptiveCheckPolicy | None = None,
    comm=None,
    **kwargs,
) -> CheckResult:
    """Theorem 7 with adaptive escalation.

    Global sortedness is deterministic and runs once; the permutation
    fingerprint escalates per the policy over the condensed element
    counts.  Shared by :func:`checked_sort` and ``DIA.sort_checked``.
    Signed and unsigned integer sides raise ``TypeError``, as in
    :func:`~repro.core.sort_checker.check_sort`.
    """
    domain.ordered(o_values, [e_values], "adaptive_sort_check")
    sortedness = check_globally_sorted(o_values, comm=comm)
    return adaptive_permutation_check(
        e_values,
        o_values,
        seed=seed,
        policy=policy,
        comm=comm,
        extra_ok=sortedness.accepted,
        extra_details={"sorted": sortedness.accepted, "method": "hashsum"},
        checker="sort-adaptive",
        **hashsum_only_kwargs(kwargs),
    )


def adaptive_groupby_check(
    pre_kv,
    post_kv,
    partitioner,
    seed: int = 0,
    policy: AdaptiveCheckPolicy | None = None,
    comm=None,
    **kwargs,
) -> CheckResult:
    """Corollary 14 with adaptive escalation.

    Records are encoded once, the placement test (deterministic) runs
    once, and the permutation fingerprint escalates per the policy — the
    adaptive sibling of
    :func:`~repro.core.groupby_checker.check_groupby_redistribution`,
    sharing its placement test and ``"groupby-perm"`` seed tree.
    """
    placed = records_placed(post_kv[0], partitioner, comm)
    return adaptive_permutation_check(
        encode_records(*pre_kv),
        encode_records(*post_kv),
        seed=seed,
        policy=policy,
        comm=comm,
        extra_ok=placed,
        extra_details={"placement_ok": placed, "invasive": True},
        checker="groupby-redistribution-adaptive",
        seed_path=("groupby-perm",),
        **hashsum_only_kwargs(kwargs),
    )


def adaptive_zip_check(
    s1,
    s2,
    zipped_first,
    zipped_second,
    seed: int = 0,
    policy: AdaptiveCheckPolicy | None = None,
    comm=None,
    iterations: int = 2,
    offsets: tuple[int, int, int] | None = None,
) -> CheckResult:
    """Theorem 11 check with policy-driven escalation.

    The zip fingerprint is *positional* (order-sensitive inner products),
    so unlike the sum/permutation checkers it admits no unique-key
    condensation: escalation fingerprints the sequences again, all ``T``
    seeds in one multi-seed :func:`check_zip` call.  That pass sits
    behind the adaptive policy — its price is paid only on a suspicious
    verdict, never inline.  Primary and escalation share ``offsets``
    (this PE's global ``(s1, s2, output)`` offsets): the caller's, or
    one exscan here.
    """
    policy = policy or AdaptiveCheckPolicy()
    if offsets is None:
        offsets = global_offsets(
            comm, np.size(s1), np.size(s2), np.size(zipped_first)
        )
    primary = check_zip(
        s1, s2, zipped_first, zipped_second,
        iterations=iterations, seed=seed, comm=comm, offsets=offsets,
    )
    per_seed = None
    t0 = time.perf_counter()
    if policy.should_escalate(primary.accepted):
        per_seed = check_zip(
            s1, s2, zipped_first, zipped_second,
            iterations=iterations, seed=policy.resolve_seeds(seed),
            comm=comm, offsets=offsets,
        ).details["per_seed_accepted"]
    return _adaptive_result(
        policy,
        "zip-adaptive",
        primary.accepted,
        per_seed,
        t0,
        {"iterations": iterations},
    )


def checked_reduce_by_key(
    comm,
    keys: np.ndarray,
    values: np.ndarray,
    config: SumCheckConfig,
    seed: int = 0,
    partitioner=None,
    manipulator=None,
    manipulator_rng=None,
    policy: AdaptiveCheckPolicy | None = None,
):
    """ReduceByKey + §4 checker in one pipeline.

    Returns ``(result_keys, result_values, CheckResult, CheckedRunStats)``.
    With a ``manipulator`` the fault is injected *inside* the black box (the
    checker still sees the original input), emulating a silent error in the
    reduction.  The one-seed checker folds the input's tables from the raw
    pairs as they stream into the operation, before the black box runs.
    With a ``policy`` the check is adaptive: that seed settles inline, and
    escalation (on the policy's trigger) condenses both sides once and
    re-checks ``T`` seeds against them.
    """
    t0 = time.perf_counter()
    primary = MultiSeedSumChecker(config, [seed])
    # The checker taps the input stream.
    t_in = _primary_tables(primary, (keys, values))
    t1 = time.perf_counter()

    op_keys, op_values = keys, values
    if manipulator is not None:
        rng = manipulator_rng or default_generator(seed)
        manipulated = manipulator.apply(rng, keys, values)
        op_keys, op_values = manipulated.keys, manipulated.values
    out_keys, out_values = reduce_by_key(comm, op_keys, op_values, partitioner)
    t2 = time.perf_counter()

    result = _settle_sum(
        primary,
        primary.difference(
            t_in, _primary_tables(primary, (out_keys, out_values))
        ),
        [(keys, values), (out_keys, out_values)],
        seed,
        policy,
        comm,
        pipelined=True,
    )
    t3 = time.perf_counter()
    stats = _run_stats(result, t2 - t1, (t1 - t0) + (t3 - t2))
    return out_keys, out_values, result, stats


def checked_sort(
    comm,
    values: np.ndarray,
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    seed: int = 0,
    manipulator=None,
    manipulator_rng=None,
    policy: AdaptiveCheckPolicy | None = None,
):
    """Sample sort + Theorem 7 checker in one pipeline.

    Returns ``(sorted_local, CheckResult, CheckedRunStats)``.  With a
    ``policy``, the permutation fingerprint escalates adaptively (the
    sortedness half of Theorem 7 is deterministic and runs once).
    """
    t0 = time.perf_counter()
    op_input = values
    if manipulator is not None:
        rng = manipulator_rng or default_generator(seed)
        op_input = manipulator.apply(rng, values).sequence
    out = sample_sort(comm, op_input)
    t1 = time.perf_counter()
    check = dict(
        iterations=iterations,
        hash_family=hash_family,
        log_h=log_h,
        seed=seed,
        comm=comm,
    )
    if policy is not None:
        result = adaptive_sort_check(values, out, policy=policy, **check)
    else:
        result = check_sort(values, out, **check)
    t2 = time.perf_counter()
    return out, result, _run_stats(result, t1 - t0, t2 - t1)


def checked_join(
    comm,
    r_kv,
    s_kv,
    mode: str = "hash",
    partitioner=None,
    iterations: int = 2,
    seed: int = 0,
):
    """Distributed join + Corollary 15 (invasive redistribution) checker.

    ``mode="hash"`` runs a hash join; ``mode="range"`` a range-partitioned
    sort-merge join.  Returns ``(JoinExchange, CheckResult, stats)``.
    """
    from repro.core.groupby_checker import default_partitioner
    from repro.core.join_checker import check_join_redistribution
    from repro.dataflow.ops.join import hash_join
    from repro.dataflow.ops.sort_merge_join import sort_merge_join

    t0 = time.perf_counter()
    if mode == "hash":
        if partitioner is None:
            size = comm.size if comm is not None else 1
            partitioner = default_partitioner(size)
        jx = hash_join(comm, r_kv, s_kv, partitioner=partitioner)
    elif mode == "range":
        jx = sort_merge_join(comm, r_kv, s_kv)
    else:
        raise ValueError(f"mode must be 'hash' or 'range', got {mode!r}")
    t1 = time.perf_counter()
    result = check_join_redistribution(
        r_kv,
        s_kv,
        jx.r_post,
        jx.s_post,
        mode=mode,
        partitioner=partitioner,
        comm=comm,
        iterations=iterations,
        seed=seed,
    )
    t2 = time.perf_counter()
    return jx, result, _run_stats(result, t1 - t0, t2 - t1)
