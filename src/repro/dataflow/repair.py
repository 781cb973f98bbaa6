"""Window repair: bounded re-execution of a rejected streaming window.

The checkers prove *that* a window's asserted aggregates are wrong;
:mod:`repro.core.localize` narrows *where*.  This module closes the loop
the way Yoon & Liu's partial re-execution does for MapReduce: re-run only
the implicated slice, splice it into the retained output, and re-settle —
escalating to a full window re-execution (and to more verification seeds)
only as attempts fail.  A window that exhausts its retry budget surfaces
as a permanent :class:`QuarantinedWindow`; the streaming layer keeps
settling later windows either way.

The ``reexecute`` callback is the caller's bridge back to the window's
source data::

    def reexecute(window_id: int, key_ranges: list[tuple[int, int]]):
        # Return this PE's complete input chunks for the window, as an
        # iterable of (keys, values) pairs.  ``key_ranges`` (inclusive,
        # possibly empty when localization failed) names the implicated
        # slice so callers with sliced storage can prefetch narrowly —
        # the repair engine re-filters, so returning everything is
        # always correct.
        ...

Every attempt re-verifies the *full* window (complete re-executed input
against the patched or recomputed output) under fresh derived seeds, so a
wrong localization cannot smuggle a partially-patched window through: the
re-settle rejects and the next attempt recomputes from scratch.

Each family keeps its own attempt loop and makes its own re-execution,
recompute and re-settle calls, so the lockstep analysis sees every
collective a repair issues.  The loops share the rest: one gatherer reads
every re-execution and refuses what a window settle refuses (float keys
or values raise ``TypeError``), and one function builds each attempt's
verdict, one the :class:`RepairOutcome`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.comm import ops
from repro.core import domain
from repro.core.base import CheckResult
from repro.core.localize import FaultReport
from repro.core.multiseed import MultiSeedSumChecker, condense_kv
from repro.core.params import SumCheckConfig
from repro.core.zip_checker import check_zip
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.dataflow.ops.zip_op import zip_arrays
from repro.util.rng import derive_seed, derive_seed_array

__all__ = [
    "QuarantinedWindow",
    "RepairOutcome",
    "RepairPolicy",
    "repair_reduce_window",
    "repair_sum_window",
    "repair_zip_window",
]


@dataclass
class RepairPolicy:
    """Bounded-retry repair: attempt cap plus per-attempt seed escalation.

    Attempt ``i`` re-settles under ``min(seed_cap, initial_seeds ·
    seed_growth^i)`` fresh seeds derived from the window seed, so every
    retry is judged more sternly than the last (a wrongly-ACCEPTed repair
    survives with probability δ^T for growing ``T``).  ``partial`` keeps
    Yoon-&-Liu-style slice re-execution for every attempt but the final
    one, which always recomputes the whole window; localization knobs are
    forwarded to :func:`repro.core.localize.localize_fault`.
    """

    max_attempts: int = 3
    initial_seeds: int = 2
    seed_growth: int = 2
    seed_cap: int = 16
    partial: bool = True
    localize: bool = True
    localization_seeds: int = 2
    max_rounds: int = 64
    max_ranges: int = 32

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.initial_seeds < 1 or self.seed_cap < 1:
            raise ValueError("need at least one verification seed")
        if self.seed_growth < 1:
            raise ValueError(f"seed_growth must be >= 1, got {self.seed_growth}")
        if self.localization_seeds < 1:
            raise ValueError("need at least one localization seed")

    def num_seeds(self, attempt: int) -> int:
        """Verification seed count for (0-based) ``attempt``."""
        return min(self.seed_cap, self.initial_seeds * self.seed_growth**attempt)

    def attempt_seed_roots(self, window_seed: int, attempt: int) -> np.ndarray:
        """Fresh distinct root seeds for ``attempt``'s re-settle."""
        root = derive_seed(window_seed, "repair-attempt", attempt)
        return derive_seed_array(
            root,
            "repair-seed",
            np.arange(self.num_seeds(attempt), dtype=np.uint64),
        )


@dataclass
class QuarantinedWindow:
    """A window that stayed rejected through every repair attempt."""

    window: int
    attempts: int
    report: FaultReport | None
    verdicts: list[CheckResult] = field(default_factory=list)


@dataclass
class RepairOutcome:
    """What one rejected window's repair loop produced."""

    window: int
    healed: bool
    attempts: int
    report: FaultReport | None
    verdicts: list[CheckResult]
    output: tuple | None
    repair_seconds: float

    def quarantine(self) -> QuarantinedWindow:
        """The permanent record for a failed repair."""
        return QuarantinedWindow(
            window=self.window,
            attempts=self.attempts,
            report=self.report,
            verdicts=self.verdicts,
        )


def _range_mask(keys: np.ndarray, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Mask of ``keys`` inside the union of inclusive key ranges."""
    mask = np.zeros(keys.size, dtype=bool)
    for a, b in ranges:
        mask |= (keys >= np.uint64(a)) & (keys <= np.uint64(b))
    return mask


def _gather_chunks(chunks, coerce) -> np.ndarray:
    """Concatenate ``chunks``, each read through ``coerce``.

    ``coerce`` is :func:`~repro.core.domain.words` or
    :func:`~repro.core.domain.values`, so a chunk the settle
    refuses (float keys or values, say) raises the same ``TypeError``
    here, and an empty iterable gives an empty column of ``coerce``'s
    dtype.
    """
    parts = [coerce(c) for c in chunks]
    return np.concatenate(parts) if parts else coerce(np.zeros(0, np.int64))


def _global_sum(comm, values: np.ndarray) -> int:
    """The windowed-sum operation: the total of every PE's ``values``."""
    local = int(np.sum(values, dtype=np.int64))
    if comm is None:
        return local
    return comm.allreduce(local, op=ops.SUM)


def _total_side(comm, total: int) -> tuple[np.ndarray, np.ndarray]:
    """A windowed sum's asserted side: the total as one ``(0, total)``
    pair on PE 0, and no pair on any other PE."""
    if comm is not None and comm.rank != 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    return np.zeros(1, dtype=np.uint64), np.array([total], dtype=np.int64)


def _attempt_result(
    checker: str,
    window: int,
    attempt: int,
    roots: np.ndarray,
    per_seed: list[bool],
    **details,
) -> CheckResult:
    """One repair attempt's re-settle verdict under the ``roots`` seeds.

    Accepted iff every seed accepts; ``details`` are the family's own
    keys.
    """
    return CheckResult(
        accepted=all(per_seed),
        checker=checker,
        details={
            "window": window,
            "attempt": attempt,
            **details,
            "num_seeds": int(roots.size),
            "per_seed_accepted": [bool(x) for x in per_seed],
        },
    )


def _outcome(
    window: int,
    verdicts: list[CheckResult],
    output,
    started: float,
    report: FaultReport | None = None,
) -> RepairOutcome:
    """The outcome of a repair loop that ran ``verdicts``' attempts,
    ``output`` being the last attempt's (kept only when it healed)."""
    healed = verdicts[-1].accepted
    return RepairOutcome(
        window=window,
        healed=healed,
        attempts=len(verdicts),
        report=report,
        verdicts=verdicts,
        output=output if healed else None,
        repair_seconds=time.perf_counter() - started,
    )


def _patched_output(
    comm, old_output, keys, values, ranges, partitioner, recompute
) -> tuple[np.ndarray, np.ndarray]:
    """Splice a recomputed implicated slice into the retained output.

    Keys outside the implicated ranges keep their (checker-trusted only
    insofar as the re-settle confirms them) old aggregates; keys inside
    are recomputed from the re-executed input through the same
    partitioned exchange, so they land on the same home PEs as a clean
    run and the merged result is sorted-unique per PE exactly like
    ``reduce_by_key``'s.
    """
    sel = _range_mask(keys, ranges)
    new_k, new_v = recompute(comm, keys[sel], values[sel], partitioner)
    old_k = domain.words(old_output[0])
    old_v = domain.values(old_output[1])
    keep = ~_range_mask(old_k, ranges)
    pk = np.concatenate([old_k[keep], new_k])
    pv = np.concatenate([old_v[keep], new_v])
    order = np.argsort(pk, kind="stable")
    return pk[order], pv[order]


def repair_reduce_window(
    comm,
    window: int,
    window_seed: int,
    config: SumCheckConfig,
    reexecute,
    old_output,
    policy: RepairPolicy,
    report: FaultReport | None = None,
    partitioner=None,
    operator: str = "+",
    recompute=None,
) -> RepairOutcome:
    """Repair one rejected ReduceByKey window under bounded retry.

    Attempts re-execute the window's source through ``reexecute`` and
    either patch the implicated ``report.key_ranges`` into ``old_output``
    (earlier attempts, when localization succeeded) or recompute the
    window outright (the final attempt, and whenever no usable report
    exists).  Each attempt re-settles the complete window under
    :meth:`RepairPolicy.attempt_seed_roots`; the first ACCEPT wins.  All
    PEs must call collectively — every verdict is agreed before the next
    attempt starts, so the loop stays in lockstep.

    ``recompute(comm, keys, values, partitioner)`` replaces the default
    :func:`reduce_by_key` aggregation — the hook the chaos harness uses
    to model a *persistently* broken operation (re-execution recomputes
    through the same faulty black box, so the re-settle keeps rejecting
    and the window quarantines instead of healing).
    """
    t0 = time.perf_counter()
    if recompute is None:
        recompute = reduce_by_key
    ranges = (
        list(report.key_ranges)
        if report is not None and report.localized
        else []
    )
    verdicts: list[CheckResult] = []
    for attempt in range(policy.max_attempts):
        pairs = list(reexecute(window, ranges))
        keys = _gather_chunks([k for k, _ in pairs], domain.words)
        values = _gather_chunks([v for _, v in pairs], domain.values)
        use_partial = (
            policy.partial
            and bool(ranges)
            and attempt < policy.max_attempts - 1
        )
        if use_partial:
            output = _patched_output(
                comm, old_output, keys, values, ranges, partitioner, recompute
            )
        else:
            output = recompute(comm, keys, values, partitioner)
        roots = policy.attempt_seed_roots(window_seed, attempt)
        verdict = _attempt_result(
            "repair-resettle",
            window,
            attempt,
            roots,
            MultiSeedSumChecker(config, roots, operator)
            .check_distributed_condensed(
                comm,
                condense_kv(keys, values, operator),
                condense_kv(output[0], output[1], operator),
            )
            .details["per_seed_accepted"],
            config=config.label(),
            operator=operator,
            partial=use_partial,
        )
        verdicts.append(verdict)
        if verdict.accepted:
            break
    return _outcome(window, verdicts, output, t0, report)


def repair_sum_window(
    comm,
    window: int,
    window_seed: int,
    config: SumCheckConfig,
    reexecute,
    policy: RepairPolicy,
    recompute=None,
) -> RepairOutcome:
    """Repair one rejected windowed-sum window under bounded retry.

    The sum checker condenses the whole window to a single key (every
    element is a ``(0, value)`` pair), so there is nothing to localize
    and no partial splice: every attempt is a full re-execution.
    ``reexecute(window_id, key_ranges)`` must return this PE's complete
    *value* chunks for the window (``key_ranges`` is always empty here);
    ``recompute(comm, values)`` overrides the default allreduce total.
    Each attempt re-settles input vs asserted total under
    :meth:`RepairPolicy.attempt_seed_roots`; the first ACCEPT heals the
    window with the re-executed total.
    """
    t0 = time.perf_counter()
    verdicts: list[CheckResult] = []
    for attempt in range(policy.max_attempts):
        values = _gather_chunks(reexecute(window, []), domain.values)
        if recompute is not None:
            total = int(recompute(comm, values))
        else:
            total = _global_sum(comm, values)
        roots = policy.attempt_seed_roots(window_seed, attempt)
        verdict = _attempt_result(
            "repair-resettle-sum",
            window,
            attempt,
            roots,
            MultiSeedSumChecker(config, roots)
            .check_distributed_condensed(
                comm,
                condense_kv(np.zeros(values.shape, dtype=np.uint64), values),
                condense_kv(*_total_side(comm, total)),
            )
            .details["per_seed_accepted"],
            config=config.label(),
        )
        verdicts.append(verdict)
        if verdict.accepted:
            break
    return _outcome(window, verdicts, total, t0)


def repair_zip_window(
    comm,
    window: int,
    window_seed: int,
    iterations: int,
    reexecute,
    policy: RepairPolicy,
    recompute=None,
) -> RepairOutcome:
    """Repair one rejected Zip window under bounded retry.

    The Theorem 11 positional fingerprint carries no per-key carrier to
    bisect, so zip repair is always a full re-execution: ``reexecute(
    window_id, key_ranges)`` must return ``(chunks1, chunks2)`` — this
    PE's complete input chunks for both streams (``key_ranges`` is
    always empty) — and each attempt re-runs the zip exchange and
    re-settles the window's fingerprints under fresh
    :meth:`RepairPolicy.attempt_seed_roots`.  ``recompute(comm, s1,
    s2)`` overrides the default :func:`zip_arrays` call and must return
    ``(first, second, (off1, off2))``.
    """
    t0 = time.perf_counter()
    verdicts: list[CheckResult] = []
    for attempt in range(policy.max_attempts):
        chunks1, chunks2 = reexecute(window, [])
        s1 = domain.concat(chunks1)
        s2 = domain.concat(chunks2)
        if recompute is not None:
            first, second, (off1, off2) = recompute(comm, s1, s2)
        else:
            first, second, (off1, off2) = zip_arrays(
                comm, s1, s2, return_offsets=True
            )
        roots = policy.attempt_seed_roots(window_seed, attempt)
        verdict = _attempt_result(
            "repair-resettle-zip",
            window,
            attempt,
            roots,
            check_zip(
                s1, s2, first, second,
                iterations=iterations, seed=roots, comm=comm,
                offsets=(off1, off2, off1),
            ).details["per_seed_accepted"],
            iterations=iterations,
        )
        verdicts.append(verdict)
        if verdict.accepted:
            break
    return _outcome(window, verdicts, (first, second), t0)
