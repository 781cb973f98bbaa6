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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.comm import ops
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


def _coerce_kv(keys, values) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.asarray(keys, dtype=np.uint64).ravel(),
        np.asarray(values, dtype=np.int64).ravel(),
    )


def _gather_chunks(chunks) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate a reexecute callback's (keys, values) chunk iterable."""
    ks: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for keys, values in chunks:
        k, v = _coerce_kv(keys, values)
        ks.append(k)
        vs.append(v)
    if not ks:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    return np.concatenate(ks), np.concatenate(vs)


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
    old_k, old_v = _coerce_kv(*old_output)
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
    attempts = 0
    healed = False
    output = None
    for attempt in range(policy.max_attempts):
        attempts = attempt + 1
        keys, values = _gather_chunks(reexecute(window, ranges))
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
        checker = MultiSeedSumChecker(config, roots, operator)
        diff = checker.difference(
            checker.local_tables_condensed(
                condense_kv(keys, values, operator)
            ),
            checker.local_tables_condensed(
                condense_kv(output[0], output[1], operator)
            ),
        )
        per_seed = checker.per_seed_verdicts(diff, comm)
        healed = all(per_seed)
        verdicts.append(
            CheckResult(
                accepted=bool(healed),
                checker="repair-resettle",
                details={
                    "config": config.label(),
                    "operator": operator,
                    "window": window,
                    "attempt": attempt,
                    "partial": use_partial,
                    "num_seeds": int(roots.size),
                    "per_seed_accepted": [bool(x) for x in per_seed],
                },
            )
        )
        if healed:
            break
    return RepairOutcome(
        window=window,
        healed=bool(healed),
        attempts=attempts,
        report=report,
        verdicts=verdicts,
        output=output if healed else None,
        repair_seconds=time.perf_counter() - t0,
    )


def _gather_value_chunks(chunks) -> np.ndarray:
    """Concatenate a sum reexecute callback's value-chunk iterable."""
    parts = [np.asarray(c, dtype=np.int64).ravel() for c in chunks]
    parts = [p for p in parts if p.size]
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


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
    rank = comm.rank if comm is not None else 0
    verdicts: list[CheckResult] = []
    attempts = 0
    healed = False
    total = None
    for attempt in range(policy.max_attempts):
        attempts = attempt + 1
        values = _gather_value_chunks(reexecute(window, []))
        if recompute is not None:
            total = int(recompute(comm, values))
        else:
            local = int(np.sum(values, dtype=np.int64))
            if comm is None:
                total = local
            else:
                total = comm.allreduce(local, op=ops.SUM)
        roots = policy.attempt_seed_roots(window_seed, attempt)
        checker = MultiSeedSumChecker(config, roots)
        if rank == 0:
            asserted = condense_kv(
                np.zeros(1, dtype=np.uint64), np.array([total], dtype=np.int64)
            )
        else:
            asserted = condense_kv(
                np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
            )
        diff = checker.difference(
            checker.local_tables_condensed(
                condense_kv(np.zeros(values.shape, dtype=np.uint64), values)
            ),
            checker.local_tables_condensed(asserted),
        )
        per_seed = checker.per_seed_verdicts(diff, comm)
        healed = all(per_seed)
        verdicts.append(
            CheckResult(
                accepted=bool(healed),
                checker="repair-resettle-sum",
                details={
                    "config": config.label(),
                    "window": window,
                    "attempt": attempt,
                    "num_seeds": int(roots.size),
                    "per_seed_accepted": [bool(x) for x in per_seed],
                },
            )
        )
        if healed:
            break
    return RepairOutcome(
        window=window,
        healed=bool(healed),
        attempts=attempts,
        report=None,
        verdicts=verdicts,
        output=total if healed else None,
        repair_seconds=time.perf_counter() - t0,
    )


def _gather_zip_chunks(chunks) -> np.ndarray:
    """Concatenate one side of a zip window's chunks, every value exact.

    Chunks that share one dtype concatenate as they are.  Integer chunks
    whose common numpy type is a float (int64 next to uint64) would lose
    their low bits there, so each chunk is coerced on its own: to int64
    when every value fits in it, else to its 64-bit two's-complement
    word (a negative int64 then comes back as a uint64 above 2**63).
    Either way each value hashes to the uint64 word the zip fingerprint
    reads, so the verdicts do not depend on the choice.
    """
    parts = [np.asarray(c).ravel() for c in chunks]
    parts = [p for p in parts if p.size]
    if not parts:
        return np.zeros(0, dtype=np.int64)
    kinds = {p.dtype.kind for p in parts}
    if (
        kinds <= {"i", "u"}
        and np.result_type(*{p.dtype for p in parts}).kind == "f"
    ):
        if all(p.dtype.kind == "i" or int(p.max()) < 1 << 63 for p in parts):
            parts = [p.astype(np.int64) for p in parts]
        else:
            parts = [
                p.astype(np.int64).view(np.uint64)
                if p.dtype.kind == "i"
                else p.astype(np.uint64)
                for p in parts
            ]
    return np.concatenate(parts)


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
    attempts = 0
    healed = False
    output = None
    for attempt in range(policy.max_attempts):
        attempts = attempt + 1
        chunks1, chunks2 = reexecute(window, [])
        s1 = _gather_zip_chunks(chunks1)
        s2 = _gather_zip_chunks(chunks2)
        if recompute is not None:
            first, second, (off1, off2) = recompute(comm, s1, s2)
        else:
            first, second, (off1, off2) = zip_arrays(
                comm, s1, s2, return_offsets=True
            )
        roots = policy.attempt_seed_roots(window_seed, attempt)
        per_seed = check_zip(
            s1, s2, first, second,
            iterations=iterations, seed=roots, comm=comm,
            offsets=(off1, off2, off1),
        ).details["per_seed_accepted"]
        healed = all(per_seed)
        verdicts.append(
            CheckResult(
                accepted=bool(healed),
                checker="repair-resettle-zip",
                details={
                    "window": window,
                    "attempt": attempt,
                    "iterations": iterations,
                    "num_seeds": int(roots.size),
                    "per_seed_accepted": [bool(x) for x in per_seed],
                },
            )
        )
        if healed:
            output = (first, second)
            break
    return RepairOutcome(
        window=window,
        healed=bool(healed),
        attempts=attempts,
        report=None,
        verdicts=verdicts,
        output=output,
        repair_seconds=time.perf_counter() - t0,
    )
