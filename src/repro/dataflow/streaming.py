"""Streaming DIAs: chunked (possibly unbounded) feeds with windowed checks.

The batch :class:`~repro.dataflow.dia.DIA` materializes every array before
any checker sees a byte.  This module is the §7-faithful alternative: a
:class:`StreamingDIA` is an iterator of local chunks (bounded memory, no
global materialization), and every checked operation processes the stream
in **windows** of ``chunks_per_window`` chunks:

* the operation itself runs once per window (local pre-aggregation
  happens chunk-at-a-time);
* the checker folds its one-seed tables straight from the window's raw
  pairs, without sorting, and the verdict **settles once per window** —
  one data-bearing collective per window, not per chunk;
* only a window that escalates (under an
  :class:`~repro.dataflow.pipeline.AdaptiveCheckPolicy`) or is localized
  condenses its two sides, once each, and both reuse that condensation.

Per-window :class:`~repro.dataflow.pipeline.CheckedRunStats` accumulate
into a run-level record (``windows``, ``elements_fed``, merged overhead
ratio) on the returned :class:`StreamingCheckedRun`, and every window
leaves a :class:`WindowRecord` in ``window_history`` — verdict, seeds
used, escalation, and (for :meth:`reduce_by_key_checked` with a
``reexecute`` callback) the localization/repair trail of rejected
windows.  A rejected window never stalls its successors: it is localized
(:mod:`repro.core.localize`), re-executed under the bounded retry of a
:class:`~repro.dataflow.repair.RepairPolicy`, and either healed in place
or surfaced as a permanent
:class:`~repro.dataflow.repair.QuarantinedWindow` while the stream keeps
settling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.comm import ops
from repro.core.base import CheckResult
from repro.core.localize import FaultReport, localize_fault
from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.core.streams import ZipCheckerStream
from repro.core.sum_checker import _coerce_keys, _coerce_values
from repro.dataflow.ops.reduce_by_key import local_aggregate, reduce_by_key
from repro.dataflow.ops.zip_op import zip_arrays
from repro.dataflow.pipeline import (
    AdaptiveCheckPolicy,
    CheckedRunStats,
    _primary_tables,
    _run_stats,
    _settle_sum,
)
from repro.dataflow.repair import (
    QuarantinedWindow,
    RepairPolicy,
    _gather_zip_chunks,
    repair_reduce_window,
    repair_sum_window,
    repair_zip_window,
)
from repro.util.rng import derive_seed, derive_seed_array

_DEFAULT_CONFIG = SumCheckConfig(iterations=8, d=16, rhat=1 << 15)


@dataclass
class WindowRecord:
    """One window's verdict history entry.

    ``verdict`` is the window's *final* verdict (the healing re-settle
    when a repair succeeded; the original rejection otherwise) and
    ``seeds_used`` every checker root seed spent on the window — primary,
    escalation lanes, and repair re-settle roots in order.  ``report``
    carries the :class:`~repro.core.localize.FaultReport` when a failed
    verdict was localized.
    """

    window: int
    verdict: CheckResult
    accepted: bool
    seed: int
    seeds_used: list[int]
    escalated: bool = False
    escalation_seeds: int = 0
    repair_attempts: int = 0
    repaired: bool = False
    quarantined: bool = False
    report: FaultReport | None = None


@dataclass
class StreamingCheckedRun:
    """Result of a windowed checked operation over a chunked stream.

    ``outputs[w]`` is window ``w``'s operation result (shape depends on
    the operation; empty when the run was started with
    ``keep_outputs=False`` for unbounded feeds; the healed result for a
    repaired window), ``verdicts[w]`` its final :class:`CheckResult`,
    ``window_history[w]`` the full :class:`WindowRecord` (verdict, seeds
    used, escalation, repair trail), ``quarantined`` the permanently
    failed windows, and ``stats`` the merged per-window
    :class:`CheckedRunStats` (``stats.windows`` settled windows,
    ``stats.elements_fed`` stream elements consumed).
    """

    outputs: list = field(default_factory=list)
    verdicts: list[CheckResult] = field(default_factory=list)
    stats: CheckedRunStats = field(
        default_factory=lambda: CheckedRunStats(0.0, 0.0)
    )
    window_history: list[WindowRecord] = field(default_factory=list)
    quarantined: list[QuarantinedWindow] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        """True iff every settled window's final verdict accepted."""
        return all(v.accepted for v in self.verdicts)

    def _add_window(self, output, verdict, stats, keep_outputs, record=None):
        if keep_outputs:
            self.outputs.append(output)
        self.verdicts.append(verdict)
        self.stats = self.stats.merge(stats)
        if record is not None:
            self.window_history.append(record)


def _window_seed(seed: int, window: int) -> int:
    """Fresh checker randomness per window from one root seed."""
    return derive_seed(seed, "stream-window", window)


#: Most consecutive windows whose seeds and one-seed primaries a window
#: loop derives in one vectorized call (see :class:`_WindowCheckers`).
_SEED_BLOCK = 64


class _WindowCheckers:
    """One-seed window primaries, derived in blocks of up to 64 windows.

    Window ``w`` checks under ``window_seed(seed, w)``.  Deriving that
    seed and the moduli and hash seeds under it one window at a time
    costs tens of µs of scalar SplitMix chains and numpy dispatch per
    window; here a block of windows' seeds comes from one
    :func:`~repro.util.rng.derive_seed_array` call and builds one
    multi-seed :class:`~repro.core.multiseed.MultiSeedSumChecker`, and
    each window settles with its
    :meth:`~repro.core.multiseed.MultiSeedSumChecker.seed_view`.  The
    block opened at window ``w`` covers ``min(max(w, 1), 64)`` windows
    (blocks start at 0, 1, 2, 4, … 64, 128, 192, …): a short stream
    never derives more than twice the windows it settles, and a long
    stream derives 64 windows per call.  Every value equals its per-window derivation, so tables, verdicts
    and window records are unchanged.  (The seeds of one block are
    distinct: the last SplitMix step is a bijection of ``state ^ w``.)
    """

    def __init__(self, config: SumCheckConfig, seed: int):
        self.config = config
        self.seed = seed
        self._block: MultiSeedSumChecker | None = None
        self._first = 0

    def view(self, window: int) -> MultiSeedSumChecker:
        """Window ``window``'s primary, deriving its block if none covers it."""
        offset = window - self._first
        if self._block is None or not 0 <= offset < self._block.num_seeds:
            size = min(max(window, 1), _SEED_BLOCK)
            seeds = derive_seed_array(
                self.seed,
                "stream-window",
                np.arange(window, window + size, dtype=np.uint64),
            )
            self._block = MultiSeedSumChecker(self.config, seeds)
            self._first, offset = window, 0
        return self._block.seed_view(offset)


def _window_primary(
    config: SumCheckConfig,
    seed_w: int,
    window: int,
    checkers: _WindowCheckers | None,
) -> MultiSeedSumChecker:
    """A settle's one-seed primary under ``seed_w``.

    The block view of ``checkers`` when it checks ``seed_w`` under
    ``config`` (an attempt under the window seed), else a new
    ``MultiSeedSumChecker(config, [seed_w])`` (a daemon retry's fresh
    seed, or a settle called without ``checkers``).
    """
    if checkers is not None and checkers.config == config:
        view = checkers.view(window)
        if int(view.seeds[0]) == seed_w:
            return view
    return MultiSeedSumChecker(config, [seed_w])


class _ChunkSource:
    """Shared chunk plumbing of the streaming DIAs."""

    def __init__(self, comm, chunks):
        self.comm = comm
        self._chunks = iter(chunks)

    def _pull_window(self, chunks_per_window: int) -> list:
        """Up to ``chunks_per_window`` local chunks (may be empty at EOF)."""
        if chunks_per_window < 1:
            raise ValueError(
                f"chunks_per_window must be >= 1, got {chunks_per_window}"
            )
        window = []
        for _ in range(chunks_per_window):
            try:
                window.append(next(self._chunks))
            except StopIteration:
                break
        return window

    def _window_live(self, window: list) -> bool:
        """Global agreement whether ANY PE still has data this window.

        PEs whose local stream ran dry keep participating in the window's
        collectives with empty feeds until every PE is dry — windows are
        a global construct.
        """
        has_local = len(window) > 0
        if self.comm is None:
            return has_local
        return self.comm.allreduce(has_local, op=ops.LOR)


class StreamingDIA(_ChunkSource):
    """One PE's handle on a chunked stream of single-column elements.

    ``chunks`` is any iterable of local numpy arrays — a list, a
    generator over a socket, an unbounded feed.  Nothing is materialized
    beyond the current window.
    """

    @classmethod
    def from_chunks(cls, comm, chunks) -> "StreamingDIA":
        """Wrap an iterable of local array chunks."""
        return cls(comm, chunks)

    @classmethod
    def from_generator(cls, comm, generator_fn, *args) -> "StreamingDIA":
        """Wrap a zero-materialization chunk generator (called lazily)."""
        return cls(comm, generator_fn(*args))

    def map(self, fn) -> "StreamingDIA":
        """Lazily apply a vectorized transform to every chunk."""
        return StreamingDIA(self.comm, (fn(c) for c in self._chunks))

    def key_by(self, key_fn) -> "StreamingKeyValueDIA":
        """Lazily derive (key, value) chunk pairs: keys = key_fn(chunk)."""
        return StreamingKeyValueDIA(
            self.comm, ((key_fn(c), c) for c in self._chunks)
        )

    # -- checked windowed operations ----------------------------------------
    def sum_checked(
        self,
        config: SumCheckConfig | None = None,
        seed: int = 0,
        chunks_per_window: int = 8,
        policy: AdaptiveCheckPolicy | None = None,
        keep_outputs: bool = True,
        reexecute=None,
        repair: RepairPolicy | None = None,
        fault=None,
    ) -> StreamingCheckedRun:
        """Windowed global sum with the §4 checker (key 0 for all elements).

        Each window's output is the window's global total; the checker
        sees every element as a ``(0, value)`` pair and the asserted total
        as a single output pair on PE 0.  One settle per window.

        A ``reexecute(window_id, key_ranges)`` callback heals rejected
        windows like :meth:`StreamingKeyValueDIA.reduce_by_key_checked`
        does, except that the single-key condensation leaves nothing to
        localize: every :func:`~repro.dataflow.repair.repair_sum_window`
        attempt is a full re-execution of the window's *value* chunks
        (``key_ranges`` is always empty), re-settled under escalating
        seeds, with a :class:`~repro.dataflow.repair.QuarantinedWindow`
        on exhaustion.
        """
        config = config or _DEFAULT_CONFIG
        checkers = _WindowCheckers(config, seed)
        run = StreamingCheckedRun()
        w = 0
        while True:
            window = self._pull_window(chunks_per_window)
            if not self._window_live(window):
                break
            output, verdict, stats, record, quarantine = settle_sum_window(
                self.comm,
                window,
                config=config,
                seed_w=_window_seed(seed, w),
                window=w,
                policy=policy,
                reexecute=reexecute,
                repair=repair,
                fault=fault,
                checkers=checkers,
            )
            if quarantine is not None:
                run.quarantined.append(quarantine)
            run._add_window(output, verdict, stats, keep_outputs, record)
            w += 1
        return run

    def zip_checked(
        self,
        other: "StreamingDIA",
        seed: int = 0,
        iterations: int = 2,
        chunks_per_window: int = 8,
        policy: AdaptiveCheckPolicy | None = None,
        keep_outputs: bool = True,
        reexecute=None,
        repair: RepairPolicy | None = None,
        fault=None,
    ) -> StreamingCheckedRun:
        """Windowed Zip with the Theorem 11 checker, one settle per window.

        Both streams advance in lockstep windows; within a window the zip
        exchange computes the PE offsets once (one batched exscan) and the
        checker stream reuses them — the positional fingerprint admits no
        condensation, so the window's arrays are retained exactly until
        its settle (and, with a ``policy``, its escalation) completes.

        A ``reexecute(window_id, key_ranges)`` callback must return
        ``(chunks1, chunks2)`` — this PE's complete chunks for both
        streams of the window — and heals rejected windows through
        :func:`~repro.dataflow.repair.repair_zip_window`: the fingerprint
        carries no key ranges to bisect, so every attempt re-runs the zip
        exchange outright and re-settles under escalating seeds.
        """
        run = StreamingCheckedRun()
        w = 0
        while True:
            window1 = self._pull_window(chunks_per_window)
            window2 = other._pull_window(chunks_per_window)
            live = self._window_live(window1 + window2)
            if not live:
                break
            output, verdict, stats, record, quarantine = settle_zip_window(
                self.comm,
                window1,
                window2,
                seed_w=_window_seed(seed, w),
                window=w,
                iterations=iterations,
                policy=policy,
                reexecute=reexecute,
                repair=repair,
                fault=fault,
            )
            if quarantine is not None:
                run.quarantined.append(quarantine)
            run._add_window(output, verdict, stats, keep_outputs, record)
            w += 1
        return run


class StreamingKeyValueDIA(_ChunkSource):
    """One PE's handle on a chunked stream of (keys, values) pairs.

    ``chunks`` is an iterable of ``(keys, values)`` array pairs.
    """

    @classmethod
    def from_chunks(cls, comm, chunks) -> "StreamingKeyValueDIA":
        """Wrap an iterable of local (keys, values) chunk pairs."""
        return cls(comm, chunks)

    @classmethod
    def from_generator(
        cls, comm, generator_fn, *args
    ) -> "StreamingKeyValueDIA":
        """Wrap a zero-materialization (keys, values) chunk generator."""
        return cls(comm, generator_fn(*args))

    def map_pairs(self, fn) -> "StreamingKeyValueDIA":
        """Lazily apply a vectorized (keys, values) -> (keys, values) map."""
        return StreamingKeyValueDIA(
            self.comm, (fn(k, v) for k, v in self._chunks)
        )

    def reduce_by_key_checked(
        self,
        config: SumCheckConfig | None = None,
        seed: int = 0,
        partitioner=None,
        chunks_per_window: int = 8,
        policy: AdaptiveCheckPolicy | None = None,
        keep_outputs: bool = True,
        reexecute=None,
        repair: RepairPolicy | None = None,
        fault=None,
    ) -> StreamingCheckedRun:
        """Windowed ReduceByKey + Theorem 1 checker, one settle per window.

        Every chunk is locally pre-aggregated as it arrives; the checker
        folds the window's raw pairs once, then the window runs one
        key-partitioned exchange and settles one verdict.  With a
        ``policy`` the settle is adaptive: 1 seed inline, escalation lanes
        evaluated against the window's sides condensed once.

        With a ``reexecute(window_id, key_ranges)`` callback (see
        :mod:`repro.dataflow.repair` for the contract) a rejected window
        is localized against the window's condensed sides, then
        repaired under bounded retry and either healed in place (its
        output and verdict replaced by the accepted re-execution) or
        appended to ``run.quarantined`` — subsequent windows settle
        regardless.  ``repair`` customizes the
        :class:`~repro.dataflow.repair.RepairPolicy` (defaulted when only
        ``reexecute`` is given); the callback must be supplied on every
        PE or none, like any other collective argument.
        """
        config = config or _DEFAULT_CONFIG
        checkers = _WindowCheckers(config, seed)
        run = StreamingCheckedRun()
        w = 0
        while True:
            window = self._pull_window(chunks_per_window)
            if not self._window_live(window):
                break
            output, verdict, stats, record, quarantine = (
                settle_reduce_window(
                    self.comm,
                    window,
                    config=config,
                    seed_w=_window_seed(seed, w),
                    window=w,
                    partitioner=partitioner,
                    policy=policy,
                    reexecute=reexecute,
                    repair=repair,
                    fault=fault,
                    checkers=checkers,
                )
            )
            if quarantine is not None:
                run.quarantined.append(quarantine)
            run._add_window(output, verdict, stats, keep_outputs, record)
            w += 1
        return run

    def count_by_key_checked(
        self,
        config: SumCheckConfig | None = None,
        seed: int = 0,
        partitioner=None,
        chunks_per_window: int = 8,
        policy: AdaptiveCheckPolicy | None = None,
        keep_outputs: bool = True,
        reexecute=None,
        repair: RepairPolicy | None = None,
        fault=None,
    ) -> StreamingCheckedRun:
        """Windowed per-key counting (§4: sum aggregation of ones).

        A ``reexecute`` callback repairs rejected windows exactly as in
        :meth:`reduce_by_key_checked`; it must yield ``(keys, ones)``
        pairs — the counting view of the window's source chunks.
        """
        ones = StreamingKeyValueDIA(
            self.comm,
            (
                (k, np.ones(np.asarray(k).shape, dtype=np.int64))
                for k, _ in self._chunks
            ),
        )
        return ones.reduce_by_key_checked(
            config=config,
            seed=seed,
            partitioner=partitioner,
            chunks_per_window=chunks_per_window,
            policy=policy,
            keep_outputs=keep_outputs,
            reexecute=reexecute,
            repair=repair,
            fault=fault,
        )


# -- per-window settlement engine -------------------------------------------
#
# One function per checked operation, covering a single window end to end:
# feed the checker, run the operation, settle the verdict, and (given a
# ``reexecute`` callback) localize/repair or quarantine.  The pull-based
# DIAs above and the push-based ``repro.service`` daemon both drive their
# windows through these, so service tenants settle bit-identically to a
# batch streaming run.
#
# ``fault`` is the chaos-injection seam: a callable applied to the
# operation's working data (never to what the checker was fed), emulating
# the paper's fault-inside-the-black-box model.  It also wraps the repair
# path's recompute, so a hook that keeps corrupting models a persistently
# broken operation (repair keeps rejecting → quarantine) while a hook that
# corrupts only the first execution models a transient fault (repair
# heals).


def _fold_repair(outcome, report, record, stats, repair, seed_w, output, verdict):
    """Fold a RepairOutcome into the window's record/stats/output."""
    record.report = report
    record.repair_attempts = outcome.attempts
    for attempt in range(outcome.attempts):
        record.seeds_used += [
            int(s) for s in repair.attempt_seed_roots(seed_w, attempt)
        ]
    quarantine = None
    if outcome.healed:
        output = outcome.output
        verdict = outcome.verdicts[-1]
        record.verdict = verdict
        record.accepted = True
        record.repaired = True
    else:
        record.quarantined = True
        quarantine = outcome.quarantine()
    stats = replace(
        stats,
        localized=bool(report is not None and report.localized),
        bisection_rounds=(
            report.bisection_rounds if report is not None else 0
        ),
        localization_seconds=(
            report.localization_seconds if report is not None else 0.0
        ),
        repaired_windows=1 if outcome.healed else 0,
        quarantined_windows=0 if outcome.healed else 1,
    )
    return output, verdict, stats, quarantine


def settle_reduce_window(
    comm,
    chunks,
    *,
    config: SumCheckConfig,
    seed_w: int,
    window: int,
    partitioner=None,
    policy: AdaptiveCheckPolicy | None = None,
    reexecute=None,
    repair: RepairPolicy | None = None,
    fault=None,
    checkers: _WindowCheckers | None = None,
):
    """Settle one ReduceByKey window over its local ``(keys, values)`` chunks.

    Returns ``(output, verdict, stats, record, quarantine)`` where
    ``quarantine`` is a :class:`QuarantinedWindow` when a repair loop
    exhausted its budget (else None).  Collective: every PE must call
    with the same window index and seed.

    ``checkers`` is the window loop's :class:`_WindowCheckers`: a
    settle under the window seed takes that window's block view as its
    primary (deriving the block when this window opens one).  Without
    ``checkers``, or under another seed, the settle builds
    ``MultiSeedSumChecker(config, [seed_w])``.  Either way the primary's
    cost is checker time.
    """
    if reexecute is not None and repair is None:
        repair = RepairPolicy()
    elements = 0
    raw_k: list[np.ndarray] = []
    raw_v: list[np.ndarray] = []
    parts_k: list[np.ndarray] = []
    parts_v: list[np.ndarray] = []
    checker_s = 0.0
    op_s = 0.0
    for keys, values in chunks:
        c0 = time.perf_counter()
        # Coerced per chunk: concatenating int64 with uint64 keys would
        # give float64 keys, which the checker refuses.
        raw_k.append(_coerce_keys(keys))
        raw_v.append(_coerce_values(values))
        c1 = time.perf_counter()
        lk, lv = local_aggregate(keys, values)
        c2 = time.perf_counter()
        checker_s += c1 - c0
        op_s += c2 - c1
        parts_k.append(lk)
        parts_v.append(lv)
        elements += int(raw_k[-1].size)

    def _operation(comm_, keys, values, part):
        if fault is not None:
            keys, values = fault(window, keys, values)
        return reduce_by_key(comm_, keys, values, part)

    c0 = time.perf_counter()
    in_side = (_concat(raw_k, dtype=np.uint64), _concat(raw_v, dtype=np.int64))
    primary = _window_primary(config, seed_w, window, checkers)
    t_in = _primary_tables(primary, in_side)
    t0 = time.perf_counter()
    checker_s += t0 - c0
    merged_k, merged_v = local_aggregate(
        _concat(parts_k, dtype=np.uint64),
        _concat(parts_v, dtype=np.int64),
    )
    out_k, out_v = _operation(comm, merged_k, merged_v, partitioner)
    t1 = time.perf_counter()
    op_s += t1 - t0
    sides = [in_side, (out_k, out_v)]
    verdict = _settle_sum(
        primary, t_in, sides, seed_w, policy, comm, streaming=True
    )
    t2 = time.perf_counter()
    checker_s += t2 - t1
    stats = _run_stats(
        verdict, op_s, checker_s, windows=1, elements_fed=elements
    )
    record = _window_record(window, verdict, seed_w, policy)
    output = (out_k, out_v)
    quarantine = None
    ok = bool(verdict.accepted)
    if not ok and reexecute is not None:
        report = None
        if repair.localize:
            loc_seeds = derive_seed_array(
                seed_w,
                "localize",
                np.arange(repair.localization_seeds, dtype=np.uint64),
            )
            # The sides an escalation already condensed are reused.
            report = localize_fault(
                *sides,
                config,
                loc_seeds,
                comm,
                window=window,
                max_rounds=repair.max_rounds,
                max_ranges=repair.max_ranges,
            )
            record.seeds_used += [int(s) for s in loc_seeds]
        outcome = repair_reduce_window(
            comm,
            window=window,
            window_seed=seed_w,
            config=config,
            reexecute=reexecute,
            old_output=output,
            policy=repair,
            report=report,
            partitioner=partitioner,
            recompute=_operation if fault is not None else None,
        )
        output, verdict, stats, quarantine = _fold_repair(
            outcome, report, record, stats, repair, seed_w, output, verdict
        )
    return output, verdict, stats, record, quarantine


def settle_sum_window(
    comm,
    chunks,
    *,
    config: SumCheckConfig,
    seed_w: int,
    window: int,
    policy: AdaptiveCheckPolicy | None = None,
    reexecute=None,
    repair: RepairPolicy | None = None,
    fault=None,
    checkers: _WindowCheckers | None = None,
):
    """Settle one windowed-sum window over its local value chunks.

    The checker sees every element as a ``(0, value)`` pair and the
    asserted global total as one output pair on PE 0.  Same return shape
    and ``checkers`` contract as :func:`settle_reduce_window`.
    """
    if reexecute is not None and repair is None:
        repair = RepairPolicy()
    rank = comm.rank if comm is not None else 0
    t0 = time.perf_counter()
    vals = [_coerce_values(chunk) for chunk in chunks]
    values = _concat(vals, dtype=np.int64)
    c0 = time.perf_counter()
    in_side = (np.zeros_like(values, dtype=np.uint64), values)
    primary = _window_primary(config, seed_w, window, checkers)
    t_in = _primary_tables(primary, in_side)
    checker_s = time.perf_counter() - c0

    def _operation(comm_, values):
        if fault is not None:
            values = fault(window, values)
        local = int(np.sum(values, dtype=np.int64))
        if comm_ is None:
            return local
        return comm_.allreduce(local, op=ops.SUM)

    # The operation works on its own copy: the black box never touches
    # the input the checker reads.
    total = _operation(comm, values.copy())
    t_op_done = time.perf_counter()
    out_side = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
    if rank == 0:
        out_side = (
            np.zeros(1, dtype=np.uint64),
            np.array([total], dtype=np.int64),
        )
    verdict = _settle_sum(
        primary, t_in, [in_side, out_side], seed_w, policy, comm,
        streaming=True,
    )
    t1 = time.perf_counter()
    stats = _run_stats(
        verdict,
        operation_seconds=(t_op_done - t0) - checker_s,
        checker_seconds=checker_s + (t1 - t_op_done),
        windows=1,
        elements_fed=int(values.size),
    )
    record = _window_record(window, verdict, seed_w, policy)
    output = total
    quarantine = None
    ok = bool(verdict.accepted)
    if not ok and reexecute is not None:
        outcome = repair_sum_window(
            comm,
            window,
            seed_w,
            config,
            reexecute,
            repair,
            recompute=_operation if fault is not None else None,
        )
        output, verdict, stats, quarantine = _fold_repair(
            outcome, None, record, stats, repair, seed_w, output, verdict
        )
    return output, verdict, stats, record, quarantine


def settle_zip_window(
    comm,
    window1,
    window2,
    *,
    seed_w: int,
    window: int,
    iterations: int = 2,
    policy: AdaptiveCheckPolicy | None = None,
    reexecute=None,
    repair: RepairPolicy | None = None,
    fault=None,
):
    """Settle one Zip window over both streams' local chunk lists.

    Same return shape as :func:`settle_reduce_window`; ``fault`` (when
    given) corrupts the zipped output columns — the operation's product —
    while the checker keeps fingerprinting the original inputs.
    """
    if reexecute is not None and repair is None:
        repair = RepairPolicy()
    t0 = time.perf_counter()
    w1 = _gather_zip_chunks(window1)
    w2 = _gather_zip_chunks(window2)

    def _operation(comm_, s1, s2):
        first, second, offs = zip_arrays(comm_, s1, s2, return_offsets=True)
        if fault is not None:
            first, second = fault(window, first, second)
        return first, second, offs

    first, second, (off1, off2) = _operation(comm, w1, w2)
    t1 = time.perf_counter()
    stream = ZipCheckerStream(seed_w, iterations, offsets=(off1, off2, off1))
    for chunk in window1:
        stream.feed_input(first=chunk)
    for chunk in window2:
        stream.feed_input(second=chunk)
    stream.feed_output(first, second)
    verdict = stream.settle(comm)
    t2 = time.perf_counter()
    escalation_seconds = 0.0
    esc_seeds = 0
    escalated = False
    per_seed = None
    ok = verdict.accepted
    if policy is not None:
        escalated = policy.should_escalate(verdict.accepted)
        if escalated:
            e0 = time.perf_counter()
            roots = policy.resolve_seeds(seed_w)
            esc = ZipCheckerStream(
                roots, iterations, offsets=(off1, off2, off1)
            )
            esc.feed_input(first=w1, second=w2)
            esc.feed_output(first, second)
            esc_res = esc.settle(comm)
            per_seed = esc_res.details["per_seed_accepted"]
            esc_seeds = int(roots.size)
            escalation_seconds = time.perf_counter() - e0
        ok = verdict.accepted and (per_seed is None or all(per_seed))
        verdict = CheckResult(
            accepted=ok,
            checker="zip-adaptive",
            details={
                **verdict.details,
                "primary_accepted": verdict.accepted,
                "adaptive": {
                    "escalated": escalated,
                    "escalate_on": policy.escalate_on,
                    "num_escalation_seeds": esc_seeds,
                    "per_seed_accepted": per_seed,
                    "escalation_seconds": escalation_seconds,
                },
            },
        )
    stats = CheckedRunStats(
        operation_seconds=t1 - t0,
        checker_seconds=t2 - t1,
        escalated=escalated,
        escalation_seconds=escalation_seconds,
        escalation_seeds=esc_seeds,
        windows=1,
        elements_fed=int(w1.size + w2.size),
    )
    record = _window_record(window, verdict, seed_w, policy)
    output = (first, second)
    quarantine = None
    if not ok and reexecute is not None:
        outcome = repair_zip_window(
            comm,
            window,
            seed_w,
            iterations,
            reexecute,
            repair,
            recompute=_operation if fault is not None else None,
        )
        output, verdict, stats, quarantine = _fold_repair(
            outcome, None, record, stats, repair, seed_w, output, verdict
        )
    return output, verdict, stats, record, quarantine


def _concat(parts: list, dtype) -> np.ndarray:
    arrays = [np.asarray(p) for p in parts]
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(arrays)


def _window_record(
    window: int,
    verdict: CheckResult,
    seed_w: int,
    policy: AdaptiveCheckPolicy | None,
) -> WindowRecord:
    """The window's history entry as first settled (pre-repair)."""
    adaptive = verdict.details.get("adaptive")
    escalated = bool(adaptive and adaptive["escalated"])
    seeds_used = [int(seed_w)]
    if escalated and policy is not None:
        seeds_used += [int(s) for s in policy.resolve_seeds(seed_w)]
    return WindowRecord(
        window=window,
        verdict=verdict,
        accepted=bool(verdict.accepted),
        seed=int(seed_w),
        seeds_used=seeds_used,
        escalated=escalated,
        escalation_seeds=(
            int(adaptive["num_escalation_seeds"]) if escalated else 0
        ),
    )


__all__ = [
    "StreamingCheckedRun",
    "StreamingDIA",
    "StreamingKeyValueDIA",
    "WindowRecord",
    "settle_reduce_window",
    "settle_sum_window",
    "settle_zip_window",
    "window_seed",
]


#: Public alias: the per-window checker seed derivation shared by the
#: streaming DIAs and the ``repro.service`` daemon.
window_seed = _window_seed
