"""Streaming DIAs: chunked (possibly unbounded) feeds with windowed checks.

The batch :class:`~repro.dataflow.dia.DIA` materializes every array before
any checker sees a byte.  This module is the §7-faithful alternative: a
:class:`StreamingDIA` is an iterator of local chunks (bounded memory, no
global materialization), and every checked operation processes the stream
in **windows** of ``chunks_per_window`` chunks:

* every windowed operation loops over one window generator (one
  liveness ``allreduce`` per window), settles each window through its
  family's ``settle_*_window`` and records the result in one place;
* the operation itself runs once per window (local pre-aggregation
  happens chunk-at-a-time);
* the checker folds the window's raw input pairs and the operation's
  output as one signed multiset, in one pass and without sorting, and
  the verdict **settles once per window** — one data-bearing
  ``allreduce`` per window, not per chunk.  The settle hands its coerced
  chunks to the fold, which concatenates them with the output into one
  buffer of keys and one of values; the input side it keeps is a view
  of that buffer;
* only a window that escalates (under an
  :class:`~repro.dataflow.pipeline.AdaptiveCheckPolicy`) or is localized
  condenses its two sides, once each, and both reuse that condensation;
* every windowed loop reads window ``w``'s seed, ``window_seed(seed,
  w)``, from a block of up to 64 windows' seeds derived in one call
  (:class:`_WindowSeeds`), and the sum-family loops derive each block's
  one-seed primaries with it (:class:`_WindowCheckers`).  A clean
  one-PE zip window leaves both columns in place, so its check compares
  them and builds no fingerprint words
  (:func:`~repro.core.zip_checker.check_zip`).

Per-window :class:`~repro.dataflow.pipeline.CheckedRunStats` accumulate
into a run-level record (``windows``, ``elements_fed``, merged overhead
ratio) on the returned :class:`StreamingCheckedRun`, and every window
leaves a :class:`WindowRecord` in ``window_history`` — verdict, seeds
used, escalation, and (given a ``reexecute`` callback) the repair trail
of a rejected window.  A rejected window never stalls its successors: a
reduce window is localized (:mod:`repro.core.localize`), any window is
re-executed under the bounded retry of a
:class:`~repro.dataflow.repair.RepairPolicy`, and one function folds the
repair into the window's result, healed in place or surfaced as a
permanent :class:`~repro.dataflow.repair.QuarantinedWindow` while the
stream keeps settling.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.comm import ops
from repro.core import domain
from repro.core.base import CheckResult
from repro.core.localize import FaultReport, localize_fault
from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.core.zip_checker import check_zip
from repro.dataflow.ops.reduce_by_key import local_aggregate, reduce_by_key
from repro.dataflow.ops.zip_op import zip_arrays
from repro.dataflow.pipeline import (
    AdaptiveCheckPolicy,
    CheckedRunStats,
    _run_stats,
    _settle_sum,
    adaptive_zip_check,
)
from repro.dataflow.repair import (
    QuarantinedWindow,
    RepairPolicy,
    _gather_chunks,
    _global_sum,
    _total_side,
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

    def _add_window(self, settled, keep_outputs: bool) -> None:
        """Record one window's ``settle_*_window`` 5-tuple ``(output,
        verdict, stats, record, quarantine)``."""
        output, verdict, stats, record, quarantine = settled
        if keep_outputs:
            self.outputs.append(output)
        self.verdicts.append(verdict)
        self.stats = self.stats.merge(stats)
        self.window_history.append(record)
        if quarantine is not None:
            self.quarantined.append(quarantine)


def window_seed(seed: int, window: int) -> int:
    """Fresh checker randomness per window from one root seed.

    The scalar derivation of the seed a window settles under; window
    loops and service tenants read the same values from blocks
    (:class:`_WindowSeeds`).
    """
    return derive_seed(seed, "stream-window", window)


#: Most consecutive windows whose seeds (and, for the sum family, one-seed
#: primaries) a window loop derives in one vectorized call (see
#: :class:`_WindowSeeds`).
_SEED_BLOCK = 64


class _WindowSeeds:
    """Window seeds, derived in blocks of up to 64 windows.

    Window ``w`` checks under ``window_seed(seed, w)``, about fifteen
    scalar SplitMix steps (~10 µs) when derived on its own.  Here one
    :func:`~repro.util.rng.derive_seed_array` call derives a block of
    windows' seeds and each window reads its own
    (:meth:`window_seed`).  The block opened at window ``w`` covers
    ``min(max(w, 1), 64)`` windows (blocks start at 0, 1, 2, 4, … 64,
    128, 192, …): a short stream never derives more than twice the
    windows it settles, and a long stream derives 64 windows per call.
    Every seed equals its per-window derivation.  (The seeds of one
    block are distinct: the last SplitMix step is a bijection of
    ``state ^ w``.)  Zip windows read their seeds here.  ``seed`` must
    be an integer, as :func:`window_seed` requires: a float root would
    reach the block derivation truncated (0.4 and 0.6 alike as 0).
    """

    def __init__(self, seed: int):
        self.seed = operator.index(seed)
        self._seeds = np.zeros(0, dtype=np.uint64)
        self._first = 0

    def _offset(self, window: int) -> int:
        """Window ``window``'s index in the block, deriving the block if
        none covers it."""
        offset = window - self._first
        if not 0 <= offset < self._seeds.size:
            size = min(max(window, 1), _SEED_BLOCK)
            self._seeds = derive_seed_array(
                self.seed,
                "stream-window",
                np.arange(window, window + size, dtype=np.uint64),
            )
            self._first, offset = window, 0
            self._opened()
        return offset

    def _opened(self) -> None:
        """Hook: a new block of seeds was derived into ``_seeds``."""

    def window_seed(self, window: int) -> int:
        """``window_seed(seed, window)``, read from the block."""
        offset = self._offset(window)
        return int(self._seeds[offset])


class _WindowCheckers(_WindowSeeds):
    """One-seed window primaries, derived with their seed blocks.

    Deriving a window's moduli and hash seeds one window at a time costs
    tens of µs of scalar SplitMix chains and numpy dispatch per window;
    here each block of window seeds (:class:`_WindowSeeds`) builds one
    multi-seed :class:`~repro.core.multiseed.MultiSeedSumChecker`, and a
    window settles with its
    :meth:`~repro.core.multiseed.MultiSeedSumChecker.seed_view`.  Every
    value equals its per-window derivation, so tables, verdicts and
    window records are unchanged.
    """

    def __init__(self, config: SumCheckConfig, seed: int):
        super().__init__(seed)
        self.config = config
        self._block: MultiSeedSumChecker | None = None

    def _opened(self) -> None:
        self._block = MultiSeedSumChecker(self.config, self._seeds)

    def view(self, window: int) -> MultiSeedSumChecker:
        """Window ``window``'s primary."""
        offset = self._offset(window)
        return self._block.seed_view(offset)


def _window_primary(
    config: SumCheckConfig,
    seed_w: int | None,
    window: int,
    checkers: _WindowCheckers | None,
) -> tuple[int, MultiSeedSumChecker]:
    """A settle's seed and its one-seed primary.

    ``seed_w=None`` is the window seed, read from the block of
    ``checkers``.  The primary is the block view when ``checkers`` checks
    that seed under ``config`` (an attempt under the window seed), else a
    new ``MultiSeedSumChecker(config, [seed_w])`` (a daemon retry's fresh
    seed, or a settle called without ``checkers``).
    """
    if seed_w is None:
        seed_w = checkers.window_seed(window)
    if checkers is not None and checkers.config == config:
        view = checkers.view(window)
        if int(view.seeds[0]) == seed_w:
            return seed_w, view
    return seed_w, MultiSeedSumChecker(config, [seed_w])


class _ChunkSource:
    """Shared chunk plumbing of the streaming DIAs."""

    def __init__(self, comm, chunks):
        self.comm = comm
        self._chunks = iter(chunks)

    def _windows(self, chunks_per_window: int, *others: _ChunkSource):
        """Yield ``(w, windows)`` for window ``w = 0, 1, …``: ``windows``
        holds this PE's next ``chunks_per_window`` chunks (fewer, or none,
        at the end) of this source, then of each of ``others``.

        One ``allreduce`` per window agrees whether ANY PE still has
        data: PEs whose local streams ran dry keep settling empty windows
        until every PE is dry, since windows are a global construct.
        """
        if chunks_per_window < 1:
            raise ValueError(
                f"chunks_per_window must be >= 1, got {chunks_per_window}"
            )
        for w in itertools.count():
            windows = [
                list(itertools.islice(source._chunks, chunks_per_window))
                for source in (self, *others)
            ]
            live = any(windows)
            if self.comm is not None:
                live = self.comm.allreduce(live, op=ops.LOR)
            if not live:
                return
            yield w, windows


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
        for w, (window,) in self._windows(chunks_per_window):
            run._add_window(
                settle_sum_window(
                    self.comm,
                    window,
                    config=config,
                    window=w,
                    policy=policy,
                    reexecute=reexecute,
                    repair=repair,
                    fault=fault,
                    checkers=checkers,
                ),
                keep_outputs,
            )
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
        checker reuses them, fingerprinting the whole window in one
        allreduce — the positional fingerprint admits no condensation, so
        the window's arrays are retained exactly until its settle (and,
        with a ``policy``, its escalation) completes.  Window ``w``
        settles under ``window_seed(seed, w)``, read from a block of
        window seeds (:class:`_WindowSeeds`).

        A ``reexecute(window_id, key_ranges)`` callback must return
        ``(chunks1, chunks2)`` — this PE's complete chunks for both
        streams of the window — and heals rejected windows through
        :func:`~repro.dataflow.repair.repair_zip_window`: the fingerprint
        carries no key ranges to bisect, so every attempt re-runs the zip
        exchange outright and re-settles under escalating seeds.
        """
        seeds = _WindowSeeds(seed)
        run = StreamingCheckedRun()
        for w, (window1, window2) in self._windows(chunks_per_window, other):
            run._add_window(
                settle_zip_window(
                    self.comm,
                    window1,
                    window2,
                    seed_w=seeds.window_seed(w),
                    window=w,
                    iterations=iterations,
                    policy=policy,
                    reexecute=reexecute,
                    repair=repair,
                    fault=fault,
                ),
                keep_outputs,
            )
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

        Every chunk is locally pre-aggregated as it arrives; the window
        runs one key-partitioned exchange, then the checker folds the
        window's raw pairs and its output in one pass and settles one
        verdict.  With a ``policy`` the settle is adaptive: 1 seed inline,
        escalation lanes evaluated against the window's sides condensed
        once.

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
        for w, (window,) in self._windows(chunks_per_window):
            run._add_window(
                settle_reduce_window(
                    self.comm,
                    window,
                    config=config,
                    window=w,
                    partitioner=partitioner,
                    policy=policy,
                    reexecute=reexecute,
                    repair=repair,
                    fault=fault,
                    checkers=checkers,
                ),
                keep_outputs,
            )
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


def _repaired(outcome, record, stats, repair, output, report=None):
    """The settle 5-tuple of a rejected window whose repair loop ended in
    ``outcome``: ``output`` and ``record``'s verdict stand unless it
    healed, and ``record`` and ``stats`` gain the repair trail."""
    record.report = report
    record.repair_attempts = outcome.attempts
    for attempt in range(outcome.attempts):
        record.seeds_used += [
            int(s) for s in repair.attempt_seed_roots(record.seed, attempt)
        ]
    quarantine = None
    if outcome.healed:
        output = outcome.output
        record.verdict = outcome.verdicts[-1]
        record.accepted = record.repaired = True
    else:
        record.quarantined = True
        quarantine = outcome.quarantine()
    stats = replace(
        stats,
        repaired_windows=1 if outcome.healed else 0,
        quarantined_windows=0 if outcome.healed else 1,
    )
    if report is not None:
        stats = replace(
            stats,
            localized=bool(report.localized),
            bisection_rounds=report.bisection_rounds,
            localization_seconds=report.localization_seconds,
        )
    return output, record.verdict, stats, record, quarantine


def settle_reduce_window(
    comm,
    chunks,
    *,
    config: SumCheckConfig,
    seed_w: int | None = None,
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

    ``checkers`` is the window loop's :class:`_WindowCheckers`.  Without
    a ``seed_w`` the settle reads the window seed from its block, and a
    settle under the window seed takes that window's block view as its
    primary (deriving the block when this window opens one).  Without
    ``checkers``, or under another seed, the settle builds
    ``MultiSeedSumChecker(config, [seed_w])``.  Either way the seed and
    the primary cost checker time.

    The checker keeps the window's raw chunks and, once the operation
    has run, folds them together with its output as one signed multiset
    (:meth:`~repro.core.multiseed.MultiSeedSumChecker.local_difference`,
    which coerces each chunk on its own): one concatenation and one hash
    pass per window instead of one per side.  The fold hands back the
    concatenated input side, which an escalation or a localization reads.
    """
    chunks = list(chunks)

    def _operation(comm_, keys, values, part):
        if fault is not None:
            keys, values = fault(window, keys, values)
        return reduce_by_key(comm_, keys, values, part)

    t0 = time.perf_counter()
    parts = [local_aggregate(keys, values) for keys, values in chunks]
    c0 = time.perf_counter()
    seed_w, primary = _window_primary(config, seed_w, window, checkers)
    t1 = time.perf_counter()
    merged_k, merged_v = local_aggregate(
        _gather_chunks([k for k, _ in parts], domain.words),
        _gather_chunks([v for _, v in parts], domain.values),
    )
    out_k, out_v = _operation(comm, merged_k, merged_v, partitioner)
    t2 = time.perf_counter()
    diff, in_side = primary.local_difference(
        ([k for k, _ in chunks], [v for _, v in chunks]), (out_k, out_v)
    )
    sides = [in_side, (out_k, out_v)]
    verdict = _settle_sum(
        primary, diff, sides, seed_w, policy, comm, streaming=True
    )
    t3 = time.perf_counter()
    stats = _run_stats(
        verdict,
        operation_seconds=(c0 - t0) + (t2 - t1),
        checker_seconds=(t1 - c0) + (t3 - t2),
        windows=1,
        elements_fed=int(in_side[0].size),
    )
    record = _window_record(window, verdict, seed_w, policy)
    if verdict.accepted or reexecute is None:
        return (out_k, out_v), verdict, stats, record, None
    repair = repair or RepairPolicy()
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
        old_output=(out_k, out_v),
        policy=repair,
        report=report,
        partitioner=partitioner,
        recompute=_operation if fault is not None else None,
    )
    return _repaired(outcome, record, stats, repair, (out_k, out_v), report)


def settle_sum_window(
    comm,
    chunks,
    *,
    config: SumCheckConfig,
    seed_w: int | None = None,
    window: int,
    policy: AdaptiveCheckPolicy | None = None,
    reexecute=None,
    repair: RepairPolicy | None = None,
    fault=None,
    checkers: _WindowCheckers | None = None,
):
    """Settle one windowed-sum window over its local value chunks.

    The checker sees every element as a ``(0, value)`` pair and the
    asserted global total as one output pair on PE 0, both folded in one
    pass.  Same return shape and ``seed_w`` / ``checkers`` contract as
    :func:`settle_reduce_window`.
    """
    chunks = list(chunks)
    t0 = time.perf_counter()
    # The operation's own copy: the black box never touches the chunks
    # the checker reads.
    values = _gather_chunks(chunks, domain.values)
    c0 = time.perf_counter()
    seed_w, primary = _window_primary(config, seed_w, window, checkers)
    checker_s = time.perf_counter() - c0

    def _operation(comm_, values):
        if fault is not None:
            values = fault(window, values)
        return _global_sum(comm_, values)

    total = _operation(comm, values)
    t_op_done = time.perf_counter()
    out_side = _total_side(comm, total)
    diff, in_side = primary.local_difference(
        ([np.zeros_like(values, dtype=np.uint64)], chunks), out_side
    )
    verdict = _settle_sum(
        primary, diff, [in_side, out_side], seed_w, policy, comm,
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
    if verdict.accepted or reexecute is None:
        return total, verdict, stats, record, None
    repair = repair or RepairPolicy()
    outcome = repair_sum_window(
        comm,
        window,
        seed_w,
        config,
        reexecute,
        repair,
        recompute=_operation if fault is not None else None,
    )
    return _repaired(outcome, record, stats, repair, total)


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

    Same return shape as :func:`settle_reduce_window`.  The checker
    fingerprints the window's gathered inputs and the zipped output once,
    at the offsets the zip exchange computed, through
    :func:`~repro.core.zip_checker.check_zip` (or
    :func:`~repro.dataflow.pipeline.adaptive_zip_check` under a
    ``policy``).  ``fault`` (when given) corrupts the zipped output
    columns — the operation's product — while the checker keeps
    fingerprinting the original inputs.
    """
    t0 = time.perf_counter()
    w1 = domain.concat(window1)
    w2 = domain.concat(window2)

    def _operation(comm_, s1, s2):
        first, second, offs = zip_arrays(comm_, s1, s2, return_offsets=True)
        if fault is not None:
            first, second = fault(window, first, second)
        return first, second, offs

    first, second, (off1, off2) = _operation(comm, w1, w2)
    t1 = time.perf_counter()
    offsets = (off1, off2, off1)
    if policy is None:
        verdict = check_zip(
            w1, w2, first, second,
            iterations=iterations, seed=seed_w, comm=comm, offsets=offsets,
        )
    else:
        verdict = adaptive_zip_check(
            w1, w2, first, second, seed=seed_w, policy=policy, comm=comm,
            iterations=iterations, offsets=offsets,
        )
    t2 = time.perf_counter()
    stats = _run_stats(
        verdict,
        operation_seconds=t1 - t0,
        checker_seconds=t2 - t1,
        windows=1,
        elements_fed=int(w1.size + w2.size),
    )
    record = _window_record(window, verdict, seed_w, policy)
    if verdict.accepted or reexecute is None:
        return (first, second), verdict, stats, record, None
    repair = repair or RepairPolicy()
    outcome = repair_zip_window(
        comm,
        window,
        seed_w,
        iterations,
        reexecute,
        repair,
        recompute=_operation if fault is not None else None,
    )
    return _repaired(outcome, record, stats, repair, (first, second))


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
