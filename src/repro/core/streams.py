"""Unified ``CheckerStream`` protocol: chunk-at-a-time checking, one settle.

The paper integrates its checkers *inline* with the operations (§7:
"elements are forwarded to the checker as they are passed to the
reduction"), which means the natural execution model is a one-pass stream:
chunks of the operation's input and asserted output arrive in arbitrary
order, the checker folds each chunk into bounded per-key state, and the
verdict settles once — exactly the annotated-stream model of the related
work (Chakrabarti et al.; François & Magniez).

Every stream in this module follows one protocol:

* ``feed_input(...)`` — account a chunk of the operation's input;
* ``feed_output(...)`` — account a chunk of the asserted output;
* ``settle(comm=None) -> CheckResult`` — combine across PEs (one
  data-bearing collective when distributed) and produce the verdict.

A stream settles **exactly once**: feeding after settle or settling twice
raises ``RuntimeError`` uniformly (the distributed settle runs a metered
reduction, so silently re-running it would double-count network traffic).

All streams fold chunks into the *condensed* aggregates of
:mod:`repro.core.multiseed` (:func:`condense_kv` per-key aggregates for the
sum family, :func:`condense_side` (uniques, counts) pairs for the
permutation family), so memory stays O(unique keys) regardless of how many
chunks stream through, and verdicts are **bit-identical** to the batch
checker fed the concatenated input (the minireduction table and the
hash-sum fingerprint are linear in the multiset of pairs/elements).
Multi-seed variants ride the same condensed state: pass an array of seeds
where a scalar is accepted and all ``T`` lanes evaluate against the one
condensation.

The zip checker is the one exception to condensation: its fingerprint is
*positional* (order-sensitive), so :class:`ZipCheckerStream` instead
accumulates the running inner-product fingerprints chunk by chunk — state
O(seeds · iterations), one allreduce at settle (versus one per iteration
in the batch checker).
"""

from __future__ import annotations

import numpy as np

from repro.core.average_checker import reconstruct_sums
from repro.core.base import CheckResult
from repro.core.groupby_checker import encode_records
from repro.core.integrity import replicated_digest, replicated_digest_multiseed
from repro.core.multiseed import (
    CondensedKV,
    MultiSeedHashSumChecker,
    MultiSeedSumChecker,
    _coerce_seeds,
    _pairs_condensed,
    condense_kv,
)
from repro.core.params import SumCheckConfig
from repro.core.permutation_checker import _as_sequences
from repro.core.sum_checker import (
    _CHUNK_BITS,
    SumAggregationChecker,
    _coerce_keys,
    _coerce_values,
    _magnitude_bound,
)
from repro.core.zip_checker import MERSENNE31, positional_fingerprint
from repro.kernels import get_kernels
from repro.util.rng import derive_seed, derive_seed_array

_DEFAULT_CONFIG = SumCheckConfig(iterations=8, d=16, rhat=1 << 15)
_INT64_LIMIT = 1 << 63
_INT64_MAX = np.iinfo(np.int64).max
_SETTLED_MSG = "stream already settled"


class CheckerStream:
    """Base of the streaming protocol: the settle-once state machine.

    Subclasses implement ``feed_input`` / ``feed_output`` (guarding with
    :meth:`_ensure_open`) and the family-specific :meth:`_settle`; the
    public :meth:`settle` enforces the settle-exactly-once contract that
    the whole protocol shares.
    """

    def __init__(self):
        self._settled = False

    def _ensure_open(self) -> None:
        if self._settled:
            raise RuntimeError(_SETTLED_MSG)

    def settle(self, comm=None) -> CheckResult:
        """Combine across PEs (if distributed) and produce the verdict."""
        self._ensure_open()
        self._settled = True
        return self._settle(comm)

    def _settle(self, comm) -> CheckResult:  # pragma: no cover - abstract
        raise NotImplementedError


def _explode_wide_sums(
    keys: np.ndarray, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Represent arbitrary-precision per-key sums as int64 pairs.

    The minireduction table is linear in the multiset of pairs, so a
    per-key sum too large for int64 can be split into several pairs whose
    values do fit — table-neutral, and only ever exercised after the
    accumulator promoted to Python ints (astronomically large inputs).
    """
    limit = 1 << 62
    out_k: list[int] = []
    out_v: list[int] = []
    for k, s in zip(keys.tolist(), sums.tolist()):
        s = int(s)
        while s > limit:
            out_k.append(k)
            out_v.append(limit)
            s -= limit
        while s < -limit:
            out_k.append(k)
            out_v.append(-limit)
            s += limit
        out_k.append(k)
        out_v.append(s)
    return np.array(out_k, dtype=np.uint64), np.array(out_v, dtype=np.int64)


#: StreamedKV compaction tuning.  A merge factor ``f`` merges while the
#: previous segment holds at most ``f×`` the newest segment's keys, so
#: higher factors merge more eagerly.  The factor adapts to the observed
#: duplicate ratio: merges that barely shrink (mostly-unique feeds, where
#: compaction is pure data movement) halve it down to the floor, merges
#: that collapse heavily (duplicate-heavy feeds, where early compaction
#: keeps later merges small) double it back up to the cap.
_MERGE_FACTOR_START = 2.0
_MERGE_FACTOR_MIN = 0.125
_MERGE_FACTOR_MAX = 4.0
_SHRINK_LOWER = 0.9  # merged/unmerged size above this → lower the factor
_SHRINK_RAISE = 0.6  # ... below this → raise it
#: Deferred-merge backstop: past this many segments, one concat-all
#: compaction bounds both memory overhead and the settle-time merge cost.
_MAX_SEGMENTS = 64


class StreamedKV:
    """Streaming fold of :func:`condense_kv`: exact per-key aggregates.

    Chunks are condensed on arrival and compacted into geometrically
    decreasing segments, so total memory stays O(unique keys) — segment
    sizes are geometric, their sum is at most a small multiple of the
    largest, and no segment exceeds the global unique-key count — while
    total merge work stays O(n log(chunks)).  The merge threshold adapts
    to the observed duplicate ratio (see :data:`_MERGE_FACTOR_START`):
    all-unique feeds, where merging never shrinks anything, defer
    compaction (up to :data:`_MAX_SEGMENTS` segments, then one concat-all
    pass) instead of re-merging every element O(log chunks) times.
    Segment merges run on the active kernel tier
    (:mod:`repro.kernels`; the numba tier's two-pointer merge avoids the
    concat + sort of the numpy path).

    Exactness mirrors the batch condensation's magnitude guards: per-chunk
    aggregation uses the float64 bincount fast path when provably exact,
    int64 scatter-adds otherwise, and promotes the whole accumulator to
    Python ints in the (astronomical) regime where a running per-key sum
    could overflow int64.
    """

    def __init__(self, operator: str = "+"):
        if operator not in ("+", "xor"):
            raise ValueError(f"unsupported reduce operator {operator!r}")
        self.operator = operator
        self._segments: list[tuple[np.ndarray, np.ndarray]] = []
        self.elements = 0
        self._bound = 0  # conservative bound on any per-key |aggregate|
        self._merge_factor = _MERGE_FACTOR_START
        self.compactions = 0  # segment merges performed (observability)

    def fold(self, keys, values) -> None:
        """Fold one (keys, values) chunk into the condensed state."""
        keys = _coerce_keys(keys)
        values = _coerce_values(values)
        if keys.size != values.size:
            raise ValueError(
                f"keys and values differ in length: {keys.size} vs {values.size}"
            )
        if keys.size == 0:
            return
        self.elements += int(keys.size)
        uk, inv = np.unique(keys, return_inverse=True)
        if self.operator == "xor":
            agg: np.ndarray = np.zeros(uk.size, dtype=np.uint64)
            np.bitwise_xor.at(agg, inv, values.view(np.uint64))
        else:
            # Σ|v| of the chunk bounds every per-key contribution; the
            # running total then bounds any per-key aggregate of the whole
            # stream (each is a subset sum of all folded values).
            chunk_bound = _magnitude_bound(values)
            self._bound += chunk_bound
            if self._bound >= _INT64_LIMIT:
                # A running per-key sum could no longer be proven to fit
                # int64: promote everything to exact Python ints.
                agg = np.zeros(uk.size, dtype=object)
                np.add.at(agg, inv, values.astype(object))
                self._segments = [
                    (k, a.astype(object)) for k, a in self._segments
                ]
            elif chunk_bound < (1 << _CHUNK_BITS):
                agg = np.bincount(
                    inv, weights=values.astype(np.float64), minlength=uk.size
                ).astype(np.int64)
            else:
                agg = np.zeros(uk.size, dtype=np.int64)
                np.add.at(agg, inv, values)
        self._segments.append((uk, agg))
        self._compact()

    def _merge(
        self, a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        if a[1].dtype == object:
            # Python-int promoted regime: numpy scatter keeps exact
            # arbitrary-precision sums (both segments promote together).
            keys = np.concatenate([a[0], b[0]])
            aggs = np.concatenate([a[1], b[1]])
            uk, inv = np.unique(keys, return_inverse=True)
            out = np.zeros(uk.size, dtype=object)
            np.add.at(out, inv, aggs)
            return uk, out
        kernels = get_kernels()
        if self.operator == "xor":
            return kernels.merge_sorted_unique_xor(a[0], a[1], b[0], b[1])
        return kernels.merge_sorted_unique_sum(a[0], a[1], b[0], b[1])

    def _compact(self) -> None:
        segs = self._segments
        if len(segs) > _MAX_SEGMENTS:
            self.merged()
            return
        while (
            len(segs) > 1
            and segs[-2][0].size <= self._merge_factor * segs[-1][0].size
        ):
            b = segs.pop()
            a = segs.pop()
            before = a[0].size + b[0].size
            merged = self._merge(a, b)
            self.compactions += 1
            shrink = merged[0].size / before if before else 1.0
            if shrink > _SHRINK_LOWER:
                self._merge_factor = max(
                    self._merge_factor / 2, _MERGE_FACTOR_MIN
                )
            elif shrink < _SHRINK_RAISE:
                self._merge_factor = min(
                    self._merge_factor * 2, _MERGE_FACTOR_MAX
                )
            segs.append(merged)

    @property
    def unique_count(self) -> int:
        return sum(int(k.size) for k, _ in self._segments)

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """All state as one (unique keys, exact aggregates) pair."""
        if len(self._segments) > 1:
            # One concat-all + single scatter, not pairwise merges: with
            # deferred compaction there can be tens of segments, and the
            # pairwise chain would re-touch the big segments once each.
            keys = np.concatenate([k for k, _ in self._segments])
            aggs = np.concatenate([a for _, a in self._segments])
            uk, inv = np.unique(keys, return_inverse=True)
            out = np.zeros(uk.size, dtype=aggs.dtype)
            if self.operator == "xor":
                np.bitwise_xor.at(out, inv, aggs)
            else:
                np.add.at(out, inv, aggs)
            self._segments = [(uk, out)]
            self.compactions += 1
        if not self._segments:
            empty_vals = np.zeros(
                0, dtype=np.uint64 if self.operator == "xor" else np.int64
            )
            return np.zeros(0, dtype=np.uint64), empty_vals
        return self._segments[0]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The state as an int64 (keys, values) multiset (table-neutral)."""
        keys, aggs = self.merged()
        if self.operator == "xor":
            return keys, aggs.view(np.int64)
        if aggs.dtype == object:
            return _explode_wide_sums(keys, aggs)
        return keys, aggs

    def condensed(self) -> CondensedKV:
        """The accumulated state as a batch-compatible :class:`CondensedKV`.

        This is what multi-seed evaluation and adaptive escalation consume
        — any number of seed lanes run against it without re-reading a
        single chunk.  Built directly from the merged segments (they are
        already sorted-unique with exact aggregates), so settle pays no
        second ``np.unique`` pass; field-for-field identical to
        ``condense_kv(*self.pairs(), self.operator)``.
        """
        keys, aggs = self.merged()
        identity = np.arange(keys.size, dtype=np.intp)
        if self.operator == "xor":
            return CondensedKV(
                keys, identity, aggs.view(np.int64), None, None,
                aggs if keys.size else None,
            )
        if aggs.dtype == object:
            # Wide (beyond-int64) sums need the int64-pair explosion;
            # route through the generic batch condensation.
            return condense_kv(*self.pairs(), self.operator)
        agg = agg_float = None
        if keys.size:
            bound = _magnitude_bound(aggs)
            if bound < (1 << _CHUNK_BITS):
                agg = aggs
                agg_float = aggs.astype(np.float64)
            elif bound < _INT64_LIMIT:
                agg = aggs
        return CondensedKV(keys, identity, aggs, agg, agg_float, None)


class StreamedSide:
    """Streaming fold of :func:`condense_side`: (uniques, counts) pairs.

    The permutation-family analog of :class:`StreamedKV`, with the same
    geometric segment compaction; counts accumulate exactly in int64.
    """

    def __init__(self):
        self._segments: list[tuple[np.ndarray, np.ndarray]] = []
        self.elements = 0

    def fold(self, side) -> None:
        """Fold one chunk (an array, or a list of arrays) into the state."""
        for seq in _as_sequences(side):
            if seq.size == 0:
                continue
            self.elements += int(seq.size)
            uniques, counts = np.unique(seq, return_counts=True)
            self._segments.append((uniques, counts.astype(np.int64)))
            self._compact()

    def _merge(self, a, b):
        uniques = np.concatenate([a[0], b[0]])
        counts = np.concatenate([a[1], b[1]])
        uk, inv = np.unique(uniques, return_inverse=True)
        out = np.zeros(uk.size, dtype=np.int64)
        np.add.at(out, inv, counts)
        return uk, out

    def _compact(self) -> None:
        segs = self._segments
        while len(segs) > 1 and segs[-2][0].size <= 2 * segs[-1][0].size:
            b = segs.pop()
            a = segs.pop()
            segs.append(self._merge(a, b))

    def condensed(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batch-compatible condensation (see :func:`condense_side`)."""
        while len(self._segments) > 1:
            b = self._segments.pop()
            a = self._segments.pop()
            self._segments.append(self._merge(a, b))
        return list(self._segments)


def _as_seed_array(seeds) -> tuple[np.ndarray, bool]:
    """Normalise scalar-or-array seeds; returns (array, was_scalar)."""
    scalar = np.ndim(seeds) == 0
    return _coerce_seeds(np.atleast_1d(np.asarray(seeds))), scalar


# ---------------------------------------------------------------------------
# Sum family (§4): sum / count, single- and multi-seed
# ---------------------------------------------------------------------------


class _CondensingSumStream(CheckerStream):
    """Shared feed layer of the sum-family streams: two StreamedKV sides."""

    def __init__(self, operator: str):
        super().__init__()
        self._input = StreamedKV(operator)
        self._output = StreamedKV(operator)

    def feed_input(self, keys, values) -> None:
        """Account a chunk of the operation's input stream."""
        self._ensure_open()
        self._input.fold(keys, values)

    def feed_output(self, keys, values) -> None:
        """Account a chunk of the asserted output stream."""
        self._ensure_open()
        self._output.fold(keys, values)

    @property
    def elements_fed(self) -> int:
        """Input-side elements folded so far (the stream's consumption)."""
        return self._input.elements

    def condensed_input(self) -> CondensedKV:
        return self._input.condensed()

    def condensed_output(self) -> CondensedKV:
        return self._output.condensed()


class SumCheckerStream(_CondensingSumStream):
    """Streaming facade over :class:`SumAggregationChecker`.

    Thrill forwards elements to the checker *as they pass through* the
    reduction (§7); this class mirrors that integration style: feed input
    pairs and output pairs in arbitrary chunk order, then settle the
    verdict once.  Chunks fold into exact per-key aggregates (the
    minireduction table is linear in the multiset of pairs, so condensed
    accumulation is verdict-identical to the batch checker).

    Memory is O(unique keys) between feeds — deliberately richer than a
    direct O(iterations·d) table fold would be: the retained condensation
    is what lets multi-seed lanes and fault localization run against the
    stream without ever re-reading a chunk.  Feeds over an unbounded key
    universe should settle in windows (see
    :mod:`repro.dataflow.streaming`) rather than grow one stream forever.
    """

    def __init__(self, checker: SumAggregationChecker):
        super().__init__(checker.operator)
        self.checker = checker

    def _tables(self, streamed: StreamedKV) -> np.ndarray:
        return self.checker.local_tables(*streamed.pairs())

    def _settle(self, comm) -> CheckResult:
        diff = self.checker.difference(
            self._tables(self._input), self._tables(self._output)
        )
        if comm is None:
            verdict = not np.any(diff)
        else:

            def wire_op(a: bytes, b: bytes) -> bytes:
                return self.checker.pack(
                    self.checker.combine(
                        self.checker.unpack(a), self.checker.unpack(b)
                    )
                )

            combined = comm.reduce(self.checker.pack(diff), wire_op, root=0)
            verdict = None
            if comm.rank == 0:
                verdict = not np.any(self.checker.unpack(combined))
            verdict = comm.bcast(verdict, root=0)
        return CheckResult(
            accepted=bool(verdict),
            checker="sum-aggregation",
            details={
                "config": self.checker.config.label(),
                "streaming": True,
            },
        )


#: Chunk unique-key ratio at or above which the ``fused="auto"``
#: multi-seed stream folds each chunk's lane tables immediately instead
#: of retaining condensed per-key aggregates.  Mostly-unique feeds gain
#: nothing from condensation (the settle-time hash pass would touch as
#: many keys as the chunks held) but pay its segment merges; duplicate-
#: heavy feeds (e.g. Zipf keys) hash far fewer keys by condensing first.
_FUSED_UNIQUE_RATIO = 0.9
# Condense-mode sides coalesce raw chunks to this many elements before
# folding them into the StreamedKV: one sort per ~2^18 elements instead
# of one per chunk, and proportionally fewer segment merges.  Scratch
# stays bounded by the coalesce budget plus one chunk.
_CONDENSE_COALESCE = 1 << 18


class _FusedSumSide:
    """One side of :class:`MultiSeedSumCheckerStream`.

    ``mode`` is ``"condense"`` (retain a :class:`StreamedKV`; all lane
    tables evaluate once at settle against the global condensation),
    ``"fused"`` (fold each chunk's ``(T, iterations, d)`` tables into a
    running tensor as the chunk arrives — table accumulation is a mod-r
    homomorphism, so the combined tables are bit-identical to the batch
    tables of the concatenated feed — and retain nothing per-key), or
    ``"auto"`` (decide per side from the first chunk's unique-key
    ratio, :data:`_FUSED_UNIQUE_RATIO`).

    Condense-mode chunks are coalesced to :data:`_CONDENSE_COALESCE`
    elements before folding (fewer sorts and segment merges, identical
    aggregates); fused-mode chunks skip condensation entirely and fold
    their lane tables straight from the raw pairs.
    """

    def __init__(self, checker: MultiSeedSumChecker, mode: str):
        self.checker = checker
        self.mode = mode
        self.kv = StreamedKV(checker.operator)
        self.tables: np.ndarray | None = None
        self.elements = 0
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_elements = 0
        # Fused mode: whether per-chunk condensation still pays (set from
        # the first fused chunk's unique ratio; None = not yet probed).
        self._fused_condense: bool | None = None

    def _queue(self, keys, values) -> None:
        """Coalesce condense-mode chunks before they hit the StreamedKV.

        Folding every 64k-element chunk individually pays one sort plus a
        segment-merge chain per chunk; queueing up to
        :data:`_CONDENSE_COALESCE` elements first amortizes both.  The
        per-key aggregates are order- and grouping-insensitive, so the
        settled condensation is bit-identical either way.
        """
        self._pending.append((keys, values))
        self._pending_elements += int(keys.size)
        if self._pending_elements >= _CONDENSE_COALESCE:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        if len(self._pending) == 1:
            keys, values = self._pending[0]
        else:
            keys = np.concatenate([k for k, _ in self._pending])
            values = np.concatenate([v for _, v in self._pending])
        self._pending.clear()
        self._pending_elements = 0
        self.kv.fold(keys, values)

    def fold(self, keys, values) -> None:
        keys = _coerce_keys(keys)
        values = _coerce_values(values)
        if keys.size != values.size:
            raise ValueError(
                f"keys and values differ in length: {keys.size} vs {values.size}"
            )
        if keys.size == 0:
            return
        self.elements += int(keys.size)
        if self.mode == "condense":
            self._queue(keys, values)
            return
        if self.mode == "auto":
            chunk = condense_kv(keys, values, self.checker.operator)
            if chunk.unique_keys.size < _FUSED_UNIQUE_RATIO * keys.size:
                self.mode = "condense"
                # Reuse the probe's sort: the condensed (unique keys,
                # exact aggregates) pair is the same multiset as the raw
                # chunk, so queue it instead of re-condensing.  The
                # beyond-int64 regime leaves ``agg`` unset — queue raw.
                if self.checker.operator == "xor":
                    self._queue(
                        chunk.unique_keys, chunk.agg_xor.view(np.int64)
                    )
                elif chunk.agg is not None:
                    self._queue(chunk.unique_keys, chunk.agg)
                else:
                    self._queue(keys, values)
                return
            self.mode = "fused"
            self._fused_condense = False
        elif self._fused_condense is not False:
            # Forced-fused sides probe their first chunk: on
            # duplicate-heavy feeds condensing before the hash pass still
            # pays (fewer keys to hash per lane), on mostly-unique feeds
            # it is wasted sorting.
            chunk = condense_kv(keys, values, self.checker.operator)
            if self._fused_condense is None:
                self._fused_condense = (
                    chunk.unique_keys.size < _FUSED_UNIQUE_RATIO * keys.size
                )
        else:
            # Mostly-unique fused feed: consume the chunk as a multiset
            # and skip the per-chunk sort — lane tables are linear in the
            # pairs and the exactness guards only depend on Σ|v| (see
            # :func:`_pairs_condensed`).
            chunk = _pairs_condensed(keys, values, self.checker.operator)
        tables = self.checker.local_tables_condensed(chunk)
        self.tables = (
            tables
            if self.tables is None
            else self.checker.combine(self.tables, tables)
        )

    def settle_tables(self) -> np.ndarray:
        """The side's full ``(T, iterations, d)`` tensor at settle."""
        self._flush()
        base = self.checker.local_tables_condensed(self.kv.condensed())
        if self.tables is None:
            return base
        # Fused mode leaves kv empty, so `base` is the ⊕-identity (all
        # zeros) and combining it back is a no-op on the residues.
        return self.checker.combine(self.tables, base)

    def condensed(self) -> CondensedKV:
        if self.tables is not None:
            raise RuntimeError(
                "fused stream side folded chunks into lane tables and "
                "retains no per-key aggregates; construct the stream "
                "with fused=False to keep them"
            )
        self._flush()
        return self.kv.condensed()


class MultiSeedSumCheckerStream(CheckerStream):
    """Streaming facade over :class:`MultiSeedSumChecker`.

    The multi-seed analog of :class:`SumCheckerStream`: by default each
    side adapts to its feed (``fused="auto"``) — duplicate-heavy sides
    retain condensed per-key aggregates and evaluate every ``T ×
    iterations`` lane once at settle; mostly-unique sides fold each
    chunk's lane tables as the chunk arrives and retain nothing per-key
    (no second condensed-keys traversal at settle).  ``fused=True``
    forces chunk-at-a-time table folding, ``fused=False`` the legacy
    always-condense behaviour (required by consumers of
    :meth:`condensed_input` / :meth:`condensed_output`, e.g. fault
    localization).  Either way the distributed settle is a single packed
    collective, and per-seed verdicts are bit-identical to ``T``
    independent ``SumCheckerStream`` instances fed the same chunks.
    """

    def __init__(self, checker: MultiSeedSumChecker, fused="auto"):
        super().__init__()
        if fused not in ("auto", True, False):
            raise ValueError(
                f"fused must be 'auto', True or False, got {fused!r}"
            )
        mode = {"auto": "auto", True: "fused", False: "condense"}[fused]
        self.checker = checker
        self._input = _FusedSumSide(checker, mode)
        self._output = _FusedSumSide(checker, mode)

    def feed_input(self, keys, values) -> None:
        """Account a chunk of the operation's input stream."""
        self._ensure_open()
        self._input.fold(keys, values)

    def feed_output(self, keys, values) -> None:
        """Account a chunk of the asserted output stream."""
        self._ensure_open()
        self._output.fold(keys, values)

    @property
    def elements_fed(self) -> int:
        """Input-side elements folded so far (the stream's consumption)."""
        return self._input.elements

    def condensed_input(self) -> CondensedKV:
        return self._input.condensed()

    def condensed_output(self) -> CondensedKV:
        return self._output.condensed()

    def _settle(self, comm) -> CheckResult:
        diff = self.checker.difference(
            self._input.settle_tables(), self._output.settle_tables()
        )
        per_seed = self.checker.per_seed_verdicts(diff, comm)
        return self.checker._result(
            per_seed, distributed=comm is not None, streaming=True
        )


class CountCheckerStream(CheckerStream):
    """Streaming count aggregation (§4): every input element counts one.

    Wraps the sum stream matching the checker's type (single- or
    multi-seed); ``feed_input`` takes keys only, ``feed_output`` the
    asserted per-key counts.  Verdicts equal
    :func:`~repro.core.sum_checker.check_count_aggregation` (or its
    multi-seed form) on the concatenated input.
    """

    def __init__(self, checker):
        super().__init__()
        if getattr(checker, "operator", "+") != "+":
            raise ValueError("count aggregation requires operator '+'")
        if isinstance(checker, MultiSeedSumChecker):
            self._inner: _CondensingSumStream = MultiSeedSumCheckerStream(
                checker
            )
        elif isinstance(checker, SumAggregationChecker):
            self._inner = SumCheckerStream(checker)
        else:
            raise TypeError(
                "CountCheckerStream needs a SumAggregationChecker or "
                f"MultiSeedSumChecker, got {type(checker).__name__}"
            )

    def feed_input(self, keys) -> None:
        """Account a chunk of input keys (each contributes count 1)."""
        keys = np.asarray(keys)
        self._inner.feed_input(keys, np.ones(keys.shape, dtype=np.int64))

    def feed_output(self, keys, counts) -> None:
        """Account a chunk of the asserted (key, count) output."""
        self._inner.feed_output(keys, counts)

    @property
    def elements_fed(self) -> int:
        return self._inner.elements_fed

    def _settle(self, comm) -> CheckResult:
        return self._inner.settle(comm)


# ---------------------------------------------------------------------------
# Average (§6.1, Corollary 8)
# ---------------------------------------------------------------------------


class AverageCheckerStream(CheckerStream):
    """Streaming Corollary 8: per-key averages with the count certificate.

    ``feed_output`` chunks carry the asserted exact rationals plus the
    certificate counts; the division is undone chunk-locally (the
    reconstruction is row-wise, so chunking is exact) and both coupled
    §6.1 columns (values and counts) fold into condensed per-key state.
    All seeds settle in one packed reduction carrying both columns.
    Scalar ``seeds`` reproduces :func:`check_average_aggregation`; an
    array reproduces the multi-seed variant per seed.
    """

    def __init__(self, seeds, config: SumCheckConfig | None = None):
        super().__init__()
        self.config = config or _DEFAULT_CONFIG
        seed_arr, self._scalar = _as_seed_array(seeds)
        self.checker = MultiSeedSumChecker(self.config, seed_arr)
        self._in_values = StreamedKV()
        self._in_counts = StreamedKV()
        self._out_sums = StreamedKV()
        self._out_counts = StreamedKV()
        self._structural_ok = True

    def feed_input(self, keys, values) -> None:
        """Account a chunk of the operation's (key, value) input."""
        self._ensure_open()
        keys = np.asarray(keys)
        self._in_values.fold(keys, values)
        self._in_counts.fold(keys, np.ones(keys.shape, dtype=np.int64))

    @property
    def elements_fed(self) -> int:
        return self._in_values.elements

    def feed_output(self, keys, numerators, denominators, counts) -> None:
        """Account a chunk of asserted averages (num/den) + count certificate."""
        self._ensure_open()
        sums, valid = reconstruct_sums(numerators, denominators, counts)
        self._structural_ok &= bool(np.all(valid))
        self._out_sums.fold(keys, sums)
        self._out_counts.fold(keys, np.asarray(counts, dtype=np.int64).ravel())

    def _settle(self, comm) -> CheckResult:
        checker = self.checker
        diff_values = checker.difference(
            checker.local_tables_condensed(self._in_values.condensed()),
            checker.local_tables_condensed(self._out_sums.condensed()),
        )
        diff_counts = checker.difference(
            checker.local_tables_condensed(self._in_counts.condensed()),
            checker.local_tables_condensed(self._out_counts.condensed()),
        )
        if comm is None:
            values_ok = ~np.any(diff_values != 0, axis=(1, 2))
            counts_ok = ~np.any(diff_counts != 0, axis=(1, 2))
            per_seed = [
                self._structural_ok and bool(v and c)
                for v, c in zip(values_ok, counts_ok)
            ]
        else:
            # One reduction carries the structural flag and both columns
            # for every seed (exactly the batch multi-seed wire format).
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
                self._structural_ok,
                checker.pack(diff_values),
                checker.pack(diff_counts),
            )
            combined = comm.reduce(payload, wire_op, root=0)
            per_seed = None
            if comm.rank == 0:
                ok, values_packed, counts_packed = combined
                values_ok = ~np.any(checker.unpack(values_packed), axis=(1, 2))
                counts_ok = ~np.any(checker.unpack(counts_packed), axis=(1, 2))
                per_seed = [
                    ok and bool(v and c)
                    for v, c in zip(values_ok, counts_ok)
                ]
            per_seed = comm.bcast(per_seed, root=0)
        name = (
            "average-aggregation"
            if self._scalar
            else "average-aggregation-multiseed"
        )
        return CheckResult(
            accepted=all(per_seed),
            checker=name,
            details={
                "config": self.config.label(),
                "certificate": "per-key counts (distributed)",
                "structural_ok": self._structural_ok,
                "num_seeds": self.checker.num_seeds,
                "per_seed_accepted": per_seed,
                "streaming": True,
            },
        )


# ---------------------------------------------------------------------------
# Min/max (§6.2, Theorem 9) — deterministic body, streamed input side
# ---------------------------------------------------------------------------


class MinMaxCheckerStream(CheckerStream):
    """Streaming Theorem 9: the asserted result first, input chunks after.

    The deterministic min/max checker needs the (replicated) asserted
    result to judge input elements, so the protocol here is: one
    ``feed_output(keys, values, owners)`` call delivers result +
    certificate, then input chunks stream through ``feed_input`` — each
    chunk is checked against the result inline (no element is retained)
    and a per-result-key running minimum accumulates for the certificate
    test at settle.  State is O(result keys).  Scalar ``seeds`` reproduces
    :func:`check_min_aggregation` / :func:`check_max_aggregation`; an
    array reproduces the multi-seed variants (T §2 integrity digests, one
    pass).
    """

    def __init__(self, seeds, kind: str = "min"):
        super().__init__()
        if kind not in ("min", "max"):
            raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
        self.kind = kind
        self._sign = 1 if kind == "min" else -1
        self._scalar = np.ndim(seeds) == 0
        if self._scalar:
            self._seed = int(seeds)
            self._seeds = None
        else:
            self._seeds = _coerce_seeds(seeds)
        self._result_set = False
        self._keys = np.zeros(0, dtype=np.uint64)
        self._values = np.zeros(0, dtype=np.int64)
        self._owners = np.zeros(0, dtype=np.int64)
        self._sorted_keys = self._keys
        self._sorted_values = self._values
        self._sorted_owners = self._owners
        self._local_min = np.zeros(0, dtype=np.int64)
        self._duplicate_keys = False
        self._ok = True
        self.elements_fed = 0

    def feed_output(self, keys, values, owners) -> None:
        """Deliver the asserted result + owner certificate (exactly once)."""
        self._ensure_open()
        if self._result_set:
            raise RuntimeError("asserted result already fed")
        keys = _coerce_keys(keys)
        values = self._sign * np.asarray(values, dtype=np.int64).ravel()
        owners = np.asarray(owners, dtype=np.int64).ravel()
        if not (keys.size == values.size == owners.size):
            raise ValueError("asserted keys, values and certificate must align")
        self._keys, self._values, self._owners = keys, values, owners
        order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[order]
        self._sorted_values = values[order]
        self._sorted_owners = owners[order]
        self._duplicate_keys = bool(
            keys.size > 1
            and np.any(self._sorted_keys[:-1] == self._sorted_keys[1:])
        )
        self._local_min = np.full(keys.size, _INT64_MAX, dtype=np.int64)
        self._result_set = True

    def feed_input(self, keys, values) -> None:
        """Check one input chunk against the asserted result, inline."""
        self._ensure_open()
        if not self._result_set:
            # Judging a chunk needs the asserted extrema; silently folding
            # it against an empty result would wrongly reject a correct
            # run (violating one-sided error), so refuse loudly.
            raise RuntimeError(
                "feed the asserted result (feed_output) before input chunks"
            )
        in_keys = _coerce_keys(keys)
        in_values = self._sign * np.asarray(values, dtype=np.int64).ravel()
        if in_keys.size == 0:
            return
        self.elements_fed += int(in_keys.size)
        if not self._ok:
            return  # verdict already decided; stay one-pass-cheap
        if self._sorted_keys.size == 0:
            self._ok = False  # input has keys the result "forgot"
            return
        pos = np.searchsorted(self._sorted_keys, in_keys)
        clipped = np.minimum(pos, self._sorted_keys.size - 1)
        known = (pos < self._sorted_keys.size) & (
            self._sorted_keys[clipped] == in_keys
        )
        if not (
            bool(np.all(known))
            and bool(np.all(in_values >= self._sorted_values[clipped]))
        ):
            self._ok = False
            return
        np.minimum.at(self._local_min, pos, in_values)

    def _settle(self, comm) -> CheckResult:
        rank = comm.rank if comm is not None else 0
        size = comm.size if comm is not None else 1
        det_ok = (
            self._ok
            and not self._duplicate_keys
            and bool(np.all((self._owners >= 0) & (self._owners < size)))
        )
        if det_ok:
            owned = self._sorted_owners == rank
            det_ok = bool(
                np.all(self._local_min[owned] == self._sorted_values[owned])
            )
        name = f"{self.kind}-aggregation"
        if self._scalar:
            integrity_ok = True
            if comm is not None:
                digest = replicated_digest(
                    self._seed, self._keys, self._values, self._owners
                )
                integrity_ok = digest == comm.bcast(digest, root=0)
                det_ok = comm.allreduce(
                    bool(det_ok and integrity_ok), op=lambda a, b: a and b
                )
            else:
                det_ok = det_ok and integrity_ok
            return CheckResult(
                accepted=bool(det_ok),
                checker=name,
                details={
                    "deterministic": True,
                    "certificate": "owner PE per key, replicated at all PEs",
                    "integrity_ok": bool(integrity_ok),
                    "streaming": True,
                },
            )
        integrity = [True] * self._seeds.size
        if comm is not None:
            digests = replicated_digest_multiseed(
                self._seeds, self._keys, self._values, self._owners
            )
            root_digests = comm.bcast(digests, root=0)
            integrity = [a == b for a, b in zip(digests, root_digests)]
            # One combined allreduce for the deterministic verdict and all
            # T integrity flags (the batch checker pays two).
            det_ok, integrity = comm.allreduce(
                (bool(det_ok), integrity),
                op=lambda a, b: (
                    a[0] and b[0],
                    [x and y for x, y in zip(a[1], b[1])],
                ),
            )
        per_seed = [bool(det_ok) and i for i in integrity]
        return CheckResult(
            accepted=all(per_seed),
            checker=f"{name}-multiseed",
            details={
                "deterministic": True,
                "certificate": "owner PE per key, replicated at all PEs",
                "num_seeds": int(self._seeds.size),
                "per_seed_accepted": per_seed,
                "streaming": True,
            },
        )


# ---------------------------------------------------------------------------
# Permutation family (§5 / §6.5)
# ---------------------------------------------------------------------------


class PermutationCheckerStream(CheckerStream):
    """Streaming hash-sum permutation check (Lemma 4 / Theorem 6).

    Both sides fold into (uniques, counts) condensations; any number of
    seed lanes evaluates against them at settle (one allreduce).  Scalar
    ``seeds`` reproduces :func:`check_permutation_hashsum`; an array
    reproduces ``T`` independent checkers per seed.
    """

    def __init__(
        self,
        seeds,
        iterations: int = 2,
        hash_family: str = "Mix",
        log_h: int = 32,
    ):
        super().__init__()
        seed_arr, self._scalar = _as_seed_array(seeds)
        self.checker = MultiSeedHashSumChecker(
            seed_arr, iterations, hash_family, log_h
        )
        self._e = StreamedSide()
        self._o = StreamedSide()

    def feed_input(self, values) -> None:
        """Account a chunk (array, or list of arrays) of the E side."""
        self._ensure_open()
        self._e.fold(values)

    def feed_output(self, values) -> None:
        """Account a chunk of the asserted O side."""
        self._ensure_open()
        self._o.fold(values)

    @property
    def elements_fed(self) -> int:
        return self._e.elements

    def _settle(self, comm) -> CheckResult:
        res = self.checker.check_condensed(
            self._e.condensed(), self._o.condensed(), comm
        )
        return CheckResult(
            accepted=res.accepted,
            checker="permutation-hashsum" if self._scalar else res.checker,
            details={**res.details, "streaming": True},
        )


class GroupByCheckerStream(CheckerStream):
    """Streaming Corollary 14: the invasive GroupBy redistribution check.

    Pre-exchange records fold through ``feed_input``, received records
    through ``feed_output`` (which also verifies placement inline against
    ``partitioner`` and this PE's ``rank``); records are encoded once per
    chunk and both sides condense to (uniques, counts).  Scalar ``seeds``
    reproduces :func:`check_groupby_redistribution` (same
    ``"groupby-perm"`` seed tree); an array the multi-seed variant.
    """

    def __init__(
        self,
        partitioner,
        seeds,
        rank: int = 0,
        iterations: int = 2,
        hash_family: str = "Mix",
        log_h: int = 32,
    ):
        super().__init__()
        seed_arr, self._scalar = _as_seed_array(seeds)
        self.checker = MultiSeedHashSumChecker(
            derive_seed_array(seed_arr, "groupby-perm"),
            iterations,
            hash_family,
            log_h,
        )
        self.partitioner = partitioner
        self.rank = rank
        self._pre = StreamedSide()
        self._post = StreamedSide()
        self._placement_ok = True

    def feed_input(self, keys, values) -> None:
        """Account a chunk of records entering the exchange."""
        self._ensure_open()
        self._pre.fold(encode_records(keys, values))

    def feed_output(self, keys, values) -> None:
        """Account a chunk of received records (placement checked inline)."""
        self._ensure_open()
        keys_arr = np.asarray(keys)
        if keys_arr.size:
            self._placement_ok &= bool(
                np.all(self.partitioner(keys_arr) == self.rank)
            )
        self._post.fold(encode_records(keys, values))

    @property
    def elements_fed(self) -> int:
        return self._pre.elements

    def _settle(self, comm) -> CheckResult:
        perm = self.checker.check_condensed(
            self._pre.condensed(), self._post.condensed(), comm
        )
        placement_ok = self._placement_ok
        if comm is not None:
            placement_ok = comm.allreduce(
                placement_ok, op=lambda a, b: a and b
            )
        per_seed = [
            p and placement_ok for p in perm.details["per_seed_accepted"]
        ]
        name = "groupby-redistribution" + (
            "" if self._scalar else "-multiseed"
        )
        return CheckResult(
            accepted=all(per_seed),
            checker=name,
            details={
                "permutation": perm.details | {"accepted": perm.accepted},
                "placement_ok": placement_ok,
                "invasive": True,
                "num_seeds": self.checker.num_seeds,
                "per_seed_accepted": per_seed,
                "streaming": True,
            },
        )


# ---------------------------------------------------------------------------
# Zip (§6.4, Theorem 11) — positional, so no condensation: running
# fingerprints instead
# ---------------------------------------------------------------------------


class ZipCheckerStream(CheckerStream):
    """Streaming Theorem 11: order-sensitive positional fingerprints.

    The zip fingerprint admits no unique-key condensation (it is an inner
    product against per-position weights), but it *is* chunk-additive:
    each chunk's contribution is computed at its absolute positions and
    added to the running fingerprint, so state is O(seeds · iterations)
    words however long the stream runs.  ``offsets`` are this PE's global
    starting offsets ``(s1, s2, output)`` — the windowed dataflow passes
    the offsets its zip exchange already computed; sequential callers
    leave them 0.  All seeds and iterations settle in ONE allreduce
    (batch ``check_zip`` pays one per iteration plus one for lengths).
    Scalar ``seeds`` reproduces :func:`check_zip`; an array reproduces
    ``T`` independent calls per seed.
    """

    def __init__(
        self,
        seeds,
        iterations: int = 2,
        offsets: tuple[int, int, int] = (0, 0, 0),
    ):
        super().__init__()
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        seed_arr, self._scalar = _as_seed_array(seeds)
        seed_list = [int(s) for s in seed_arr]
        self.iterations = iterations
        self._lane_seeds = [
            (derive_seed(s, "lane1"), derive_seed(s, "lane2"))
            for s in seed_list
        ]
        self._off1, self._off2, self._offz = (int(o) for o in offsets)
        self._fps = [
            [[0, 0, 0, 0] for _ in range(iterations)] for _ in seed_list
        ]
        self._n1 = self._n2 = self._nz = 0

    def _accumulate(self, values, column: int, lane: int, offset: int) -> None:
        values = np.asarray(values).ravel()
        if values.size == 0:
            return
        for t, lanes in enumerate(self._lane_seeds):
            seed = lanes[lane]
            for j in range(self.iterations):
                self._fps[t][j][column] = (
                    self._fps[t][j][column]
                    + positional_fingerprint(values, offset, seed, j)
                ) % MERSENNE31

    def feed_input(self, first=None, second=None) -> None:
        """Account chunks of S1 (``first``) and/or S2 (``second``)."""
        self._ensure_open()
        if first is not None:
            first = np.asarray(first).ravel()
            self._accumulate(first, 0, 0, self._off1 + self._n1)
            self._n1 += int(first.size)
        if second is not None:
            second = np.asarray(second).ravel()
            self._accumulate(second, 2, 1, self._off2 + self._n2)
            self._n2 += int(second.size)

    def feed_output(self, first, second) -> None:
        """Account a chunk of the asserted zipped output (both columns)."""
        self._ensure_open()
        first = np.asarray(first).ravel()
        second = np.asarray(second).ravel()
        if first.size != second.size:
            raise ValueError(
                "zipped component columns differ in length: "
                f"{first.size} vs {second.size}"
            )
        offset = self._offz + self._nz
        self._accumulate(first, 1, 0, offset)
        self._accumulate(second, 3, 1, offset)
        self._nz += int(first.size)

    @property
    def elements_fed(self) -> int:
        return self._n1 + self._n2

    def _settle(self, comm) -> CheckResult:
        payload = (self._fps, (self._n1, self._n2, self._nz))
        if comm is not None:

            def combine(a, b):
                fps = [
                    [
                        [(x + y) % MERSENNE31 for x, y in zip(ja, jb)]
                        for ja, jb in zip(ta, tb)
                    ]
                    for ta, tb in zip(a[0], b[0])
                ]
                lens = tuple(x + y for x, y in zip(a[1], b[1]))
                return fps, lens

            payload = comm.allreduce(payload, op=combine)
        fps, lens = payload
        length_ok = lens[0] == lens[1] == lens[2]
        per_seed = []
        detecting_first = None
        for row in fps:
            detecting = [
                j
                for j, lanes in enumerate(row)
                if lanes[0] != lanes[1] or lanes[2] != lanes[3]
            ]
            if detecting_first is None:
                detecting_first = detecting
            per_seed.append(not detecting and length_ok)
        return CheckResult(
            accepted=all(per_seed),
            checker="zip" if self._scalar else "zip-multiseed",
            details={
                "iterations": self.iterations,
                "detecting_iterations": detecting_first,
                "lengths": tuple(lens),
                "length_ok": length_ok,
                "num_seeds": len(self._fps),
                "per_seed_accepted": per_seed,
                "streaming": True,
            },
        )


__all__ = [
    "AverageCheckerStream",
    "CheckerStream",
    "CountCheckerStream",
    "GroupByCheckerStream",
    "MinMaxCheckerStream",
    "MultiSeedSumCheckerStream",
    "PermutationCheckerStream",
    "StreamedKV",
    "StreamedSide",
    "SumCheckerStream",
    "ZipCheckerStream",
]
