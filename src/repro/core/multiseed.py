"""Multi-seed batched checking: many independent checkers, one data pass.

Re-checking a result under ``T`` independent root seeds drives the failure
probability from δ to δ^T, but running ``T`` :class:`SumAggregationChecker`
instances costs ``T`` passes over the local data — ``T`` key coercions,
``T`` hash sweeps, ``T·iterations`` scatter passes.  This module pushes the
paper's amortization theme (§7.1: one evaluation serves many iterations)
across checker *instances*:

* the local slice is condensed **once** to its unique keys with exact
  per-key aggregates (the minireduction table is linear in the multiset of
  pairs, so aggregating by key first is verdict-neutral — and Zipf-keyed
  workloads shrink 4–5×);
* bucket indices for all ``T × iterations`` lanes come from the batched
  hash kernels (:func:`repro.hashing.bitgroups.iter_bucket_blocks` over
  :func:`~repro.hashing.bitgroups.assign_buckets_batch`), evaluated in
  bounded seed blocks;
* moduli for all seeds come from the vectorized
  :func:`~repro.core.sum_checker.draw_moduli` path;
* tables accumulate as a ``(T, iterations, d)`` tensor with the same
  deferred-modulo chunking as the single-seed checker;
* the wire format packs all ``T·iterations·d`` residues into one message,
  so :meth:`MultiSeedSumChecker.check_distributed` reduces every seed's
  difference table in a **single** collective.

Every per-seed verdict (and table) is bit-identical to the corresponding
single-seed checker — property-tested across hash families and operators
in ``tests/test_core_multiseed.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import CheckResult
from repro.core.params import SumCheckConfig
from repro.core.sum_checker import (
    _CHUNK_BITS,
    _coerce_keys,
    _coerce_values,
    _magnitude_bound,
    _scatter_add_mod,
    draw_moduli,
    pack_residues,
    unpack_residues,
)
from repro.core.permutation_checker import _as_sequences, wide_weighted_sum
from repro.hashing.bitgroups import (
    evaluation_seeds,
    iter_bucket_blocks,
    iter_superbucket_blocks,
)
from repro.hashing.families import get_family, hash_lanes
from repro.kernels import get_kernels, seeds_per_block
from repro.util.bits import ceil_log2, is_power_of_two
from repro.util.rng import derive_seed_array, splitmix64_array

#: Lane-matrix elements (seed lanes × unique keys) per batched hash pass;
#: bounds the bucket-index scratch to ``iterations · chunk · 8`` bytes and
#: keeps one block's working set cache-friendly.  Small key sets still
#: batch thousands of seeds per lane pass; paper-scale key sets get one
#: seed per pass — the shared base work (CRC's seed-0 sweep, tabulation's
#: byte extraction) is hoisted out of the block loop by the family's
#: :class:`~repro.hashing.families.LaneHasher` either way.
_DEFAULT_CHUNK_ELEMENTS = 1 << 18


def _coerce_seeds(seeds) -> np.ndarray:
    seeds = np.atleast_1d(np.asarray(seeds))
    if seeds.ndim != 1 or seeds.size < 1:
        raise ValueError(f"need a 1-d, non-empty seed array, got {seeds!r}")
    if seeds.dtype.kind == "i":
        seeds = seeds.astype(np.int64).view(np.uint64)
    elif seeds.dtype.kind == "u":
        seeds = seeds.astype(np.uint64, copy=False)
    else:
        # Same policy as _coerce_keys: silently truncating float seeds could
        # collapse "independent" seeds onto one another (0.4 and 0.6 both
        # become 0), quietly voiding the δ^T multi-seed guarantee.
        raise TypeError(
            f"multi-seed checkers require integer seeds, got dtype {seeds.dtype}"
        )
    if seeds.size > 1 and np.unique(seeds).size != seeds.size:
        # A duplicated seed re-runs the *same* checker: the observed lanes
        # agree by construction and the claimed δ^T bound silently degrades
        # to δ^(distinct seeds).  Refuse rather than over-promise.
        raise ValueError("multi-seed checkers require distinct seeds")
    return seeds


@dataclass
class CondensedKV:
    """One-pass condensation of a (keys, values) multiset.

    The minireduction table is linear in the multiset of pairs, so exact
    per-key aggregation is verdict-neutral — and it is the *only* pass over
    the raw data any multi-seed sum check needs.  Escalating from 1 seed to
    T seeds (see :class:`repro.dataflow.pipeline.AdaptiveCheckPolicy`)
    condenses each side once, and a localization of the same check reuses
    that condensation.

    ``agg`` / ``agg_float`` / ``agg_xor`` are the exact per-unique-key
    aggregates on the accumulation paths that admit them; when all three
    are None the magnitude guard fell back to per-element accumulation
    (``values`` and ``inverse`` are kept for exactly that path).
    """

    unique_keys: np.ndarray
    inverse: np.ndarray
    values: np.ndarray
    agg: np.ndarray | None
    agg_float: np.ndarray | None
    agg_xor: np.ndarray | None

    @property
    def num_pairs(self) -> int:
        return self.values.size


def condense_kv(keys, values, operator: str = "+") -> CondensedKV:
    """Condense a local slice to unique keys with exact aggregates.

    One pass over the raw data; magnitude guards pick the cheapest exact
    accumulation path exactly as the single-seed checker does (see
    :meth:`SumAggregationChecker.local_tables`).
    """
    if operator not in ("+", "xor"):
        raise ValueError(f"unsupported reduce operator {operator!r}")
    keys = _coerce_keys(keys)
    values = _coerce_values(values)
    if keys.size != values.size:
        raise ValueError(
            f"keys and values differ in length: {keys.size} vs {values.size}"
        )
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    k = unique_keys.size
    agg = agg_float = agg_xor = None
    if keys.size:
        # Σ|v| bounds every per-key aggregate and every partial bucket sum
        # (any of them is a subset sum), so it decides both exactness
        # guards — far tighter than the historical n·max|v| product.
        bound = _magnitude_bound(values)
        if operator == "xor":
            agg_xor = np.zeros(k, dtype=np.uint64)
            np.bitwise_xor.at(agg_xor, inverse, values.view(np.uint64))
        elif bound < (1 << _CHUNK_BITS):
            # All partial bucket sums fit the float64 mantissa: aggregate
            # per key and defer every modulo to one pass per lane (§7.1).
            agg = np.bincount(
                inverse, weights=values.astype(np.float64), minlength=k
            ).astype(np.int64)
            agg_float = agg.astype(np.float64)
        elif bound < (1 << 63):
            # Exact in int64, but bucket sums may exceed 2^52: aggregate
            # per key, reduce mod r per lane via the chunked scatter-add.
            agg = np.zeros(k, dtype=np.int64)
            np.add.at(agg, inverse, values)
        # else: |Σ values| could overflow int64 — keys still dedup for the
        # hash pass, but accumulation stays per element (exact mod-r path).
    return CondensedKV(unique_keys, inverse, values, agg, agg_float, agg_xor)


def _pairs_condensed(keys, values, operator: str = "+") -> CondensedKV:
    """A :class:`CondensedKV` view of raw pairs, without deduplication.

    Every consumer of a condensation is linear in the (key, value)
    multiset — weighted bincounts, chunked mod-r scatter-adds, xor
    scatters — so presenting the raw pairs as "unique" keys with their
    own values as aggregates yields bit-identical lane tables while
    skipping the sort.  The magnitude guards mirror :func:`condense_kv`
    exactly (Σ|v| is the same for raw and condensed pairs), so the same
    exactness path is selected.  Only valid where a condensation is
    consumed as a multiset (table evaluation); the ``unique_keys`` field
    may contain duplicates.

    This is how a one-seed fold reads its side: sorting pays only when
    its unique keys are hashed under many lanes (escalation, repair) or
    searched (localization), which is when :func:`condense_kv` runs.
    """
    keys = _coerce_keys(keys)
    values = _coerce_values(values)
    if keys.size != values.size:
        raise ValueError(
            f"keys and values differ in length: {keys.size} vs {values.size}"
        )
    inverse = np.arange(keys.size, dtype=np.intp)
    agg = agg_float = agg_xor = None
    if keys.size:
        bound = _magnitude_bound(values)
        if operator == "xor":
            agg_xor = values.view(np.uint64)
        elif bound < (1 << _CHUNK_BITS):
            agg = values
            agg_float = values.astype(np.float64)
        elif bound < (1 << 63):
            agg = values
    return CondensedKV(keys, inverse, values, agg, agg_float, agg_xor)


class MultiSeedSumChecker:
    """``T`` independent Algorithm 1 checkers evaluated in one data pass.

    Parameters
    ----------
    config:
        Shared bucket count, modulus parameter, iteration count, hash family.
    seeds:
        Array of ``T`` root seeds; seed ``t``'s lanes reproduce
        ``SumAggregationChecker(config, seeds[t], operator)`` exactly.
    operator:
        ``"+"`` or ``"xor"`` (as in the single-seed checker).
    chunk_elements:
        Budget for one batched hash pass (seed-tiled unique keys).
    """

    def __init__(
        self,
        config: SumCheckConfig,
        seeds,
        operator: str = "+",
        chunk_elements: int = _DEFAULT_CHUNK_ELEMENTS,
    ):
        if operator not in ("+", "xor"):
            raise ValueError(f"unsupported reduce operator {operator!r}")
        if chunk_elements < 1:
            raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
        self.config = config
        self.operator = operator
        self.seeds = _coerce_seeds(seeds)
        self.num_seeds = self.seeds.size
        self.chunk_elements = chunk_elements
        self._family = get_family(config.hash_family)
        # (T, iterations) moduli — row t equals the scalar checker's draw.
        self.moduli = draw_moduli(config, self.seeds)
        # Root of each seed's bucket-hash tree, matching BucketAssigner's
        # derive_seed(seed, "sum-checker", "buckets") construction, and the
        # (evaluations, T) hash seeds under it — derived here once, not
        # once per fold.
        self._bucket_seeds = derive_seed_array(
            self.seeds, "sum-checker", "buckets"
        )
        self._eval_seeds = evaluation_seeds(
            self._family, config.d, config.iterations, self._bucket_seeds
        )

    def seed_view(self, t: int) -> "MultiSeedSumChecker":
        """The one-seed checker of seed ``seeds[t]``, deriving nothing.

        The view shares this checker's moduli and evaluation seeds (as
        array views), so its tables and verdicts equal
        ``MultiSeedSumChecker(config, [seeds[t]], operator)`` bit for bit
        at the cost of a few slices.  A window loop derives the next
        block of window seeds as one checker and settles each window
        with its view.
        """
        if not 0 <= t < self.num_seeds:
            raise IndexError(f"seed index {t} out of range({self.num_seeds})")
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__)
        pick = slice(t, t + 1)
        view.seeds = self.seeds[pick]
        view.num_seeds = 1
        view.moduli = self.moduli[pick]
        view._bucket_seeds = self._bucket_seeds[pick]
        view._eval_seeds = self._eval_seeds[:, pick]
        return view

    @property
    def table_bits(self) -> int:
        """Total wire size of all seeds' tables in bits."""
        return self.num_seeds * self.config.table_bits

    # -- local kernel --------------------------------------------------------
    def local_tables(self, keys, values) -> np.ndarray:
        """Condensed reductions of all seeds: ``(T, iterations, d)`` int64.

        ``out[t]`` is bit-identical to
        ``SumAggregationChecker(config, seeds[t], operator).local_tables``.
        """
        return self.local_tables_condensed(
            condense_kv(keys, values, self.operator)
        )

    def local_tables_condensed(self, condensed: CondensedKV) -> np.ndarray:
        """:meth:`local_tables` from an existing :class:`CondensedKV`.

        The condensation is the only pass over raw data — callers that keep
        it around (streaming feeds, adaptive escalation) evaluate any
        number of seed sets against the same aggregates for free.
        """
        cfg = self.config
        tables = np.zeros(
            (self.num_seeds, cfg.iterations, cfg.d), dtype=np.int64
        )
        if condensed.num_pairs == 0:
            return tables
        agg = condensed.agg
        agg_float = condensed.agg_float
        agg_xor = condensed.agg_xor
        if self.operator == "xor":
            if agg_xor is None:
                raise ValueError(
                    "condensed input was built for operator '+', not 'xor'"
                )
            utables = tables.view(np.uint64)
        elif agg_xor is not None:
            raise ValueError(
                "condensed input was built for operator 'xor', not '+'"
            )
        k = condensed.unique_keys.size
        values = condensed.values
        inverse = condensed.inverse

        if agg_float is not None and is_power_of_two(cfg.d):
            # Super-group fast path: one weighted bincount covers up to
            # m adjacent iterations at once (16 super-bits, capped at
            # d**m <= k), each lane's per-iteration counts falling out as
            # cube marginals.
            self._accumulate_supergroups(condensed, tables)
            return tables

        kernels = get_kernels()
        for start, count, buckets in iter_bucket_blocks(
            self._family, cfg.d, cfg.iterations, self._bucket_seeds,
            condensed.unique_keys, self.chunk_elements,
            eval_seeds=self._eval_seeds,
        ):
            for c in range(count):
                t = start + c
                block = buckets[:, c * k : (c + 1) * k]
                for j in range(cfg.iterations):
                    if agg_float is not None:
                        # Fast path: raw weighted bincount per lane, one
                        # deferred mod at the end (exact under `bound`).
                        sums = kernels.weighted_bincount(
                            block[j], agg_float, cfg.d
                        )
                        tables[t, j] = sums.astype(np.int64) % int(
                            self.moduli[t, j]
                        )
                    elif self.operator == "xor":
                        np.bitwise_xor.at(utables[t, j], block[j], agg_xor)
                    elif agg is not None:
                        r = int(self.moduli[t, j])
                        _scatter_add_mod(tables[t, j], block[j], agg % r, r)
                    else:
                        r = int(self.moduli[t, j])
                        _scatter_add_mod(
                            tables[t, j], block[j][inverse], values % r, r
                        )
        return tables

    def iter_lane_buckets(self, keys):
        """Yield ``(seed_index, iteration, bucket_row)`` for every lane.

        ``bucket_row`` is the ``d``-bucket assignment of ``keys`` under
        seed ``seeds[seed_index]``'s iteration — the same batched
        :func:`iter_bucket_blocks` pass the table evaluation runs,
        exposed raw for consumers that intersect bucket memberships
        (fault localization's guilty-bucket filter).
        """
        keys = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64).ravel())
        k = keys.size
        if k == 0:
            return
        cfg = self.config
        for start, count, buckets in iter_bucket_blocks(
            self._family, cfg.d, cfg.iterations, self._bucket_seeds,
            keys, self.chunk_elements, eval_seeds=self._eval_seeds,
        ):
            for c in range(count):
                block = buckets[:, c * k : (c + 1) * k]
                for j in range(cfg.iterations):
                    yield start + c, j, block[j]

    def seed_lane_buckets(self, t: int, keys) -> np.ndarray:
        """Bucket assignments of ``keys`` under seed ``t`` alone.

        Returns shape ``(iterations, len(keys))`` — one hash evaluation
        per key, all iteration lanes extracted from it.  Lets a consumer
        process seeds one at a time over a shrinking key set (fault
        localization's progressive prefilter) instead of paying every
        seed up front.
        """
        keys = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64).ravel())
        cfg = self.config
        rows = np.empty((cfg.iterations, keys.size), dtype=np.int64)
        if keys.size == 0:
            return rows
        for start, count, buckets in iter_bucket_blocks(
            self._family, cfg.d, cfg.iterations,
            self._bucket_seeds[t : t + 1], keys, self.chunk_elements,
            eval_seeds=self._eval_seeds[:, t : t + 1],
        ):
            rows[:, :] = buckets
        return rows

    def _accumulate_supergroups(
        self, condensed: CondensedKV, tables: np.ndarray
    ) -> None:
        """Accumulate the ``agg_float`` path via super-group bincounts.

        Up to ``m`` adjacent bit-groups of one hash evaluation are packed
        into a single index (:func:`iter_superbucket_blocks`), so *one*
        ``d**m``-bin weighted bincount per (lane, super-group) replaces
        ``m`` ``d``-bin passes over the keys.  Iteration ``j0 + q``'s
        bucket sums are the cube marginal over every other packed axis —
        exact, because every marginal partial sum is a subset sum of the
        values and therefore bounded by the same Σ|v| < 2^52 guard that
        selected ``agg_float``; the per-iteration residues are
        bit-identical to the per-group path.  Every marginal of a seed
        block lands in one float64 ``(count, iterations, d)`` block,
        reduced by one cast and one broadcast ``% moduli``.
        """
        cfg = self.config
        kernels = get_kernels()
        agg_float = condensed.agg_float
        group_bits = ceil_log2(cfg.d)
        for start, count, supers in iter_superbucket_blocks(
            self._family, cfg.d, cfg.iterations, self._bucket_seeds,
            condensed.unique_keys, self.chunk_elements,
            eval_seeds=self._eval_seeds,
        ):
            sums = np.empty((count, cfg.iterations, cfg.d), dtype=np.float64)
            for j0, m, idx in supers:
                bins = 1 << (m * group_bits)
                for c in range(count):
                    lead = kernels.weighted_bincount(idx[c], agg_float, bins)
                    # As a C-order (d,)*m cube, axis a holds the bits of
                    # group j0 + (m-1-a).  Peel the leading axis off one
                    # at a time: its row sums are that iteration's
                    # marginal, its column sums carry the other axes on
                    # (~2·d**m adds in all, not m·d**m).  Every partial
                    # sum is a subset sum, exact in float64.
                    for q in range(m - 1, 0, -1):
                        grid = lead.reshape(cfg.d, -1)
                        sums[c, j0 + q] = grid.sum(axis=1, dtype=np.float64)
                        lead = grid.sum(axis=0, dtype=np.float64)
                    sums[c, j0] = lead
            tables[start : start + count] = (
                sums.astype(np.int64)
                % self.moduli[start : start + count, :, None]
            )

    # -- table algebra -------------------------------------------------------
    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ⊕ of two ``(T, iterations, d)`` table tensors."""
        if self.operator == "+":
            return (a + b) % self.moduli[:, :, None]
        return (a.view(np.uint64) ^ b.view(np.uint64)).view(np.int64)

    def difference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ⊕-difference ``a ⊖ b`` of two table tensors."""
        if self.operator == "+":
            return (a - b) % self.moduli[:, :, None]
        return (a.view(np.uint64) ^ b.view(np.uint64)).view(np.int64)

    # -- wire format ---------------------------------------------------------
    def pack(self, tables: np.ndarray) -> bytes:
        """All seeds' tables as one ``T·iterations·d·residue_bits``-bit blob.

        One message for all seeds is what lets the distributed check settle
        every seed in a single reduction.
        """
        if self.operator == "xor":
            return tables.astype(np.int64).tobytes()
        return pack_residues(tables, self.config.residue_bits)

    def unpack(self, payload: bytes) -> np.ndarray:
        """Inverse of :meth:`pack`."""
        cfg = self.config
        shape = (self.num_seeds, cfg.iterations, cfg.d)
        if self.operator == "xor":
            return np.frombuffer(payload, dtype=np.int64).reshape(shape).copy()
        total = self.num_seeds * cfg.iterations * cfg.d
        return unpack_residues(payload, total, cfg.residue_bits).reshape(shape)

    # -- verdicts ------------------------------------------------------------
    def _result(
        self, per_seed: list[bool], distributed: bool, **extra
    ) -> CheckResult:
        return CheckResult(
            accepted=all(per_seed),
            checker="sum-aggregation-multiseed",
            details={
                "config": self.config.label(),
                "operator": self.operator,
                "num_seeds": self.num_seeds,
                "per_seed_accepted": per_seed,
                "table_bits": self.table_bits,
                "distributed": distributed,
                **extra,
            },
        )

    def per_seed_verdicts(self, diff: np.ndarray, comm=None) -> list[bool]:
        """Per-seed accept flags from a local ⊕-difference tensor.

        Sequentially a reduction over the tensor; distributed, ALL ``T``
        seeds settle in one packed collective (reduce to PE 0 + verdict
        broadcast), which is the whole point of the shared wire format.
        """
        if comm is None:
            return (~np.any(diff != 0, axis=(1, 2))).tolist()

        def wire_op(a: bytes, b: bytes) -> bytes:
            return self.pack(self.combine(self.unpack(a), self.unpack(b)))

        combined = comm.reduce(self.pack(diff), wire_op, root=0)
        per_seed = None
        if comm.rank == 0:
            per_seed = (~np.any(self.unpack(combined), axis=(1, 2))).tolist()
        return comm.bcast(per_seed, root=0)

    def check_local(self, input_kv, asserted_kv) -> CheckResult:
        """Single-PE check; accepted iff every seed's checker accepts."""
        return self.check_local_condensed(
            condense_kv(*input_kv, self.operator),
            condense_kv(*asserted_kv, self.operator),
        )

    def check_local_condensed(
        self, input_c: CondensedKV, asserted_c: CondensedKV
    ) -> CheckResult:
        """:meth:`check_local` over pre-condensed sides."""
        diff = self.difference(
            self.local_tables_condensed(input_c),
            self.local_tables_condensed(asserted_c),
        )
        return self._result(self.per_seed_verdicts(diff), distributed=False)

    def check_distributed(self, comm, input_kv, asserted_kv) -> CheckResult:
        """SPMD check settling all ``T`` seeds in one packed reduction."""
        return self.check_distributed_condensed(
            comm,
            condense_kv(*input_kv, self.operator),
            condense_kv(*asserted_kv, self.operator),
        )

    def check_distributed_condensed(
        self, comm, input_c: CondensedKV, asserted_c: CondensedKV
    ) -> CheckResult:
        """:meth:`check_distributed` over pre-condensed local sides."""
        diff = self.difference(
            self.local_tables_condensed(input_c),
            self.local_tables_condensed(asserted_c),
        )
        return self._result(
            self.per_seed_verdicts(diff, comm), distributed=True
        )

    # -- exact fast path for experiments -------------------------------------
    def detects_delta(self, delta_keys, delta_values) -> np.ndarray:
        """Per-seed detection flags for a sparse error delta, ``(T,)`` bool."""
        tables = self.local_tables(delta_keys, delta_values)
        return np.any(tables != 0, axis=(1, 2))


def __getattr__(name: str):
    # Back-compat: MultiSeedSumCheckerStream moved to repro.core.streams
    # when the CheckerStream protocol was extracted.  Lazy import keeps the
    # modules cycle-free.
    if name == "MultiSeedSumCheckerStream":
        from repro.core.streams import MultiSeedSumCheckerStream

        return MultiSeedSumCheckerStream
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def condense_side(side) -> list[tuple[np.ndarray, np.ndarray]]:
    """Condense one permutation-check side to (uniques, counts) pairs.

    The hash-sum fingerprint over a multiset equals the count-weighted
    fingerprint over its support, so this single pass over the raw
    sequence(s) is all any number of seed lanes needs — the permutation
    analog of :func:`condense_kv`, and what adaptive escalation reuses.
    """
    return [
        np.unique(seq, return_counts=True)
        for seq in _as_sequences(side)
        if seq.size
    ]


class MultiSeedHashSumChecker:
    """``T`` independent hash-sum permutation checkers, one pass per side.

    Seed ``t`` reproduces
    ``HashSumPermutationChecker(iterations, hash_family, log_h, seeds[t])``
    exactly: iteration hashes derive from the same
    ``derive_seed(seed, "perm-checker", j)`` tree, evaluated through the
    family's batched kernel over each side's unique elements (with exact
    multiplicity weighting via :func:`wide_weighted_sum`).
    """

    def __init__(
        self,
        seeds,
        iterations: int = 2,
        hash_family: str = "Mix",
        log_h: int = 32,
        chunk_elements: int = _DEFAULT_CHUNK_ELEMENTS,
    ):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        family = get_family(hash_family)
        if not 1 <= log_h <= family.bits:
            raise ValueError(
                f"log_h={log_h} out of range for {family.name} "
                f"({family.bits} output bits)"
            )
        if chunk_elements < 1:
            raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
        self.seeds = _coerce_seeds(seeds)
        self.num_seeds = self.seeds.size
        self.iterations = iterations
        self.hash_family = hash_family
        self.log_h = log_h
        self.chunk_elements = chunk_elements
        self._family = family
        self._mask = np.uint64((1 << log_h) - 1)
        # Fold the "perm-checker" label once per seed; iterations branch on
        # their counter (identical to derive_seed(seed, "perm-checker", j)).
        self._prefix = derive_seed_array(self.seeds, "perm-checker")

    def fingerprints(self, side) -> list[list[int]]:
        """Wide hash sums per seed and iteration: ``T`` rows of ``iterations``."""
        return self.fingerprints_condensed(condense_side(side))

    def fingerprints_condensed(
        self, condensed: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[list[int]]:
        """:meth:`fingerprints` from pre-condensed (uniques, counts) pairs.

        Every registered family goes through its
        :class:`~repro.hashing.families.LaneHasher`, built once per
        (uniques) array: the fixed-keys base pass (CRC's seed-0 table
        lookups, tabulation's byte extraction) serves every
        ``T × iterations`` lane, and each lane evaluation is a constant
        XOR (CRC), a stacked-table gather (Tab/Tab64), or a broadcast mix
        (Mix) — never a tiled per-seed hash pass.
        """
        totals = [[0] * self.iterations for _ in range(self.num_seeds)]
        for uniques, counts in condensed:
            k = uniques.size
            if k == 0:
                continue
            hasher = self._family.multiseed_hasher(uniques)
            per_block = seeds_per_block(self.chunk_elements, k)
            for start in range(0, self.num_seeds, per_block):
                count = min(per_block, self.num_seeds - start)
                prefix = self._prefix[start : start + count]
                for j in range(self.iterations):
                    fn_seeds = splitmix64_array(prefix ^ np.uint64(j))
                    hashed = (
                        hash_lanes(self._family, fn_seeds, uniques, hasher)
                        & self._mask
                    )
                    for c in range(count):
                        totals[start + c][j] += wide_weighted_sum(
                            hashed[c], counts
                        )
        return totals

    def lambda_values(self, e_side, o_side) -> list[list[int]]:
        """λ_{t,j} = Σ h_{t,j}(e) − Σ h_{t,j}(o); zero row ⇔ seed accepts."""
        fe = self.fingerprints(e_side)
        fo = self.fingerprints(o_side)
        return [
            [a - b for a, b in zip(row_e, row_o)]
            for row_e, row_o in zip(fe, fo)
        ]

    def check_condensed(
        self, e_condensed, o_condensed, comm=None
    ) -> CheckResult:
        """:meth:`check` over pre-condensed sides (see :func:`condense_side`)."""
        fe = self.fingerprints_condensed(e_condensed)
        fo = self.fingerprints_condensed(o_condensed)
        lambdas = [
            [a - b for a, b in zip(row_e, row_o)]
            for row_e, row_o in zip(fe, fo)
        ]
        return self._settle(lambdas, comm)

    def check(self, e_side, o_side, comm=None) -> CheckResult:
        """Accept iff every seed's every λ is zero; one collective if SPMD."""
        lambdas = self.lambda_values(e_side, o_side)
        return self._settle(lambdas, comm)

    def _settle(self, lambdas: list[list[int]], comm) -> CheckResult:
        if comm is not None:
            # All T·iterations partial sums travel in a single all-reduction.
            lambdas = comm.allreduce(
                lambdas,
                op=lambda a, b: [
                    [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
                ],
            )
        per_seed = [all(lam == 0 for lam in row) for row in lambdas]
        return CheckResult(
            accepted=all(per_seed),
            checker="permutation-hashsum-multiseed",
            details={
                "iterations": self.iterations,
                "log_h": self.log_h,
                "hash_family": self.hash_family,
                "num_seeds": self.num_seeds,
                "per_seed_accepted": per_seed,
            },
        )


# ---------------------------------------------------------------------------
# Convenience wrappers (multi-seed forms of the sum_checker module's)
# ---------------------------------------------------------------------------

_DEFAULT_CONFIG = SumCheckConfig(iterations=8, d=16, rhat=1 << 15)


def check_sum_aggregation_multiseed(
    input_kv,
    asserted_kv,
    seeds,
    config: SumCheckConfig | None = None,
    comm=None,
    operator: str = "+",
) -> CheckResult:
    """Check a sum aggregation under ``T`` root seeds in one data pass.

    Per-seed verdicts (``details["per_seed_accepted"]``) equal ``T``
    independent :func:`~repro.core.sum_checker.check_sum_aggregation`
    calls; accepted iff every seed accepts (failure probability δ^T).
    """
    checker = MultiSeedSumChecker(config or _DEFAULT_CONFIG, seeds, operator)
    if comm is None:
        return checker.check_local(input_kv, asserted_kv)
    return checker.check_distributed(comm, input_kv, asserted_kv)


def check_count_aggregation_multiseed(
    input_keys,
    asserted_kv,
    seeds,
    config: SumCheckConfig | None = None,
    comm=None,
) -> CheckResult:
    """Count aggregation = sum aggregation of ones (§4), under ``T`` seeds."""
    keys = np.asarray(input_keys)
    ones = np.ones(keys.shape, dtype=np.int64)
    return check_sum_aggregation_multiseed(
        (keys, ones), asserted_kv, seeds, config=config, comm=comm
    )
