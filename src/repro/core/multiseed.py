"""The sum-family checker: ``T`` independent seeds, one data pass.

Re-checking a result under ``T`` independent root seeds drives the failure
probability from δ to δ^T (Lemma 3), but running ``T`` one-seed folds
(:func:`~repro.core.sum_checker.reference_tables`) costs ``T`` passes over
the local data — ``T`` key coercions, ``T`` hash sweeps,
``T·iterations`` scatter passes.  :class:`MultiSeedSumChecker` pushes the
paper's amortization theme (§7.1: one evaluation serves many iterations)
across checker *instances*, and a single seed is just ``T = 1``:

* at ``T > 1`` the local slice is condensed **once** to its unique keys
  with exact per-key aggregates (the minireduction table is linear in the
  multiset of pairs, so aggregating by key first is verdict-neutral — and
  Zipf-keyed workloads shrink 4–5×); at ``T = 1`` the raw pairs are folded
  without sorting (:func:`_pairs_condensed`);
* bucket indices for all ``T × iterations`` lanes come from the batched
  hash kernels (:func:`repro.hashing.bitgroups.iter_bucket_blocks` over
  :func:`~repro.hashing.bitgroups.assign_buckets_batch`), evaluated in
  bounded seed blocks;
* the float64 fast path counts several iterations per bincount through
  the super-groups of :func:`~repro.hashing.bitgroups.superbucket_plan`.
  At ``T > 1`` the families' lane hashers feed it; at ``T = 1`` (every
  window settle and batch primary) the fold skips the lane machinery:
  it hashes each 2^16-key block once into a reused buffer straight from
  the seeded function (Mix mixes in place), writes every super-group
  field into one intp row, and gives each row one bincount;
* moduli for all seeds come from the vectorized
  :func:`~repro.core.sum_checker.draw_moduli` path;
* tables accumulate as a ``(T, iterations, d)`` tensor with the
  deferred-modulo chunking of :mod:`repro.core.sum_checker`;
* the wire format packs all ``T·iterations·d`` residues into one message,
  so :meth:`MultiSeedSumChecker.check_distributed` reduces every seed's
  difference table in a **single** collective.

Every per-seed table equals :func:`~repro.core.sum_checker.reference_tables`
under that seed — property-tested across hash families, operators and
accumulation paths in ``tests/test_core_multiseed.py``.  The count,
average (§6.1) and median (§6.3) checks run on the same checker.
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
from repro.hashing.bitgroups import (
    evaluation_seeds,
    iter_bucket_blocks,
    iter_superbucket_blocks,
    superbucket_plan,
)
from repro.hashing.families import get_family
from repro.util.bits import is_power_of_two
from repro.util.rng import derive_seed_array

#: Lane-matrix elements (seed lanes × unique keys) per batched hash pass;
#: bounds the bucket-index scratch to ``iterations · chunk · 8`` bytes and
#: keeps one block's working set cache-friendly.  Small key sets still
#: batch thousands of seeds per lane pass; paper-scale key sets get one
#: seed per pass — the shared base work (CRC's seed-0 sweep, tabulation's
#: byte extraction) is hoisted out of the block loop by the family's
#: :class:`~repro.hashing.families.LaneHasher` either way.
_DEFAULT_CHUNK_ELEMENTS = 1 << 18

#: Keys per hash block of the one-seed fold: the block's hash buffer and
#: its scratch (1 MB together) stay cache-resident while every
#: super-group field is sliced out of them.
_FOLD_BLOCK_KEYS = 1 << 16

_INT64_MIN = -(1 << 63)


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
    if seeds.size > 1:
        # Sorted neighbours, not np.unique: numpy's hash-based unique pays
        # a one-off cost of ~15 ms on its first call in a process, which a
        # freshly forked PE would spend on its first window block.
        ordered = np.sort(seeds)
        if np.any(ordered[1:] == ordered[:-1]):
            # A duplicated seed re-runs the *same* checker: the observed
            # lanes agree by construction and the claimed δ^T bound
            # silently degrades to δ^(distinct seeds).  Refuse rather
            # than over-promise.
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
    (``values`` and ``inverse`` are kept for exactly that path).  A
    raw-pair view (:func:`_pairs_condensed`) builds ``inverse`` only on
    that path and leaves it None otherwise.
    """

    unique_keys: np.ndarray
    inverse: np.ndarray | None
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
    accumulation path exactly as
    :func:`~repro.core.sum_checker.reference_tables` does.
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
    The view allocates only what its accumulation path reads: int64
    values are not copied, xor needs no magnitude bound, and the
    identity ``inverse`` exists only on the per-element path.
    """
    keys = _coerce_keys(keys)
    values = _coerce_values(values)
    if keys.size != values.size:
        raise ValueError(
            f"keys and values differ in length: {keys.size} vs {values.size}"
        )
    inverse = agg = agg_float = agg_xor = None
    if operator == "xor":
        agg_xor = values.view(np.uint64)
    elif keys.size:
        bound = _magnitude_bound(values)
        if bound < (1 << _CHUNK_BITS):
            agg = values
            agg_float = values.astype(np.float64)
        elif bound < (1 << 63):
            agg = values
        else:
            inverse = np.arange(keys.size, dtype=np.intp)
    return CondensedKV(keys, inverse, values, agg, agg_float, agg_xor)


def _coerced_chunks(chunks, coerce) -> list[np.ndarray]:
    """Each chunk of a side through ``coerce``; one array is one chunk."""
    if not isinstance(chunks, (list, tuple)):
        chunks = [chunks]
    return [coerce(c) for c in chunks]


def _side_size(keys: list, values: list) -> int:
    """The pair count of a side given as coerced chunk lists."""
    n_keys = sum(c.size for c in keys)
    n_values = sum(c.size for c in values)
    if n_keys != n_values:
        raise ValueError(
            f"keys and values differ in length: {n_keys} vs {n_values}"
        )
    return n_keys


def _peel_marginals(lead: np.ndarray, d: int, out: np.ndarray) -> None:
    """The ``m = len(out)`` per-iteration marginals of a super-group count.

    ``lead`` is a ``d**m``-bin bincount; as a C-order ``(d,)*m`` cube,
    axis ``a`` holds the bits of iteration ``m - 1 - a`` of the group.
    Peel the leading axis off one at a time: its row sums are that
    iteration's marginal, its column sums carry the other axes on
    (~2·d**m adds in all, not m·d**m).  Every partial sum is a subset
    sum of the values, exact in float64 under the Σ|v| < 2^52 guard.
    """
    for q in range(out.shape[0] - 1, 0, -1):
        grid = lead.reshape(d, -1)
        grid.sum(axis=1, dtype=np.float64, out=out[q])
        lead = grid.sum(axis=0, dtype=np.float64)
    out[0] = lead


class MultiSeedSumChecker:
    """``T`` independent Algorithm 1 checkers evaluated in one data pass.

    Parameters
    ----------
    config:
        Shared bucket count, modulus parameter, iteration count, hash family.
    seeds:
        One root seed (``T = 1``) or an array of ``T`` distinct roots; seed
        ``t``'s tables equal ``reference_tables(config, seeds[t], ...)``.
    operator:
        ``"+"`` (sum, count, average, median) or ``"xor"``.
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
    def _condense(self, keys, values) -> CondensedKV:
        """One side as the fold reads it: raw pairs at ``T = 1``, unique
        keys otherwise (sorting pays only when many lanes hash them)."""
        if self.num_seeds == 1:
            return _pairs_condensed(keys, values, self.operator)
        return condense_kv(keys, values, self.operator)

    def local_tables(self, keys, values) -> np.ndarray:
        """Condensed reductions of all seeds: ``(T, iterations, d)`` int64.

        ``out[t]`` equals ``reference_tables(config, seeds[t], keys,
        values, operator)``.
        """
        return self.local_tables_condensed(self._condense(keys, values))

    def local_difference(self, input_chunks, asserted_kv):
        """``difference(local_tables(*input), local_tables(*asserted_kv))``
        from one fold, and the input side as one pair of arrays.

        ``input_chunks`` is ``(key_chunks, value_chunks)``: the input
        side as lists of arrays (a window's raw chunks; each is coerced
        on its own, so int64 and uint64 chunks may mix; one array is a
        list of one), both lists holding the same number of pairs in
        all.
        ``asserted_kv`` is a ``(keys, values)`` pair.

        The tables are linear in the (key, value) multiset, so the two
        sides fold as one signed multiset.  The keys of every chunk and
        of the asserted side are concatenated once into one buffer, and
        the values once into another, whose asserted part is negated in
        place under ``"+"`` (the residues then come out as ``(S_in −
        S_out) mod r``) and left as it is under ``"xor"``.  One hash
        pass and one set of bincounts over that buffer replace one per
        side, bit-identical to the difference of the separate tables
        because every accumulation path is exact for the signed union as
        well.  An asserted value of ``−2^63``, whose negation overflows
        int64, makes each side fold on its own.

        Returns ``(diff, input_side)``: the ``(T, iterations, d)``
        ⊕-difference tensor and the input side as one coerced ``(keys,
        values)`` pair, views of the fold's buffers, which a caller
        keeps to escalate or localize the check.
        """
        key_chunks, value_chunks = input_chunks
        in_k = _coerced_chunks(key_chunks, _coerce_keys)
        in_v = _coerced_chunks(value_chunks, _coerce_values)
        out_k = _coerce_keys(asserted_kv[0])
        out_v = _coerce_values(asserted_kv[1])
        # With the input side's lengths equal, the buffers differ in
        # length iff the output's columns do, which the fold refuses.
        n = _side_size(in_k, in_v)
        keys = np.concatenate([*in_k, out_k])
        values = np.concatenate([*in_v, out_v])
        input_side = (keys[:n], values[:n])
        if self.operator == "+":
            asserted = values[n:]
            if asserted.size and int(asserted.min()) == _INT64_MIN:
                diff = self.difference(
                    self.local_tables(*input_side),
                    self.local_tables(out_k, out_v),
                )
                return diff, input_side
            np.negative(asserted, out=asserted)
        return self.local_tables(keys, values), input_side

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
                        sums = np.bincount(
                            block[j], weights=agg_float, minlength=cfg.d
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
        into a single index (:func:`superbucket_plan`), so *one*
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
        if self.num_seeds == 1:
            self._fold_one_seed(condensed, tables)
            return
        cfg = self.config
        agg_float = condensed.agg_float
        for start, count, supers in iter_superbucket_blocks(
            self._family, cfg.d, cfg.iterations, self._bucket_seeds,
            condensed.unique_keys, self.chunk_elements,
            eval_seeds=self._eval_seeds,
        ):
            sums = np.empty((count, cfg.iterations, cfg.d), dtype=np.float64)
            for j0, m, idx in supers:
                for c in range(count):
                    lead = np.bincount(
                        idx[c], weights=agg_float, minlength=cfg.d**m
                    )
                    _peel_marginals(lead, cfg.d, sums[c, j0 : j0 + m])
            tables[start : start + count] = (
                sums.astype(np.int64)
                % self.moduli[start : start + count, :, None]
            )

    def _fold_one_seed(
        self, condensed: CondensedKV, tables: np.ndarray
    ) -> None:
        """:meth:`_accumulate_supergroups` at ``T = 1``, without lanes.

        One seed needs no lane hasher and no seed blocks.  Each hash
        evaluation runs once per block of :data:`_FOLD_BLOCK_KEYS` keys,
        straight from the seeded function into a reused buffer
        (:meth:`~repro.hashing.families.HashFunction.hash_into`; Mix
        mixes in place), and every super-group field of the
        :func:`superbucket_plan` is written from it into its own intp
        row.  Each row then takes one weighted bincount, its marginals
        are peeled in float64, and the table gets one cast and one
        modulo.  Bit-identical to the lane path.
        """
        cfg = self.config
        keys = condensed.unique_keys
        weights = condensed.agg_float
        k = keys.size
        plan = superbucket_plan(self._family.bits, cfg.d, cfg.iterations, k)
        fns = [self._family.build(s) for s in self._eval_seeds[:, 0].tolist()]
        width = min(k, _FOLD_BLOCK_KEYS)
        h = np.empty(width, dtype=np.uint64)
        scratch = np.empty(width, dtype=np.uint64)
        rows = np.empty((sum(len(ev.groups) for ev in plan), k), dtype=np.intp)
        # Every field is below 2**width, so its uint64 word is its intp
        # index: one broadcast shift and mask write all of an
        # evaluation's fields straight into its rows.
        words = rows.view(np.uint64)
        for start in range(0, k, _FOLD_BLOCK_KEYS):
            end = min(start + _FOLD_BLOCK_KEYS, k)
            n = end - start
            first = 0
            for fn, ev in zip(fns, plan):
                fn.hash_into(keys[start:end], h[:n], scratch[:n])
                dst = words[first : first + len(ev.groups), start:end]
                np.right_shift(h[:n], ev.shifts, out=dst)
                np.bitwise_and(dst, ev.masks, out=dst)
                first += len(ev.groups)
        sums = np.empty((cfg.iterations, cfg.d), dtype=np.float64)
        groups = [group for ev in plan for group in ev.groups]
        for row, (j0, m, _, bits) in zip(rows, groups):
            lead = np.bincount(row, weights=weights, minlength=1 << bits)
            _peel_marginals(lead, cfg.d, sums[j0 : j0 + m])
        np.remainder(
            sums.astype(np.int64), self.moduli[0, :, None], out=tables[0]
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
            checker="sum-aggregation",
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
        seeds settle in one ``allreduce`` of the packed tensor, which is
        the whole point of the shared wire format.  Every PE reads its
        flags from the identical combined bytes, so no verdict broadcast
        follows.
        """
        if comm is not None:

            def wire_op(a: bytes, b: bytes) -> bytes:
                return self.pack(self.combine(self.unpack(a), self.unpack(b)))

            diff = self.unpack(comm.allreduce(self.pack(diff), wire_op))
        return (~np.any(diff != 0, axis=(1, 2))).tolist()

    def check_local(self, input_kv, asserted_kv) -> CheckResult:
        """Single-PE check; accepted iff every seed's checker accepts."""
        return self.check_local_condensed(
            self._condense(*input_kv), self._condense(*asserted_kv)
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
            comm, self._condense(*input_kv), self._condense(*asserted_kv)
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


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------

_DEFAULT_CONFIG = SumCheckConfig(iterations=8, d=16, rhat=1 << 15)


def check_sum_aggregation(
    input_kv,
    asserted_kv,
    config: SumCheckConfig | None = None,
    seed=0,
    comm=None,
    operator: str = "+",
) -> CheckResult:
    """Check a sum aggregation; sequential if ``comm`` is None.

    ``input_kv`` and ``asserted_kv`` are ``(keys, values)`` array pairs
    (the local slices when running under a communicator).  ``seed`` is
    one root seed or an array of ``T`` distinct roots, checked in one data
    pass and, distributed, one collective: ``per_seed_accepted[t]`` equals
    the check under ``seeds[t]`` alone, and the result is accepted iff
    every seed accepts (failure probability δ^T).
    """
    checker = MultiSeedSumChecker(config or _DEFAULT_CONFIG, seed, operator)
    if comm is None:
        return checker.check_local(input_kv, asserted_kv)
    return checker.check_distributed(comm, input_kv, asserted_kv)


def check_count_aggregation(
    input_keys,
    asserted_kv,
    config: SumCheckConfig | None = None,
    seed=0,
    comm=None,
) -> CheckResult:
    """Count aggregation = sum aggregation of ones (§4); ``seed`` as in
    :func:`check_sum_aggregation`."""
    keys = np.asarray(input_keys)
    ones = np.ones(keys.shape, dtype=np.int64)
    return check_sum_aggregation(
        (keys, ones), asserted_kv, config=config, seed=seed, comm=comm
    )
