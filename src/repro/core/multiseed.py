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
* each side's keys are prepared **once**, whatever ``T`` is
  (:meth:`~repro.hashing.families.HashFamily.multiseed_hasher`: CRC's
  seed-0 base, Tab's key bytes, Mix's keys), and every seed then runs the
  same fold over that form, one seed at a time: :func:`seed_bucket_rows`
  hashes each 2^16-key block once per evaluation into a reused buffer
  and writes every bucket field of it into an intp row with one
  broadcast shift and mask;
* the float64 fast path counts several iterations per bincount through
  the super-groups of :func:`~repro.hashing.bitgroups.superbucket_plan`;
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
from itertools import accumulate

import numpy as np

from repro.core import domain
from repro.core.base import CheckResult
from repro.core.params import SumCheckConfig
from repro.core.sum_checker import (
    _CHUNK_BITS,
    _magnitude_bound,
    _scatter_add_mod,
    draw_moduli,
    pack_residues,
    unpack_residues,
)
from repro.hashing.bitgroups import evaluation_seeds, superbucket_plan
from repro.hashing.families import HashFamily, get_family, iter_hash_blocks
from repro.util.bits import is_power_of_two
from repro.util.rng import derive_seed_array

_INT64_MIN = -(1 << 63)


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
    keys = domain.words(keys)
    values = domain.values(values)
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
    keys = domain.words(keys)
    values = domain.values(values)
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


def seed_bucket_rows(
    family: HashFamily,
    hasher,
    keys: np.ndarray,
    eval_seeds: np.ndarray,
    d: int,
    iterations: int,
    plan=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One seed's bucket rows of ``keys``, hashed over their prepared form.

    ``hasher`` is ``family.multiseed_hasher(keys)``, built once per key
    array however many seeds read it; ``eval_seeds`` is one seed's column
    of :func:`~repro.hashing.bitgroups.evaluation_seeds`.  Returns
    ``(iterations, len(keys))`` intp rows, row ``j`` equal to row ``j`` of
    ``BucketAssigner(family, d, iterations, root).assign(keys)``.  Given a
    :func:`~repro.hashing.bitgroups.superbucket_plan` (power-of-two
    ``d``), the rows are its super-group fields instead, in plan order.
    ``out``, when given, is the intp array of that shape the rows are
    written into: a caller reading seeds one after another reuses one
    buffer, where a fresh one per seed would be allocated while the last
    is still held, and faulted in anew.

    Each evaluation hashes a 2^16-key block into a reused buffer
    (:func:`~repro.hashing.families.iter_hash_blocks`), and all of that
    evaluation's fields are written from it by one broadcast shift and
    one broadcast mask; for other ``d`` the one row of an evaluation is
    its hash mod ``d``.
    """
    pow2 = is_power_of_two(d)
    if pow2:
        if plan is None:
            # A plan for at most one key caps every super-group at one
            # iteration: one field per bucket row.
            plan = superbucket_plan(family.bits, d, iterations, 1)
        firsts = list(accumulate((len(ev.groups) for ev in plan), initial=0))
    shape = (firsts[-1] if pow2 else iterations, keys.size)
    rows = np.empty(shape, np.intp) if out is None else out
    # Every field is below 2**width (or d), so its uint64 word is its
    # intp index: write through a uint64 view and skip a casting pass.
    words = rows.view(np.uint64)
    for e, start, end, h in iter_hash_blocks(hasher, keys, eval_seeds):
        if not pow2:
            np.remainder(h, np.uint64(d), out=words[e, start:end])
            continue
        dst = words[firsts[e] : firsts[e + 1], start:end]
        np.right_shift(h, plan[e].shifts, out=dst)
        np.bitwise_and(dst, plan[e].masks, out=dst)
    return rows


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
    """

    def __init__(self, config: SumCheckConfig, seeds, operator: str = "+"):
        if operator not in ("+", "xor"):
            raise ValueError(f"unsupported reduce operator {operator!r}")
        self.config = config
        self.operator = operator
        self.seeds = domain.seeds(seeds)
        self.num_seeds = self.seeds.size
        self._family = get_family(config.hash_family)
        # (T, iterations) moduli — row t equals the scalar checker's draw.
        self.moduli = draw_moduli(config, self.seeds)
        # The (evaluations, T) hash seeds under each seed's bucket-hash
        # root, matching BucketAssigner's derive_seed(seed, "sum-checker",
        # "buckets") construction — derived here once, not once per fold.
        self._eval_seeds = evaluation_seeds(
            self._family, config.d, config.iterations,
            derive_seed_array(self.seeds, "sum-checker", "buckets"),
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
        in_k = _coerced_chunks(key_chunks, domain.words)
        in_v = _coerced_chunks(value_chunks, domain.values)
        out_k = domain.words(asserted_kv[0])
        out_v = domain.values(asserted_kv[1])
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
        keys = condensed.unique_keys
        values = condensed.values
        inverse = condensed.inverse
        # The prepared form of the keys, built once whatever T is.
        hasher = self._family.multiseed_hasher(keys)
        plan = None
        if agg_float is not None and is_power_of_two(cfg.d):
            # Super-group fast path: one weighted bincount covers up to
            # m adjacent iterations at once (16 super-bits, capped at
            # d**m <= k), each iteration's counts falling out as cube
            # marginals.
            plan = superbucket_plan(
                self._family.bits, cfg.d, cfg.iterations, keys.size
            )
        rows = None
        for t in range(self.num_seeds):
            rows = seed_bucket_rows(
                self._family, hasher, keys, self._eval_seeds[:, t],
                cfg.d, cfg.iterations, plan, out=rows,
            )
            if plan is not None:
                self._fold_supergroups(rows, plan, agg_float, t, tables)
                continue
            for j, row in enumerate(rows):
                r = int(self.moduli[t, j])
                if agg_float is not None:
                    # Raw weighted bincount per lane, one deferred mod at
                    # the end (exact under `bound`).
                    sums = np.bincount(row, weights=agg_float, minlength=cfg.d)
                    tables[t, j] = sums.astype(np.int64) % r
                elif self.operator == "xor":
                    np.bitwise_xor.at(utables[t, j], row, agg_xor)
                elif agg is not None:
                    _scatter_add_mod(tables[t, j], row, agg % r, r)
                else:
                    _scatter_add_mod(tables[t, j], row[inverse], values % r, r)
        return tables

    def iter_lane_buckets(self, keys):
        """Yield ``(seed_index, iteration, bucket_row)`` for every lane.

        ``bucket_row`` is the ``d``-bucket assignment of ``keys`` under
        seed ``seeds[seed_index]``'s iteration — the rows the table fold
        reads (:func:`seed_bucket_rows`), one seed at a time over one
        prepared form of ``keys``, exposed for consumers that intersect
        bucket memberships (fault localization's guilty-bucket filter).
        """
        keys = np.ascontiguousarray(domain.words(keys))
        if keys.size == 0:
            return
        hasher = self._family.multiseed_hasher(keys)
        for t in range(self.num_seeds):
            for j, row in enumerate(self._bucket_rows(hasher, keys, t)):
                yield t, j, row

    def seed_lane_buckets(self, t: int, keys) -> np.ndarray:
        """Bucket assignments of ``keys`` under seed ``t`` alone.

        Returns shape ``(iterations, len(keys))`` — one hash evaluation
        per key, all iteration lanes extracted from it.  Lets a consumer
        process seeds one at a time over a shrinking key set (fault
        localization's progressive prefilter) instead of paying every
        seed up front.
        """
        keys = np.ascontiguousarray(domain.words(keys))
        return self._bucket_rows(
            self._family.multiseed_hasher(keys), keys, t
        )

    def _bucket_rows(self, hasher, keys: np.ndarray, t: int) -> np.ndarray:
        cfg = self.config
        return seed_bucket_rows(
            self._family, hasher, keys, self._eval_seeds[:, t],
            cfg.d, cfg.iterations,
        )

    def _fold_supergroups(
        self, rows: np.ndarray, plan, weights: np.ndarray, t: int,
        tables: np.ndarray,
    ) -> None:
        """Seed ``t``'s tables from its super-group rows (float64 path).

        Up to ``m`` adjacent bit-groups of one hash evaluation are packed
        into a single index (:func:`superbucket_plan`), so *one*
        ``d**m``-bin weighted bincount per super-group replaces ``m``
        ``d``-bin passes over the keys.  Iteration ``j0 + q``'s bucket
        sums are the cube marginal over every other packed axis — exact,
        because every marginal partial sum is a subset sum of the values
        and therefore bounded by the same Σ|v| < 2^52 guard that selected
        ``agg_float``; the per-iteration residues are bit-identical to
        the per-group path.  The seed's table then gets one cast and one
        modulo.
        """
        cfg = self.config
        sums = np.empty((cfg.iterations, cfg.d), dtype=np.float64)
        groups = [group for ev in plan for group in ev.groups]
        for row, (j0, m, _, bits) in zip(rows, groups):
            lead = np.bincount(row, weights=weights, minlength=1 << bits)
            _peel_marginals(lead, cfg.d, sums[j0 : j0 + m])
        np.remainder(
            sums.astype(np.int64), self.moduli[t, :, None], out=tables[t]
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
