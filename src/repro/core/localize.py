"""Fault localization: turn a failed sum-check verdict into a ``FaultReport``.

The §4 checkers are one-sided: a REJECT proves the asserted aggregates are
wrong somewhere, but the verdict itself says nothing about *where*.  This
module recovers the "where" from state the check already paid for:

1. **Guilty buckets.**  The per-seed per-iteration ⊕-difference tables
   (:class:`~repro.core.multiseed.MultiSeedSumChecker`) are combined
   globally once, so every PE holds the same ``(T, iterations, d)``
   difference tensor; its nonzero entries name the hash buckets whose
   minireductions disagree.
2. **Suspect keys.**  A key corrupted by aggregate delta δ perturbs bucket
   ``h_{t,j}(key)`` in *every* lane (unless δ ≡ 0 mod r, in which case
   that lane did not reject either).  Intersecting "bucket is guilty"
   across all ``T × iterations`` lanes therefore keeps every single-fault
   key while discarding the overwhelming majority of clean keys — the
   same amortized hash pass the checker uses, over unique keys only.
3. **Key-range bisection.**  The surviving suspects carry per-lane residue
   contributions (input side ⊕, asserted side ⊖), so the ⊕-difference of
   any key interval is a cheap masked scatter — no re-condensation, no
   second pass over raw data.  Each round splits every live interval at
   its midpoint and settles *all* halves' restricted tables in **one**
   collective; halves whose combined tables are zero are provably clean
   (their pairs cancel exactly) and are dropped.  Rounds are logarithmic
   in the suspect key span.
4. **Implicated PEs.**  The PEs whose asserted-output slice intersects the
   final ranges are named by one allgather.

Every decision that steers control flow (clean/faulty, interval liveness,
loop exit) is derived from a collective's replicated result, so all PEs
walk the same rounds in lockstep — the property ``repro.analysis``'s
``collective-lockstep`` rule checks statically.

Windows are localized for free: the streaming layer settles one verdict
per window, so the failing window is known before this module runs; its
id is threaded through ``window=`` into the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.comm import ops
from repro.core.multiseed import (
    CondensedKV,
    MultiSeedSumChecker,
    condense_kv,
)
from repro.core.params import SumCheckConfig

__all__ = ["FaultReport", "localize_fault"]

#: Sentinels for the packed bounds reduction (min over empty = +inf).
_NO_MIN = np.iinfo(np.int64).max
_NO_MAX = np.iinfo(np.int64).min

_SIGN_BIT = 1 << 63


def _pack_key(key: int) -> int:
    """Map a uint64 key onto int64 preserving order (top-bit bias)."""
    return (int(key) ^ _SIGN_BIT) - _SIGN_BIT


def _unpack_key(packed: int) -> int:
    """Inverse of :func:`_pack_key`."""
    return (int(packed) + _SIGN_BIT) ^ _SIGN_BIT


@dataclass
class FaultReport:
    """Where a failed sum-check verdict points.

    ``key_ranges`` are inclusive ``[lo, hi]`` intervals of (coerced
    uint64) key space — every corrupted key lies inside their union
    unless ``localized`` is False.  ``windows`` carries the rejected
    window id(s) when the caller settles windowed streams; ``pes`` the
    ranks whose asserted-output slice intersects the ranges.
    ``guilty_buckets[t][j]`` lists the nonzero buckets of seed ``t``,
    iteration ``j`` in the globally combined difference tensor.
    """

    localized: bool
    windows: list[int]
    key_ranges: list[tuple[int, int]]
    pes: list[int]
    guilty_buckets: list[list[list[int]]]
    suspect_keys: int
    bisection_rounds: int
    localization_seconds: float
    exhausted: bool = False
    details: dict = field(default_factory=dict)

    @property
    def num_ranges(self) -> int:
        return len(self.key_ranges)


# -- replicated-result helpers (comm-guarded; distributed arm ends in a
# collective, so call sites may steer control flow on the results) ---------


def _combine_packed(comm, checker: MultiSeedSumChecker, payload: bytes):
    """Globally ⊕-combined packed difference tensor (one collective)."""
    if comm is None:
        return payload

    def wire_op(a: bytes, b: bytes) -> bytes:
        return checker.pack(
            checker.combine(checker.unpack(a), checker.unpack(b))
        )

    return comm.allreduce(payload, op=wire_op)


def _bounds_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Combine two packed bounds vectors: counts add, bounds min/max."""
    return np.array(
        [
            a[0] + b[0],
            min(a[1], b[1]),
            max(a[2], b[2]),
            a[3] + b[3],
            min(a[4], b[4]),
            max(a[5], b[5]),
        ],
        dtype=np.int64,
    )


def _global_bounds(comm, payload: np.ndarray):
    """Agreed [#suspects, lo, hi, #keys, lo_all, hi_all] (one collective)."""
    if comm is None:
        return payload
    return comm.allreduce(payload, op=_bounds_op)


def _combine_tables(comm, tables: np.ndarray, operator: str):
    """Elementwise global ⊕ of the round's half-tables (one collective).

    ``"+"`` residues are summed raw — each PE ships entries in
    ``[0, r)``, so the sum stays far below int64 and the caller takes
    one ``% r`` on the combined tensor; xor tables combine by xor.
    """
    if comm is None:
        return tables
    if operator == "xor":
        return comm.allreduce(
            tables,
            op=lambda a, b: (
                a.view(np.uint64) ^ b.view(np.uint64)
            ).view(np.int64),
        )
    return comm.allreduce(tables, op=ops.SUM)


def _implicated_pes(comm, flag: bool):
    """Ranks whose local flag is set, agreed on every PE (one allgather)."""
    if comm is None:
        return [0] if flag else []
    flags = comm.allgather(bool(flag))
    return [i for i, f in enumerate(flags) if f]


# -- local (collective-free) kernels ---------------------------------------


def _guilty_luts(checker: MultiSeedSumChecker, gdiff: np.ndarray) -> list:
    """Per-lane boolean bucket lookups of the nonzero difference entries."""
    cfg = checker.config
    luts = []
    for t in range(checker.num_seeds):
        row = []
        for j in range(cfg.iterations):
            lut = np.zeros(cfg.d, dtype=bool)
            lut[np.flatnonzero(gdiff[t, j])] = True
            row.append(lut)
        luts.append(row)
    return luts


def _suspect_masks(
    checker: MultiSeedSumChecker,
    cin: CondensedKV,
    cout: CondensedKV,
    luts: list,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-side masks of keys whose bucket is guilty in almost all lanes.

    Works over the *union* of both sides' unique keys (they are near
    identical for a reduce window) and processes one seed at a time: keys
    whose accumulated miss count exceeds the slack are dropped before the
    next seed is hashed, so later seeds touch only survivors — the whole
    filter costs about one hash evaluation per union key.

    The slack (``≈ lanes/4`` missed lanes allowed) absorbs multi-fault
    cancellation: ±v deltas of a fault pair sharing a bucket zero that
    lane and would knock both true suspects out of an exact all-lanes
    intersection.  Deep cancellation past the slack still loses a
    suspect; the caller's completeness self-check catches that and falls
    back to the full key population.
    """
    cfg = checker.config
    kin, kout = cin.unique_keys, cout.unique_keys
    # Both sides are sorted-unique; for a reduce window they are usually
    # the *same* key set, so the union is a memcmp, not a hash pass.
    same = kin.size == kout.size and bool(np.array_equal(kin, kout))
    if same:
        union = kin
    else:
        merged = np.concatenate([kin, kout])
        merged = merged[np.argsort(merged, kind="stable")]
        union = (
            merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
            if merged.size
            else merged
        )
    lanes = checker.num_seeds * cfg.iterations
    slack = max(1, lanes // 4)
    alive = np.arange(union.size, dtype=np.intp)
    misses = np.zeros(union.size, dtype=np.int64)
    for t in range(checker.num_seeds):
        rows = checker.seed_lane_buckets(t, union[alive])
        for j in range(cfg.iterations):
            misses += ~luts[t][j][rows[j]]
        keep = misses <= slack
        alive = alive[keep]
        misses = misses[keep]
    mask_u = np.zeros(union.size, dtype=bool)
    mask_u[alive] = True
    if same:
        return mask_u, mask_u.copy()
    mask_in = mask_u[np.searchsorted(union, kin)]
    mask_out = mask_u[np.searchsorted(union, kout)]
    return mask_in, mask_out


def _suspect_contrib(
    condensed: CondensedKV, idx: np.ndarray, r: int, operator: str
) -> np.ndarray:
    """Per-suspect ⊕-contribution of one side under modulus ``r``.

    Uses the condensation's exact per-key aggregates when present; the
    beyond-int64 fallback re-reduces only the suspects' elements mod r
    (exact, same chunked discipline as the checker's slow path).
    """
    if operator == "xor":
        return condensed.agg_xor[idx].view(np.int64)
    if condensed.agg is not None:
        return (condensed.agg[idx] % r).astype(np.int64)
    slot = np.full(condensed.unique_keys.size, -1, dtype=np.intp)
    slot[idx] = np.arange(idx.size, dtype=np.intp)
    el_slot = slot[condensed.inverse]
    sel = el_slot >= 0
    out = np.zeros(idx.size, dtype=np.int64)
    np.add.at(out, el_slot[sel], condensed.values[sel] % r)
    return out % r


def _suspect_lanes(
    checker: MultiSeedSumChecker,
    cin: CondensedKV,
    mask_in: np.ndarray,
    cout: CondensedKV,
    mask_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged suspect arrays: sorted keys, per-lane buckets and residues.

    Input-side suspects contribute ``+agg mod r``, asserted-side suspects
    the ``r``-complement (xor is its own inverse), so any key interval's
    restricted ⊕-difference table is a plain masked scatter over these
    arrays — evaluated per bisection half without touching raw data.
    """
    cfg = checker.config
    idx_in = np.flatnonzero(mask_in)
    idx_out = np.flatnonzero(mask_out)
    keys = np.concatenate(
        [cin.unique_keys[idx_in], cout.unique_keys[idx_out]]
    )
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    s = skeys.size
    t_seeds = checker.num_seeds
    sbuckets = np.zeros((t_seeds, cfg.iterations, s), dtype=np.intp)
    scontrib = np.zeros((t_seeds, cfg.iterations, s), dtype=np.int64)
    if s == 0:
        return skeys, sbuckets, scontrib
    n_in = idx_in.size
    for t, j, buckets in checker.iter_lane_buckets(cin.unique_keys[idx_in]):
        sbuckets[t, j, :n_in] = buckets
    for t, j, buckets in checker.iter_lane_buckets(cout.unique_keys[idx_out]):
        sbuckets[t, j, n_in:] = buckets
    for t in range(t_seeds):
        for j in range(cfg.iterations):
            r = int(checker.moduli[t, j])
            cin_c = _suspect_contrib(cin, idx_in, r, checker.operator)
            cout_c = _suspect_contrib(cout, idx_out, r, checker.operator)
            if checker.operator == "+":
                cout_c = (r - cout_c) % r
            scontrib[t, j, :n_in] = cin_c
            scontrib[t, j, n_in:] = cout_c
    # Reorder lane columns into merged key order.
    sbuckets = sbuckets[:, :, order]
    scontrib = scontrib[:, :, order]
    return skeys, sbuckets, scontrib


def _half_tables(
    checker: MultiSeedSumChecker,
    skeys: np.ndarray,
    sbuckets: np.ndarray,
    scontrib: np.ndarray,
    halves: list[tuple[int, int]],
) -> np.ndarray:
    """Local restricted ⊕-difference tables of every candidate half."""
    cfg = checker.config
    t_seeds = checker.num_seeds
    tabs = np.zeros(
        (len(halves), t_seeds, cfg.iterations, cfg.d), dtype=np.int64
    )
    utabs = tabs.view(np.uint64)
    for h, (a, b) in enumerate(halves):
        i0 = int(np.searchsorted(skeys, np.uint64(a), side="left"))
        i1 = int(np.searchsorted(skeys, np.uint64(b), side="right"))
        if i0 == i1:
            continue
        for t in range(t_seeds):
            for j in range(cfg.iterations):
                if checker.operator == "xor":
                    np.bitwise_xor.at(
                        utabs[h, t, j],
                        sbuckets[t, j, i0:i1],
                        scontrib[t, j, i0:i1].view(np.uint64),
                    )
                else:
                    np.add.at(
                        tabs[h, t, j],
                        sbuckets[t, j, i0:i1],
                        scontrib[t, j, i0:i1],
                    )
                    tabs[h, t, j] %= int(checker.moduli[t, j])
    return tabs


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Coalesce adjacent/overlapping inclusive ranges, sorted ascending."""
    merged: list[tuple[int, int]] = []
    for a, b in sorted(ranges):
        if merged and a <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _in_ranges(keys: np.ndarray, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Boolean mask of ``keys`` inside the union of inclusive ranges."""
    mask = np.zeros(np.asarray(keys).size, dtype=bool)
    for a, b in ranges:
        mask |= (keys >= np.uint64(a)) & (keys <= np.uint64(b))
    return mask


# -- entry point -----------------------------------------------------------


def localize_fault(
    input_side,
    asserted_side,
    config: SumCheckConfig,
    seeds=0,
    comm=None,
    *,
    operator: str = "+",
    window: int | None = None,
    max_rounds: int = 64,
    max_ranges: int = 32,
    diff: np.ndarray | None = None,
) -> FaultReport:
    """Localize a failed Theorem 1 verdict to key range(s) and PE(s).

    ``input_side`` / ``asserted_side`` are ``(keys, values)`` pairs or
    already-built :class:`CondensedKV` sides — pass the condensations the
    failed check retained (e.g. the sides a window settle condensed to
    escalate) and localization never re-reads a chunk.  ``seeds`` follows the multi-seed checker
    convention (scalar or array; more seeds → sharper bucket filter).

    All PEs must call collectively.  The return value is replicated:
    every PE gets the same report, so callers may branch on it (repair,
    quarantine) without desynchronizing.  ``max_rounds`` caps bisection
    depth, ``max_ranges`` the number of tracked intervals; hitting either
    cap sets ``exhausted`` and reports the coarser surviving ranges.

    ``diff`` short-circuits the table re-evaluation: pass the *local*
    per-seed ⊕-difference tensor the failed check already computed (same
    ``config``/``seeds``/``operator``) and localization's only full pass
    over the data is the one hash sweep of the suspect prefilter.
    """
    t_start = time.perf_counter()
    cin = (
        input_side
        if isinstance(input_side, CondensedKV)
        else condense_kv(*input_side, operator)
    )
    cout = (
        asserted_side
        if isinstance(asserted_side, CondensedKV)
        else condense_kv(*asserted_side, operator)
    )
    checker = MultiSeedSumChecker(config, np.atleast_1d(seeds), operator)

    # One packed collective: every PE holds the same global ⊕-difference.
    if diff is None:
        diff = checker.difference(
            checker.local_tables_condensed(cin),
            checker.local_tables_condensed(cout),
        )
    gdiff = checker.unpack(_combine_packed(comm, checker, checker.pack(diff)))
    guilty = [
        [np.flatnonzero(gdiff[t, j]).tolist() for j in range(config.iterations)]
        for t in range(checker.num_seeds)
    ]
    clean = not bool(np.any(gdiff))
    details = {
        "config": config.label(),
        "operator": operator,
        "num_seeds": checker.num_seeds,
    }
    if clean:
        # The check (re-evaluated under these seeds) accepts: nothing to
        # localize.  Uniform across PEs — gdiff is the combined tensor.
        return FaultReport(
            localized=False,
            windows=[] if window is None else [window],
            key_ranges=[],
            pes=[],
            guilty_buckets=guilty,
            suspect_keys=0,
            bisection_rounds=0,
            localization_seconds=time.perf_counter() - t_start,
            details=details,
        )

    # Guilty-bucket prefilter, then agree on suspect count and key bounds.
    luts = _guilty_luts(checker, gdiff)
    mask_in, mask_out = _suspect_masks(checker, cin, cout, luts)
    payload = _bounds_payload(cin, mask_in, cout, mask_out)
    bounds = _global_bounds(comm, payload)
    if int(bounds[0]) == 0:
        # Multi-fault cancellation starved the filter on every PE: fall
        # back to bisection over the full key population.
        mask_in = np.ones(cin.unique_keys.size, dtype=bool)
        mask_out = np.ones(cout.unique_keys.size, dtype=bool)
        lo, hi = _unpack_key(int(bounds[4])), _unpack_key(int(bounds[5]))
        suspect_total = int(bounds[3])
    else:
        lo, hi = _unpack_key(int(bounds[1])), _unpack_key(int(bounds[2]))
        suspect_total = int(bounds[0])
    details["prefilter_exhausted"] = int(bounds[0]) == 0

    skeys, sbuckets, scontrib = _suspect_lanes(
        checker, cin, mask_in, cout, mask_out
    )

    # Self-check: the suspects must reproduce the entire difference.
    # Multi-fault cancellation can hide a guilty key from one lane and
    # knock it out of the all-lanes intersection even when the filter
    # stays non-empty (IncDec's ±v pairs sharing a bucket).  One
    # collective; on a shortfall, widen to the full key population like
    # the empty-filter fallback above.
    if int(bounds[0]) != 0:
        whole = _combine_tables(
            comm,
            _half_tables(checker, skeys, sbuckets, scontrib, [(lo, hi)]),
            operator,
        )[0]
        if operator == "xor":
            complete = bool(
                np.array_equal(whole.view(np.uint64), gdiff.view(np.uint64))
            )
        else:
            complete = bool(
                np.all(whole % checker.moduli[:, :, None] == gdiff)
            )
        if not complete:
            details["prefilter_incomplete"] = True
            mask_in = np.ones(cin.unique_keys.size, dtype=bool)
            mask_out = np.ones(cout.unique_keys.size, dtype=bool)
            lo = _unpack_key(int(bounds[4]))
            hi = _unpack_key(int(bounds[5]))
            suspect_total = int(bounds[3])
            skeys, sbuckets, scontrib = _suspect_lanes(
                checker, cin, mask_in, cout, mask_out
            )

    # Replicated bisection: one collective per round, lockstep loop exits.
    pending = [(int(np.uint64(lo)), int(np.uint64(hi)))]
    final: list[tuple[int, int]] = []
    n_final = 0
    rounds = 0
    exhausted = False
    while True:
        splittable = []
        n_split = 0
        for a, b in pending:
            if b <= a:
                final.append((a, b))
                n_final += 1
            else:
                splittable.append((a, b))
                n_split += 1
        if not splittable:
            break
        if rounds >= max_rounds or n_final + 2 * n_split > max_ranges:
            exhausted = True
            final.extend(splittable)
            break
        halves = []
        for a, b in splittable:
            m = (a + b) // 2
            halves.append((a, m))
            halves.append((m + 1, b))
        tabs = _half_tables(checker, skeys, sbuckets, scontrib, halves)
        combined = _combine_tables(comm, tabs, operator)
        if operator == "xor":
            nz = np.any(combined != 0, axis=(1, 2, 3))
        else:
            residue = combined % checker.moduli[None, :, :, None]
            nz = np.any(residue != 0, axis=(1, 2, 3))
        pending = [h for h, keep in zip(halves, nz.tolist()) if keep]
        rounds += 1

    ranges = _merge_ranges(final)
    has_local = bool(np.any(_in_ranges(cout.unique_keys, ranges)))
    pes = _implicated_pes(comm, has_local)
    return FaultReport(
        localized=True,
        windows=[] if window is None else [window],
        key_ranges=ranges,
        pes=pes,
        guilty_buckets=guilty,
        suspect_keys=suspect_total,
        bisection_rounds=rounds,
        localization_seconds=time.perf_counter() - t_start,
        exhausted=exhausted,
        details=details,
    )


def _bounds_payload(
    cin: CondensedKV,
    mask_in: np.ndarray,
    cout: CondensedKV,
    mask_out: np.ndarray,
) -> np.ndarray:
    """Local [#suspects, lo, hi, #keys, lo_all, hi_all] for the reduction.

    Key bounds ride as top-bit-biased int64 (:func:`_pack_key`), so
    min/max order matches uint64 order over the full key space; the
    sentinel convention keeps empty PEs neutral.
    """

    def _minmax(keys: np.ndarray) -> tuple[int, int]:
        if keys.size == 0:
            return _NO_MIN, _NO_MAX
        return _pack_key(int(keys.min())), _pack_key(int(keys.max()))

    sus = np.concatenate(
        [cin.unique_keys[mask_in], cout.unique_keys[mask_out]]
    )
    all_keys = np.concatenate([cin.unique_keys, cout.unique_keys])
    s_lo, s_hi = _minmax(sus)
    a_lo, a_hi = _minmax(all_keys)
    return np.array(
        [sus.size, s_lo, s_hi, all_keys.size, a_lo, a_hi], dtype=np.int64
    )
