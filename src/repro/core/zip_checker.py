"""Zip checker (§6.4, Theorem 11): order-sensitive distributed fingerprints.

``Zip(S1, S2)`` pairs the sequences index-wise, generally moving elements
because the two inputs need not share a data distribution.  Verifying it
requires a hash of a *sequence* (order matters!) that is evaluable on
distributed data independently of how the data is split: the paper's choice
is the inner product with pseudo-random positional weights ``r_i = h'(i)``,
computable on the fly from each PE's global offset without communication.

We evaluate the inner product in the field F_p with the Mersenne prime
``p = 2^31 − 1``: weights and hashed values are reduced below 2^31 so
products fit int64 exactly, and a differing single position survives with
probability 1/p per iteration (boosted by independent iterations).

The fingerprint is linear in positions, so a slice fingerprinted at its
global offset adds up with every other slice: a window is checked by
fingerprinting its concatenation once.  One :func:`check_zip` call checks
``T`` root seeds (``seed`` may be an array): all ``T · iterations · 4``
fingerprints and the sequence lengths travel in ONE int64 ``SUM``
allreduce and are reduced modulo ``2^31 − 1`` afterwards.

Only what moved is hashed.  The paper fingerprints because "the elements
of (at least) one sequence need to be moved in the general case"; the
other sequence keeps its distribution (``zip_arrays`` keeps S1's).  An
output column that sits at its input's global offset with the same
words would add the same fingerprint to both sides of the comparison,
so such a pair contributes nothing and is not hashed.

A sequential check (``comm is None``) whose two pairs both sit in place
has nothing to fingerprint and nothing to sum: every fingerprint word
would be 0, so the verdict follows from the two comparisons and the
four lengths alone (:func:`_in_place_verdict`), with the words path's
``details``, per-seed flags and refusals.  That is every clean window
of a one-PE zip stream, where ``zip_arrays`` leaves both columns in
place.  Distributed checks keep the words tensor: its allreduce is the
collective every PE issues, whatever its own pairs hold.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.comm import ops
from repro.core import domain
from repro.core.base import CheckResult
from repro.hashing.families import get_family
from repro.util.rng import derive_seed

MERSENNE31 = (1 << 31) - 1

#: Elements fingerprinted per block: a block's positions and words stay
#: cache-resident while every (seed, iteration) lane reads them.
_CHUNK = 1 << 13


def _mod_p31(x: np.ndarray) -> np.ndarray:
    """Reduce int64 values (< 2^62) modulo 2^31 − 1 with shift-adds."""
    p = np.int64(MERSENNE31)
    x = (x & p) + (x >> np.int64(31))
    x = (x & p) + (x >> np.int64(31))
    return np.where(x >= p, x - p, x)


def _lane(seed: int, iteration: int) -> tuple:
    """The (positional weight ``h'``, value hash ``g``) pair of one lane.

    Built afresh, as each window draws fresh seeds.
    """
    mix = get_family("Mix")
    return (
        mix.instance(derive_seed(seed, "zip-pos", iteration)),
        mix.instance(derive_seed(seed, "zip-val", iteration)),
    )


def _fingerprints(values, global_offset: int, lanes: list) -> list[int]:
    """``Σ_i h'(offset+i) · g(x_i)  mod 2^31−1`` for every ``(h', g)`` lane."""
    words = domain.words(values, "columns")
    p = np.uint64(MERSENNE31)
    totals = [0] * len(lanes)
    for start in range(0, words.size, _CHUNK):
        block = words[start : start + _CHUNK]
        idx = np.arange(
            global_offset + start,
            global_offset + start + block.size,
            dtype=np.uint64,
        )
        for k, (weight_fn, value_fn) in enumerate(lanes):
            w = (weight_fn.hash_array(idx) % p).astype(np.int64)
            g = (value_fn.hash_array(block) % p).astype(np.int64)
            # Products reduce below 2^31, so a block's int64 sum is exact.
            totals[k] = (totals[k] + int(_mod_p31(w * g).sum())) % MERSENNE31
    return totals


def positional_fingerprint(
    values, global_offset: int, seed: int, iteration: int = 0
) -> int:
    """``Σ_i  h'(offset+i) · g(x_i)  mod 2^31−1`` over one local slice.

    ``h'`` supplies the positional weights and ``g`` hashes element values;
    both are fresh seeded SplitMix instances per iteration.  Needs only the
    slice's global offset — no data exchange (the "computed on the fly"
    property the paper requires).
    """
    return _fingerprints(values, global_offset, [_lane(seed, iteration)])[0]


def _global_offsets(comm, *local_counts: int) -> tuple[int, ...]:
    """All columns' offsets in ONE tuple-valued exscan (not one each).

    Mirrors :func:`repro.dataflow.exchange.global_offsets`; duplicated
    here because the core layer must not import the dataflow layer.
    """
    counts = tuple(int(c) for c in local_counts)
    if comm is None:
        return tuple(0 for _ in counts)
    return tuple(
        comm.exscan(
            counts,
            op=lambda a, b: tuple(x + y for x, y in zip(a, b)),
            identity=tuple(0 for _ in counts),
        )
    )


def _column_pairs(columns, offsets) -> list:
    """The check's two (input, output) column pairs, compared in place.

    ``columns`` are ``(s1, zipped_first, s2, zipped_second)``.  Each
    pair is ``(label, sides, in_place)``: ``sides`` holds ``(words,
    offset, column)`` for the input and for its output column, and
    ``in_place`` whether the two sit at the same global offset with
    equal words (:func:`~repro.core.domain.words`; equal words imply
    equal lengths).  An in-place pair would get the same fingerprint
    ``F`` on both sides under every lane, and dropping ``F`` from both
    sides of a comparison of sums changes no verdict, so such a pair is
    never hashed.
    """
    s1, first, s2, second = (domain.words(c, "columns") for c in columns)
    off1, off2, offz = (int(o) for o in offsets)
    pairs = []
    for label, sides in (
        ("lane1", ((s1, off1, 0), (first, offz, 1))),
        ("lane2", ((s2, off2, 2), (second, offz, 3))),
    ):
        (a, off_a, _), (b, off_b, _) = sides
        pairs.append((label, sides, off_a == off_b and np.array_equal(a, b)))
    return pairs


def _local_words(columns, pairs, roots: np.ndarray, iterations: int):
    """This PE's ``(T, iterations + 1, 4)`` int64 words of the check.

    ``columns`` are ``(s1, zipped_first, s2, zipped_second)`` and
    ``pairs`` their :func:`_column_pairs`.  Row ``j < iterations`` of
    seed ``t`` holds iteration ``j``'s fingerprints of the four columns;
    the last row holds the four column lengths.  A seed accepts iff in
    every row column 0 equals column 1 and column 2 equals column 3.  An
    in-place pair's words stay 0 and its lanes are never derived; every
    other pair is fingerprinted in full.
    """
    words = np.zeros((roots.size, iterations + 1, 4), dtype=np.int64)
    for label, sides, in_place in pairs:
        if in_place:
            continue
        lanes = [
            _lane(derive_seed(int(root), label), j)
            for root in roots
            for j in range(iterations)
        ]
        for values, offset, column in sides:
            words[:, :-1, column] = np.reshape(
                _fingerprints(values, offset, lanes), (roots.size, iterations)
            )
    words[:, -1] = [c.size for c in columns]
    return words


def _sum_over_pes(words: np.ndarray, comm) -> np.ndarray:
    """The words summed over all PEs: the check's one collective.

    A function of its own, so that its return, and the verdict
    :func:`_verdict` reads off it alone, is provably replicated: callers
    may branch on the verdict even when they passed per-PE ``offsets``
    (the ``collective-lockstep`` rule checks exactly this).
    """
    if comm is None:
        return words
    return comm.allreduce(words, op=ops.SUM)


def _verdict(words: np.ndarray) -> CheckResult:
    """The verdict and per-seed flags from the globally summed words.

    Everything is read off ``words`` (seed count and iterations from its
    shape), so the verdict is as replicated as the allreduce result.
    """
    rows = words.copy()
    rows[:, :-1] %= MERSENNE31
    # The lengths row is compared exactly: fingerprints of equal-sum
    # random values could in principle hide a length mismatch (they do
    # not for random weights, but the check is a single integer per PE).
    mismatch = (rows[..., 0] != rows[..., 1]) | (rows[..., 2] != rows[..., 3])
    # A ragged output (columns of different global lengths) is no zip.
    mismatch[:, -1] |= rows[:, -1, 1] != rows[:, -1, 3]
    return _result(
        per_seed=(~mismatch.any(axis=1)).tolist(),
        iterations=rows.shape[1] - 1,
        detecting=np.flatnonzero(mismatch[0, :-1]).tolist(),
        lengths=rows[0, -1].tolist(),
        length_ok=not mismatch[0, -1],
    )


def _in_place_verdict(lengths, iterations: int, num_seeds: int) -> CheckResult:
    """:func:`_verdict` of a sequential check whose pairs are in place.

    Every fingerprint word is 0, so no iteration detects anything and
    each seed accepts iff the lengths row does: equal columns have equal
    lengths, so only a ragged output (``zipped_first`` and
    ``zipped_second`` of different lengths) rejects.
    """
    length_ok = lengths[1] == lengths[3]
    return _result(
        per_seed=[length_ok] * num_seeds,
        # The words path sizes its tensor by ``iterations``, which
        # refuses a non-integer count; so does this one.
        iterations=operator.index(iterations),
        detecting=[],
        lengths=lengths,
        length_ok=length_ok,
    )


def _result(per_seed, iterations, detecting, lengths, length_ok) -> CheckResult:
    n1, nz, n2, _ = (int(n) for n in lengths)
    return CheckResult(
        accepted=all(per_seed),
        checker="zip",
        details={
            "iterations": iterations,
            "detecting_iterations": detecting,
            "lengths": (n1, n2, nz),
            "length_ok": length_ok,
            "num_seeds": len(per_seed),
            "per_seed_accepted": per_seed,
        },
    )


def check_zip(
    s1,
    s2,
    zipped_first,
    zipped_second,
    iterations: int = 2,
    seed=0,
    comm=None,
    offsets: tuple[int, int, int] | None = None,
) -> CheckResult:
    """Theorem 11: verify ``Zip(S1, S2) = ⟨(x_i, y_i)⟩`` index-wise.

    ``s1``/``s2`` are the local slices of the inputs; ``zipped_first`` /
    ``zipped_second`` the component columns of the local slice of the
    asserted output.  The output's distribution may differ from the inputs'.
    Accepts iff for every iteration the positional fingerprint of S1 matches
    that of the first components and S2 matches the second components,
    and the global lengths agree.  Only moved or differing columns are
    hashed (see :func:`_local_words`); a column pair left in place costs
    one comparison, and a sequential check whose pairs are both in place
    builds no words at all (:func:`_in_place_verdict`).  The asserted
    output is untrusted, so a ragged one (columns of different lengths)
    is rejected, never raised on.

    ``seed`` is a root seed or an array of ``T`` distinct root seeds (a
    scalar is ``T = 1``); ``per_seed_accepted[t]`` equals the verdict of
    a call under seed ``t`` alone, and ``detecting_iterations`` lists the
    first seed's.  ``offsets`` are this PE's global starting offsets
    ``(s1, s2, output)`` when the caller already has them (the zip
    exchange computes them); without them the check runs one exscan.
    Either way every seed and iteration settles in one allreduce.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    roots = domain.seeds(seed)
    columns = [
        domain.words(c, "columns")
        for c in (s1, zipped_first, s2, zipped_second)
    ]
    if offsets is None:
        offsets = _global_offsets(
            comm, columns[0].size, columns[2].size, columns[1].size
        )
    pairs = _column_pairs(columns, offsets)
    if comm is None:
        if all(in_place for _, _, in_place in pairs):
            return _in_place_verdict(
                [c.size for c in columns], iterations, roots.size
            )
    local = _local_words(columns, pairs, roots, iterations)
    return _verdict(_sum_over_pes(local, comm))
