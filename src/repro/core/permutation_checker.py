"""Permutation checkers (§5): hash-sum, polynomial, and GF(2^64) variants.

**Hash-sum (Lemma 4, Wegman–Carter).**  Compare ``Σ h(e_i)`` with
``Σ h(o_i)`` for a random hash ``h``.  The paper's inline TODO notes the
mod-H version breaks for multisets with repeated elements and proposes the
fix we implement: *drop the modulo* — add 32-bit (here: up to 64-bit
truncated) hash values in wide integers, so multiplicities enter the sum
exactly.  For an element ``e`` occurring ``k`` times in E and ``k' < k``
times in O, equality requires ``h(e) = (h(O∖e) − h(E∖e))/(k−k')``, a single
value independent of ``h(e)`` — probability ≤ 1/H (the paper's margin
argument).  :class:`MultiSeedHashSumChecker` runs it under one root seed
or ``T`` of them: each sequence is prepared once for its family (CRC's
seed-0 base, Tab's key bytes, Mix's keys) and every (seed, iteration)
hashes it block by block over that form — raw at ``T = 1``, condensed to
its uniques at ``T > 1``.

**Polynomial (Lemma 5, Lipton).**  ``q(z) = Π(z−e_i) − Π(z−o_i) mod r`` for
a prime ``r > max(n/δ, U−1)``; q is the zero polynomial iff the multisets
match, else it has ≤ n roots, so a random evaluation point exposes the
difference with probability ≥ 1 − n/r.  No trust in a hash function needed.

**GF(2^64) (§5 remark).**  Same polynomial identity over the carry-less
field GF(2^64) (the ``PCLMULQDQ`` trick of Plank et al.); failure ≤ n/2^64
per iteration.

All three run distributed: each PE fingerprints its local slice in O(n/p),
and one all-reduction of a single word per iteration combines the
fingerprints — ``O((n/(p·w) + β) log 1/δ + α log p)`` (Theorem 6).
"""

from __future__ import annotations

import numpy as np

from repro.core import domain
from repro.core.base import CheckResult
from repro.hashing.families import get_family, iter_hash_blocks
from repro.hashing.gf2 import gf64_mul, gf64_product
from repro.hashing.primes import random_prime_in_range
from repro.util.rng import (
    derive_seed,
    derive_seed_array,
    splitmix64_array,
    uniform_below,
)

_CHUNK = 1 << 30  # sums of < 2^30 values below 2^32 stay within int64


def wide_sum(arr: np.ndarray) -> int:
    """Exact (arbitrary-precision) sum of an unsigned integer array.

    This is the paper's multiset fix: 32-bit halves are accumulated in
    64-bit lanes per chunk and the chunk totals are combined as Python ints,
    so no wrap-around ever occurs regardless of n.
    """
    arr = np.asarray(arr, dtype=np.uint64).ravel()
    total = 0
    for start in range(0, arr.size, _CHUNK):
        part = arr[start : start + _CHUNK]
        lo = (part & np.uint64(0xFFFFFFFF)).astype(np.int64)
        hi = (part >> np.uint64(32)).astype(np.int64)
        total += int(lo.sum()) + (int(hi.sum()) << 32)
    return total


def wide_weighted_sum(values: np.ndarray, weights: np.ndarray) -> int:
    """Exact ``Σ values[i]·weights[i]`` for uint64 values, weights < 2^32.

    The multiplicity-aware companion of :func:`wide_sum`: a multiset's hash
    fingerprint over its *unique* elements with their counts as weights.
    Each value splits into 32-bit halves, so every product fits uint64 and
    the halves reduce exactly through :func:`wide_sum`.
    """
    values = np.asarray(values, dtype=np.uint64).ravel()
    weights = np.asarray(weights, dtype=np.uint64).ravel()
    if values.size != weights.size:
        raise ValueError(
            f"values and weights differ in length: "
            f"{values.size} vs {weights.size}"
        )
    if weights.size and int(weights.max()) >= 1 << 32:
        raise ValueError("weights must be < 2**32 for exact uint64 products")
    lo = values & np.uint64(0xFFFFFFFF)
    hi = values >> np.uint64(32)
    return wide_sum(lo * weights) + (wide_sum(hi * weights) << 32)


def _as_sequences(side) -> list[np.ndarray]:
    """Normalise one side of a comparison into a list of uint64 arrays.

    A side may be a single array or a list of arrays — the latter supports
    the Union/Merge checkers, which compare ``concat(S1, S2)`` against ``S``
    without materialising the concatenation.  Elements must be integers
    (:func:`~repro.core.domain.words`): truncating 0.5 and 0.7 to the same word would let
    a wrong float result fingerprint like the right one.
    """
    if isinstance(side, (list, tuple)) and not (
        len(side) == 2 and np.isscalar(side[0])
    ):
        seqs = list(side)
    else:
        seqs = [side]
    return [domain.words(seq) for seq in seqs]


def condense_side(side) -> list[tuple[np.ndarray, np.ndarray]]:
    """Condense one side to (uniques, counts) pairs, one per sequence.

    The hash-sum fingerprint over a multiset equals the count-weighted
    fingerprint over its support, so this single pass over the raw
    sequence(s) is all any number of seed lanes needs.
    """
    return [
        np.unique(seq, return_counts=True)
        for seq in _as_sequences(side)
        if seq.size
    ]


class MultiSeedHashSumChecker:
    """Seeded hash-sum fingerprints (Lemma 4 with the wide-sum multiset fix).

    ``seeds`` is one root seed (``T = 1``) or an array of ``T`` distinct
    roots.  Seed ``t``'s iteration ``j`` hashes with the family's instance
    under ``derive_seed(seeds[t], "perm-checker", j)``, truncated to
    ``log_h`` bits: ``iterations`` functions bound a wrong acceptance by
    ``2^(−log_h · iterations)`` per differing multiset (Theorem 6), ``T``
    seeds by its ``T``-th power.

    Each sequence is prepared once
    (:meth:`~repro.hashing.families.HashFamily.multiseed_hasher`), and
    every (seed, iteration) hashes it over that form block by block and
    masks in place.  At ``T = 1`` the raw sequences are read, with no
    sort, and summed by :func:`wide_sum`; at ``T > 1`` each side is
    condensed once (:func:`condense_side`) and its uniques are summed by
    :func:`wide_weighted_sum` over their counts.  Both give identical
    fingerprints.
    """

    def __init__(
        self,
        seeds,
        iterations: int = 2,
        hash_family: str = "Mix",
        log_h: int = 32,
    ):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        family = get_family(hash_family)
        if not 1 <= log_h <= family.bits:
            raise ValueError(
                f"log_h={log_h} out of range for {family.name} "
                f"({family.bits} output bits)"
            )
        self.seeds = domain.seeds(seeds)
        self.num_seeds = self.seeds.size
        self.iterations = iterations
        self.hash_family = hash_family
        self.log_h = log_h
        self._family = family
        self._mask = np.uint64((1 << log_h) - 1)
        # Iteration j of seed t hashes under derive_seed(seeds[t],
        # "perm-checker", j): the label folds once per seed, iterations
        # branch on their counter.  Flattened (t, j) row-major.
        prefix = derive_seed_array(self.seeds, "perm-checker")
        self._fn_seeds = splitmix64_array(
            prefix[:, None] ^ np.arange(iterations, dtype=np.uint64)
        ).ravel()

    @property
    def failure_bound(self) -> float:
        """Acceptance bound for an unequal multiset pair, all seeds."""
        return float(2.0 ** (-self.log_h * self.iterations * self.num_seeds))

    def fingerprints(self, side) -> list[list[int]]:
        """Wide hash sums per seed and iteration: ``T`` rows of ``iterations``."""
        if self.num_seeds > 1:
            return self.fingerprints_condensed(condense_side(side))
        return self.fingerprints_condensed(
            [(seq, None) for seq in _as_sequences(side)]
        )

    def fingerprints_condensed(
        self, condensed: list[tuple[np.ndarray, np.ndarray | None]]
    ) -> list[list[int]]:
        """:meth:`fingerprints` from (uniques, counts) pairs; a raw
        sequence is a pair with counts None (every element once)."""
        totals = [[0] * self.iterations for _ in range(self.num_seeds)]
        for keys, counts in condensed:
            hasher = self._family.multiseed_hasher(keys)
            for i, start, end, h in iter_hash_blocks(
                hasher, keys, self._fn_seeds
            ):
                np.bitwise_and(h, self._mask, out=h)
                t, j = divmod(i, self.iterations)
                totals[t][j] += (
                    wide_sum(h)
                    if counts is None
                    else wide_weighted_sum(h, counts[start:end])
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

    def check(self, e_side, o_side, comm=None) -> CheckResult:
        """Accept iff every seed's every λ is zero; one collective if SPMD."""
        lambdas = self.lambda_values(e_side, o_side)
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
            checker="permutation-hashsum",
            details={
                "iterations": self.iterations,
                "log_h": self.log_h,
                "hash_family": self.hash_family,
                "num_seeds": self.num_seeds,
                "per_seed_accepted": per_seed,
            },
        )


def check_permutation_hashsum(
    e_side,
    o_side,
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    seed=0,
    comm=None,
) -> CheckResult:
    """Lemma 4 check; ``seed`` is one root seed or an array of distinct
    roots, and ``per_seed_accepted[t]`` equals the check under ``seeds[t]``."""
    checker = MultiSeedHashSumChecker(seed, iterations, hash_family, log_h)
    return checker.check(e_side, o_side, comm)


# ---------------------------------------------------------------------------
# Lemma 5: polynomial identity testing over F_r
# ---------------------------------------------------------------------------


def _mod_product(values: np.ndarray, z: int, r: int) -> int:
    """``Π (z − v_i) mod r`` — vectorized tree product when residues fit."""
    values = np.asarray(values, dtype=np.uint64).ravel()
    if values.size == 0:
        return 1
    if r <= (1 << 31):
        # Residues < 2^31 → pairwise products < 2^62 fit in int64.
        residues = (values % np.uint64(r)).astype(np.int64)
        terms = (np.int64(z) - residues) % np.int64(r)
        while terms.size > 1:
            half = terms.size // 2
            merged = (terms[:half] * terms[half : 2 * half]) % np.int64(r)
            if terms.size % 2:
                merged = np.concatenate([merged, terms[-1:]])
            terms = merged
        return int(terms[0])
    product = 1
    for v in values.tolist():
        product = (product * ((z - v) % r)) % r
    return product


def _max_element(seqs: list[np.ndarray]) -> int:
    """Largest element over a side's sequences (−1 when all are empty)."""
    return max((int(seq.max()) for seq in seqs if seq.size), default=-1)


def check_permutation_polynomial(
    e_side,
    o_side,
    delta: float = 2.0**-30,
    universe: int = 1 << 32,
    seed: int = 0,
    comm=None,
    total_n: int | None = None,
) -> CheckResult:
    """Lemma 5: compare ``Π(z−e_i)`` and ``Π(z−o_i)`` in F_r at random z.

    ``universe`` must exceed every element (so no two distinct elements
    collide mod r): an input element ``>= universe`` raises ``ValueError``
    and an output element ``>= universe`` rejects.  ``total_n`` is the
    global sequence length (computed via an all-reduction when running
    distributed and left unset); the same all-reduction carries both
    sides' maxima, so every PE raises or rejects together.
    """
    e_seqs = _as_sequences(e_side)
    o_seqs = _as_sequences(o_side)
    local = (
        sum(s.size for s in e_seqs), _max_element(e_seqs), _max_element(o_seqs)
    )
    if comm is not None:
        n, e_max, o_max = comm.allreduce(
            local,
            op=lambda a, b: (a[0] + b[0], max(a[1], b[1]), max(a[2], b[2])),
        )
    else:
        n = total_n if total_n is not None else local[0]
        _, e_max, o_max = local
    if e_max >= universe:
        raise ValueError(
            f"input element {e_max} is not below universe={universe}; "
            "Lemma 5 needs every element < universe"
        )
    n = max(n, 1)
    bound = max(int(n / delta) + 1, universe - 1, 3)
    # Bertrand: a prime exists in (bound, 2·bound]; seeded random choice.
    r = random_prime_in_range(bound + 1, 2 * bound, derive_seed(seed, "poly-r"))
    z = uniform_below(derive_seed(seed, "poly-z"), r)
    prod_e = 1
    for seq in e_seqs:
        prod_e = (prod_e * _mod_product(seq, z, r)) % r
    prod_o = 1
    for seq in o_seqs:
        prod_o = (prod_o * _mod_product(seq, z, r)) % r
    if comm is not None:
        prod_e, prod_o = comm.allreduce(
            (prod_e, prod_o),
            op=lambda a, b: ((a[0] * b[0]) % r, (a[1] * b[1]) % r),
        )
    # An output element >= universe may equal an input element mod r.
    in_universe = o_max < universe
    return CheckResult(
        accepted=in_universe and prod_e == prod_o,
        checker="permutation-polynomial",
        details={
            "prime": r,
            "eval_point": z,
            "n": n,
            "delta": delta,
            "output_in_universe": in_universe,
        },
    )


# ---------------------------------------------------------------------------
# GF(2^64) variant
# ---------------------------------------------------------------------------


def check_permutation_gf64(
    e_side,
    o_side,
    iterations: int = 1,
    seed: int = 0,
    comm=None,
) -> CheckResult:
    """Polynomial identity test over GF(2^64) (carry-less field).

    Failure probability ≤ n / 2^64 per iteration; subtraction in the field
    is XOR, so the factors are ``z XOR e_i``.
    """
    e_seqs = _as_sequences(e_side)
    o_seqs = _as_sequences(o_side)
    mismatched = []
    for j in range(iterations):
        z = np.uint64(derive_seed(seed, "gf64-z", j))
        prod_e = 1
        for seq in e_seqs:
            prod_e = gf64_mul(prod_e, gf64_product(seq ^ z))
        prod_o = 1
        for seq in o_seqs:
            prod_o = gf64_mul(prod_o, gf64_product(seq ^ z))
        if comm is not None:
            prod_e, prod_o = comm.allreduce(
                (prod_e, prod_o),
                op=lambda a, b: (gf64_mul(a[0], b[0]), gf64_mul(a[1], b[1])),
            )
        if prod_e != prod_o:
            mismatched.append(j)
    return CheckResult(
        accepted=not mismatched,
        checker="permutation-gf64",
        details={"iterations": iterations, "detecting_iterations": mismatched},
    )


def check_permutation(
    e_side,
    o_side,
    method: str = "hashsum",
    iterations: int = 2,
    hash_family: str = "Mix",
    log_h: int = 32,
    seed=0,
    comm=None,
    delta: float = 2.0**-30,
    universe: int = 1 << 32,
) -> CheckResult:
    """The permutation check ``method`` selects: ``"hashsum"`` (Lemma 4),
    ``"polynomial"`` (Lemma 5) or ``"gf64"``; the sort and union checks
    dispatch through here."""
    if method == "hashsum":
        return check_permutation_hashsum(
            e_side, o_side, iterations, hash_family, log_h, seed, comm
        )
    if method == "polynomial":
        return check_permutation_polynomial(
            e_side, o_side, delta=delta, universe=universe, seed=seed, comm=comm
        )
    if method == "gf64":
        return check_permutation_gf64(
            e_side, o_side, iterations=iterations, seed=seed, comm=comm
        )
    raise ValueError(f"unknown permutation method {method!r}")
