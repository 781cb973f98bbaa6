"""Tests for the permutation checkers (§5, Lemmata 4/5, Theorem 6)."""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.sort_checker import check_sort
from repro.core.permutation_checker import (
    MultiSeedHashSumChecker,
    check_permutation_gf64,
    check_permutation_hashsum,
    check_permutation_polynomial,
    wide_sum,
)


@pytest.fixture(scope="module")
def sequence():
    rng = np.random.default_rng(7)
    return rng.integers(0, 10**8, 5_000).astype(np.uint64)


_METHODS = {
    "hashsum": lambda e, o, seed=0, comm=None: check_permutation_hashsum(
        e, o, iterations=2, seed=seed, comm=comm
    ),
    "polynomial": lambda e, o, seed=0, comm=None: check_permutation_polynomial(
        e, o, delta=2.0**-20, universe=10**8 + 10, seed=seed, comm=comm
    ),
    "gf64": lambda e, o, seed=0, comm=None: check_permutation_gf64(
        e, o, iterations=1, seed=seed, comm=comm
    ),
}


@pytest.mark.parametrize("method", list(_METHODS))
class TestAllMethods:
    def test_accepts_identity(self, method, sequence):
        assert _METHODS[method](sequence, sequence.copy()).accepted

    def test_accepts_sorted_permutation(self, method, sequence):
        assert _METHODS[method](sequence, np.sort(sequence)).accepted

    def test_accepts_random_shuffle(self, method, sequence):
        rng = np.random.default_rng(1)
        assert _METHODS[method](sequence, rng.permutation(sequence)).accepted

    def test_detects_single_increment(self, method, sequence):
        bad = np.sort(sequence)
        bad[17] += 1
        assert not _METHODS[method](sequence, bad).accepted

    def test_detects_element_replacement(self, method, sequence):
        bad = sequence.copy()
        bad[0] = 99_999_999
        if bad[0] == sequence[0]:
            bad[0] -= 1
        assert not _METHODS[method](sequence, bad).accepted

    def test_detects_length_change(self, method, sequence):
        assert not _METHODS[method](sequence, sequence[:-1]).accepted

    def test_detects_duplicate_swap(self, method):
        """The multiset {5,5,7} vs {5,7,7} — the Lemma 4 TODO case."""
        e = np.array([5, 5, 7], dtype=np.uint64)
        o = np.array([5, 7, 7], dtype=np.uint64)
        assert not _METHODS[method](e, o).accepted

    def test_rejects_float_elements(self, method):
        # Truncated to words, [0.5, 1.5, 2.5] would match [0, 1, 2].
        with pytest.raises(TypeError, match="integer"):
            _METHODS[method](
                np.array([0.5, 1.5, 2.5]), np.array([0.0, 1.0, 2.0])
            )

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint16, np.int32, np.uint32]
    )
    def test_narrow_integers_compare_by_word(self, method, dtype):
        e = np.array([3, 1, 2, 100], dtype=dtype)
        assert _METHODS[method](e, np.array([1, 2, 3, 100])).accepted
        assert not _METHODS[method](e, np.array([1, 2, 3, 101])).accepted

    def test_empty_sequences_accepted(self, method):
        empty = np.zeros(0, dtype=np.uint64)
        assert _METHODS[method](empty, empty.copy()).accepted

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed(self, method, sequence, p):
        ctx = Context(p)
        out = np.sort(sequence)
        bad = out.copy()
        bad[3] += 2

        def run(comm, e, o):
            return _METHODS[method](e, o, seed=5, comm=comm).accepted

        good = ctx.run(
            run, per_rank_args=list(zip(ctx.split(sequence), ctx.split(out)))
        )
        assert good == [True] * p
        rejected = ctx.run(
            run, per_rank_args=list(zip(ctx.split(sequence), ctx.split(bad)))
        )
        assert rejected == [False] * p


class TestWideSum:
    def test_empty(self):
        assert wide_sum(np.zeros(0, dtype=np.uint64)) == 0

    def test_matches_python_sum(self, rng):
        arr = rng.integers(0, 2**64, 1000, dtype=np.uint64)
        assert wide_sum(arr) == sum(int(x) for x in arr)

    def test_no_wraparound_on_max_values(self):
        arr = np.full(1000, 2**64 - 1, dtype=np.uint64)
        assert wide_sum(arr) == 1000 * (2**64 - 1)


class TestHashSumSpecifics:
    def test_multi_sequence_sides(self):
        """Union-style invocation: E = [S1, S2] vs O = concat."""
        s1 = np.array([1, 2, 3], dtype=np.uint64)
        s2 = np.array([4, 5], dtype=np.uint64)
        out = np.array([5, 3, 1, 4, 2], dtype=np.uint64)
        assert check_permutation_hashsum([s1, s2], out, seed=1).accepted

    def test_signed_input_coerced(self):
        e = np.array([-1, -2, 3], dtype=np.int64)
        o = np.array([3, -2, -1], dtype=np.int64)
        assert check_permutation_hashsum(e, o, seed=1).accepted

    def test_failure_bound_attribute(self):
        checker = MultiSeedHashSumChecker(0, iterations=2, log_h=16)
        assert checker.failure_bound == pytest.approx(2.0**-32)

    def test_log_h_exceeding_family_bits_rejected(self):
        with pytest.raises(ValueError):
            MultiSeedHashSumChecker(0, hash_family="CRC", log_h=33)

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            MultiSeedHashSumChecker(0, iterations=0)

    def test_truncation_miss_rate(self):
        """At log_h=1, a single replaced element evades with P ≈ 1/2."""
        e = np.array([10], dtype=np.uint64)
        o = np.array([11], dtype=np.uint64)
        misses = sum(
            check_permutation_hashsum(e, o, iterations=1, log_h=1, seed=s).accepted
            for s in range(600)
        )
        assert 0.4 < misses / 600 < 0.6


class TestPolynomialSpecifics:
    def test_prime_exceeds_universe_and_n_over_delta(self):
        e = np.arange(100, dtype=np.uint64)
        result = check_permutation_polynomial(
            e, e.copy(), delta=0.01, universe=1 << 20, seed=0
        )
        r = result.details["prime"]
        assert r > max(100 / 0.01, (1 << 20) - 1)

    def test_large_universe_python_int_path(self):
        """Primes beyond 2^31 exercise the scalar fold."""
        e = np.array([2**50, 2**51, 7], dtype=np.uint64)
        o = np.array([7, 2**51, 2**50], dtype=np.uint64)
        assert check_permutation_polynomial(
            e, o, delta=0.01, universe=1 << 52, seed=0
        ).accepted
        bad = o.copy()
        bad[0] = 8
        assert not check_permutation_polynomial(
            e, bad, delta=0.01, universe=1 << 52, seed=0
        ).accepted

    def test_elements_outside_universe(self):
        """Lemma 5 needs every element below ``universe`` (default 2^32):
        ``7 + r`` is ``7`` mod the drawn prime ``r``."""
        e = np.array([5, 7], dtype=np.uint64)
        r = check_permutation_polynomial(e, e, seed=3).details["prime"]
        bad = np.array([5, 7 + r], dtype=np.uint64)
        assert not check_permutation_polynomial(e, bad, seed=3).accepted
        assert not check_sort(e, bad, method="polynomial", seed=3).accepted
        with pytest.raises(ValueError, match="universe"):
            check_permutation_polynomial(bad, e, seed=3)

    def test_input_outside_universe_raises_on_every_pe(self):
        def run(comm, e):
            try:
                check_permutation_polynomial(e, e, universe=64, comm=comm)
            except ValueError as exc:
                return str(exc)
            return None

        parts = [np.array([5], dtype=np.uint64), np.array([64], dtype=np.uint64)]
        msgs = Context(2).run(run, per_rank_args=parts)
        assert all(msg is not None and "universe" in msg for msg in msgs)

    def test_universe_beyond_64_bit_draws_on_every_pe(self, deadline):
        """A universe of 2^64 needs a prime r > 2^64, whose evaluation
        point takes a two-word draw: every PE returns the same verdict
        (r and z are replicated).  On processes, the deadline tears the
        workers down should they hang."""

        def run(comm, e, o):
            result = check_permutation_polynomial(
                e, o, universe=1 << 64, comm=comm
            )
            return result.accepted, result.details["prime"]

        deadline(20)
        parts = [np.array([5], dtype=np.uint64), np.array([7], dtype=np.uint64)]
        verdicts = Context(2, backend="processes").run(
            run, per_rank_args=list(zip(parts, parts[::-1]))
        )
        assert verdicts[0] == verdicts[1]
        accepted, prime = verdicts[0]
        assert accepted and prime > 1 << 64

    @pytest.mark.parametrize(
        "output, accepted", [([3, -1], True), ([3, -2], False)]
    )
    def test_negative_int64_elements(self, output, accepted, deadline):
        """A negative int64 is the word 2^64 + v, so Lemma 5 over signed
        elements runs at ``universe=1 << 64`` with a prime above 2^64 —
        sequentially and on processes, every PE with the same verdict."""
        e = np.array([-1, 3], dtype=np.int64)
        o = np.array(output, dtype=np.int64)
        result = check_permutation_polynomial(e, o, universe=1 << 64)
        assert result.accepted == accepted
        assert result.details["prime"] > 1 << 64

        def run(comm, e_part, o_part):
            return check_permutation_polynomial(
                e_part, o_part, universe=1 << 64, comm=comm
            ).accepted

        deadline(20)
        verdicts = Context(2, backend="processes").run(
            run, per_rank_args=list(zip(e.reshape(2, 1), o.reshape(2, 1)))
        )
        assert verdicts == [accepted, accepted]

    def test_miss_rate_below_delta(self):
        """Off-by-one faults must evade at a rate well below δ = 0.05."""
        e = np.arange(50, dtype=np.uint64)
        bad = e.copy()
        bad[0] = 50
        misses = sum(
            check_permutation_polynomial(
                e, bad, delta=0.05, universe=64, seed=s
            ).accepted
            for s in range(400)
        )
        assert misses / 400 <= 0.05
