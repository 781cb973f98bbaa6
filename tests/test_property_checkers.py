"""Property-based tests (hypothesis) on the checkers' core invariants.

The defining property of every checker is **one-sided error**: a correct
result is accepted with probability 1, for *any* input and any checker
randomness.  Hypothesis hunts for counterexamples across the input space.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.median_checker import check_median_aggregation
from repro.core.multiseed import MultiSeedSumChecker, check_sum_aggregation
from repro.core.params import SumCheckConfig, optimize_parameters
from repro.core.permutation_checker import (
    check_permutation_gf64,
    check_permutation_hashsum,
    check_permutation_polynomial,
    wide_sum,
)
from repro.core.sort_checker import check_sort
from repro.core.zip_checker import check_zip
from repro.hashing.gf2 import gf64_mul
from repro.workloads.kv import aggregate_reference

_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # keys (collisions likely)
        st.integers(min_value=-(2**31), max_value=2**31),  # values
    ),
    min_size=0,
    max_size=60,
)

_configs = st.sampled_from(
    [
        SumCheckConfig.parse("1x2 m3"),
        SumCheckConfig.parse("2x4 m5"),
        SumCheckConfig.parse("4x8 m15"),
        SumCheckConfig.parse("3x37 m7"),
        SumCheckConfig.parse("8x16 m15"),
    ]
)

_seeds = st.integers(min_value=0, max_value=2**32)


def _to_arrays(pairs):
    if not pairs:
        return (
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
        )
    ks, vs = zip(*pairs)
    return np.array(ks, dtype=np.uint64), np.array(vs, dtype=np.int64)


class TestSumCheckerOneSided:
    @given(pairs=_pairs, config=_configs, seed=_seeds)
    @settings(max_examples=150, deadline=None)
    def test_correct_aggregation_always_accepted(self, pairs, config, seed):
        keys, values = _to_arrays(pairs)
        out_k, out_v = aggregate_reference(keys, values)
        result = check_sum_aggregation(
            (keys, values), (out_k, out_v), config, seed=seed
        )
        assert result.accepted

    @given(pairs=_pairs, config=_configs, seed=_seeds, shuffle_seed=_seeds)
    @settings(max_examples=80, deadline=None)
    def test_output_order_irrelevant(self, pairs, config, seed, shuffle_seed):
        keys, values = _to_arrays(pairs)
        out_k, out_v = aggregate_reference(keys, values)
        perm = np.random.default_rng(shuffle_seed).permutation(out_k.size)
        result = check_sum_aggregation(
            (keys, values), (out_k[perm], out_v[perm]), config, seed=seed
        )
        assert result.accepted

    @given(pairs=_pairs, config=_configs, seed=_seeds)
    @settings(max_examples=80, deadline=None)
    def test_table_linearity(self, pairs, config, seed):
        """T(A ⊎ B) = T(A) ⊕ T(B) — the identity behind detects_delta."""
        keys, values = _to_arrays(pairs)
        half = keys.size // 2
        checker = MultiSeedSumChecker(config, seed)
        whole = checker.local_tables(keys, values)
        parts = checker.combine(
            checker.local_tables(keys[:half], values[:half]),
            checker.local_tables(keys[half:], values[half:]),
        )
        assert np.array_equal(whole, parts)

    @given(pairs=_pairs, config=_configs, seed=_seeds)
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_identity(self, pairs, config, seed):
        keys, values = _to_arrays(pairs)
        checker = MultiSeedSumChecker(config, seed)
        table = checker.local_tables(keys, values)
        assert np.array_equal(checker.unpack(checker.pack(table)), table)


_elements = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=0, max_size=50
)


_INT64_MIN = -(1 << 63)


@st.composite
def _sides_on_one_path(draw):
    """Input and asserted pairs whose values stay below a bound that picks
    an accumulation path: the float64 bincount (Σ|v| < 2^52), the int64
    scatter-add (< 2^63) or the per-element fallback."""
    bound = draw(st.sampled_from([1 << 20, 1 << 56, 1 << 63]))
    pairs = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=-bound, max_value=bound - 1),
        ),
        max_size=40,
    )
    return _to_arrays(draw(pairs)), _to_arrays(draw(pairs))


class TestOneFoldDifference:
    """``local_difference`` folds both sides as one signed multiset; its
    table must equal the difference of the two sides' tables bit for bit
    (an asserted −2^63, whose negation overflows, folds each side)."""

    @given(
        sides=_sides_on_one_path(),
        operator=st.sampled_from(["+", "xor"]),
        num_seeds=st.sampled_from([1, 4]),
        config=_configs,
        seed=_seeds,
    )
    @example(
        sides=(_to_arrays([(1, 5), (2, -7)]), _to_arrays([(1, _INT64_MIN)])),
        operator="+", num_seeds=1, config=SumCheckConfig.parse("4x8 m15"),
        seed=3,
    )
    @example(
        sides=(_to_arrays([]), _to_arrays([])),
        operator="+", num_seeds=4, config=SumCheckConfig.parse("4x8 m15"),
        seed=3,
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_difference_of_separate_folds(
        self, sides, operator, num_seeds, config, seed
    ):
        (in_k, in_v), (out_k, out_v) = sides
        seeds = np.arange(num_seeds, dtype=np.uint64) + np.uint64(seed)
        checker = MultiSeedSumChecker(config, seeds, operator)
        expected = checker.difference(
            checker.local_tables(in_k, in_v), checker.local_tables(out_k, out_v)
        )
        got, _ = checker.local_difference((in_k, in_v), (out_k, out_v))
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestPermutationOneSided:
    @given(xs=_elements, seed=_seeds, shuffle_seed=_seeds)
    @settings(max_examples=100, deadline=None)
    def test_hashsum_accepts_all_permutations(self, xs, seed, shuffle_seed):
        e = np.array(xs, dtype=np.uint64)
        o = np.random.default_rng(shuffle_seed).permutation(e)
        assert check_permutation_hashsum(e, o, seed=seed).accepted

    @given(xs=_elements, seed=_seeds, shuffle_seed=_seeds)
    @settings(max_examples=60, deadline=None)
    def test_polynomial_accepts_all_permutations(self, xs, seed, shuffle_seed):
        e = np.array(xs, dtype=np.uint64)
        o = np.random.default_rng(shuffle_seed).permutation(e)
        assert check_permutation_polynomial(
            e, o, universe=2**32, seed=seed
        ).accepted

    @given(xs=_elements, seed=_seeds, shuffle_seed=_seeds)
    @settings(max_examples=60, deadline=None)
    def test_gf64_accepts_all_permutations(self, xs, seed, shuffle_seed):
        e = np.array(xs, dtype=np.uint64)
        o = np.random.default_rng(shuffle_seed).permutation(e)
        assert check_permutation_gf64(e, o, seed=seed).accepted

    @given(
        xs=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=50
        ),
        seed=_seeds,
        extra=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_hashsum_detects_multiset_growth(self, xs, seed, extra):
        """Appending any element must be detected (wide sum, strong hash)."""
        e = np.array(xs, dtype=np.uint64)
        o = np.append(e, np.uint64(extra))
        result = check_permutation_hashsum(
            e, o, iterations=2, log_h=64, seed=seed
        )
        assert not result.accepted

    @given(xs=_elements, seed=_seeds)
    @settings(max_examples=100, deadline=None)
    def test_sort_checker_accepts_true_sort(self, xs, seed):
        e = np.array(xs, dtype=np.uint64)
        assert check_sort(e, np.sort(e), seed=seed).accepted


class TestWideSumProperty:
    @given(
        xs=st.lists(
            st.integers(min_value=0, max_value=2**64 - 1),
            min_size=0,
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_arbitrary_precision(self, xs):
        arr = np.array(xs, dtype=np.uint64)
        assert wide_sum(arr) == sum(xs)


class TestGF64Properties:
    @given(
        a=st.integers(min_value=0, max_value=2**64 - 1),
        b=st.integers(min_value=0, max_value=2**64 - 1),
        c=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert gf64_mul(a, b) == gf64_mul(b, a)
        assert gf64_mul(gf64_mul(a, b), c) == gf64_mul(a, gf64_mul(b, c))
        assert gf64_mul(a, b ^ c) == gf64_mul(a, b) ^ gf64_mul(a, c)


class TestMedianProperty:
    @given(
        values=st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=41,
            unique=True,
        ),
        seed=_seeds,
    )
    @settings(max_examples=100, deadline=None)
    def test_true_median_always_accepted(self, values, seed):
        vals = np.array(values, dtype=np.int64)
        keys = np.full(vals.size, 9, dtype=np.uint64)
        med = float(np.median(vals))
        num = int(round(med * 2))
        num, den = (num // 2, 1) if num % 2 == 0 else (num, 2)
        result = check_median_aggregation(
            keys, vals, [9], [num], [den],
            config=SumCheckConfig.parse("4x8 m15"), seed=seed,
        )
        assert result.accepted


class TestZipProperty:
    @given(
        xs=st.lists(
            st.integers(min_value=0, max_value=2**32), min_size=0, max_size=50
        ),
        seed=_seeds,
    )
    @settings(max_examples=80, deadline=None)
    def test_identity_zip_accepted(self, xs, seed):
        a = np.array(xs, dtype=np.uint64)
        b = (a * np.uint64(3)) ^ np.uint64(0x55)
        assert check_zip(a, b, a, b, seed=seed).accepted


class TestOptimizerProperty:
    @given(
        b=st.sampled_from([256, 512, 1024, 4096, 16384]),
        exp=st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_result_always_feasible(self, b, exp):
        delta = 10.0**-exp
        try:
            cfg = optimize_parameters(b, delta)
        except ValueError:
            # Tiny budgets genuinely cannot reach extreme δ (e.g. 256 bits
            # bottom out around 1.5e-7); raising is the correct outcome.
            assert b <= 512 and exp >= 7
            return
        assert cfg.table_bits <= b
        assert cfg.failure_bound <= delta
