"""Streaming parity suite: every CheckerStream == its batch checker.

The load-bearing property of the streaming refactor: for every
``CheckerStream`` implementation, single- and multi-seed, across chunk
sizes {1, 7, 64k} and duplicate-heavy / empty-chunk feeds, the settled
verdict (and every per-seed flag) is bit-identical to the batch checker
fed the concatenated input — and ``settle()`` raises on re-settle
uniformly across the whole protocol.

Select with ``pytest -m streaming``.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.average_checker import (
    check_average_aggregation,
    check_average_aggregation_multiseed,
)
from repro.core.groupby_checker import (
    check_groupby_redistribution,
    check_groupby_redistribution_multiseed,
    default_partitioner,
)
from repro.core.minmax_checker import (
    check_max_aggregation,
    check_min_aggregation,
    check_min_aggregation_multiseed,
)
from repro.core.multiseed import MultiSeedHashSumChecker, MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.core.permutation_checker import check_permutation_hashsum
from repro.core.streams import (
    AverageCheckerStream,
    CountCheckerStream,
    GroupByCheckerStream,
    MinMaxCheckerStream,
    MultiSeedSumCheckerStream,
    PermutationCheckerStream,
    StreamedKV,
    SumCheckerStream,
    ZipCheckerStream,
)
from repro.core.sum_checker import (
    SumAggregationChecker,
    check_count_aggregation,
    check_sum_aggregation,
)
from repro.core.zip_checker import check_zip
from repro.dataflow.ops.aggregates import average_by_key, min_by_key
from repro.util.rng import derive_seed
from repro.workloads.kv import aggregate_reference, sum_workload

pytestmark = pytest.mark.streaming

# Weak configs make per-seed verdicts *vary* on a fault, so any bit-level
# divergence between the streaming and batch paths shows up in the
# per-seed flag lists, not just in the combined verdict.
WEAK = SumCheckConfig.parse("1x2 m4")
STRONG = SumCheckConfig.parse("8x16 m15")
SEEDS = np.arange(10, dtype=np.uint64) * np.uint64(911) + np.uint64(7)
SEED = 5
CHUNKS = (1, 7, 65536)
N = 240


def chunked(arr, size, with_empty=True):
    """Split an array into chunks, interleaving empties to stress feeds."""
    arr = np.asarray(arr)
    out = []
    for i in range(0, max(arr.shape[0], 1), size):
        if with_empty and (i // size) % 3 == 1:
            out.append(arr[:0])
        out.append(arr[i : i + size])
    out.append(arr[:0])
    return out


def chunked_pairs(columns, size, with_empty=True):
    """Chunk several aligned columns in lockstep (tuples per chunk)."""
    parts = [chunked(c, size, with_empty) for c in columns]
    return list(zip(*parts))


@pytest.fixture(scope="module")
def workload():
    # num_keys << N makes the feed duplicate-heavy (every key repeats).
    keys, values = sum_workload(N, num_keys=13, seed=21)
    out_k, out_v = aggregate_reference(keys, values)
    bad_v = out_v.copy()
    bad_v[1] += 3
    return keys, values, out_k, out_v, bad_v


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("operator", ["+", "xor"])
def test_sum_stream_parity(workload, chunk, operator):
    keys, values, out_k, out_v, bad_v = workload
    for asserted in (out_v, bad_v):
        batch = SumAggregationChecker(WEAK, SEED, operator).check_local(
            (keys, values), (out_k, asserted)
        )
        stream = SumCheckerStream(SumAggregationChecker(WEAK, SEED, operator))
        for k, v in chunked_pairs((keys, values), chunk):
            stream.feed_input(k, v)
        for k, v in chunked_pairs((out_k, asserted), chunk):
            stream.feed_output(k, v)
        assert stream.settle().accepted == batch.accepted


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("operator", ["+", "xor"])
def test_multiseed_sum_stream_parity(workload, chunk, operator):
    keys, values, out_k, out_v, bad_v = workload
    for asserted in (out_v, bad_v):
        checker = MultiSeedSumChecker(WEAK, SEEDS, operator)
        batch = checker.check_local((keys, values), (out_k, asserted))
        stream = MultiSeedSumCheckerStream(
            MultiSeedSumChecker(WEAK, SEEDS, operator)
        )
        for k, v in chunked_pairs((keys, values), chunk):
            stream.feed_input(k, v)
        for k, v in chunked_pairs((out_k, asserted), chunk):
            stream.feed_output(k, v)
        got = stream.settle()
        assert (
            got.details["per_seed_accepted"]
            == batch.details["per_seed_accepted"]
        )
        assert got.accepted == batch.accepted


@pytest.mark.parametrize("chunk", CHUNKS)
def test_count_stream_parity(workload, chunk):
    keys, _, out_k, _, _ = workload
    counts = aggregate_reference(keys, np.ones(keys.size, dtype=np.int64))[1]
    bad = counts.copy()
    bad[0] += 1
    for asserted, checker in (
        (counts, SumAggregationChecker(WEAK, SEED)),
        (bad, SumAggregationChecker(WEAK, SEED)),
        (counts, MultiSeedSumChecker(WEAK, SEEDS)),
        (bad, MultiSeedSumChecker(WEAK, SEEDS)),
    ):
        multi = isinstance(checker, MultiSeedSumChecker)
        if multi:
            batch = check_count_aggregation_multiseed_ref(
                keys, (out_k, asserted)
            )
        else:
            batch = check_count_aggregation(
                keys, (out_k, asserted), WEAK, seed=SEED
            )
        stream = CountCheckerStream(checker)
        for (k,) in chunked_pairs((keys,), chunk):
            stream.feed_input(k)
        for k, c in chunked_pairs((out_k, asserted), chunk):
            stream.feed_output(k, c)
        got = stream.settle()
        assert got.accepted == batch.accepted
        if multi:
            assert (
                got.details["per_seed_accepted"]
                == batch.details["per_seed_accepted"]
            )


def check_count_aggregation_multiseed_ref(keys, asserted_kv):
    from repro.core.multiseed import check_count_aggregation_multiseed

    return check_count_aggregation_multiseed(
        keys, asserted_kv, SEEDS, config=WEAK
    )


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("multi", [False, True])
def test_average_stream_parity(workload, chunk, multi):
    keys, values, *_ = workload
    avg = average_by_key(None, keys, values)
    bad_nums = avg.numerators.copy()
    bad_nums[2] += 1
    for nums in (avg.numerators, bad_nums):
        if multi:
            batch = check_average_aggregation_multiseed(
                (keys, values), avg.keys, nums, avg.denominators,
                avg.counts, SEEDS, config=WEAK,
            )
            stream = AverageCheckerStream(SEEDS, WEAK)
        else:
            batch = check_average_aggregation(
                (keys, values), avg.keys, nums, avg.denominators,
                avg.counts, config=WEAK, seed=SEED,
            )
            stream = AverageCheckerStream(SEED, WEAK)
        for k, v in chunked_pairs((keys, values), chunk):
            stream.feed_input(k, v)
        for k, n, d, c in chunked_pairs(
            (avg.keys, nums, avg.denominators, avg.counts), chunk
        ):
            stream.feed_output(k, n, d, c)
        got = stream.settle()
        assert got.accepted == batch.accepted
        if multi:
            assert (
                got.details["per_seed_accepted"]
                == batch.details["per_seed_accepted"]
            )


@pytest.mark.parametrize("chunk", CHUNKS)
def test_minmax_stream_parity(workload, chunk):
    keys, values, *_ = workload
    res = min_by_key(None, keys, values)
    bad_vals = res.values.copy()
    bad_vals[0] -= 1  # claims a minimum below every input element
    for asserted in (res.values, bad_vals):
        batch = check_min_aggregation(
            (keys, values), res.keys, asserted, res.owners, seed=SEED
        )
        stream = MinMaxCheckerStream(SEED, kind="min")
        stream.feed_output(res.keys, asserted, res.owners)
        for k, v in chunked_pairs((keys, values), chunk):
            stream.feed_input(k, v)
        assert stream.settle().accepted == batch.accepted

    # max via negation, multi-seed flags included
    from repro.dataflow.ops.aggregates import max_by_key

    mx = max_by_key(None, keys, values)
    batch = check_max_aggregation(
        (keys, values), mx.keys, mx.values, mx.owners, seed=SEED
    )
    stream = MinMaxCheckerStream(SEED, kind="max")
    stream.feed_output(mx.keys, mx.values, mx.owners)
    for k, v in chunked_pairs((keys, values), chunk):
        stream.feed_input(k, v)
    assert stream.settle().accepted == batch.accepted

    multi_batch = check_min_aggregation_multiseed(
        (keys, values), res.keys, res.values, res.owners, SEEDS
    )
    stream = MinMaxCheckerStream(SEEDS, kind="min")
    stream.feed_output(res.keys, res.values, res.owners)
    for k, v in chunked_pairs((keys, values), chunk):
        stream.feed_input(k, v)
    got = stream.settle()
    assert got.accepted == multi_batch.accepted
    assert (
        got.details["per_seed_accepted"]
        == multi_batch.details["per_seed_accepted"]
    )


def test_minmax_stream_requires_result_first():
    stream = MinMaxCheckerStream(SEED)
    with pytest.raises(RuntimeError, match="asserted result"):
        stream.feed_input([1], [1])
    stream.feed_output([1], [1], [0])
    with pytest.raises(RuntimeError, match="already fed"):
        stream.feed_output([1], [1], [0])


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("multi", [False, True])
def test_permutation_stream_parity(workload, chunk, multi):
    keys, *_ = workload
    rng = np.random.default_rng(3)
    e = keys
    o_good = rng.permutation(e)
    o_bad = o_good.copy()
    o_bad[4] += 1
    for o in (o_good, o_bad):
        # log_h=8 keeps single-iteration fingerprints weak enough that
        # per-seed verdicts differ on the fault.
        if multi:
            batch = MultiSeedHashSumChecker(SEEDS, 1, "Mix", 8).check(e, o)
            stream = PermutationCheckerStream(SEEDS, 1, "Mix", 8)
        else:
            batch = check_permutation_hashsum(
                e, o, iterations=1, log_h=8, seed=SEED
            )
            stream = PermutationCheckerStream(SEED, 1, "Mix", 8)
        for (c,) in chunked_pairs((e,), chunk):
            stream.feed_input(c)
        for (c,) in chunked_pairs((o,), chunk):
            stream.feed_output(c)
        got = stream.settle()
        assert got.accepted == batch.accepted
        if multi:
            assert (
                got.details["per_seed_accepted"]
                == batch.details["per_seed_accepted"]
            )


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("multi", [False, True])
def test_groupby_stream_parity(workload, chunk, multi):
    keys, values, *_ = workload
    part = default_partitioner(1)
    rng = np.random.default_rng(5)
    order = rng.permutation(keys.size)
    post_good = (keys[order], values[order])
    post_bad = (keys[order], values[order].copy())
    post_bad[1][3] += 1
    for post in (post_good, post_bad):
        if multi:
            batch = check_groupby_redistribution_multiseed(
                (keys, values), post, part, SEEDS, iterations=1, log_h=8
            )
            stream = GroupByCheckerStream(
                part, SEEDS, iterations=1, log_h=8
            )
        else:
            batch = check_groupby_redistribution(
                (keys, values), post, part, iterations=1, log_h=8, seed=SEED
            )
            stream = GroupByCheckerStream(part, SEED, iterations=1, log_h=8)
        for k, v in chunked_pairs((keys, values), chunk):
            stream.feed_input(k, v)
        for k, v in chunked_pairs(post, chunk):
            stream.feed_output(k, v)
        got = stream.settle()
        assert got.accepted == batch.accepted
        if multi:
            assert (
                got.details["per_seed_accepted"]
                == batch.details["per_seed_accepted"]
            )


@pytest.mark.parametrize("chunk", CHUNKS)
def test_zip_stream_parity(chunk):
    rng = np.random.default_rng(9)
    s1 = rng.integers(0, 1000, N).astype(np.uint64)
    s2 = rng.integers(0, 1000, N).astype(np.uint64)
    zf_bad = s1.copy()
    zf_bad[5] += 1
    for zf in (s1, zf_bad):
        batch = check_zip(s1, s2, zf, s2, iterations=2, seed=SEED)
        stream = ZipCheckerStream(SEED, iterations=2)
        for (c,) in chunked_pairs((s1,), chunk):
            stream.feed_input(first=c)
        for (c,) in chunked_pairs((s2,), chunk):
            stream.feed_input(second=c)
        for f, s in chunked_pairs((zf, s2), chunk):
            stream.feed_output(f, s)
        got = stream.settle()
        assert got.accepted == batch.accepted

        # Multi-seed flags == T independent check_zip calls.
        multi = ZipCheckerStream(SEEDS, iterations=2)
        multi.feed_input(first=s1, second=s2)
        multi.feed_output(zf, s2)
        per_seed = multi.settle().details["per_seed_accepted"]
        assert per_seed == [
            check_zip(s1, s2, zf, s2, iterations=2, seed=int(s)).accepted
            for s in SEEDS
        ]


def test_zip_stream_interleaved_chunks_match_batch():
    """Feeding sides at different rates is offset-exact."""
    s1 = np.arange(50, dtype=np.uint64)
    s2 = np.arange(50, 100, dtype=np.uint64)
    batch = check_zip(s1, s2, s1, s2, iterations=2, seed=3)
    stream = ZipCheckerStream(3, iterations=2)
    stream.feed_input(first=s1[:30])
    stream.feed_output(s1[:10], s2[:10])
    stream.feed_input(second=s2[:45])
    stream.feed_input(first=s1[30:], second=s2[45:])
    stream.feed_output(s1[10:], s2[10:])
    assert stream.settle().accepted == batch.accepted is True


@pytest.mark.parametrize(
    "seeds, error",
    [
        # Zero seeds would accept any output, a corrupted zip included.
        (np.array([], dtype=np.uint64), ValueError),
        (np.array([[1, 2], [3, 4]], dtype=np.uint64), ValueError),
        (np.array([4, 4], dtype=np.uint64), ValueError),
        (1.7, TypeError),  # would silently run as seed 1
    ],
)
def test_zip_stream_rejects_invalid_seeds(seeds, error):
    with pytest.raises(error):
        ZipCheckerStream(seeds)


@pytest.mark.parametrize(
    "seeds", [SEED, -5, (1 << 63) + 5, SEEDS, np.array([-3, 9])]
)
def test_zip_stream_lane_seeds_follow_root_seeds(seeds):
    roots = [int(s) for s in np.atleast_1d(seeds)]
    assert ZipCheckerStream(seeds)._lane_seeds == [
        (derive_seed(s, "lane1"), derive_seed(s, "lane2")) for s in roots
    ]


def _all_streams():
    """One freshly constructible instance per stream family."""
    part = default_partitioner(1)
    return [
        ("sum", SumCheckerStream(SumAggregationChecker(STRONG, 1))),
        (
            "multiseed-sum",
            MultiSeedSumCheckerStream(MultiSeedSumChecker(STRONG, SEEDS)),
        ),
        ("count", CountCheckerStream(SumAggregationChecker(STRONG, 1))),
        ("average", AverageCheckerStream(1, STRONG)),
        ("minmax", MinMaxCheckerStream(1)),
        ("permutation", PermutationCheckerStream(1)),
        ("groupby", GroupByCheckerStream(part, 1)),
        ("zip", ZipCheckerStream(1)),
    ]


def test_settle_raises_on_resettle_uniformly():
    for name, stream in _all_streams():
        stream.settle()
        with pytest.raises(RuntimeError, match="already settled"):
            stream.settle()


def test_feed_after_settle_raises_uniformly():
    feeds = {
        "sum": lambda s: s.feed_input([1], [1]),
        "multiseed-sum": lambda s: s.feed_output([1], [1]),
        "count": lambda s: s.feed_input([1]),
        "average": lambda s: s.feed_input([1], [1]),
        "minmax": lambda s: s.feed_output([1], [1], [0]),
        "permutation": lambda s: s.feed_input([1]),
        "groupby": lambda s: s.feed_output([1], [1]),
        "zip": lambda s: s.feed_output([1], [1]),
    }
    for name, stream in _all_streams():
        stream.settle()
        with pytest.raises(RuntimeError, match="already settled"):
            feeds[name](stream)


def test_streamed_kv_overflow_promotes_and_stays_exact():
    """Per-key sums beyond int64 go exact-Python-int, verdicts still match."""
    keys = np.zeros(6, dtype=np.uint64)
    values = np.full(6, 1 << 61, dtype=np.int64)  # Σ = 3·2^62 > int64 max
    acc = StreamedKV()
    for i in range(6):
        acc.fold(keys[i : i + 1], values[i : i + 1])
    ek, ev = acc.pairs()
    assert ev.dtype == np.int64 and np.all(ek == 0)
    assert sum(int(v) for v in ev) == 6 * (1 << 61)

    # End-to-end: identical multisets accepted, a perturbed one matches
    # the batch checker's verdict on the same exploded representation.
    stream = SumCheckerStream(SumAggregationChecker(STRONG, 4))
    for i in range(6):
        stream.feed_input(keys[i : i + 1], values[i : i + 1])
    stream.feed_output(keys, values)
    assert stream.settle().accepted

    bad = values.copy()
    bad[0] += 1
    stream = SumCheckerStream(SumAggregationChecker(STRONG, 4))
    for i in range(6):
        stream.feed_input(keys[i : i + 1], values[i : i + 1])
    stream.feed_output(keys, bad)
    batch = SumAggregationChecker(STRONG, 4).check_local(
        (keys, values), (keys, bad)
    )
    assert stream.settle().accepted == batch.accepted


@pytest.mark.parametrize("p", [2, 4])
def test_distributed_stream_parity(p):
    """Distributed settles equal distributed batch checks, all PEs agree."""
    keys, values = sum_workload(2_000, num_keys=60, seed=31)
    out_k, out_v = aggregate_reference(keys, values)
    ctx = Context(p)

    def run(comm, k, v, ok, ov):
        batch = MultiSeedSumChecker(WEAK, SEEDS).check_distributed(
            comm, (k, v), (ok, ov)
        )
        stream = MultiSeedSumCheckerStream(MultiSeedSumChecker(WEAK, SEEDS))
        for i in range(0, k.size, 97):
            stream.feed_input(k[i : i + 97], v[i : i + 97])
        stream.feed_output(ok, ov)
        got = stream.settle(comm)
        return (
            got.details["per_seed_accepted"]
            == batch.details["per_seed_accepted"],
            got.accepted == batch.accepted,
        )

    outs = ctx.run(
        run,
        per_rank_args=list(
            zip(
                ctx.split(keys),
                ctx.split(values),
                ctx.split(out_k),
                ctx.split(out_v),
            )
        ),
    )
    assert outs == [(True, True)] * p
