"""Streaming parity suite: every windowed checked op == its batch check.

Windows are the streaming unit: a windowed op over a chunked stream
settles one verdict per window.  For ReduceByKey, CountByKey, Sum and
Zip, across chunk sizes {1, 7, 64k} with interleaved empty chunks, clean
and corrupted outputs, with no policy and with an always-escalating
:class:`~repro.dataflow.pipeline.AdaptiveCheckPolicy`, sequentially and
on p ∈ {2, 4} PEs with ragged per-PE streams, each window's verdict,
per-seed flags and output equal the batch check over the concatenated
window under the window's seed.

Select with ``pytest -m streaming``.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.core.zip_checker import check_zip
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.dataflow.ops.zip_op import zip_arrays
from repro.dataflow.pipeline import (
    AdaptiveCheckPolicy,
    adaptive_sum_check,
    adaptive_zip_check,
)
from repro.dataflow.streaming import StreamingDIA, StreamingKeyValueDIA
from repro.dataflow.streaming import window_seed
from repro.workloads.kv import sum_workload

pytestmark = pytest.mark.streaming

# A weak config makes per-seed verdicts *vary* on a fault, so any
# bit-level divergence between window and batch shows up in the per-seed
# flag lists, not just in the combined verdict.
WEAK = SumCheckConfig.parse("1x2 m4")
SEED = 5
CHUNKS = (1, 7, 65536)
CHUNKS_PER_WINDOW = 16
POLICIES = {
    "plain": None,
    "always": AdaptiveCheckPolicy(escalate_on="always"),
}


def chunked(arr, size):
    """Split an array into chunks, interleaving empties to stress feeds."""
    arr = np.asarray(arr)
    out = []
    for i in range(0, max(arr.shape[0], 1), size):
        if (i // size) % 3 == 1:
            out.append(arr[:0])
        out.append(arr[i : i + size])
    out.append(arr[:0])
    return out


def window(chunks, w):
    """Window ``w`` as the window loop pulls it (empty once a PE ran dry)."""
    return chunks[w * CHUNKS_PER_WINDOW : (w + 1) * CHUNKS_PER_WINDOW]


def concat(chunks, dtype):
    parts = [np.asarray(c) for c in chunks if np.asarray(c).size]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


# Corruptions that act on the operation's data.  Each commutes with the
# window's local pre-aggregation, so the batch op with the same
# corruption produces the same (wrong) output.
def bump_min_key(window, keys, values):
    values = np.array(values, dtype=np.int64)
    if values.size:
        values[np.argmin(keys)] += 3
    return keys, values


def bump_first(window, values):
    values = np.array(values, dtype=np.int64)
    if values.size:
        values[0] += 3
    return values


def flip_first(window, first, second):
    first = np.array(first)
    if first.size:
        first[0] ^= 1
    return first, second


def flags(verdict):
    """``(accepted, per-seed flags)`` of a verdict, adaptive or not."""
    accepted = bool(verdict.accepted)
    adaptive = verdict.details.get("adaptive")
    if adaptive is not None:
        return accepted, adaptive["per_seed_accepted"]
    return accepted, verdict.details.get("per_seed_accepted", [accepted])


def batch_sum_check(comm, input_kv, asserted_kv, seed, policy):
    """The batch Theorem 1 check over one concatenated window."""
    if policy is not None:
        return adaptive_sum_check(
            input_kv, asserted_kv, WEAK, seed=seed, policy=policy, comm=comm
        )
    checker = MultiSeedSumChecker(WEAK, [seed])
    if comm is None:
        return checker.check_local(input_kv, asserted_kv)
    return checker.check_distributed(comm, input_kv, asserted_kv)


def same(a, b) -> bool:
    """Equal values and dtypes (an empty window's dtype is immaterial)."""
    if a.size == b.size == 0:
        return True
    return a.dtype == b.dtype and np.array_equal(a, b)


def reduce_job(comm, op, chunk, policy, fault):
    rank = comm.rank if comm is not None else 0
    keys, values = sum_workload(48 + 16 * rank, num_keys=13, seed=21 + rank)
    if op == "count":
        values = np.ones(keys.size, dtype=np.int64)
    chunks = list(zip(chunked(keys, chunk), chunked(values, chunk)))
    stream = StreamingKeyValueDIA.from_chunks(comm, chunks)
    checked = (
        stream.count_by_key_checked
        if op == "count"
        else stream.reduce_by_key_checked
    )
    run = checked(
        config=WEAK, seed=SEED, chunks_per_window=CHUNKS_PER_WINDOW,
        policy=policy, fault=fault,
    )
    out = []
    for w in range(len(run.verdicts)):
        k = concat([c[0] for c in window(chunks, w)], np.uint64)
        v = concat([c[1] for c in window(chunks, w)], np.int64)
        op_v = fault(w, k, v)[1] if fault is not None else v
        out_k, out_v = reduce_by_key(comm, k, op_v)
        batch = batch_sum_check(
            comm, (k, v), (out_k, out_v), window_seed(SEED, w), policy
        )
        got_k, got_v = run.outputs[w]
        out.append(
            (
                flags(run.verdicts[w]),
                flags(batch),
                same(got_k, out_k) and same(got_v, out_v),
            )
        )
    return out


def sum_job(comm, op, chunk, policy, fault):
    rank = comm.rank if comm is not None else 0
    _, values = sum_workload(48 + 16 * rank, num_keys=13, seed=31 + rank)
    chunks = chunked(values, chunk)
    run = StreamingDIA.from_chunks(comm, chunks).sum_checked(
        config=WEAK, seed=SEED, chunks_per_window=CHUNKS_PER_WINDOW,
        policy=policy, fault=fault,
    )
    out = []
    for w in range(len(run.verdicts)):
        v = concat(window(chunks, w), np.int64)
        op_v = fault(w, v) if fault is not None else v
        total = int(np.sum(op_v, dtype=np.int64))
        if comm is not None:
            total = comm.allreduce(total, op=lambda a, b: a + b)
        asserted = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        if rank == 0:
            asserted = (np.zeros(1, dtype=np.uint64), np.array([total]))
        batch = batch_sum_check(
            comm,
            (np.zeros(v.size, dtype=np.uint64), v),
            asserted,
            window_seed(SEED, w),
            policy,
        )
        out.append(
            (flags(run.verdicts[w]), flags(batch), run.outputs[w] == total)
        )
    return out


def zip_job(comm, op, chunk, policy, fault):
    rank = comm.rank if comm is not None else 0
    size = comm.size if comm is not None else 1
    rng = np.random.default_rng(9 + rank)
    # S2 is distributed unlike S1 (PE r holds PE p-1-r's S1 share), so
    # the exchange moves elements and every window needs true offsets.
    s1 = rng.integers(0, 1 << 40, 48 + 16 * rank).astype(np.uint64)
    s2 = rng.integers(
        -(1 << 40), 1 << 40, 48 + 16 * (size - 1 - rank)
    ).astype(np.int64)
    chunks1, chunks2 = chunked(s1, chunk), chunked(s2, chunk)
    run = StreamingDIA.from_chunks(comm, chunks1).zip_checked(
        StreamingDIA.from_chunks(comm, chunks2),
        seed=SEED, iterations=1, chunks_per_window=CHUNKS_PER_WINDOW,
        policy=policy, fault=fault,
    )
    out = []
    for w in range(len(run.verdicts)):
        a = concat(window(chunks1, w), np.uint64)
        b = concat(window(chunks2, w), np.int64)
        first, second = zip_arrays(comm, a, b)
        if fault is not None:
            first, second = fault(w, first, second)
        seed_w = window_seed(SEED, w)
        if policy is None:
            batch = check_zip(
                a, b, first, second, iterations=1, seed=seed_w, comm=comm
            )
        else:
            batch = adaptive_zip_check(
                a, b, first, second, seed=seed_w, policy=policy, comm=comm,
                iterations=1,
            )
        got_first, got_second = run.outputs[w]
        out.append(
            (
                flags(run.verdicts[w]),
                flags(batch),
                same(got_first, first) and same(got_second, second),
            )
        )
    return out


JOBS = {
    "reduce": (reduce_job, bump_min_key),
    "count": (reduce_job, bump_min_key),
    "sum": (sum_job, bump_first),
    "zip": (zip_job, flip_first),
}


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("op", sorted(JOBS))
def test_window_equals_batch_check(op, chunk, policy, p):
    job, corruption = JOBS[op]
    rejected = 0
    for fault in (None, corruption):
        args = (op, chunk, POLICIES[policy], fault)
        if p == 1:
            per_pe = [job(None, *args)]
        else:
            per_pe = Context(p).run(job, per_rank_args=[args] * p)
        # Ragged streams: a PE that ran dry still settles every window.
        assert len({len(windows) for windows in per_pe}) == 1
        for windows in per_pe:
            for got, batch, outputs_equal in windows:
                assert got == batch
                assert outputs_equal
                rejected += not got[0]
        if fault is None:
            assert rejected == 0
    assert rejected > 0  # the corruption reached the verdicts
