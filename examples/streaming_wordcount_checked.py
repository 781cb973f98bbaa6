#!/usr/bin/env python3
"""Streaming checked wordcount — chunked feeds, windowed settlement.

The streaming sibling of ``wordcount_checked.py``: the corpus arrives as
a sequence of chunks (think log shipper or socket reader), nothing is
materialized beyond the current window, and every window of chunks runs
one distributed count-reduce whose verdict settles in a single packed
collective — with adaptive multi-seed escalation standing by, which
condenses the window's pairs only if it runs.

    python examples/streaming_wordcount_checked.py
"""

from collections import Counter

import numpy as np

from repro import Context
from repro.core import SumCheckConfig
from repro.dataflow import StreamingKeyValueDIA
from repro.dataflow.pipeline import AdaptiveCheckPolicy
from repro.workloads import synthetic_corpus, word_to_key

CONFIG = SumCheckConfig.parse("8x16 m15")
CHUNK = 10_000
CHUNKS_PER_WINDOW = 4


def main() -> None:
    corpus = synthetic_corpus(200_000, vocabulary=20_000, seed=3)
    print(f"corpus: {len(corpus)} words, e.g. {corpus[:6]} ...")

    key_of = {}
    keys = np.array(
        [key_of.setdefault(w, word_to_key(w)) for w in corpus], dtype=np.uint64
    )
    ctx = Context(num_pes=4)

    def job(comm, local_keys):
        def chunk_feed():
            # A generator, not a list: chunks could just as well be read
            # off a socket — the window loop pulls them lazily.
            for start in range(0, local_keys.size, CHUNK):
                chunk = local_keys[start : start + CHUNK]
                yield chunk, np.ones(chunk.size, dtype=np.int64)

        dia = StreamingKeyValueDIA.from_generator(comm, chunk_feed)
        run = dia.reduce_by_key_checked(
            CONFIG,
            seed=17,
            chunks_per_window=CHUNKS_PER_WINDOW,
            policy=AdaptiveCheckPolicy(escalation_seeds=8),
        )
        return run

    runs = ctx.run(job, per_rank_args=ctx.split(keys))
    assert all(r.accepted for r in runs), "checker rejected a correct count!"

    # Windows partition the stream: summing all windows' outputs gives the
    # exact global wordcount.
    counted: Counter = Counter()
    for run in runs:
        for out_k, out_v in run.outputs:
            for k, c in zip(out_k.tolist(), out_v.tolist()):
                counted[k] += c

    truth = Counter(corpus)
    word_by_key = {v: w for w, v in key_of.items()}
    top = counted.most_common(8)
    print(f"{'word':<12}{'count':<10}{'sequential':<10}")
    for key, count in top:
        word = word_by_key[key]
        print(f"{word:<12}{count:<10}{truth[word]:<10}")
        assert truth[word] == count

    stats = runs[0].stats
    print(
        f"\nstream: {stats.windows} windows, "
        f"{stats.elements_fed} elements fed, "
        f"operation {stats.operation_seconds * 1e3:.1f} ms, "
        f"checker {stats.checker_seconds * 1e3:.1f} ms, "
        f"merged overhead ratio {stats.overhead_ratio:.2f} "
        f"(one {CONFIG.table_bits}-bit settle per window)"
    )


if __name__ == "__main__":
    main()
