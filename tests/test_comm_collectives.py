"""Tests for the collective operations (thread-backed network unless a
test names a backend)."""

import numpy as np
import pytest

from repro.comm import ops
from repro.comm.backend import encode_frame
from repro.comm.context import Context

_ADD = lambda a, b: a + b  # noqa: E731


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
class TestBroadcast:
    def test_from_root_zero(self, p):
        ctx = Context(p)
        out = ctx.run(lambda comm: comm.bcast("payload" if comm.rank == 0 else None))
        assert out == ["payload"] * p

    def test_from_other_root(self, p):
        root = p - 1
        ctx = Context(p)
        out = ctx.run(
            lambda comm: comm.bcast(
                comm.rank * 10 if comm.rank == root else None, root=root
            )
        )
        assert out == [root * 10] * p


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
class TestReduce:
    def test_sum_to_root(self, p):
        ctx = Context(p)
        out = ctx.run(lambda comm: comm.reduce(comm.rank + 1, _ADD))
        assert out[0] == p * (p + 1) // 2
        assert all(v is None for v in out[1:]) or p == 1

    def test_nonzero_root(self, p):
        root = p // 2
        ctx = Context(p)
        out = ctx.run(lambda comm: comm.reduce(1, _ADD, root=root))
        assert out[root] == p

    def test_allreduce(self, p):
        ctx = Context(p)
        out = ctx.run(lambda comm: comm.allreduce(comm.rank + 1, _ADD))
        assert out == [p * (p + 1) // 2] * p

    def test_allreduce_numpy_arrays(self, p):
        ctx = Context(p)
        out = ctx.run(
            lambda comm: comm.allreduce(
                np.full(3, comm.rank, dtype=np.int64), lambda a, b: a + b
            )
        )
        expected = sum(range(p))
        for arr in out:
            assert np.array_equal(arr, np.full(3, expected))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
class TestGatherScan:
    def test_gather(self, p):
        ctx = Context(p)
        out = ctx.run(lambda comm: comm.gather(comm.rank * 2))
        assert out[0] == [2 * r for r in range(p)]

    def test_allgather(self, p):
        ctx = Context(p)
        out = ctx.run(lambda comm: comm.allgather(chr(65 + comm.rank)))
        expected = [chr(65 + r) for r in range(p)]
        assert out == [expected] * p

    def test_inclusive_scan(self, p):
        ctx = Context(p)
        out = ctx.run(lambda comm: comm.scan(comm.rank + 1, _ADD))
        assert out == [r * (r + 1) // 2 + r + 1 for r in range(p)]

    def test_exclusive_scan(self, p):
        ctx = Context(p)
        out = ctx.run(lambda comm: comm.exscan(comm.rank + 1, _ADD, identity=0))
        assert out == [r * (r + 1) // 2 for r in range(p)]

    def test_exscan_max_with_none_identity(self, p):
        def _max(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return max(a, b)

        ctx = Context(p)
        out = ctx.run(lambda comm: comm.exscan(comm.rank, _max, identity=None))
        assert out[0] is None
        assert out[1:] == list(range(p - 1))


@pytest.mark.parametrize("p", [1, 2, 4, 8])
class TestAllToAll:
    def test_direct(self, p):
        ctx = Context(p)
        out = ctx.run(
            lambda comm: comm.alltoall(
                [comm.rank * 100 + dst for dst in range(comm.size)]
            )
        )
        for dst, received in enumerate(out):
            assert received == [src * 100 + dst for src in range(p)]

    def test_hypercube_matches_direct(self, p):
        ctx = Context(p)
        out = ctx.run(
            lambda comm: comm.alltoall_hypercube(
                [(comm.rank, dst) for dst in range(comm.size)]
            )
        )
        for dst, received in enumerate(out):
            assert received == [(src, dst) for src in range(p)]

    def test_wrong_payload_count_raises(self, p):
        from repro.comm.context import SPMDError

        ctx = Context(p)
        with pytest.raises(SPMDError):
            ctx.run(lambda comm: comm.alltoall([0] * (comm.size + 1)))


class TestHypercubeRequiresPowerOfTwo:
    def test_rejects_p3(self):
        from repro.comm.context import SPMDError

        ctx = Context(3)
        with pytest.raises(SPMDError):
            ctx.run(lambda comm: comm.alltoall_hypercube([0, 1, 2]))


class TestMessageComplexity:
    """The collectives must use the textbook message counts (§2)."""

    def test_broadcast_messages_logarithmic(self):
        p = 8
        ctx = Context(p)
        ctx.run(lambda comm: comm.bcast(1 if comm.rank == 0 else None))
        total_messages = sum(m.messages_sent for m in ctx.meters)
        assert total_messages == p - 1  # binomial tree: exactly p-1 sends
        per_pe = max(m.messages_sent for m in ctx.meters)
        assert per_pe <= 3  # root sends ⌈log2 p⌉

    def test_reduce_messages(self):
        p = 8
        ctx = Context(p)
        ctx.run(lambda comm: comm.reduce(1, _ADD))
        assert sum(m.messages_sent for m in ctx.meters) == p - 1

    def test_alltoall_direct_messages(self):
        p = 4
        ctx = Context(p)
        ctx.run(lambda comm: comm.alltoall([0] * comm.size))
        for m in ctx.meters:
            assert m.messages_sent == p - 1

    def test_allreduce_volume_independent_of_rank_count_payload(self):
        """All-reducing one word costs O(w) bytes per PE, not O(p·w)."""
        p = 8
        ctx = Context(p)
        ctx.run(lambda comm: comm.allreduce(1, _ADD))
        for m in ctx.meters:
            assert m.volume <= 8 * 4  # a few words, never O(p) words


def allreduce_frames(comm):
    """The wire frame of every ``comm.ops`` allreduce on this PE.

    Arrays meet the bitwise, arithmetic and extremum operators; Python
    ints, whose ``and``/``or`` value semantics depend on operand order,
    meet every operator.
    """
    r = comm.rank
    array = np.array([r * 7 + 3, -r, 1 << r, r ^ 5], dtype=np.int64)
    scalar = (r * 37) % 5  # zeros and distinct nonzero values
    frames = {}
    for name in ("SUM", "BOR", "BAND", "BXOR", "LAND", "LOR", "MAX", "MIN"):
        op = getattr(ops, name)
        if name not in ("LAND", "LOR"):
            frames[name, "array"] = encode_frame(comm.allreduce(array, op))
        frames[name, "int"] = encode_frame(comm.allreduce(scalar, op))
    return frames


@pytest.mark.parametrize(
    "backend, p",
    [("threads", p) for p in range(1, 9)]
    + [("processes", p) for p in (2, 3, 4)],
)
def test_allreduce_bytes_identical_on_every_pe(backend, p):
    frames = Context(p, backend=backend).run(allreduce_frames)
    assert all(f == frames[0] for f in frames)
    assert frames == Context(p, backend="threads").run(allreduce_frames)
    # The integer operators settle the same value the old reduce did.
    total = sum((r * 37) % 5 for r in range(p))
    assert frames[0]["SUM", "int"] == encode_frame(total)


def _nest(a, b):
    # Neither commutative nor associative: the result spells the tree.
    return (a, b)


def _concat(a, b):
    return a + b


@pytest.mark.parametrize("p", [1, 2, 4, 8])
@pytest.mark.parametrize("op", [_nest, _concat])
def test_allreduce_equals_reduce_then_broadcast_at_power_of_two(p, op):
    def program(comm):
        mine = (comm.rank,) if op is _concat else comm.rank
        old = comm.bcast(comm.reduce(mine, op, root=0), root=0)
        return old, comm.allreduce(mine, op)

    for old, new in Context(p).run(program):
        assert new == old
    if op is _concat:
        assert new == tuple(range(p))


@pytest.mark.parametrize("p", [3, 5, 6, 7])
def test_allreduce_non_power_of_two_folds_excess_ranks(p):
    """⌊log2 p⌋ + 2 rounds: every PE sends and receives one message per
    round it takes part in, and the power-of-two core's PEs that fold an
    excess rank in and out are the busiest."""
    ctx = Context(p)
    ctx.run(lambda comm: comm.allreduce(1, _ADD))
    core = 1 << (p.bit_length() - 1)
    rounds = core.bit_length() - 1
    for rank, m in enumerate(ctx.meters):
        if rank >= core:
            expected = 1
        elif rank + core < p:
            expected = rounds + 1
        else:
            expected = rounds
        assert (m.messages_sent, m.messages_received) == (expected, expected)
