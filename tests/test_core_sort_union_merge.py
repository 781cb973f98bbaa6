"""Tests for the sort (Thm 7), union (Cor 12) and merge (Cor 13) checkers."""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.merge_checker import check_merge
from repro.core.sort_checker import check_globally_sorted, check_sort, locally_sorted
from repro.core.union_checker import check_union


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    return rng.integers(0, 10**6, 4_000).astype(np.uint64)


class TestLocallySorted:
    def test_sorted(self):
        assert locally_sorted(np.array([1, 2, 2, 5]))

    def test_unsorted(self):
        assert not locally_sorted(np.array([1, 3, 2]))

    def test_trivial(self):
        assert locally_sorted(np.array([]))
        assert locally_sorted(np.array([9]))


class TestGloballySorted:
    def test_sequential(self, data):
        assert check_globally_sorted(np.sort(data)).accepted
        assert not check_globally_sorted(data).accepted or locally_sorted(data)

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_sorted(self, data, p):
        ctx = Context(p)
        out = np.sort(data)
        verdicts = ctx.run(
            lambda comm, c: check_globally_sorted(c, comm=comm).accepted,
            per_rank_args=ctx.split(out),
        )
        assert verdicts == [True] * p

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_boundary_violation(self, data, p):
        """Each PE slice sorted, but slices in the wrong global order."""
        ctx = Context(p)
        out = np.sort(data)
        chunks = ctx.split(out)[::-1]  # reversed PE order
        verdicts = ctx.run(
            lambda comm, c: check_globally_sorted(c, comm=comm).accepted,
            per_rank_args=chunks,
        )
        assert verdicts == [False] * p

    def test_empty_pe_in_the_middle(self, data):
        """Empty local slices must not break the boundary logic."""
        ctx = Context(4)
        out = np.sort(data)
        chunks = [out[:2000], out[2000:2000], out[2000:3000], out[3000:]]
        verdicts = ctx.run(
            lambda comm, c: check_globally_sorted(c, comm=comm).accepted,
            per_rank_args=chunks,
        )
        assert verdicts == [True] * 4


class TestCheckSort:
    @pytest.mark.parametrize("method", ["hashsum", "polynomial", "gf64"])
    def test_accepts_true_sort(self, data, method):
        result = check_sort(data, np.sort(data), method=method, universe=10**6, seed=1)
        assert result.accepted

    def test_rejects_sorted_but_wrong_multiset(self, data):
        bad = np.sort(data)
        bad[0] = 0  # still sorted, multiset changed (unless it was 0)
        bad[-1] = 10**6
        assert not check_sort(data, bad, seed=1).accepted

    def test_rejects_right_multiset_wrong_order(self, data):
        assert not check_sort(data, data[::-1], seed=1).accepted or bool(
            np.all(data[::-1][:-1] <= data[::-1][1:])
        )

    def test_unknown_method_raises(self, data):
        with pytest.raises(ValueError):
            check_sort(data, np.sort(data), method="magic")

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed(self, data, p):
        ctx = Context(p)
        out = np.sort(data)

        def run(comm, e, o):
            return check_sort(e, o, seed=2, comm=comm).accepted

        verdicts = ctx.run(
            run, per_rank_args=list(zip(ctx.split(data), ctx.split(out)))
        )
        assert verdicts == [True] * p


class TestCheckUnion:
    def test_accepts_correct_union(self, data):
        s1, s2 = data[:2500], data[2500:]
        shuffled = np.random.default_rng(0).permutation(data)
        assert check_union(s1, s2, shuffled, seed=1).accepted

    def test_rejects_missing_element(self, data):
        s1, s2 = data[:2500], data[2500:]
        assert not check_union(s1, s2, data[:-1], seed=1).accepted

    def test_rejects_doubled_element(self, data):
        s1, s2 = data[:2500], data[2500:]
        doubled = np.concatenate([data, data[:1]])
        assert not check_union(s1, s2, doubled, seed=1).accepted

    @pytest.mark.parametrize("method", ["hashsum", "polynomial", "gf64"])
    def test_methods(self, data, method):
        s1, s2 = data[:100], data[100:200]
        out = np.concatenate([s2, s1])
        assert check_union(
            s1, s2, out, method=method, universe=10**6, seed=1
        ).accepted

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed(self, data, p):
        ctx = Context(p)
        s1, s2 = data[:2500], data[2500:]

        def run(comm, a, b, o):
            return check_union(a, b, o, seed=3, comm=comm).accepted

        verdicts = ctx.run(
            run,
            per_rank_args=list(
                zip(ctx.split(s1), ctx.split(s2), ctx.split(data))
            ),
        )
        assert verdicts == [True] * p


class TestCheckMerge:
    def test_accepts_correct_merge(self, data):
        s1 = np.sort(data[:2500])
        s2 = np.sort(data[2500:])
        merged = np.sort(data)
        assert check_merge(s1, s2, merged, seed=1).accepted

    def test_rejects_unsorted_output(self, data):
        s1 = np.sort(data[:2500])
        s2 = np.sort(data[2500:])
        unsorted = np.concatenate([s1, s2])
        result = check_merge(s1, s2, unsorted, seed=1)
        if not bool(np.all(unsorted[:-1] <= unsorted[1:])):
            assert not result.accepted

    def test_rejects_wrong_multiset(self, data):
        s1 = np.sort(data[:2500])
        s2 = np.sort(data[2500:])
        bad = np.sort(data).copy()
        bad[10] += 1
        bad.sort()
        assert not check_merge(s1, s2, bad, seed=1).accepted


class TestFloatElementsRejected:
    """Truncated to words, 0.5, 1.5, 2.5 would be a permutation of 0.0,
    1.0, 2.0, so every method would accept the wrong output; non-integer
    elements raise instead."""

    E = np.array([0.5, 1.5, 2.5])
    O = np.array([0.0, 1.0, 2.0])

    @pytest.mark.parametrize("method", ["hashsum", "polynomial", "gf64"])
    def test_sort(self, method):
        with pytest.raises(TypeError, match="integer"):
            check_sort(self.E, self.O, method=method)

    @pytest.mark.parametrize("method", ["hashsum", "polynomial", "gf64"])
    def test_union(self, method):
        with pytest.raises(TypeError, match="integer"):
            check_union(self.E[:1], self.E[1:], self.O, method=method)

    @pytest.mark.parametrize("method", ["hashsum", "polynomial", "gf64"])
    def test_merge(self, method):
        with pytest.raises(TypeError, match="integer"):
            check_merge(self.E[:1], self.E[1:], self.O, method=method)

    def test_sortedness_raises_on_every_pe(self):
        # Through int(), the boundary of [0.5, 0.7] | [0.2, 0.9] would
        # read 0 >= 0 and pass; the dtype decides first, on every PE.
        def run(comm, part):
            try:
                check_globally_sorted(part, comm=comm)
            except TypeError as exc:
                return str(exc)
            return None

        msgs = Context(2).run(
            run, per_rank_args=[np.array([0.5, 0.7]), np.array([0.2, 0.9])]
        )
        assert all(msg is not None and "float64" in msg for msg in msgs)


class TestMixedSignednessRejected:
    """int64 [-1, 0] and uint64 [0, 2^64 - 1] are the same two 64-bit
    words, so every permutation fingerprint matches; sorted as uint64 the
    output reads [0, -1] as int64.  The dtypes refuse the pair first."""

    E = np.array([-1, 0], dtype=np.int64)
    O = np.array([0, (1 << 64) - 1], dtype=np.uint64)

    @pytest.mark.parametrize("method", ["hashsum", "polynomial", "gf64"])
    def test_sort_raises_on_every_pe(self, method):
        def run(comm, e, o):
            try:
                check_sort(e, o, method=method, comm=comm)
            except TypeError as exc:
                return str(exc)
            return None

        msgs = Context(2).run(
            run,
            per_rank_args=[(self.E[:1], self.O[:1]), (self.E[1:], self.O[1:])],
        )
        assert all(
            msg is not None and "int64" in msg and "uint64" in msg
            for msg in msgs
        )

    @pytest.mark.parametrize("method", ["hashsum", "polynomial", "gf64"])
    def test_merge(self, method):
        with pytest.raises(
            TypeError, match="input dtype int64 and output dtype uint64"
        ):
            check_merge(self.E[:1], self.E[1:], self.O, method=method)

    def test_adaptive_sort(self):
        from repro.dataflow.pipeline import adaptive_sort_check

        with pytest.raises(TypeError, match="signedness"):
            adaptive_sort_check(self.E, self.O)

    def test_one_signedness_still_checks(self):
        wide = np.array([0, 1 << 63], dtype=np.uint64)
        assert check_sort(wide[::-1].copy(), wide).accepted
        assert check_sort(np.array([0, -1]), np.array([-1, 0])).accepted
