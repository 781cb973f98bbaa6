"""Tests for the average checker (§6.1, Cor 8) and zip checker (§6.4, Thm 11)."""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.average_checker import check_average_aggregation, reconstruct_sums
from repro.core.params import SumCheckConfig
from repro.core.zip_checker import check_zip, positional_fingerprint

STRONG = SumCheckConfig.parse("8x16 m15")
ZIP_SEEDS = np.arange(6, dtype=np.uint64) * np.uint64(911) + np.uint64(7)


class TestReconstructSums:
    def test_exact_reconstruction(self):
        sums, valid = reconstruct_sums([5, 7], [1, 1], [2, 3])
        assert np.array_equal(sums, [10, 21])
        assert valid.all()

    def test_half_denominator(self):
        sums, valid = reconstruct_sums([7], [2], [4])  # avg 3.5 of 4 values
        assert sums[0] == 14 and valid[0]

    def test_non_dividing_denominator_invalid(self):
        _, valid = reconstruct_sums([7], [2], [3])
        assert not valid[0]

    def test_nonpositive_counts_invalid(self):
        _, valid = reconstruct_sums([1, 1], [1, 1], [0, -2])
        assert not valid.any()

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            reconstruct_sums([2**60], [1], [2**10])


class TestAverageChecker:
    def _io(self):
        keys = np.array([1, 1, 1, 2, 2], dtype=np.uint64)
        values = np.array([4, 5, 9, 10, 20], dtype=np.int64)
        return keys, values

    def test_accepts_correct(self):
        keys, values = self._io()
        assert check_average_aggregation(
            (keys, values),
            np.array([1, 2], dtype=np.uint64),
            np.array([6, 15], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
            np.array([3, 2], dtype=np.int64),
            config=STRONG,
            seed=1,
        ).accepted

    def test_accepts_unreduced_fraction(self):
        keys, values = self._io()
        assert check_average_aggregation(
            (keys, values),
            np.array([1, 2], dtype=np.uint64),
            np.array([18, 30], dtype=np.int64),
            np.array([3, 2], dtype=np.int64),
            np.array([3, 2], dtype=np.int64),
            config=STRONG,
            seed=1,
        ).accepted

    def test_rejects_wrong_average(self):
        keys, values = self._io()
        assert not check_average_aggregation(
            (keys, values),
            np.array([1, 2], dtype=np.uint64),
            np.array([7, 15], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
            np.array([3, 2], dtype=np.int64),
            config=STRONG,
            seed=1,
        ).accepted

    def test_rejects_scaled_cheat(self):
        """Doubled averages + halved counts reconstruct the same sums —
        the count check (the paper's warning) must catch it."""
        keys = np.array([1, 1, 1, 1], dtype=np.uint64)
        values = np.array([5, 5, 5, 5], dtype=np.int64)
        assert not check_average_aggregation(
            (keys, values),
            np.array([1], dtype=np.uint64),
            np.array([10], dtype=np.int64),  # claimed average 10 (true: 5)
            np.array([1], dtype=np.int64),
            np.array([2], dtype=np.int64),  # claimed count 2 (true: 4)
            config=STRONG,
            seed=1,
        ).accepted

    def test_rejects_invalid_denominator(self):
        keys, values = self._io()
        assert not check_average_aggregation(
            (keys, values),
            np.array([1, 2], dtype=np.uint64),
            np.array([6, 15], dtype=np.int64),
            np.array([2, 1], dtype=np.int64),  # den 2 does not divide 3
            np.array([3, 2], dtype=np.int64),
            config=STRONG,
            seed=1,
        ).accepted

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_round_trip(self, p):
        from repro.dataflow.ops.aggregates import average_by_key
        from repro.workloads.kv import sum_workload

        keys, values = sum_workload(1_200, num_keys=60, seed=4)
        ctx = Context(p)

        def run(comm, k, v):
            res = average_by_key(comm, k, v)
            return check_average_aggregation(
                (k, v), res.keys, res.numerators, res.denominators, res.counts,
                config=STRONG, seed=6, comm=comm,
            ).accepted

        verdicts = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        assert verdicts == [True] * p

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_detects_fault(self, p):
        from repro.dataflow.ops.aggregates import average_by_key
        from repro.workloads.kv import sum_workload

        keys, values = sum_workload(1_200, num_keys=60, seed=4)
        ctx = Context(p)

        def run(comm, k, v):
            res = average_by_key(comm, k, v)
            nums = res.numerators.copy()
            if comm.rank == 0 and nums.size:
                nums[0] += 1
            return check_average_aggregation(
                (k, v), res.keys, nums, res.denominators, res.counts,
                config=STRONG, seed=6, comm=comm,
            ).accepted

        verdicts = ctx.run(
            run, per_rank_args=list(zip(ctx.split(keys), ctx.split(values)))
        )
        assert verdicts == [False] * p


class TestPositionalFingerprint:
    def test_deterministic(self):
        vals = np.arange(100, dtype=np.uint64)
        assert positional_fingerprint(vals, 0, 7) == positional_fingerprint(
            vals, 0, 7
        )

    def test_order_sensitive(self):
        vals = np.arange(100, dtype=np.uint64)
        swapped = vals.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert positional_fingerprint(vals, 0, 7) != positional_fingerprint(
            swapped, 0, 7
        )

    def test_split_invariance(self):
        """fp(whole) == fp(part1) + fp(part2 at offset) — the property that
        makes it evaluable on distributed data (§6.4)."""
        vals = np.arange(1000, dtype=np.uint64) * np.uint64(977)
        whole = positional_fingerprint(vals, 0, 3)
        p31 = (1 << 31) - 1
        split = (
            positional_fingerprint(vals[:400], 0, 3)
            + positional_fingerprint(vals[400:], 400, 3)
        ) % p31
        assert whole == split

    def test_empty(self):
        assert positional_fingerprint(np.zeros(0, dtype=np.uint64), 0, 1) == 0


class TestZipChecker:
    def _data(self):
        rng = np.random.default_rng(5)
        s1 = rng.integers(0, 2**32, 800).astype(np.uint64)
        s2 = rng.integers(0, 2**32, 800).astype(np.uint64)
        return s1, s2

    def test_accepts_correct_zip(self):
        s1, s2 = self._data()
        assert check_zip(s1, s2, s1, s2, seed=1).accepted

    def test_rejects_float_columns(self):
        # Truncated to words, [0.5, 1.5] would zip like [0, 1].
        s2 = np.array([7, 8], dtype=np.uint64)
        with pytest.raises(TypeError, match="integer columns"):
            check_zip(np.array([0.5, 1.5]), s2, np.array([0.0, 1.0]), s2)

    def test_detects_swap_within_first(self):
        s1, s2 = self._data()
        z1 = s1.copy()
        z1[[10, 11]] = z1[[11, 10]]
        assert not check_zip(s1, s2, z1, s2, seed=1).accepted

    def test_detects_value_change_in_second(self):
        s1, s2 = self._data()
        z2 = s2.copy()
        z2[5] += 1
        assert not check_zip(s1, s2, s1, z2, seed=1).accepted

    def test_detects_truncation(self):
        s1, s2 = self._data()
        assert not check_zip(s1, s2, s1[:-1], s2[:-1], seed=1).accepted

    @pytest.mark.parametrize(
        "shape",
        ["first-short", "second-short", "inputs-differ"],
    )
    def test_ragged_output_rejects(self, shape):
        """A ragged asserted output is rejected through the lengths row.

        The output is the untrusted side: columns of different lengths
        are a wrong answer, not a caller error.  ``inputs-differ`` zips
        inputs of different lengths into matching columns: each column
        equals its input, but the two global lengths differ.
        """
        s1, s2 = self._data()
        a, b, first, second = {
            "first-short": (s1, s2, s1[:-1], s2),
            "second-short": (s1, s2, s1, s2[:-1]),
            "inputs-differ": (s1, s2[:-1], s1, s2[:-1]),
        }[shape]
        result = check_zip(a, b, first, second, seed=ZIP_SEEDS)
        assert not result.accepted
        assert result.details["per_seed_accepted"] == [False] * ZIP_SEEDS.size
        assert not result.details["length_ok"]
        assert result.details["lengths"] == (a.size, b.size, first.size)

    @pytest.mark.parametrize("p", [2, 3])
    def test_distributed_ragged_output_rejects_on_every_pe(self, p):
        from repro.dataflow.ops.zip_op import zip_arrays

        s1, s2 = self._data()
        ctx = Context(p)

        def run(comm, a, b):
            f, s, (off1, off2) = zip_arrays(comm, a, b, return_offsets=True)
            if comm.rank == 0:
                f = f[:-1]
            plain = check_zip(a, b, f, s, seed=ZIP_SEEDS, comm=comm)
            given = check_zip(
                a, b, f, s, seed=ZIP_SEEDS, comm=comm,
                offsets=(off1, off2, off1),
            )
            return plain.accepted, given.accepted, plain.details["length_ok"]

        outs = ctx.run(
            run, per_rank_args=list(zip(ctx.split(s1), ctx.split(s2)))
        )
        assert outs == [(False, False, False)] * p

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_non_positive_iterations_raise(self, iterations):
        # Zero iterations compare no fingerprints and would accept any
        # output, a corrupted zip included.
        s1, s2 = self._data()
        bad = s1.copy()
        bad[0] += 1
        with pytest.raises(ValueError, match="iterations"):
            check_zip(s1, s2, bad, s2, iterations=iterations, seed=1)

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
    def test_rejects_invalid_seeds(self, seeds, error):
        s1, s2 = self._data()
        with pytest.raises(error):
            check_zip(s1, s2, s1, s2, seed=seeds)

    def test_multiseed_flags_equal_scalar_calls(self):
        s1, s2 = self._data()
        bad = s2.copy()
        bad[7] += 1
        for zipped_second in (s2, bad, s2[::-1]):
            multi = check_zip(s1, s2, s1, zipped_second, seed=ZIP_SEEDS)
            scalar = [
                check_zip(s1, s2, s1, zipped_second, seed=int(s))
                for s in ZIP_SEEDS
            ]
            assert multi.details["num_seeds"] == ZIP_SEEDS.size
            assert multi.details["per_seed_accepted"] == [
                r.accepted for r in scalar
            ]
            assert multi.accepted == all(r.accepted for r in scalar)
            assert multi.details["detecting_iterations"] == scalar[
                0
            ].details["detecting_iterations"]

    @pytest.mark.parametrize(
        "seeds", [5, -5, (1 << 63) + 5, ZIP_SEEDS, np.array([-3, 9])]
    )
    def test_lanes_follow_root_seeds(self, seeds):
        """Seed ``t``'s fingerprints are the scalar derivation's under it.

        Both pairs are fingerprinted: ``first`` differs from S1 in one
        word, and ``second`` has S2's words at another offset.
        """
        from repro.core import domain
        from repro.core.zip_checker import _column_pairs, _local_words
        from repro.util.rng import derive_seed

        s1, s2 = self._data()
        first = s1.copy()
        first[0] += 1
        columns = [s1, first, s2, s2]
        words = _local_words(
            columns, _column_pairs(columns, (3, 5, 3)), domain.seeds(seeds), 2
        )
        for t, root in enumerate(np.atleast_1d(seeds)):
            lane1 = derive_seed(int(root), "lane1")
            lane2 = derive_seed(int(root), "lane2")
            for j in range(2):
                assert words[t, j, 0] == positional_fingerprint(s1, 3, lane1, j)
                assert words[t, j, 1] == positional_fingerprint(
                    first, 3, lane1, j
                )
                assert words[t, j, 2] == positional_fingerprint(s2, 5, lane2, j)
                assert words[t, j, 3] == positional_fingerprint(s2, 3, lane2, j)
            assert list(words[t, -1]) == [s1.size, s1.size, s2.size, s2.size]

    def test_pair_left_in_place_is_not_hashed(self, monkeypatch):
        """An input and its output column at one offset with equal words
        leave their fingerprint words at 0, even across int64/uint64."""
        from repro.core import zip_checker
        from repro.core import domain

        s1, s2 = self._data()
        signed = s2.astype(np.int64) - (1 << 31)
        hashed = []
        real = zip_checker._fingerprints

        def counting(values, offset, lanes):
            hashed.append(offset)
            return real(values, offset, lanes)

        monkeypatch.setattr(zip_checker, "_fingerprints", counting)
        columns = [s1, s1.copy(), signed, signed.view(np.uint64)]
        roots = domain.seeds(ZIP_SEEDS)
        pairs = zip_checker._column_pairs(columns, (3, 3, 3))
        words = zip_checker._local_words(columns, pairs, roots, 2)
        assert hashed == []
        assert not words[:, :-1].any()
        assert list(words[0, -1]) == [s1.size] * 2 + [s2.size] * 2
        # The same pairs one position apart are both hashed.
        pairs = zip_checker._column_pairs(columns, (3, 3, 4))
        zip_checker._local_words(columns, pairs, roots, 2)
        assert hashed == [3, 4, 3, 4]

    def test_offsets_match_the_exscan(self):
        """Passing the offsets a caller already has changes no verdict."""
        from repro.dataflow.ops.zip_op import zip_arrays

        s1, s2 = self._data()
        ctx = Context(3)

        def run(comm, a, b):
            f, s, (off1, off2) = zip_arrays(comm, a, b, return_offsets=True)
            bad = s.copy()
            if comm.rank == 1:
                bad[0] += 1
            out = []
            for second in (s, bad):
                plain = check_zip(a, b, f, second, seed=ZIP_SEEDS, comm=comm)
                given = check_zip(
                    a, b, f, second, seed=ZIP_SEEDS, comm=comm,
                    offsets=(off1, off2, off1),
                )
                out.append(plain.details == given.details)
                out.append(plain.accepted)
            return out

        outs = ctx.run(run, per_rank_args=list(zip(ctx.split(s1), ctx.split(s2))))
        assert outs == [[True, True, True, False]] * 3

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_check_is_one_allreduce_and_one_exscan(self, p):
        """All seeds, iterations and lengths settle in one allreduce."""
        from repro.comm import ops
        from repro.dataflow.ops.zip_op import zip_arrays

        s1, s2 = self._data()
        ctx = Context(p)
        words = np.zeros((ZIP_SEEDS.size, 3, 4), dtype=np.int64)

        def messages(meter, label):
            traffic = meter.since(label)
            return traffic["messages_sent"], traffic["messages_received"]

        def run(comm, a, b):
            f, s, (off1, off2) = zip_arrays(comm, a, b, return_offsets=True)
            meter = comm.meter
            meter.mark("allreduce")
            comm.allreduce(words, op=ops.SUM)
            allreduce = messages(meter, "allreduce")
            meter.mark("exscan")
            comm.exscan(
                (0, 0, 0),
                op=lambda x, y: tuple(u + v for u, v in zip(x, y)),
                identity=(0, 0, 0),
            )
            exscan = messages(meter, "exscan")
            meter.mark("zip")
            check_zip(a, b, f, s, iterations=2, seed=ZIP_SEEDS, comm=comm)
            plain = messages(meter, "zip")
            meter.mark("given")
            check_zip(
                a, b, f, s, iterations=2, seed=ZIP_SEEDS, comm=comm,
                offsets=(off1, off2, off1),
            )
            given = messages(meter, "given")
            expected = tuple(x + y for x, y in zip(allreduce, exscan))
            return plain == expected, given == allreduce

        outs = ctx.run(
            run, per_rank_args=list(zip(ctx.split(s1), ctx.split(s2)))
        )
        assert outs == [(True, True)] * p

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_uneven_distributions(self, p):
        """Inputs distributed differently from the output (the hard case)."""
        from repro.dataflow.ops.zip_op import zip_arrays

        s1, s2 = self._data()
        ctx = Context(p)
        splits_1 = ctx.split(s1)
        # Skew S2's distribution heavily toward the last PE.
        bounds = [0] + [50 * (i + 1) for i in range(p - 1)] + [s2.size]
        splits_2 = [s2[bounds[i] : bounds[i + 1]] for i in range(p)]

        def run(comm, a, b):
            f, s = zip_arrays(comm, a, b)
            return check_zip(a, b, f, s, seed=2, comm=comm).accepted

        verdicts = ctx.run(run, per_rank_args=list(zip(splits_1, splits_2)))
        assert verdicts == [True] * p

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_detects_reorder(self, p):
        from repro.dataflow.ops.zip_op import zip_arrays

        s1, s2 = self._data()
        ctx = Context(p)

        def run(comm, a, b):
            f, s = zip_arrays(comm, a, b)
            if comm.rank == 0 and f.size >= 2:
                f = f.copy()
                f[[0, 1]] = f[[1, 0]]
            return check_zip(a, b, f, s, seed=2, comm=comm).accepted

        verdicts = ctx.run(
            run, per_rank_args=list(zip(ctx.split(s1), ctx.split(s2)))
        )
        # The swap is detected unless the swapped elements were equal.
        assert verdicts == [False] * p or s1[0] == s1[1]


class TestSequentialInPlace:
    """A sequential check whose two column pairs compare equal in place
    settles from those comparisons and the four lengths: no words
    tensor, no verdict pass, and every refusal of the words path."""

    def _data(self):
        rng = np.random.default_rng(6)
        s1 = rng.integers(0, 2**32, 300).astype(np.uint64)
        s2 = rng.integers(0, 2**32, 300).astype(np.uint64)
        return s1, s2

    def _columns(self, shape):
        s1, s2 = self._data()
        signed = s2.astype(np.int64) - (1 << 31)
        empty = np.zeros(0, dtype=np.int64)
        return {
            "clean": (s1, s2, s1.copy(), s2.copy()),
            "int64-vs-uint64": (s1, signed, s1, signed.view(np.uint64)),
            "inputs-differ": (s1, s2[:-1], s1, s2[:-1]),
            "first-short": (s1, s2, s1[:-1], s2),
            "corrupted": (s1, s2, s1, s2 + np.uint64(1)),
            "empty": (empty, empty, empty, empty),
        }[shape]

    @pytest.mark.parametrize("shape", ["clean", "inputs-differ"])
    def test_in_place_pairs_skip_the_words(self, shape, monkeypatch):
        from repro.core import zip_checker

        def forbidden(*args, **kwargs):
            raise AssertionError("the words path ran")

        monkeypatch.setattr(zip_checker, "_local_words", forbidden)
        monkeypatch.setattr(zip_checker, "_verdict", forbidden)
        result = check_zip(*self._columns(shape), seed=ZIP_SEEDS)
        assert result.accepted == (shape == "clean")
        assert result.details["per_seed_accepted"] == (
            [shape == "clean"] * ZIP_SEEDS.size
        )

    @pytest.mark.parametrize(
        "shape",
        [
            "clean",
            "int64-vs-uint64",
            "inputs-differ",
            "first-short",
            "corrupted",
            "empty",
        ],
    )
    @pytest.mark.parametrize("num_seeds", [1, 2, 3])
    def test_details_match_the_words_path_on_one_pe(self, shape, num_seeds):
        """The verdict equals the same check's on a one-PE communicator,
        which fingerprints and sums words, for a scalar seed and for
        ``T`` = 1–3 seeds."""
        columns = self._columns(shape)
        for seed in (ZIP_SEEDS[:num_seeds], int(ZIP_SEEDS[num_seeds])):
            seq = check_zip(*columns, iterations=3, seed=seed)
            (one,) = Context(1).run(
                lambda comm: check_zip(
                    *columns, iterations=3, seed=seed, comm=comm
                )
            )
            assert seq.accepted == one.accepted
            assert seq.checker == one.checker
            assert seq.details == one.details
            assert [type(v) for v in seq.details.values()] == [
                type(v) for v in one.details.values()
            ]

    def test_refusals_are_kept(self):
        s = np.arange(5, dtype=np.uint64)
        f = s.astype(np.float64)
        with pytest.raises(TypeError, match="integer columns"):
            check_zip(f, s, f, s)
        with pytest.raises(TypeError, match="integer columns"):
            check_zip(s, f, s, f)
        with pytest.raises(TypeError, match="integer seeds"):
            check_zip(s, s, s, s, seed=np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="distinct"):
            check_zip(s, s, s, s, seed=np.array([3, 3], dtype=np.uint64))
        with pytest.raises(ValueError, match="iterations"):
            check_zip(s, s, s, s, iterations=0)
        with pytest.raises(TypeError):
            check_zip(s, s, s, s, iterations=2.0)


P31 = (1 << 31) - 1


def _reference_zip(comm, s1, s2, first, second, roots, iterations):
    """The verdict of fingerprinting every column (the unoptimised check).

    Each PE fingerprints all four columns with
    :func:`positional_fingerprint` at their global offsets (S1's, S2's,
    and the output's for both output columns); the words and lengths
    are summed over PEs and compared modulo ``2^31 − 1``.
    """
    from repro.util.rng import derive_seed

    columns = [np.asarray(c).ravel() for c in (s1, first, s2, second)]
    sizes = comm.allgather(tuple(c.size for c in columns))
    off1, offz, off2 = (
        sum(row[c] for row in sizes[: comm.rank]) for c in (0, 1, 2)
    )
    offsets = (off1, offz, off2, offz)
    labels = ("lane1", "lane1", "lane2", "lane2")
    local = np.zeros((roots.size, iterations + 1, 4), dtype=np.int64)
    for t, root in enumerate(roots):
        for c, values in enumerate(columns):
            lane = derive_seed(int(root), labels[c])
            for j in range(iterations):
                local[t, j, c] = positional_fingerprint(
                    values, offsets[c], lane, j
                )
        local[t, -1] = [c.size for c in columns]
    total = sum(comm.allgather(local))
    n1, nz, n2, n2z = (int(n) for n in total[0, -1])
    length_ok = n1 == nz and n2 == n2z and nz == n2z
    fp = total[:, :-1] % P31
    seed_ok = (fp[..., 0] == fp[..., 1]) & (fp[..., 2] == fp[..., 3])
    per_seed = [bool(length_ok and row.all()) for row in seed_ok]
    return {
        "accepted": all(per_seed),
        "per_seed_accepted": per_seed,
        "detecting_iterations": np.flatnonzero(~seed_ok[0]).tolist(),
        "lengths": (n1, n2, nz),
        "length_ok": length_ok,
    }


def _summary(result):
    d = result.details
    return {
        "accepted": result.accepted,
        "per_seed_accepted": d["per_seed_accepted"],
        "detecting_iterations": d["detecting_iterations"],
        "lengths": d["lengths"],
        "length_ok": d["length_ok"],
    }


class TestZipOracle:
    """``check_zip`` against the every-column reference, verdict for verdict.

    The matrix crosses PE counts, S2 distributed like and unlike S1,
    clean and corrupted outputs, one and four seeds, and column dtypes
    (int64, uint64, and int64 inputs against uint64 output columns with
    equal words).  Skipping the hash of a pair left in place must change
    none of ``accepted``, ``per_seed_accepted``, ``detecting_iterations``,
    ``lengths`` and ``length_ok``.
    """

    N = 300
    #: S2 repeats with period 60, and its "unlike" split at p = 3 gives
    #: PE 1 a 100-element slice at offset 40 where the output's is at
    #: 100: equal words at different offsets, which must be hashed.
    PERIOD = 60
    UNLIKE = {2: [0, 40, 300], 3: [0, 40, 140, 300]}

    def _inputs(self, dtype):
        rng = np.random.default_rng(17)
        if dtype == "uint64":
            s1, block = (
                rng.integers(0, 1 << 64, n, dtype=np.uint64)
                for n in (self.N, self.PERIOD)
            )
        else:
            s1, block = (
                rng.integers(-(1 << 40), 1 << 40, n).astype(np.int64)
                for n in (self.N, self.PERIOD)
            )
        return s1, np.tile(block, self.N // self.PERIOD)

    @staticmethod
    def _corrupt(kind, first, second):
        first, second = first.copy(), second.copy()
        if kind == "first":
            first[1:2] += 1
        elif kind == "second":
            second[2:3] += 1
        elif kind == "swap":
            first[[0, 1]] = first[[1, 0]]
            second[[0, 1]] = second[[1, 0]]
        elif kind == "truncate":
            first, second = first[:-1], second[:-1]
        return first, second

    @pytest.mark.parametrize("kind", ["clean", "first", "second", "swap", "truncate"])
    @pytest.mark.parametrize("dtype", ["int64", "uint64", "mixed"])
    @pytest.mark.parametrize(
        "p, layout",
        [(1, "like"), (2, "like"), (2, "unlike"), (3, "like"), (3, "unlike")],
    )
    def test_matches_reference(self, p, layout, dtype, kind):
        from repro.core import domain
        from repro.dataflow.ops.zip_op import zip_arrays

        s1, s2 = self._inputs(dtype)
        ctx = Context(p)
        splits_1 = ctx.split(s1)
        if layout == "like":
            splits_2 = ctx.split(s2)
        else:
            bounds = self.UNLIKE[p]
            splits_2 = [s2[bounds[i] : bounds[i + 1]] for i in range(p)]

        def run(comm, a, b):
            f, s, (off1, off2) = zip_arrays(comm, a, b, return_offsets=True)
            if dtype == "mixed":
                f, s = f.view(np.uint64), s.view(np.uint64)
            if comm.rank == comm.size - 1:
                f, s = self._corrupt(kind, f, s)
            out = []
            for seed in (5, ZIP_SEEDS[:4]):
                reference = _reference_zip(
                    comm, a, b, f, s, domain.seeds(seed), 2
                )
                for offsets in (None, (off1, off2, off1)):
                    result = check_zip(
                        a, b, f, s, iterations=2, seed=seed, comm=comm,
                        offsets=offsets,
                    )
                    out.append((_summary(result), reference))
            return out

        outs = ctx.run(run, per_rank_args=list(zip(splits_1, splits_2)))
        for pe in outs:
            assert pe == outs[0]
            for summary, reference in pe:
                assert summary == reference
                assert reference["accepted"] == (kind == "clean")
