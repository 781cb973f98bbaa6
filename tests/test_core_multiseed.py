"""Tests for the multi-seed batched checkers (core/multiseed.py).

The load-bearing property: every per-seed table and verdict is
bit-identical to the paper's per-iteration fold under that seed
(``reference_tables``), and every fingerprint to the single-seed
permutation checker, across hash families and reduce operators.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.multiseed import (
    MultiSeedSumChecker,
    _pairs_condensed,
    condense_kv,
)
from repro.core.params import SumCheckConfig
from repro.core.permutation_checker import (
    MultiSeedHashSumChecker,
    wide_sum,
    wide_weighted_sum,
)
from repro.core.sum_checker import reference_tables
from repro.hashing.families import get_family, list_families
from repro.util.rng import derive_seed
from repro.workloads.kv import aggregate_reference, sum_workload

SEEDS = np.arange(6, dtype=np.uint64) * np.uint64(1337) + np.uint64(5)


@pytest.fixture(scope="module")
def workload():
    keys, values = sum_workload(4_000, num_keys=300, seed=17)
    out_k, out_v = aggregate_reference(keys, values)
    bad_v = out_v.copy()
    bad_v[3] += 1
    return keys, values, out_k, out_v, bad_v


def _distinct_keys_workload(num_keys: int):
    """Pairs over exactly ``num_keys`` distinct keys (a third repeated)."""
    uniq = np.arange(num_keys, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    keys = np.concatenate([uniq, uniq[: num_keys // 3]])
    values = np.random.default_rng(num_keys).integers(-50, 51, size=keys.size)
    return keys, values


def _reference_verdict(cfg, seed, input_kv, asserted_kv, operator="+"):
    """Accept iff the two sides' reference tables agree."""
    return np.array_equal(
        reference_tables(cfg, seed, *input_kv, operator),
        reference_tables(cfg, seed, *asserted_kv, operator),
    )


class TestPerSeedIdentity:
    """Multi-seed output must equal T independent reference folds."""

    @pytest.mark.parametrize("family", ["Mix", "CRC", "Tab", "Tab64", "MShift"])
    @pytest.mark.parametrize("operator", ["+", "xor"])
    def test_tables_match_instances(self, family, operator, workload):
        keys, values = workload[:2]
        cfg = SumCheckConfig.parse("4x8 m5").with_hash(family)
        multi = MultiSeedSumChecker(cfg, SEEDS, operator=operator)
        tables = multi.local_tables(keys, values)
        raw = multi.local_tables_condensed(
            _pairs_condensed(keys, values, operator)
        )
        assert tables.shape == (SEEDS.size, cfg.iterations, cfg.d)
        for t, seed in enumerate(SEEDS):
            ref_tables = reference_tables(
                cfg, int(seed), keys, values, operator
            )
            assert np.array_equal(tables[t], ref_tables)
            assert np.array_equal(raw[t], ref_tables)

    @pytest.mark.parametrize(
        "num_seeds",
        # T = 17 derives its seed trees vectorized (more than 16 roots).
        [1, 6, 17],
        ids=lambda t: f"T{t}",
    )
    @pytest.mark.parametrize(
        "label, num_keys",
        [
            pytest.param(label, None, id=label)
            for label in ("3x37 m7", "1x2 m31", "8x16 m15")
        ]
        + [
            # Unique-key counts on both sides of every d**m super-group
            # width boundary (the width is capped at d**m <= keys).
            pytest.param(label, k, id=f"{label}-k{k}")
            for label, d in (("24x2 CRC m15", 2), ("8x16 m15", 16))
            for k in sorted(
                {0, 1, d - 1, d, d * d - 1, d * d, (1 << 16) - 1, 1 << 16}
            )
        ]
        + [
            # Super-groups of mixed widths ([3, 3, 2] groups at 4096
            # keys) through the stacked and the broadcast fused kernels.
            pytest.param(label, k, id=f"{label}-k{k}")
            for label in ("8x16 Tab64 m15", "8x16 MShift m15")
            for k in (4095, 4096)
        ],
    )
    def test_tables_match_across_configs(
        self, label, num_keys, num_seeds, workload
    ):
        if num_keys is None:
            keys, values = workload[:2]
        else:
            keys, values = _distinct_keys_workload(num_keys)
        cfg = SumCheckConfig.parse(label)
        seeds = np.arange(num_seeds, dtype=np.uint64) * np.uint64(
            1337
        ) + np.uint64(5)
        multi = MultiSeedSumChecker(cfg, seeds)
        raw_pairs = _pairs_condensed(keys, values)
        tables = multi.local_tables(keys, values)
        raw = multi.local_tables_condensed(raw_pairs)
        for t, seed in enumerate(seeds):
            ref_tables = reference_tables(cfg, int(seed), keys, values)
            assert np.array_equal(tables[t], ref_tables)
            assert np.array_equal(raw[t], ref_tables)
            # The seed's one-seed view folds the same table.
            view = multi.seed_view(t).local_tables_condensed(raw_pairs)
            assert np.array_equal(view[0], ref_tables)

    @pytest.mark.parametrize("family", list_families())
    @pytest.mark.parametrize("d", [16, 256])
    @pytest.mark.parametrize(
        "n",
        # The super-group width caps (d**m <= n), the 2^16-key hash block
        # edge of the one-seed fold, and several blocks.
        [0, 1, 255, 256, 4095, 4096, 65535, 65536, 65537, 131077],
    )
    def test_one_seed_fold_matches_reference_and_lanes(self, family, d, n):
        """The lane-free ``T = 1`` fold equals the paper's fold and the
        same seed's row of a ``T = 3`` checker (the lane path)."""
        rng = np.random.default_rng(n + d)
        # About a third of the pairs repeat a key: raw pairs, not keys.
        keys = rng.integers(0, 2**64, n, dtype=np.uint64)
        keys[: n // 3] = keys[n - n // 3 :]
        values = rng.integers(-(2**20), 2**20, n, dtype=np.int64)
        cfg = SumCheckConfig(iterations=8, d=d, rhat=1 << 15).with_hash(family)
        seed = 41 + d
        one = MultiSeedSumChecker(cfg, seed).local_tables(keys, values)
        lanes = MultiSeedSumChecker(cfg, [seed, 7, 9]).local_tables_condensed(
            _pairs_condensed(keys, values)
        )
        ref = reference_tables(cfg, seed, keys, values)
        assert np.array_equal(one[0], ref)
        assert np.array_equal(lanes[0], ref)

    @pytest.mark.parametrize("operator", ["+", "xor"])
    def test_seed_view_derives_nothing(self, operator, workload, monkeypatch):
        import repro.core.multiseed as multiseed_mod

        keys, values, out_k, out_v, bad_v = workload
        cfg = SumCheckConfig.parse("8x16 m15")
        seeds = np.arange(64, dtype=np.uint64) * np.uint64(31) + np.uint64(2)
        block = MultiSeedSumChecker(cfg, seeds, operator=operator)

        def derive(*args, **kwargs):
            raise AssertionError("a seed view must not derive anything")

        for name in ("derive_seed_array", "draw_moduli", "evaluation_seeds"):
            monkeypatch.setattr(multiseed_mod, name, derive)
        views = {t: block.seed_view(t) for t in (0, 17, 63)}
        monkeypatch.undo()
        for t, view in views.items():
            fresh = MultiSeedSumChecker(cfg, [seeds[t]], operator=operator)
            assert view.num_seeds == 1 and view.seeds.tolist() == [seeds[t]]
            assert np.shares_memory(view.moduli, block.moduli)
            assert np.array_equal(view.moduli, fresh.moduli)
            for side in ((keys, values), (out_k, bad_v)):
                raw = _pairs_condensed(*side, operator)
                assert np.array_equal(
                    view.local_tables_condensed(raw),
                    fresh.local_tables_condensed(raw),
                )
            got = view.check_local((keys, values), (out_k, bad_v))
            want = fresh.check_local((keys, values), (out_k, bad_v))
            assert got.details == want.details
        with pytest.raises(IndexError):
            block.seed_view(64)

    @pytest.mark.parametrize("operator", ["+", "xor"])
    def test_verdicts_match_instances(self, operator, workload):
        keys, values, out_k, out_v, bad_v = workload
        cfg = SumCheckConfig.parse("1x2 m4")  # weak → per-seed verdicts vary
        seeds = np.arange(30, dtype=np.uint64)
        multi = MultiSeedSumChecker(cfg, seeds, operator=operator)
        result = multi.check_local((keys, values), (out_k, bad_v))
        expected = [
            _reference_verdict(
                cfg, int(s), (keys, values), (out_k, bad_v), operator
            )
            for s in seeds
        ]
        assert result.details["per_seed_accepted"] == expected
        assert result.accepted == all(expected)

    def test_accepts_correct_result_everywhere(self, workload):
        keys, values, out_k, out_v = workload[:4]
        cfg = SumCheckConfig.parse("4x8 m5")
        result = MultiSeedSumChecker(cfg, SEEDS).check_local(
            (keys, values), (out_k, out_v)
        )
        assert result.accepted
        assert result.details["per_seed_accepted"] == [True] * SEEDS.size

    def test_detects_delta_matches_instances(self):
        cfg = SumCheckConfig.parse("1x2 m4")
        seeds = np.arange(40, dtype=np.uint64)
        dk = np.array([123, 456], dtype=np.uint64)
        dv = np.array([5, -5], dtype=np.int64)
        flags = MultiSeedSumChecker(cfg, seeds).detects_delta(dk, dv)
        expected = np.array(
            [reference_tables(cfg, int(s), dk, dv).any() for s in seeds]
        )
        assert np.array_equal(flags, expected)
        assert flags.any() and not flags.all()  # weak config: both occur

    @pytest.mark.parametrize("seed", [9, [9], np.uint64(9)])
    def test_single_seed_degenerates_to_instance(self, seed, workload):
        keys, values = workload[:2]
        cfg = SumCheckConfig.parse("4x8 m5")
        checker = MultiSeedSumChecker(cfg, seed)
        assert checker.num_seeds == 1
        tables = checker.local_tables(keys, values)
        assert np.array_equal(tables[0], reference_tables(cfg, 9, keys, values))


class TestMagnitudePaths:
    """All accumulation paths (float-fast, agg-mod, per-element) are exact,
    from condensed and from raw pairs alike."""

    CFG = SumCheckConfig.parse("4x8 m15")

    def _assert_matches_instances(self, keys, values):
        multi = MultiSeedSumChecker(self.CFG, SEEDS)
        tables = multi.local_tables(keys, values)
        raw = multi.local_tables_condensed(_pairs_condensed(keys, values))
        for t, seed in enumerate(SEEDS):
            ref_tables = reference_tables(self.CFG, int(seed), keys, values)
            assert np.array_equal(tables[t], ref_tables)
            assert np.array_equal(raw[t], ref_tables)
            # The one-seed fold takes its own (lane-free) float path.
            one = MultiSeedSumChecker(self.CFG, seed).local_tables(keys, values)
            assert np.array_equal(one[0], ref_tables)

    @pytest.mark.parametrize(
        "values",
        [
            # n·max|v| = 2^52 − 4: the one-seed float fold, negatives too.
            pytest.param([2**50 - 1, 1 - 2**50] * 2, id="below-2^52"),
            # n·max|v| and Σ|v| past 2^52: the exact int64 path.
            pytest.param([2**51, -(2**51), 1, 2], id="above-2^52"),
        ],
    )
    @pytest.mark.parametrize("asserted", [7, -(2**63)])
    def test_local_difference_is_the_table_difference(
        self, values, asserted
    ):
        """One signed fold of both sides equals the difference of the
        sides' reference tables at ``T = 1``; an asserted ``−2^63``, whose
        negation overflows, makes each side fold on its own."""
        keys = np.array([1, 2, 1, 2], dtype=np.uint64)
        values = np.array(values, dtype=np.int64)
        out_k = np.array([2, 9], dtype=np.uint64)
        out_v = np.array([5, asserted], dtype=np.int64)
        for seed in SEEDS:
            checker = MultiSeedSumChecker(self.CFG, seed)
            diff, _ = checker.local_difference((keys, values), (out_k, out_v))
            want = checker.difference(
                reference_tables(self.CFG, int(seed), keys, values)[None],
                reference_tables(self.CFG, int(seed), out_k, out_v)[None],
            )
            assert np.array_equal(diff, want)

    @pytest.mark.parametrize("asserted", [7, -(2**63)])
    @pytest.mark.parametrize("operator", ["+", "xor"])
    @pytest.mark.parametrize("num_seeds", [1, 3])
    # Σ|v| below 2^52 (float bincounts) and above (exact int64 path).
    @pytest.mark.parametrize("big", [2**20, 2**62])
    def test_local_difference_over_chunk_lists(
        self, asserted, operator, num_seeds, big
    ):
        """A window's chunks fold as they come: int64 and uint64 key
        chunks mix, empty chunks add nothing, key and value chunks may
        split the pairs differently, an asserted ``−2^63`` folds each
        side, and the input side comes back concatenated."""
        key_chunks = [
            np.array([1, 2], dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
            np.array([-3, 1, 9], dtype=np.int64),
            np.array([1 << 63], dtype=np.uint64),
        ]
        value_chunks = [
            np.array([5, -7, 2**40], dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.array([3, big, 11], dtype=np.uint64),
        ]
        in_k = np.array([1, 2, (1 << 64) - 3, 1, 9, 1 << 63], dtype=np.uint64)
        in_v = np.array([5, -7, 2**40, 3, big, 11], dtype=np.int64)
        out_k = np.array([2, 9, 4], dtype=np.int64)
        out_v = np.array([5, asserted, 0], dtype=np.int64)
        seeds = SEEDS[:num_seeds]
        checker = MultiSeedSumChecker(self.CFG, seeds, operator)
        diff, (side_k, side_v) = checker.local_difference(
            (key_chunks, value_chunks), (out_k, out_v)
        )
        want = checker.difference(
            np.stack([
                reference_tables(self.CFG, int(s), in_k, in_v, operator)
                for s in seeds
            ]),
            np.stack([
                reference_tables(
                    self.CFG, int(s), out_k.view(np.uint64), out_v, operator
                )
                for s in seeds
            ]),
        )
        assert np.array_equal(diff, want)
        assert side_k.dtype == np.uint64 and np.array_equal(side_k, in_k)
        assert side_v.dtype == np.int64 and np.array_equal(side_v, in_v)
        # The caller's arrays are read, never written.
        assert out_v[1] == asserted and value_chunks[0][1] == -7

    def test_local_difference_refuses_ragged_sides(self):
        checker = MultiSeedSumChecker(self.CFG, 5)
        keys = [np.arange(3, dtype=np.uint64)]
        values = [np.ones(2, dtype=np.int64), np.ones(2, dtype=np.int64)]
        with pytest.raises(ValueError, match="differ in length"):
            checker.local_difference((keys, values), (keys[0], values[0]))
        with pytest.raises(ValueError, match="differ in length"):
            checker.local_difference(
                (keys, [np.ones(3, dtype=np.int64)]), (keys[0], values[0])
            )
        with pytest.raises(TypeError, match="integer keys"):
            checker.local_difference(
                ([np.ones(1)], [np.ones(1, dtype=np.int64)]),
                (keys[0][:0], values[0][:0]),
            )

    def test_small_values_use_float_bincount(self):
        # Σ|v| < 2^52: the float64 bincount path with deferred modulo.
        keys = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        values = np.array([2**40, -7, 5, 5, -(2**40)], dtype=np.int64)
        self._assert_matches_instances(keys, values)

    def test_int64_min_values(self):
        keys = np.array([1, 2, 1, 3], dtype=np.uint64)
        values = np.array([-(2**63), 3, 5, -(2**63)], dtype=np.int64)
        self._assert_matches_instances(keys, values)

    def test_overflowing_aggregate_falls_back_per_element(self):
        # Σ|v| ≥ 2^63: per-key aggregation is skipped, lanes stay exact.
        keys = np.array([1, 2, 1, 3], dtype=np.uint64)
        values = np.array([2**62, 2**62, -(2**63), 7], dtype=np.int64)
        self._assert_matches_instances(keys, values)

    def test_mid_range_uses_int64_aggregation(self):
        # 2^52 ≤ bound < 2^63: the agg-mod path (int64 scatter, chunked mod).
        keys = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        values = np.array([2**50, -(2**41), 5, 5, 2**50], dtype=np.int64)
        self._assert_matches_instances(keys, values)

    @pytest.mark.parametrize(
        "values, path",
        [
            # n·max|v| = 2^52 − 4 decides the float path without Σ|v|.
            pytest.param([2**50 - 1, 1 - 2**50] * 2, "float", id="nmax-below"),
            # n·max|v| = 2^52 + 4, but Σ|v| = 2^50 + 5 keeps it.
            pytest.param([2**50 + 1, 1, -1, 2], "float", id="nmax-above"),
            # Σ|v| = 2^52 + 3: exact in int64, past the float mantissa.
            pytest.param([2**51, -(2**51), 1, 2], "agg", id="abs-sum-above"),
            # |v| ≥ 2^62: n·max|v| ≥ 2^63, per element.
            pytest.param(
                [2**62, -(2**62), 3, 2**62 + 5], "element", id="v-2^62"
            ),
        ],
    )
    def test_bound_boundaries_take_one_exact_path(self, values, path):
        """Raw and condensed sides pick the same path at each boundary of
        the magnitude bound, and fold the same tables."""
        keys = np.array([1, 2, 1, 2], dtype=np.uint64)
        values = np.array(values, dtype=np.int64)
        raw = _pairs_condensed(keys, values)
        for side in (condense_kv(keys, values), raw):
            taken = (
                "float" if side.agg_float is not None
                else "agg" if side.agg is not None
                else "element"
            )
            assert taken == path
        # The raw view builds its identity inverse only where it is read.
        assert (raw.inverse is None) == (path != "element")
        self._assert_matches_instances(keys, values)

    def test_empty_input(self):
        empty_k = np.zeros(0, dtype=np.uint64)
        empty_v = np.zeros(0, dtype=np.int64)
        tables = MultiSeedSumChecker(self.CFG, SEEDS).local_tables(
            empty_k, empty_v
        )
        assert not tables.any()


class TestSeedLoopPaths:
    """``T = 3`` seeds over one prepared form per side, on every
    accumulation path, at two hash blocks (2^16 + 1 keys)."""

    N = (1 << 16) + 1

    @pytest.mark.parametrize("family", ["CRC", "Tab64", "Mix"])
    @pytest.mark.parametrize("label", ["8x16 m15", "3x37 m15"])
    @pytest.mark.parametrize(
        "path, operator, bound",
        [
            ("float", "+", 2**20),  # Σ|v| < 2^52
            ("agg", "+", 2**44),  # 2^52 <= Σ|v| < 2^63
            ("element", "+", 2**62),  # Σ|v| >= 2^63
            ("xor", "xor", 2**62),
        ],
    )
    def test_tables_equal_reference_per_seed(
        self, family, label, path, operator, bound
    ):
        rng = np.random.default_rng(bound % 1000)
        keys = rng.integers(0, 2**64, self.N, dtype=np.uint64)
        keys[: self.N // 3] = keys[self.N - self.N // 3 :]  # repeats
        values = rng.integers(-bound, bound, self.N, dtype=np.int64)
        cfg = SumCheckConfig.parse(label).with_hash(family)
        seeds = SEEDS[:3]
        side = condense_kv(keys, values, operator)
        taken = (
            "xor" if side.agg_xor is not None
            else "float" if side.agg_float is not None
            else "agg" if side.agg is not None
            else "element"
        )
        assert taken == path
        tables = MultiSeedSumChecker(
            cfg, seeds, operator
        ).local_tables_condensed(side)
        for t, seed in enumerate(seeds):
            want = reference_tables(cfg, int(seed), keys, values, operator)
            assert np.array_equal(tables[t], want), (path, t)


class TestFingerprintsOverPreparedForm:
    """Hash-sum fingerprints at ``T = 1`` (raw sequences) and ``T = 3``
    (condensed uniques) equal each seed's wide sums of
    ``build(...).hash_array``, over two hash blocks."""

    @pytest.mark.parametrize("family", list_families())
    @pytest.mark.parametrize("num_seeds", [1, 3])
    def test_equal_per_seed_wide_sums(self, family, num_seeds):
        rng = np.random.default_rng(num_seeds)
        elements = rng.integers(0, 40_000, (1 << 16) + 1).astype(np.uint64)
        seeds = SEEDS[:num_seeds]
        checker = MultiSeedHashSumChecker(
            seeds, iterations=2, hash_family=family, log_h=13
        )
        fps = checker.fingerprints([elements[:1000], elements[1000:]])
        fam = get_family(family)
        mask = np.uint64((1 << 13) - 1)
        for t, seed in enumerate(seeds.tolist()):
            want = [
                wide_sum(
                    fam.instance(derive_seed(seed, "perm-checker", j))
                    .hash_array(elements) & mask
                )
                for j in range(2)
            ]
            assert fps[t] == want, t


class TestWireFormat:
    @pytest.mark.parametrize("label", ["4x8 m5", "3x37 m7", "8x16 m15"])
    def test_pack_unpack_round_trip(self, label):
        cfg = SumCheckConfig.parse(label)
        multi = MultiSeedSumChecker(cfg, SEEDS)
        rng = np.random.default_rng(3)
        tables = np.stack(
            [
                np.stack(
                    [
                        rng.integers(0, int(m), cfg.d, dtype=np.int64)
                        for m in multi.moduli[t]
                    ]
                )
                for t in range(SEEDS.size)
            ]
        )
        assert np.array_equal(multi.unpack(multi.pack(tables)), tables)

    def test_packed_size_covers_all_seeds(self):
        cfg = SumCheckConfig.parse("8x16 m15")
        multi = MultiSeedSumChecker(cfg, SEEDS)
        payload = multi.pack(
            np.zeros((SEEDS.size, cfg.iterations, cfg.d), dtype=np.int64)
        )
        assert multi.table_bits == SEEDS.size * cfg.table_bits
        assert len(payload) == (multi.table_bits + 7) // 8

    def test_xor_wire_round_trip(self):
        cfg = SumCheckConfig.parse("4x8 m5")
        multi = MultiSeedSumChecker(cfg, SEEDS, operator="xor")
        rng = np.random.default_rng(4)
        tables = (
            rng.integers(
                -(2**63), 2**63, (SEEDS.size, cfg.iterations, cfg.d),
                dtype=np.int64,
            )
        )
        assert np.array_equal(multi.unpack(multi.pack(tables)), tables)


class TestDistributed:
    @pytest.mark.parametrize("p", [2, 4])
    def test_matches_sequential_per_seed(self, p, workload):
        keys, values, out_k, out_v, bad_v = workload
        cfg = SumCheckConfig.parse("1x4 m4")  # weak → mixed per-seed verdicts
        seeds = np.arange(20, dtype=np.uint64)
        sequential = MultiSeedSumChecker(cfg, seeds).check_local(
            (keys, values), (out_k, bad_v)
        )
        ctx = Context(p)

        def run(comm, k, v, ok, ov):
            return MultiSeedSumChecker(cfg, seeds).check_distributed(
                comm, (k, v), (ok, ov)
            )

        results = ctx.run(
            run,
            per_rank_args=list(
                zip(
                    ctx.split(keys),
                    ctx.split(values),
                    ctx.split(out_k),
                    ctx.split(bad_v),
                )
            ),
        )
        for result in results:
            assert (
                result.details["per_seed_accepted"]
                == sequential.details["per_seed_accepted"]
            )
            assert result.accepted == sequential.accepted

    def test_single_collective_per_check(self, workload):
        """All T seeds settle in one allreduce (no per-seed trips)."""
        keys, values, out_k, out_v = workload[:4]
        cfg = SumCheckConfig.parse("4x8 m5")
        seeds = np.arange(16, dtype=np.uint64)
        ctx = Context(4)

        def run(comm, k, v, ok, ov):
            return MultiSeedSumChecker(cfg, seeds).check_distributed(
                comm, (k, v), (ok, ov)
            ).accepted

        verdicts = ctx.run(
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
        assert verdicts == [True] * 4
        # A recursive-doubling allreduce over p = 4 PEs sends p·log2 p
        # messages for the whole 16-seed check.
        assert ctx.traffic_summary()["total_messages"] == 4 * 2


class TestMultiSeedPermutation:
    @pytest.mark.parametrize(
        "family", ["Mix", "CRC", "Tab", "CRC4", "Tab64", "MShift"]
    )
    def test_fingerprints_match_instances(self, family, rng):
        # T > 1 lanes over condensed sides vs the T = 1 per-iteration loop.
        elements = rng.integers(0, 500, 2_000).astype(np.uint64)  # duplicates
        multi = MultiSeedHashSumChecker(
            SEEDS, iterations=2, hash_family=family, log_h=8
        )
        fps = multi.fingerprints(elements)
        for t, seed in enumerate(SEEDS):
            ref = MultiSeedHashSumChecker(int(seed), 2, family, 8)
            assert fps[t] == ref.fingerprints(elements)[0]

    def test_verdicts_match_instances(self, rng):
        elements = rng.integers(0, 10**6, 3_000).astype(np.uint64)
        output = np.sort(elements)
        bad = output.copy()
        bad[5] += 1
        multi = MultiSeedHashSumChecker(SEEDS, iterations=1, log_h=2)
        result = multi.check(elements, bad)
        expected = [
            MultiSeedHashSumChecker(int(s), 1, "Mix", 2)
            .check(elements, bad)
            .accepted
            for s in SEEDS
        ]
        assert result.details["per_seed_accepted"] == expected
        assert multi.check(elements, output).accepted

    def test_multi_sequence_sides(self, rng):
        elements = rng.integers(0, 1000, 1_500).astype(np.uint64)
        multi = MultiSeedHashSumChecker(SEEDS, iterations=2, log_h=16)
        split = [elements[:400], elements[400:]]
        assert multi.fingerprints(split) == multi.fingerprints(elements)

    @pytest.mark.parametrize("p", [2, 4])
    def test_distributed_single_allreduce(self, p, rng):
        elements = np.arange(2_000, dtype=np.uint64)
        output = elements[::-1].copy()
        ctx = Context(p)

        def run(comm, e, o):
            return MultiSeedHashSumChecker(SEEDS, log_h=16).check(
                e, o, comm=comm
            ).accepted

        verdicts = ctx.run(
            run, per_rank_args=list(zip(ctx.split(elements), ctx.split(output)))
        )
        assert verdicts == [True] * p

    def test_log_h_validation(self):
        with pytest.raises(ValueError):
            MultiSeedHashSumChecker(SEEDS, hash_family="CRC", log_h=33)


class TestWideWeightedSum:
    def test_matches_python_reference(self, rng):
        values = rng.integers(0, 2**63, 200).astype(np.uint64) * np.uint64(2)
        weights = rng.integers(1, 2**20, 200).astype(np.uint64)
        expected = sum(int(v) * int(w) for v, w in zip(values, weights))
        assert wide_weighted_sum(values, weights) == expected

    def test_rejects_oversized_weights(self):
        with pytest.raises(ValueError):
            wide_weighted_sum(
                np.array([1], dtype=np.uint64),
                np.array([1 << 32], dtype=np.uint64),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            wide_weighted_sum(
                np.array([1, 2], dtype=np.uint64),
                np.array([1], dtype=np.uint64),
            )


class TestValidation:
    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            MultiSeedSumChecker(SumCheckConfig.parse("4x8 m5"), SEEDS, "min")

    def test_rejects_empty_seed_array(self):
        with pytest.raises(ValueError):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"), np.zeros(0, dtype=np.uint64)
            )

    def test_rejects_float_seeds(self):
        # Same policy as _coerce_keys: truncation could collapse
        # "independent" seeds (0.4 and 0.6 both become 0).
        with pytest.raises(TypeError):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"), np.array([0.4, 0.6])
            )

    def test_permutation_rejects_float_elements(self):
        # Truncated to words, [0.5, 1.5, 2.5] would match [0, 1, 2].
        with pytest.raises(TypeError, match="integer"):
            MultiSeedHashSumChecker([1, 2]).check(
                np.array([0.5, 1.5, 2.5]), np.array([0.0, 1.0, 2.0])
            )

    def test_rejects_length_mismatch(self, workload):
        keys = workload[0]
        multi = MultiSeedSumChecker(SumCheckConfig.parse("4x8 m5"), SEEDS)
        with pytest.raises(ValueError):
            multi.local_tables(keys, np.zeros(3, dtype=np.int64))

    def test_rejects_duplicate_seeds(self):
        # Duplicates silently weaken δ^T to δ^(distinct): refuse them.
        with pytest.raises(ValueError, match="distinct"):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"), np.array([3, 5, 3])
            )
        with pytest.raises(ValueError, match="distinct"):
            MultiSeedHashSumChecker(np.array([7, 7], dtype=np.uint64))

    def test_duplicate_detection_runs_after_sign_coercion(self):
        # -1 (int64) and 2^64-1 (uint64) are the same seed after coercion;
        # the signed form alone must still be accepted as distinct seeds.
        cfg = SumCheckConfig.parse("4x8 m5")
        with pytest.raises(ValueError, match="distinct"):
            MultiSeedSumChecker(cfg, np.array([-1, -1], dtype=np.int64))
        MultiSeedSumChecker(cfg, np.array([-1, 5], dtype=np.int64))  # ok

    def test_rejects_2d_seed_array(self):
        with pytest.raises(ValueError):
            MultiSeedSumChecker(
                SumCheckConfig.parse("4x8 m5"),
                np.arange(4, dtype=np.uint64).reshape(2, 2),
            )

    def test_perm_empty_key_arrays(self):
        multi = MultiSeedHashSumChecker(SEEDS, iterations=2, log_h=16)
        empty = np.zeros(0, dtype=np.uint64)
        assert multi.fingerprints(empty) == [[0, 0]] * SEEDS.size
        result = multi.check(empty, empty)
        assert result.accepted
        assert result.details["per_seed_accepted"] == [True] * SEEDS.size

    def test_sum_empty_vs_nonempty_rejects(self):
        multi = MultiSeedSumChecker(SumCheckConfig.parse("8x16 m15"), SEEDS)
        empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        nonempty = (
            np.array([1], dtype=np.uint64),
            np.array([5], dtype=np.int64),
        )
        result = multi.check_local(nonempty, empty)
        assert not result.accepted
        assert result.details["per_seed_accepted"] == [False] * SEEDS.size

    def test_signed_seed_array_coerced(self, workload):
        keys, values = workload[:2]
        cfg = SumCheckConfig.parse("4x8 m5")
        a = MultiSeedSumChecker(cfg, np.array([-1, 5], dtype=np.int64))
        b = MultiSeedSumChecker(
            cfg, np.array([2**64 - 1, 5], dtype=np.uint64)
        )
        assert np.array_equal(
            a.local_tables(keys, values), b.local_tables(keys, values)
        )
