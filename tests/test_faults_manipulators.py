"""Tests for the fault-injection manipulators (Tables 4 and 6).

The central property: the sparse delta a manipulator reports must equal the
actual difference between the aggregates of the manipulated and original
data — this is what licenses the fast accuracy path.
"""

import numpy as np
import pytest

from repro.faults.manipulators import (
    PERM_MANIPULATORS,
    SUM_MANIPULATORS,
    IncDec,
    get_kv_manipulator,
    get_seq_manipulator,
)
from repro.workloads.kv import aggregate_reference, sum_workload


def _delta_from_aggregates(keys, values, new_keys, new_values):
    """Reference: per-key aggregate difference via two exact aggregations."""
    base_k, base_v = aggregate_reference(keys, values)
    new_k, new_v = aggregate_reference(new_keys, new_values)
    delta: dict[int, int] = {}
    for k, v in zip(new_k.tolist(), new_v.tolist()):
        delta[k] = delta.get(k, 0) + v
    for k, v in zip(base_k.tolist(), base_v.tolist()):
        delta[k] = delta.get(k, 0) - v
    return {k: v for k, v in delta.items() if v != 0}


@pytest.fixture(scope="module")
def workload():
    return sum_workload(400, num_keys=50, seed=13)


class TestKVManipulators:
    @pytest.mark.parametrize("name", sorted(SUM_MANIPULATORS))
    @pytest.mark.parametrize("trial", range(5))
    def test_delta_matches_actual_aggregate_difference(self, name, trial, workload):
        keys, values = workload
        man = get_kv_manipulator(name) if name != "RandKey" else get_kv_manipulator(
            name, key_domain=50
        )
        rng = np.random.default_rng(trial * 101 + 7)
        result = man.apply(rng, keys, values)
        expected = _delta_from_aggregates(
            keys, values, result.keys, result.values
        )
        got = dict(
            zip(result.delta_keys.tolist(), result.delta_values.tolist())
        )
        assert got == expected

    @pytest.mark.parametrize("name", sorted(SUM_MANIPULATORS))
    def test_delta_is_never_empty(self, name, workload):
        keys, values = workload
        man = get_kv_manipulator(name)
        for trial in range(20):
            rng = np.random.default_rng(trial)
            effect = man.apply(rng, keys, values)
            assert effect.delta_keys.size > 0
            assert np.all(effect.delta_values != 0)

    def test_incdec_touches_distinct_keys(self, workload):
        keys, values = workload
        man = IncDec(2)
        rng = np.random.default_rng(3)
        result = man.apply(rng, keys, values)
        # 2n=4 elements edited, all with different original keys.
        assert result.keys is not None
        changed = np.flatnonzero(
            (result.keys != keys) | (result.values != values)
        )
        original = keys[changed]
        assert len(set(original.tolist())) == changed.size

    def test_incdec_validation(self):
        with pytest.raises(ValueError):
            IncDec(0)

    def test_switch_values_preserves_total_sum(self, workload):
        keys, values = workload
        man = get_kv_manipulator("SwitchValues")
        result = man.apply(np.random.default_rng(1), keys, values)
        assert result.values.sum() == values.sum()
        assert result.delta_values.sum() == 0

    def test_inckey_moves_value_to_next_key(self, workload):
        keys, values = workload
        man = get_kv_manipulator("IncKey")
        result = man.apply(np.random.default_rng(2), keys, values)
        dk = result.delta_keys.tolist()
        dv = dict(zip(dk, result.delta_values.tolist()))
        # Two affected keys, k and k+1 (mod 2^64), opposite deltas.
        assert len(dk) == 2
        lo, hi = sorted(dk)
        assert hi == lo + 1 or (lo == 0 and hi == 2**64 - 1)
        assert sum(dv.values()) == 0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_kv_manipulator("Gremlin")


class TestSeqManipulators:
    @pytest.fixture(scope="class")
    def sequence(self):
        rng = np.random.default_rng(21)
        return rng.integers(1, 10**8, 500).astype(np.uint64)

    @pytest.mark.parametrize("name", sorted(PERM_MANIPULATORS))
    def test_apply_changes_exactly_one_position(self, name, sequence):
        man = get_seq_manipulator(name)
        for trial in range(10):
            result = man.apply(np.random.default_rng(trial), sequence)
            diff = np.flatnonzero(result.sequence != sequence)
            assert diff.size == 1
            i = diff[0]
            assert result.removed[0] == sequence[i]
            assert result.added[0] == result.sequence[i]
            assert result.removed[0] != result.added[0]

    def test_increment_adds_one(self, sequence):
        man = get_seq_manipulator("Increment")
        result = man.apply(np.random.default_rng(1), sequence)
        assert int(result.added[0]) == int(result.removed[0]) + 1

    def test_increment_wraps_at_uint64_max(self):
        seq = np.full(4, 2**64 - 1, dtype=np.uint64)
        result = get_seq_manipulator("Increment").apply(
            np.random.default_rng(0), seq
        )
        assert result.removed[0] == 2**64 - 1 and result.added[0] == 0
        assert np.count_nonzero(result.sequence == 0) == 1

    def test_reset_resamples_zero_elements(self):
        man = get_seq_manipulator("Reset")
        seq = np.array([0, 0, 5, 0], dtype=np.uint64)
        for trial in range(10):
            result = man.apply(np.random.default_rng(trial), seq)
            assert result.removed[0] == 5
            assert result.added[0] == 0

    def test_set_equal_duplicates_existing_value(self, sequence):
        man = get_seq_manipulator("SetEqual")
        result = man.apply(np.random.default_rng(4), sequence)
        assert result.added[0] in sequence

    def test_bitflip_width(self):
        man = get_seq_manipulator("Bitflip", bit_width=4)
        seq = np.array([0], dtype=np.uint64)
        for trial in range(30):
            result = man.apply(np.random.default_rng(trial), seq)
            assert int(result.added[0]) < 16

    def test_degenerate_input_raises(self):
        man = get_seq_manipulator("SetEqual")
        # All-equal sequence: SetEqual can never introduce a fault.
        seq = np.full(4, 9, dtype=np.uint64)
        with pytest.raises(RuntimeError):
            man.apply(np.random.default_rng(0), seq)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_seq_manipulator("Gremlin")


#: Stored-integer extremes the input domain accepts: uint64 keys and
#: elements at both ends and the sign bit, int64 values at both ends.
_EXTREME_KEYS = np.array([0, 5, 2**63, 2**64 - 1], dtype=np.uint64)
_EXTREME_VALUES = np.array([-(2**63), 2**63 - 1, -1, 3], dtype=np.int64)


class TestBatchedSampling:
    """Batched samplers must replay ``apply``'s SplitMix streams exactly."""

    def _seeds(self, count):
        from repro.util.rng import derive_seed

        return np.array(
            [derive_seed(21, "trial", t) for t in range(count)], dtype=np.uint64
        )

    def _kv_matches_apply(self, name, keys, values, trials):
        from repro.util.rng import SplitMixStream, SplitMixStreamBatch

        man = get_kv_manipulator(name) if name != "RandKey" else get_kv_manipulator(
            name, key_domain=50
        )
        seeds = self._seeds(trials)
        batch = man.sample_delta_batch(
            SplitMixStreamBatch(seeds), keys, values, trials=trials
        )
        assert batch.trials == trials
        for t in range(trials):
            effect = man.apply(SplitMixStream(int(seeds[t])), keys, values)
            pick = batch.owner == t
            got = dict(
                zip(
                    batch.delta_keys[pick].tolist(),
                    batch.delta_values[pick].tolist(),
                )
            )
            expected = dict(
                zip(effect.delta_keys.tolist(), effect.delta_values.tolist())
            )
            assert got == expected, (name, t)

    def _seq_matches_apply(self, name, seq, trials):
        from repro.util.rng import SplitMixStream, SplitMixStreamBatch

        man = (
            get_seq_manipulator(name)
            if name != "Randomize"
            else get_seq_manipulator(name, universe=10**3)
        )
        seeds = self._seeds(trials)
        batch = man.sample_change_batch(
            SplitMixStreamBatch(seeds), seq, trials=trials
        )
        for t in range(trials):
            change = man.apply(SplitMixStream(int(seeds[t])), seq)
            assert int(batch.removed[t]) == int(change.removed[0]), (name, t)
            assert int(batch.added[t]) == int(change.added[0]), (name, t)

    @pytest.mark.parametrize("name", sorted(SUM_MANIPULATORS))
    def test_kv_batch_matches_scalar_streams(self, name, workload):
        self._kv_matches_apply(name, *workload, trials=60)

    @pytest.mark.parametrize("name", sorted(SUM_MANIPULATORS))
    def test_kv_batch_matches_apply_at_integer_extremes(self, name):
        # Deltas of int64-min values and keys next to 2^64 wrap as the
        # stored records do, in apply and in the batch alike.
        self._kv_matches_apply(name, _EXTREME_KEYS, _EXTREME_VALUES, trials=40)

    @pytest.mark.parametrize("name", sorted(PERM_MANIPULATORS))
    def test_seq_batch_matches_scalar_streams(self, name):
        from repro.workloads.uniform import uniform_integers

        seq = uniform_integers(500, 10**3, seed=4)  # small universe → redraws
        seq[::41] = 0  # zeros make Reset redraw occasionally
        self._seq_matches_apply(name, seq, trials=60)

    @pytest.mark.parametrize("name", sorted(PERM_MANIPULATORS))
    def test_seq_batch_matches_apply_at_integer_extremes(self, name):
        self._seq_matches_apply(name, _EXTREME_KEYS, trials=40)

    def test_trials_mismatch_rejected(self):
        from repro.util.rng import SplitMixStreamBatch

        man = get_kv_manipulator("IncKey")
        rng = SplitMixStreamBatch(self._seeds(4))
        with pytest.raises(ValueError):
            man.sample_delta_batch(
                rng, np.arange(8, dtype=np.uint64), np.ones(8, dtype=np.int64),
                trials=5,
            )


class TestRngBinding:
    """The ``rng=`` plumbing: int seeds, bound generators, overrides."""

    def test_bound_int_seed_is_reproducible(self, workload):
        keys, values = workload
        a = get_kv_manipulator("Bitflip", rng=7).apply(None, keys, values)
        b = get_kv_manipulator("Bitflip", rng=7).apply(None, keys, values)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.delta_keys, b.delta_keys)
        assert np.array_equal(a.delta_values, b.delta_values)

    def test_per_call_int_matches_default_generator(self, workload):
        from repro.util.rng import default_generator

        keys, values = workload
        man = get_kv_manipulator("IncKey")
        via_int = man.apply(42, keys, values)
        via_gen = man.apply(default_generator(42), keys, values)
        assert np.array_equal(via_int.delta_keys, via_gen.delta_keys)
        assert np.array_equal(via_int.delta_values, via_gen.delta_values)

    def test_per_call_rng_overrides_bound(self, workload):
        keys, values = workload
        bound = get_kv_manipulator("Bitflip", rng=1)
        override = bound.apply(99, keys, values)
        fresh = get_kv_manipulator("Bitflip").apply(99, keys, values)
        assert np.array_equal(override.delta_keys, fresh.delta_keys)
        assert np.array_equal(override.delta_values, fresh.delta_values)

    def test_missing_rng_raises_with_name(self, workload):
        keys, values = workload
        man = get_kv_manipulator("SwitchValues")
        with pytest.raises(ValueError, match="SwitchValues: pass rng="):
            man.apply(None, keys, values)

    def test_seq_manipulators_accept_rng(self):
        seq = np.arange(1, 200, dtype=np.uint64)
        a = get_seq_manipulator("Bitflip", rng=5).apply(None, seq)
        b = get_seq_manipulator("Bitflip", rng=5).apply(None, seq)
        assert np.array_equal(a.sequence, b.sequence)
        man = get_seq_manipulator("Increment")
        with pytest.raises(ValueError, match="rng="):
            man.apply(None, seq)

    def test_every_registry_factory_accepts_rng_kwarg(self, workload):
        keys, values = workload
        for name in SUM_MANIPULATORS:
            kwargs = {"rng": 3}
            if name == "RandKey":
                kwargs["key_domain"] = 50
            man = get_kv_manipulator(name, **kwargs)
            assert man.apply(None, keys, values).delta_keys.size > 0
        seq = np.arange(1, 100, dtype=np.uint64)
        for name in PERM_MANIPULATORS:
            kwargs = {"rng": 3}
            if name == "Randomize":
                kwargs["universe"] = 10**3
            man = get_seq_manipulator(name, **kwargs)
            assert man.apply(None, seq).sequence.size == seq.size

    def test_unknown_name_lists_sorted_roster(self):
        with pytest.raises(KeyError) as kv_err:
            get_kv_manipulator("Gremlin")
        assert str(sorted(SUM_MANIPULATORS)) in str(kv_err.value)
        with pytest.raises(KeyError) as seq_err:
            get_seq_manipulator("Gremlin")
        assert str(sorted(PERM_MANIPULATORS)) in str(seq_err.value)
