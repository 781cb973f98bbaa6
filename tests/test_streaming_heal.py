"""Heal-in-place repair wiring on the windowed sum and zip streams.

``reduce_by_key_checked`` repair is covered by ``test_dataflow_repair``;
these tests exercise the same loop on the other two windowed checkers,
through the ``fault=`` chaos seam: a hook that corrupts only a window's
first execution models a transient fault (repair must restore a
bit-identical output), a hook that corrupts every execution models a
persistently broken operation (repair must exhaust and quarantine).
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.params import SumCheckConfig
from repro.dataflow.repair import RepairPolicy
from repro.dataflow.streaming import StreamingDIA

CONFIG = SumCheckConfig.parse("8x16 m15")


def value_chunks(seed, n_chunks=6, size=200):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 1 << 20, size).astype(np.int64)
        for _ in range(n_chunks)
    ]


class _TransientFault:
    """Corrupt only the first execution of one target window."""

    def __init__(self, target, persistent=False):
        self.target = target
        self.persistent = persistent
        self.calls = {}

    def hit(self, window):
        count = self.calls.get(window, 0)
        self.calls[window] = count + 1
        if window != self.target:
            return False
        return self.persistent or count == 0


class TestSumHeal:
    def test_transient_fault_heals_bit_identical(self):
        chunks = value_chunks(21)
        windows = [chunks[0:2], chunks[2:4], chunks[4:6]]
        fault = _TransientFault(target=1)

        def corrupt(window, values):
            if fault.hit(window):
                values = values.copy()
                values[0] += 7
            return values

        run = StreamingDIA.from_chunks(None, chunks).sum_checked(
            CONFIG,
            seed=5,
            chunks_per_window=2,
            reexecute=lambda w, ranges: list(windows[w]),
            fault=corrupt,
        )
        assert run.accepted
        assert not run.quarantined
        record = run.window_history[1]
        assert record.repaired and record.repair_attempts >= 1
        for w, total in enumerate(run.outputs):
            expected = sum(int(np.sum(c)) for c in windows[w])
            assert int(total) == expected  # healed output is bit-identical

    def test_persistent_fault_quarantines(self):
        chunks = value_chunks(23)
        windows = [chunks[0:2], chunks[2:4], chunks[4:6]]
        fault = _TransientFault(target=1, persistent=True)

        def corrupt(window, values):
            if fault.hit(window):
                values = values.copy()
                values[0] += 7
            return values

        run = StreamingDIA.from_chunks(None, chunks).sum_checked(
            CONFIG,
            seed=5,
            chunks_per_window=2,
            reexecute=lambda w, ranges: list(windows[w]),
            repair=RepairPolicy(max_attempts=2),
            fault=corrupt,
        )
        assert not run.accepted
        assert len(run.quarantined) == 1
        assert run.quarantined[0].window == 1
        record = run.window_history[1]
        assert record.quarantined and not record.repaired
        # Clean windows were untouched by the sick one.
        assert run.verdicts[0].accepted and run.verdicts[2].accepted

    @pytest.mark.parametrize("p", [2])
    def test_distributed_transient_heal(self, p):
        ctx = Context(p)
        per_rank = [value_chunks(31 + r, n_chunks=4, size=150) for r in range(p)]

        def job(comm, chunks):
            fault = _TransientFault(target=0)

            def corrupt(window, values):
                # Only rank 0's operation misbehaves; the collective
                # verdict still rejects on every PE.
                if comm.rank == 0 and fault.hit(window):
                    values = values.copy()
                    values[-1] += 3
                return values

            windows = [chunks[0:2], chunks[2:4]]
            run = StreamingDIA.from_chunks(comm, chunks).sum_checked(
                CONFIG,
                seed=9,
                chunks_per_window=2,
                reexecute=lambda w, ranges: list(windows[w]),
                fault=corrupt,
            )
            return run.accepted, run.outputs, run.window_history[0].repaired

        outs = ctx.run(job, per_rank_args=[(c,) for c in per_rank])
        assert all(o[0] for o in outs)
        assert all(o[2] for o in outs)  # window 0 healed on every PE
        expected = sum(
            int(np.sum(c)) for chunks in per_rank for c in chunks
        )
        for _, totals, _ in outs:
            assert sum(int(t) for t in totals) == expected


class TestZipHeal:
    def _streams(self, seed):
        rng = np.random.default_rng(seed)
        c1 = [rng.integers(0, 1 << 20, 120).astype(np.int64) for _ in range(4)]
        c2 = [rng.integers(0, 1 << 20, 120).astype(np.int64) for _ in range(4)]
        return c1, c2

    def test_transient_fault_heals_bit_identical(self):
        c1, c2 = self._streams(41)
        fault = _TransientFault(target=0)

        def corrupt(window, first, second):
            if fault.hit(window):
                first = first.copy()
                first[3] ^= 1
            return first, second

        run = StreamingDIA.from_chunks(None, c1).zip_checked(
            StreamingDIA.from_chunks(None, c2),
            seed=11,
            chunks_per_window=2,
            reexecute=lambda w, ranges: (
                c1[2 * w : 2 * w + 2],
                c2[2 * w : 2 * w + 2],
            ),
            fault=corrupt,
        )
        assert run.accepted
        assert run.window_history[0].repaired
        for w, (first, second) in enumerate(run.outputs):
            assert np.array_equal(
                first, np.concatenate(c1[2 * w : 2 * w + 2])
            )
            assert np.array_equal(
                second, np.concatenate(c2[2 * w : 2 * w + 2])
            )

    def test_ragged_window_rejects_then_heals(self):
        """A fault that drops an element of a window's ``first`` column
        makes a ragged output: the window rejects (it used to raise out
        of the whole stream) and repair re-executes it."""
        c1, c2 = self._streams(45)
        fault = _TransientFault(target=1)

        def drop(window, first, second):
            if fault.hit(window):
                first = first[:-1]
            return first, second

        run = StreamingDIA.from_chunks(None, c1).zip_checked(
            StreamingDIA.from_chunks(None, c2),
            seed=11,
            chunks_per_window=2,
            reexecute=lambda w, ranges: (
                c1[2 * w : 2 * w + 2],
                c2[2 * w : 2 * w + 2],
            ),
            fault=drop,
        )
        assert run.accepted
        record = run.window_history[1]
        assert record.accepted and record.repaired
        assert record.repair_attempts == 1
        assert not run.window_history[0].repaired
        first, second = run.outputs[1]
        assert np.array_equal(first, np.concatenate(c1[2:4]))
        assert np.array_equal(second, np.concatenate(c2[2:4]))

    def test_persistent_fault_quarantines(self):
        c1, c2 = self._streams(43)
        fault = _TransientFault(target=1, persistent=True)

        def corrupt(window, first, second):
            if fault.hit(window):
                first = first.copy()
                first[0] += 1
            return first, second

        run = StreamingDIA.from_chunks(None, c1).zip_checked(
            StreamingDIA.from_chunks(None, c2),
            seed=11,
            chunks_per_window=2,
            reexecute=lambda w, ranges: (
                c1[2 * w : 2 * w + 2],
                c2[2 * w : 2 * w + 2],
            ),
            repair=RepairPolicy(max_attempts=2),
            fault=corrupt,
        )
        assert not run.accepted
        assert len(run.quarantined) == 1 and run.quarantined[0].window == 1
        assert run.verdicts[0].accepted
