"""Shared benchmark configuration.

Trial counts scale with the environment:

* ``REPRO_BENCH_TRIALS`` — accuracy trials per cell (default 400; the paper
  uses 100 000 — set it that high for a paper-scale run, the batched
  accuracy path affords it).
* ``REPRO_BENCH_ELEMENTS`` — element count for overhead measurements
  (default 300 000; paper: 10^6).
* ``REPRO_BENCH_SMOKE=1`` — CI smoke mode: tiny inputs, single repetition,
  no artifact writes, no speedup gates.  Exists so the benchmark files are
  *executed* on every push (they can't silently rot) without asking a
  shared runner for stable timings.

The two counts take a positive integer; any other value (``1e5``, ``0``)
raises ``ValueError`` naming the variable rather than running a default.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name}={raw!r}: expected a positive integer")
    return value


def smoke_mode() -> bool:
    """True under ``REPRO_BENCH_SMOKE=1`` (correctness-only bench runs)."""
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"


@pytest.fixture(scope="session")
def bench_smoke() -> bool:
    return smoke_mode()


def write_artifact(path: Path, payload: dict) -> None:
    """Persist a BENCH_*.json artifact.

    In smoke mode the repo-root copy is never touched (a tiny CI run must
    not overwrite the recorded full-scale numbers); instead, when
    ``REPRO_BENCH_ARTIFACT_DIR`` is set, the payload lands there under the
    same filename — the CI bench-smoke job uploads that directory (plus
    the committed full-scale artifacts) so every run's perf record is
    inspectable from the workflow page.
    """
    if smoke_mode():
        art_dir = os.environ.get("REPRO_BENCH_ARTIFACT_DIR")
        if not art_dir:
            return
        path = Path(art_dir) / path.name
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def accuracy_trials() -> int:
    return _env_int("REPRO_BENCH_TRIALS", 24 if smoke_mode() else 400)


@pytest.fixture(scope="session")
def overhead_elements() -> int:
    return _env_int(
        "REPRO_BENCH_ELEMENTS", 20_000 if smoke_mode() else 300_000
    )


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def per_trial_sum_accuracy(
    config, manipulator, trials, n_elements=50_000, num_keys=10**6, seed=0
):
    """:func:`~repro.experiments.accuracy.sum_checker_accuracy` one trial
    at a time: the per-trial baseline ``bench_accuracy_engine.py`` gates
    the batched path against.

    Each trial redraws through the manipulator's ``_draw`` as ``apply``
    does, but keeps only the deltas: ``apply``'s copy of the input would
    slow the baseline and flatter the batched path's speedup.  ``repro``
    is imported here for the reason :func:`seed_rows` gives.
    """
    import numpy as np

    from repro.core.sum_checker import reference_tables
    from repro.experiments.accuracy import (
        AccuracyCell,
        _kv_manipulator,
        _storage_aware_family,
    )
    from repro.faults.manipulators import _MAX_REDRAWS
    from repro.util.rng import SplitMixStream, derive_seed
    from repro.workloads.kv import sum_workload

    keys, values = sum_workload(n_elements, num_keys, seed=derive_seed(seed, "wl"))
    man = _kv_manipulator(manipulator, num_keys)
    effective = config.with_hash(
        _storage_aware_family(config.hash_family, num_keys)
    )
    failures = 0
    for trial in range(trials):
        rng = SplitMixStream(derive_seed(seed, "trial", trial))
        for _ in range(_MAX_REDRAWS):
            delta_keys, delta_values, _ = man._draw(rng, keys, values)
            if delta_keys.size:
                break
        else:
            raise RuntimeError(f"{manipulator}: no effective fault")
        # The table is linear in the pairs and the correct output's table
        # equals the input's, so the check rejects iff the deltas' table
        # is non-zero.
        table = reference_tables(
            effective,
            derive_seed(seed, "checker", trial),
            delta_keys,
            delta_values,
        )
        if not np.any(table):
            failures += 1
    return AccuracyCell(
        checker="sum-aggregation",
        config=config.label(),
        manipulator=manipulator,
        trials=trials,
        failures=failures,
        expected_delta=config.failure_bound,
    )


def per_trial_perm_accuracy(
    config, manipulator, trials, n_elements=10**6, universe=10**8, seed=0
):
    """:func:`~repro.experiments.accuracy.perm_checker_accuracy` one trial
    at a time, the second per-trial baseline; it draws each fault as
    :func:`per_trial_sum_accuracy` does, without a copy of the sequence."""
    import numpy as np

    from repro.core.permutation_checker import MultiSeedHashSumChecker
    from repro.experiments.accuracy import (
        AccuracyCell,
        _seq_manipulator,
        _storage_aware_family,
    )
    from repro.faults.manipulators import _MAX_REDRAWS
    from repro.util.rng import SplitMixStream, derive_seed
    from repro.workloads.uniform import uniform_integers

    sequence = uniform_integers(
        min(n_elements, 1 << 16), universe, seed=derive_seed(seed, "wl")
    )
    man = _seq_manipulator(manipulator, universe)
    family = _storage_aware_family(config.hash_family, universe)
    failures = 0
    for trial in range(trials):
        rng = SplitMixStream(derive_seed(seed, "trial", trial))
        for _ in range(_MAX_REDRAWS):
            drawn = man._draw(rng, sequence)
            if drawn is not None:
                break
        else:
            raise RuntimeError(f"{manipulator}: no effective fault")
        i, new = drawn
        # Same checker (same seed derivation) as the full path, applied to
        # the removed/added elements only: the common elements cancel in
        # the wide hash sums, so the λ values are identical.
        checker = MultiSeedHashSumChecker(
            derive_seed(seed, "hash", trial),
            iterations=config.iterations,
            hash_family=family,
            log_h=config.log_h,
        )
        removed = np.array([sequence[i]], dtype=np.uint64)
        added = np.array([new], dtype=np.uint64)
        if checker.check(removed, added).accepted:
            failures += 1
    return AccuracyCell(
        checker="permutation-hashsum",
        config=config.label(),
        manipulator=manipulator,
        trials=trials,
        failures=failures,
        expected_delta=config.failure_bound,
    )


def seed_rows(family, cfg, seeds, keys):
    """Each seed's ``(iterations, k)`` bucket rows in turn, over one
    prepared form of ``keys``, in one reused buffer as the sum checker's
    fold keeps them.

    The rows the CRC and Tab lane benches time.  ``repro`` is imported
    here, not at module level: this conftest also loads for
    ``e2e/bench_e2e_smoke.py``, which runs without ``src`` on the path.
    """
    import numpy as np

    from repro.core.multiseed import seed_bucket_rows
    from repro.hashing.bitgroups import evaluation_seeds

    hasher = family.multiseed_hasher(keys)
    eval_seeds = evaluation_seeds(family, cfg.d, cfg.iterations, seeds)
    rows = np.empty((cfg.iterations, keys.size), dtype=np.intp)
    for t in range(seeds.size):
        yield seed_bucket_rows(
            family, hasher, keys, eval_seeds[:, t], cfg.d, cfg.iterations,
            out=rows,
        )


#: Seed-tiled elements per batch-kernel pass of :func:`tiled_lanes`;
#: bounds its peak scratch (tiled keys + owner + output block) instead of
#: materializing all ``len(seeds) × len(keys)`` tiled keys at once.
_TILED_CHUNK_ELEMENTS = 1 << 20


def tiled_lanes(family, seeds, keys):
    """Lane matrix ``out[t] = family.instance(seeds[t]).hash_array(keys)``
    through the family's batch kernel, with no prepared form.

    The per-seed baseline of the lane benches: the keys are tiled once
    per seed and hashed by the family's ``hash_array_batch`` under an
    owner array, in seed tiles of at most :data:`_TILED_CHUNK_ELEMENTS`
    tiled keys, so every seed pays its own pass over the keys.
    """
    import numpy as np

    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    out = np.empty((seeds.size, keys.size), dtype=np.uint64)
    per_block = max(1, _TILED_CHUNK_ELEMENTS // max(keys.size, 1))
    for start in range(0, seeds.size, per_block):
        count = min(per_block, seeds.size - start)
        owner = np.repeat(np.arange(count, dtype=np.intp), keys.size)
        out[start : start + count] = family.hash_array_batch(
            seeds[start : start + count], owner, np.tile(keys, count)
        ).reshape(count, keys.size)
    return out


def kernel_less_clone(name):
    """Family ``name`` with its batch kernel but without its prepared
    form: each seed and key block of :func:`seed_rows` runs
    :func:`tiled_lanes` over that block, the per-seed baseline the lane
    benches gate against."""
    from repro.hashing.families import HashFamily, LaneHasher, get_family

    src = get_family(name)

    class TiledLaneHasher(LaneHasher):
        def __init__(self, keys):
            self._keys = keys
            self.num_keys = keys.size

        def hash_into(self, seed, start, end, out, scratch):
            out[:] = tiled_lanes(src, [seed], self._keys[start:end])[0]

    return HashFamily(
        name + "plain",
        src._factory,
        src.bits,
        f"{name} without its prepared form (per-seed baseline)",
        batch_kernel=src._batch_kernel,
        multiseed_kernel=TiledLaneHasher,
    )


def best_of(fn, repeats):
    """Minimum wall time of ``fn`` over ``repeats`` runs (noise-robust).

    Smoke mode clamps to a single repetition — the timing is thrown away
    there anyway.
    """
    import time

    best = float("inf")
    for _ in range(1 if smoke_mode() else repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best
