"""Per-operation window engines for the checked service.

A window engine adapts one checked operation to the daemon's push-based
worker loop: it validates incoming chunks *before* they enter a window
(malformed chunks, and columns outside the core's input domain,
:mod:`repro.core.domain`, become :class:`~repro.service.tenant.PoisonRecord`
captures, never crashes), counts elements for the accounting, and runs
one window settlement by delegating to the shared
``repro.dataflow.streaming.settle_*_window`` engines — the exact code
path the pull-based streaming DIAs use, so a service tenant inherits
adaptive escalation, heal-in-place repair, and quarantine unchanged.

Chunk shapes by op:

=================  =====================================================
op                 one submitted chunk
=================  =====================================================
``reduce_by_key``  ``(keys, values)`` — equal-length 1-d integer arrays
``count_by_key``   ``keys`` — 1-d integer array (values are implied 1s)
``sum``            ``values`` — 1-d integer array
``zip``            ``(first, second)`` — equal-length 1-d integer arrays
=================  =====================================================
"""

from __future__ import annotations

import numpy as np

from repro.core import domain
from repro.core.params import SumCheckConfig
from repro.dataflow.streaming import (
    _WindowCheckers,
    _WindowSeeds,
    settle_reduce_window,
    settle_sum_window,
    settle_zip_window,
)

__all__ = [
    "ENGINES",
    "CountWindowEngine",
    "PoisonChunkError",
    "ReduceWindowEngine",
    "SumWindowEngine",
    "WindowEngine",
    "ZipWindowEngine",
    "default_config",
]


def default_config() -> SumCheckConfig:
    """The service's default checker configuration (8x16 m15)."""
    return SumCheckConfig(iterations=8, d=16, rhat=1 << 15)


class PoisonChunkError(ValueError):
    """A submitted chunk that cannot enter a checked window."""


def _column(part, read, what: str) -> np.ndarray:
    """A fresh copy of one 1-d chunk column as the core's domain ``read``
    (:mod:`repro.core.domain`) reads it; anything it refuses is poison."""
    try:
        arr = np.asarray(part)
    except Exception as exc:  # noqa: BLE001 - poison capture boundary
        raise PoisonChunkError(f"{what}: not array-like ({exc})") from exc
    if arr.ndim != 1:
        raise PoisonChunkError(f"{what}: expected 1-d array, got {arr.ndim}-d")
    try:
        return read(arr).copy()
    except TypeError as exc:
        raise PoisonChunkError(f"{what}: {exc}") from exc


def _as_pair(chunk, what: str):
    if not isinstance(chunk, (tuple, list)) or len(chunk) != 2:
        raise PoisonChunkError(f"{what}: expected a (first, second) pair")
    return chunk[0], chunk[1]


class WindowEngine:
    """Base: validation + settlement for one tenant's operation."""

    #: Whether the op consumes a SumCheckConfig (zip uses iterations).
    needs_config = True

    def __init__(self, cfg):
        self.cfg = cfg
        self.config = cfg.config or default_config()
        self._seeds = self._seed_source()

    def _seed_source(self) -> _WindowSeeds:
        """Where attempt 0's window seeds come from: a block source
        (``_WindowSeeds`` of :mod:`repro.dataflow.streaming`) that derives
        up to 64 windows' seeds in one call."""
        return _WindowSeeds(self.cfg.seed)

    def validate(self, chunk):
        """Return the normalized chunk or raise :class:`PoisonChunkError`."""
        raise NotImplementedError

    def elements(self, chunk) -> int:
        """Element count of a *validated* chunk."""
        raise NotImplementedError

    def window_seed(self, window: int) -> int:
        """The checker seed of window ``window``'s first settle attempt,
        ``window_seed(seed, window)`` read from the tenant's block."""
        return self._seeds.window_seed(window)

    def settle_window(self, comm, window: int, seed_w: int, chunks):
        """Run one window settlement; returns the settle_* 5-tuple."""
        raise NotImplementedError


class _SumFamilyEngine(WindowEngine):
    """Engines whose windows settle a one-seed sum primary.

    A tenant's window primaries are derived with its seed blocks (a
    ``_WindowCheckers`` of :mod:`repro.dataflow.streaming`); attempt 0
    of a window settles under the seed read from its block, on its block
    view, and a retry's fresh seed builds its own primary.
    """

    def _seed_source(self) -> _WindowCheckers:
        return _WindowCheckers(self.config, self.cfg.seed)


class ReduceWindowEngine(_SumFamilyEngine):
    op = "reduce_by_key"

    def validate(self, chunk):
        keys, values = _as_pair(chunk, "reduce_by_key chunk")
        k = _column(keys, domain.words, "reduce_by_key keys")
        v = _column(values, domain.values, "reduce_by_key values")
        if k.shape != v.shape:
            raise PoisonChunkError(
                f"reduce_by_key chunk: keys/values length mismatch "
                f"({k.size} != {v.size})"
            )
        return (k, v)

    def elements(self, chunk) -> int:
        return int(chunk[0].size)

    def settle_window(self, comm, window, seed_w, chunks):
        return settle_reduce_window(
            comm,
            chunks,
            config=self.config,
            seed_w=seed_w,
            window=window,
            partitioner=self.cfg.partitioner,
            policy=self.cfg.policy,
            reexecute=self.cfg.reexecute,
            repair=self.cfg.repair,
            fault=self.cfg.fault,
            checkers=self._seeds,
        )


class CountWindowEngine(ReduceWindowEngine):
    """Per-key counting: sum aggregation of implied ones (§4)."""

    op = "count_by_key"

    def validate(self, chunk):
        k = _column(chunk, domain.words, "count_by_key keys")
        return (k, np.ones(k.shape, dtype=np.int64))


class SumWindowEngine(_SumFamilyEngine):
    op = "sum"

    def validate(self, chunk):
        return _column(chunk, domain.values, "sum chunk")

    def elements(self, chunk) -> int:
        return int(chunk.size)

    def settle_window(self, comm, window, seed_w, chunks):
        return settle_sum_window(
            comm,
            chunks,
            config=self.config,
            seed_w=seed_w,
            window=window,
            policy=self.cfg.policy,
            reexecute=self.cfg.reexecute,
            repair=self.cfg.repair,
            fault=self.cfg.fault,
            checkers=self._seeds,
        )


class ZipWindowEngine(WindowEngine):
    op = "zip"
    needs_config = False

    def validate(self, chunk):
        first, second = _as_pair(chunk, "zip chunk")
        # int64 columns, each the two's complement of the words the zip
        # check reads (domain.values reads uint64 as those words).
        return (
            _column(first, domain.values, "zip first"),
            _column(second, domain.values, "zip second"),
        )

    def elements(self, chunk) -> int:
        return int(chunk[0].size) + int(chunk[1].size)

    def settle_window(self, comm, window, seed_w, chunks):
        window1 = [c[0] for c in chunks]
        window2 = [c[1] for c in chunks]
        return settle_zip_window(
            comm,
            window1,
            window2,
            seed_w=seed_w,
            window=window,
            iterations=self.cfg.iterations,
            policy=self.cfg.policy,
            reexecute=self.cfg.reexecute,
            repair=self.cfg.repair,
            fault=self.cfg.fault,
        )


ENGINES = {
    engine.op: engine
    for engine in (
        ReduceWindowEngine,
        CountWindowEngine,
        SumWindowEngine,
        ZipWindowEngine,
    )
}
