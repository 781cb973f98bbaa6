"""Tiered hot-path kernels behind a single dispatch point.

The dominant hot loops of the reproduction — stacked-table gathers
(:mod:`repro.hashing.tabulation`) and bucket lane accumulation
(:mod:`repro.hashing.bitgroups` / :mod:`repro.core.multiseed`) — call
through this package instead of open-coding their inner loops.  Two
backends implement one kernel signature set:

* :mod:`repro.kernels.numpy_backend` — the portable oracle, pure numpy,
  always available;
* :mod:`repro.kernels.numba_backend` — optional JIT-compiled loops,
  imported only on demand and **self-checked against the numpy oracle at
  load time** (a mismatching or miscompiling kernel disables the whole
  tier rather than risking a wrong verdict).

Selection is per call via the ``REPRO_KERNEL_TIER`` environment variable
(``numpy`` | ``numba`` | ``auto``; unset means ``auto``), so tests can
force either tier without re-importing anything and production imports
never hard-depend on numba.
"""

from repro.kernels.dispatch import (
    KERNEL_NAMES,
    VALID_TIERS,
    active_tier,
    get_kernels,
    numba_available,
    resolve_tier,
    seeds_per_block,
)

__all__ = [
    "KERNEL_NAMES",
    "VALID_TIERS",
    "active_tier",
    "get_kernels",
    "numba_available",
    "resolve_tier",
    "seeds_per_block",
]
