"""Kernel-tier resolution: ``REPRO_KERNEL_TIER`` → backend module.

Resolution happens **per call site invocation** (callers do
``get_kernels()`` right before the hot loop), so a test can flip the
environment variable between calls without re-importing the package and
an invalid value fails loudly at the first kernel call instead of being
silently ignored.  The numba backend is imported at most once per
process; a failed import *or a failed load-time self-check against the
numpy oracle* permanently disables the tier for the process (wrong
verdicts are never an acceptable trade for speed).
"""

from __future__ import annotations

import os
import threading
import warnings

#: Environment variable selecting the kernel tier.
ENV_VAR = "REPRO_KERNEL_TIER"

#: Accepted ``REPRO_KERNEL_TIER`` values (unset/empty means ``auto``).
VALID_TIERS = ("numpy", "numba", "auto")

#: The shared kernel signature set both backends implement.
KERNEL_NAMES = (
    "tab_gather",
    "scatter_add_mod",
    "weighted_bincount",
    "mix_lanes",
    "mshift_lanes",
)

_lock = threading.Lock()
_state: dict = {
    "numpy": None,  # loaded numpy backend module
    "numba": None,  # loaded-and-verified numba backend module
    "numba_failed": False,  # sticky: import or self-check failed
    "numba_error": None,
    "warned_fallback": False,
}


def seeds_per_block(chunk_elements: int, num_keys: int) -> int:
    """Seed-lanes per batched pass so one pass tiles ≤ ``chunk_elements``.

    The single chunk-size rule every multi-seed consumer shares — the
    :func:`repro.hashing.families.hash_lanes` tiled fallback,
    :func:`repro.hashing.bitgroups.iter_bucket_blocks`, and
    :meth:`repro.core.multiseed.MultiSeedHashSumChecker.\
fingerprints_condensed` — so peak scratch is O(chunk) on every tier.
    """
    if chunk_elements < 1:
        raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
    return max(1, int(chunk_elements) // max(int(num_keys), 1))


def _numpy_backend():
    if _state["numpy"] is None:
        from repro.kernels import numpy_backend

        _state["numpy"] = numpy_backend
    return _state["numpy"]


def _try_numba_backend():
    """The verified numba backend module, or None (result is sticky)."""
    if _state["numba"] is not None:
        return _state["numba"]
    if _state["numba_failed"]:
        return None
    with _lock:
        if _state["numba"] is not None or _state["numba_failed"]:
            return _state["numba"]
        try:
            from repro.kernels import numba_backend

            # Compile every kernel on tiny inputs and compare against the
            # numpy oracle before the tier is ever trusted with real data.
            numba_backend.self_check(_numpy_backend())
        except Exception as exc:  # pragma: no cover - depends on env
            _state["numba_failed"] = True
            _state["numba_error"] = f"{type(exc).__name__}: {exc}"
            return None
        _state["numba"] = numba_backend
        return numba_backend


def numba_available() -> bool:
    """Whether the verified numba tier can be used in this process."""
    return _try_numba_backend() is not None


def resolve_tier(requested: str | None = None) -> str:
    """Resolve a request (default: the env var) to ``"numpy"``/``"numba"``.

    ``auto`` (and unset/empty) prefers numba when importable and
    self-check-clean; an explicit ``numba`` request that cannot be
    honoured warns once per process and falls back to numpy; anything
    outside :data:`VALID_TIERS` raises ``ValueError``.
    """
    if requested is None:
        requested = os.environ.get(ENV_VAR, "")
    requested = requested.strip().lower() or "auto"
    if requested not in VALID_TIERS:
        raise ValueError(
            f"{ENV_VAR} must be one of {VALID_TIERS} (or unset), "
            f"got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    if numba_available():
        return "numba"
    if requested == "numba" and not _state["warned_fallback"]:
        _state["warned_fallback"] = True
        reason = _state["numba_error"] or "numba is not installed"
        warnings.warn(
            f"{ENV_VAR}=numba requested but the numba kernel tier is "
            f"unavailable ({reason}); falling back to the numpy kernels",
            RuntimeWarning,
            stacklevel=3,
        )
    return "numpy"


def get_kernels(tier: str | None = None):
    """The backend module for ``tier`` (default: the env var's choice)."""
    if resolve_tier(tier) == "numba":
        backend = _try_numba_backend()
        if backend is not None:
            return backend
    return _numpy_backend()


def active_tier(tier: str | None = None) -> str:
    """Name of the tier :func:`get_kernels` would hand out right now."""
    return resolve_tier(tier)


def _reset_for_tests() -> None:
    """Forget sticky numba state + the once-per-process fallback warning."""
    _state["numba"] = None
    _state["numba_failed"] = False
    _state["numba_error"] = None
    _state["warned_fallback"] = False
