"""Argument validation helpers with informative error messages."""

from __future__ import annotations


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Require ``0 < value < 1`` (failure probabilities δ)."""
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must be in the open interval (0, 1), got {value!r}")

