"""Rule catalogue: one module per rule, aggregated in :data:`ALL_RULES`."""

from __future__ import annotations

from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.lockstep import LockstepRule
from repro.analysis.rules.overflow import OverflowRule

#: Every shipped rule, in catalogue order.
ALL_RULES = [
    LockstepRule,
    DeterminismRule,
    OverflowRule,
]


def default_rules():
    """Fresh instances of every shipped rule."""
    return [cls() for cls in ALL_RULES]


def rule_names() -> list[str]:
    return [cls.name for cls in ALL_RULES]
