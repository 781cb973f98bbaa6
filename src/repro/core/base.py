"""Common result type and helpers shared by all checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """Outcome of one checker invocation.

    ``accepted`` is the verdict (identical on every PE — checkers read it
    from replicated bytes: an ``allreduce`` result or a broadcast).
    ``checker`` names the algorithm; ``details`` carries per-checker
    diagnostics such as the iteration at which a mismatch was detected, the
    drawn moduli, or measured communication volume.
    """

    accepted: bool
    checker: str
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.accepted

    def __repr__(self) -> str:
        verdict = "ACCEPT" if self.accepted else "REJECT"
        return f"CheckResult({self.checker}: {verdict}, details={self.details})"
