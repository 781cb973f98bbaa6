"""Static analysis for the repro codebase (``python -m repro.analysis``).

An AST-based rule engine that checks the invariants the runtime cannot:
collective lockstep across PEs, seeded-randomness discipline, and int64
overflow discipline.  See :mod:`repro.analysis.rules` for the catalogue and
:mod:`repro.analysis.engine` for suppression syntax.
"""

from repro.analysis.engine import (
    Finding,
    Module,
    Project,
    Rule,
    findings_to_json,
    run_rules,
)
from repro.analysis.rules import ALL_RULES, default_rules, rule_names

__all__ = [
    "ALL_RULES",
    "Finding",
    "Module",
    "Project",
    "Rule",
    "default_rules",
    "findings_to_json",
    "rule_names",
    "run_rules",
]
