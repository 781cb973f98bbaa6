"""Analyzer engine: modules, findings, suppressions, and the rule runner.

The analyzer is purely static — it parses source with :mod:`ast` and never
imports the code under analysis (so e.g. the MPI backend is analyzable on a
machine without mpi4py).  A :class:`Project` is the unit of analysis: a set
of parsed modules plus the cross-module indexes rules need (built lazily by
:mod:`repro.analysis.callgraph`).

Suppressions
------------
Every finding can be silenced *at its line* with a justified pragma::

    risky_call()  # repro-lint: disable=collective-lockstep -- window loop is
                  # globally agreed by the window loop's allreduce

or on a comment line immediately above the flagged line.  A whole file can
opt out of one rule with::

    # repro-lint: disable-file=determinism -- exploratory notebook export

Suppressed findings are still collected (and reported in the machine-readable
output) so "how much is being suppressed" stays observable; ``--strict``
fails only on findings that are *not* suppressed.  There are deliberately no
directory- or project-level excludes: every silence is a visible, justified
comment next to the code it concerns.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

#: Pragma grammar: ``# repro-lint: disable=rule1,rule2 -- justification``
#: and ``# repro-lint: disable-file=rule -- justification``.
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\- ]+?)"
    r"\s*(?:--\s*(.*))?$"
)


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    justification: str | None = None

    def format(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{mark}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


@dataclass
class _Pragmas:
    """Parsed suppression pragmas of one module."""

    #: line number -> {rule: justification}
    by_line: dict[int, dict[str, str | None]] = field(default_factory=dict)
    #: whole-file suppressions: rule -> justification
    by_file: dict[str, str | None] = field(default_factory=dict)

    def lookup(self, rule: str, line: int) -> tuple[bool, str | None]:
        at_line = self.by_line.get(line, {})
        if rule in at_line:
            return True, at_line[rule]
        if "all" in at_line:
            return True, at_line["all"]
        if rule in self.by_file:
            return True, self.by_file[rule]
        return False, None


def _parse_pragmas(lines: list[str]) -> _Pragmas:
    pragmas = _Pragmas()
    for idx, raw in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(raw)
        if not match:
            continue
        kind, rule_list, justification = match.groups()
        rules = {r.strip() for r in rule_list.split(",") if r.strip()}
        if kind == "disable-file":
            for rule in rules:
                pragmas.by_file[rule] = justification
            continue
        targets = [idx]
        # A comment-only pragma line also covers the next source line.
        if raw.lstrip().startswith("#"):
            targets.append(idx + 1)
        for target in targets:
            slot = pragmas.by_line.setdefault(target, {})
            for rule in rules:
                slot[rule] = justification
    return pragmas


@dataclass
class Module:
    """One parsed source file."""

    path: str  # as reported in findings (posix, relative when possible)
    source: str
    tree: ast.Module
    lines: list[str]
    dotted: str  # best-effort dotted module name, e.g. "repro.core.zip_checker"
    pragmas: _Pragmas

    @classmethod
    def from_source(cls, path: str, source: str) -> "Module":
        posix = Path(path).as_posix()
        return cls(
            path=posix,
            source=source,
            tree=ast.parse(source, filename=posix),
            lines=source.splitlines(),
            dotted=_dotted_name(posix),
            pragmas=_parse_pragmas(source.splitlines()),
        )


def _dotted_name(posix_path: str) -> str:
    parts = list(Path(posix_path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    # Strip any leading path up to and including a "src" component, so
    # "/abs/repo/src/repro/core/zip_checker.py" -> "repro.core.zip_checker".
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    else:
        for anchor in ("repro",):
            if anchor in parts:
                parts = parts[parts.index(anchor) :]
                break
    return ".".join(parts)


class Project:
    """A set of parsed modules, the unit every rule runs against."""

    def __init__(self, modules: list[Module]):
        self.modules = modules
        self.by_dotted = {m.dotted: m for m in modules}
        self._callgraph = None  # built lazily by callgraph.get_callgraph

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        """Build from an in-memory ``{path: source}`` mapping (fixtures)."""
        return cls(
            [Module.from_source(path, text) for path, text in sources.items()]
        )

    @classmethod
    def from_paths(cls, paths: list[str | Path]) -> "Project":
        """Build from files and/or directories (``*.py`` walked recursively)."""
        files: list[Path] = []
        for entry in paths:
            p = Path(entry)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            elif p.suffix == ".py":
                files.append(p)
            else:
                raise ValueError(f"not a Python file or directory: {entry}")
        modules = []
        for f in files:
            try:
                rel = f.relative_to(Path.cwd())
            except ValueError:
                rel = f
            modules.append(
                Module.from_source(rel.as_posix(), f.read_text())
            )
        return cls(modules)

    def module_for_path(self, finding_path: str) -> Module | None:
        for module in self.modules:
            if module.path == finding_path:
                return module
        return None


class Rule:
    """Base class: one named invariant checked across a :class:`Project`."""

    name: str = "abstract"
    rationale: str = ""

    def run(self, project: Project) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


def apply_suppressions(project: Project, findings: list[Finding]) -> None:
    """Mark findings silenced by a pragma at/above their line (in place)."""
    for finding in findings:
        module = project.module_for_path(finding.path)
        if module is None:
            continue
        suppressed, justification = module.pragmas.lookup(
            finding.rule, finding.line
        )
        if suppressed:
            finding.suppressed = True
            finding.justification = justification


def run_rules(
    project: Project, rules: list[Rule], only: set[str] | None = None
) -> list[Finding]:
    """Run ``rules`` (optionally restricted to ``only`` names) and return
    findings sorted by location, with suppressions applied."""
    findings: list[Finding] = []
    for rule in rules:
        if only is not None and rule.name not in only:
            continue
        findings.extend(rule.run(project))
    apply_suppressions(project, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def findings_to_json(findings: list[Finding]) -> str:
    payload = {
        "findings": [f.to_dict() for f in findings],
        "unsuppressed": sum(1 for f in findings if not f.suppressed),
        "suppressed": sum(1 for f in findings if f.suppressed),
    }
    return json.dumps(payload, indent=2) + "\n"
