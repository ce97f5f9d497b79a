"""The lint driver: load sources, run rules, honour suppressions.

``run_lint`` is the single entry point everything else wraps -- the
``repro lint`` subcommand and the test suite both call it.  The result object
carries the kept findings, the waived count and the file count so every
caller renders through :mod:`repro.devtools.lint.report` identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .findings import Finding
from .project import Project, load_project
from .registry import all_rule_ids, resolve_rules
from .suppress import SuppressionIndex, apply_suppressions, scan_suppressions


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    checked_files: int
    waived: int
    project: Project

    @property
    def ok(self) -> bool:
        return not self.findings


def run_lint(
    paths: Sequence[str],
    only: Sequence[str] = (),
    root: Optional[Path] = None,
) -> LintResult:
    """Lint ``paths`` with the selected rules (all when ``only`` empty)."""
    project = load_project(paths, root=root)
    rules = resolve_rules(only)

    findings: List[Finding] = list(project.parse_failures)
    for rule in rules:
        findings.extend(rule.check(project))

    known = all_rule_ids()
    indexes: Dict[str, SuppressionIndex] = {}
    for source in project.files:
        index = scan_suppressions(source, known)
        if index.by_line or index.by_range or index.problems:
            indexes[source.relpath] = index

    kept, waived = apply_suppressions(findings, indexes)
    # Suppression hygiene problems are findings themselves and cannot
    # be waived away by another suppression.
    for index in indexes.values():
        kept.extend(index.problems)
    return LintResult(
        findings=sorted(kept, key=Finding.sort_key),
        checked_files=len(project.files),
        waived=waived,
        project=project,
    )
