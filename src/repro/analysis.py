"""Comparative analysis of March tests.

Utilities a test engineer would actually use on top of the generator:

* :func:`coverage_report` -- which fault models a test covers, with
  per-case detail;
* :func:`compare` -- side-by-side coverage of several tests;
* :func:`dominates` -- test A detects everything B detects (and is no
  longer);
* :func:`minimal_certificate` -- exhaustively certify that no shorter
  March test (within the canonical grammar) covers a fault list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .core.exhaustive import SearchStats, exhaustive_search
from .faults.faultlist import FaultList
from .kernel import DEFAULT_SIZE, SimulationKernel, get_default_kernel
from .march.test import MarchTest


@dataclass
class ModelCoverage:
    """Coverage of one fault model by one test."""

    model: str
    detected: List[str] = field(default_factory=list)
    missed: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missed

    @property
    def ratio(self) -> float:
        total = len(self.detected) + len(self.missed)
        return len(self.detected) / total if total else 1.0


@dataclass
class CoverageReport:
    """Per-model coverage of a test."""

    test: MarchTest
    models: List[ModelCoverage]

    @property
    def complete_models(self) -> Tuple[str, ...]:
        return tuple(m.model for m in self.models if m.complete)

    def __str__(self) -> str:
        lines = [f"{self.test.name or self.test} ({self.test.complexity_label})"]
        for m in self.models:
            status = "full" if m.complete else f"{m.ratio * 100:.0f}%"
            lines.append(f"  {m.model:8s} {status}")
        return "\n".join(lines)


def coverage_report(
    test: MarchTest,
    faults: FaultList,
    size: int = DEFAULT_SIZE,
    kernel: Optional[SimulationKernel] = None,
) -> CoverageReport:
    """Evaluate a test against every model of a fault list.

    Per-model verdicts are resolved through the kernel, one batch per
    model.
    """
    kernel = kernel or get_default_kernel()
    models = []
    for model in faults:
        cases = model.instances(size)
        report = kernel.simulate(test, cases, size) if cases else None
        entry = ModelCoverage(model.name)
        if report is not None:
            entry.detected.extend(report.detected)
            entry.missed.extend(report.missed)
        models.append(entry)
    return CoverageReport(test, models)


def compare(
    tests: Sequence[MarchTest],
    faults: FaultList,
    size: int = DEFAULT_SIZE,
    kernel: Optional[SimulationKernel] = None,
) -> Dict[str, CoverageReport]:
    """Coverage reports for several tests over the same fault list."""
    kernel = kernel or get_default_kernel()
    # Warm the shared fault dictionary in one batch before the
    # per-model reports slice it up.
    kernel.simulate_many(list(tests), faults.instances(size), size)
    return {
        (test.name or str(test)): coverage_report(test, faults, size, kernel)
        for test in tests
    }


def dominates(
    first: MarchTest,
    second: MarchTest,
    faults: FaultList,
    size: int = DEFAULT_SIZE,
    kernel: Optional[SimulationKernel] = None,
) -> bool:
    """True when ``first`` detects every case ``second`` detects while
    being no more complex."""
    if first.complexity > second.complexity:
        return False
    kernel = kernel or get_default_kernel()
    for fault_case in faults.instances(size):
        if kernel.detects(second, fault_case, size) and not kernel.detects(
            first, fault_case, size
        ):
            return False
    return True


@dataclass
class MinimalityCertificate:
    """Result of an exhaustive minimality check."""

    faults: Tuple[str, ...]
    complexity: int
    is_minimal: bool
    shorter_test: Optional[MarchTest]
    candidates_tested: int
    #: The search covered the whole grammar below ``complexity``; false
    #: when it stopped at its budget (``SearchStats.budget_exhausted``).
    exhausted: bool

    def __str__(self) -> str:
        verdict = (
            "minimal" if self.is_minimal
            else f"beaten by {self.shorter_test}"
        )
        suffix = "" if self.exhausted else " (budget hit: inconclusive)"
        return (
            f"{'+'.join(self.faults)} at {self.complexity}n: {verdict}"
            f" [{self.candidates_tested} candidates]{suffix}"
        )


def minimal_certificate(
    test: MarchTest,
    faults: FaultList,
    size: int = 2,
    budget: Optional[int] = 200000,
    kernel: Optional[SimulationKernel] = None,
) -> MinimalityCertificate:
    """Certify (within the canonical grammar and budget) that no March
    test shorter than ``test`` covers ``faults``."""
    verify = (kernel or get_default_kernel()).verifier(
        faults.instances(size), size
    )
    if not verify(test):
        raise ValueError("the test does not cover the fault list itself")
    stats = SearchStats()
    shorter = exhaustive_search(
        verify,
        max_complexity=test.complexity - 1,
        budget=budget,
        stats=stats,
    )
    return MinimalityCertificate(
        faults.names,
        test.complexity,
        shorter is None,
        shorter,
        stats.candidates_tested,
        not stats.budget_exhausted,
    )
