"""Simulation outcome containers shared by every kernel consumer.

:class:`SimulationReport` is owned by the kernel, the single entry
point for fault simulation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List

from ..march.test import MarchTest


@dataclass
class SimulationReport:
    """Outcome of simulating a test against a set of fault cases."""

    test: MarchTest
    size: int
    detected: List[str] = field(default_factory=list)
    missed: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missed

    @property
    def coverage(self) -> float:
        """Detected fraction; ``0.0`` for an empty fault-case list.

        An empty run detects nothing, so it must not masquerade as full
        coverage (the producer emits an :class:`EmptyFaultListWarning`
        at simulation time).
        """
        total = len(self.detected) + len(self.missed)
        if total == 0:
            return 0.0
        return len(self.detected) / total

    def __str__(self) -> str:
        return (
            f"{self.test.name or self.test}: "
            f"{len(self.detected)}/{len(self.detected) + len(self.missed)}"
            f" fault cases detected"
        )


class EmptyFaultListWarning(UserWarning):
    """Simulation was asked to run against zero fault cases."""


def warn_if_empty(cases) -> None:
    """Emit :class:`EmptyFaultListWarning` when ``cases`` is empty."""
    if not cases:
        warnings.warn(
            "simulating against an empty fault-case list: coverage is 0.0,"
            " not full",
            EmptyFaultListWarning,
            stacklevel=3,
        )
