"""Simulation outcome containers shared by every kernel consumer.

:class:`SimulationReport` is owned by the kernel, the single entry
point for fault simulation.
"""

from __future__ import annotations

import warnings
from typing import List, Sequence, Tuple

from ..march.test import MarchTest


class _Cases(list):
    """A report's ``detected`` or ``missed`` list.  A change to it is
    written back to the report, as if the report held the list."""

    __slots__ = ("_report", "_detected")

    def __init__(self, report: "SimulationReport", detected: bool) -> None:
        # Bit i of the flags is case i: index i of the reversed binary
        # string, padded with the missed cases above the highest bit.
        bits = format(report.flags, "b")[::-1].ljust(len(report.cases), "0")
        flag = "1" if detected else "0"
        super().__init__(
            case for case, bit in zip(report.cases, bits) if bit == flag
        )
        self._report = report
        self._detected = detected


def _writes_back(name: str):
    change = getattr(list, name)

    def changed(self: _Cases, *args, **kwargs):
        result = change(self, *args, **kwargs)
        report = self._report
        if self._detected:
            report._assign(self, report.missed)
        else:
            report._assign(report.detected, self)
        return result

    return changed


for _name in ("append", "extend", "insert", "remove", "pop", "clear", "sort",
              "reverse", "__setitem__", "__delitem__", "__iadd__", "__imul__"):
    setattr(_Cases, _name, _writes_back(_name))


class SimulationReport:
    """Outcome of simulating a test against a set of fault cases.

    Held as the case names plus one int whose bit ``i`` is set when
    case ``i`` is detected, so the reports of one batch share one name
    tuple and cost a bit per verdict, not a list slot per name.
    ``detected`` and ``missed`` are lists in case order, built on each
    access; changing or assigning one updates the report.
    """

    __slots__ = ("test", "size", "cases", "flags")

    def __init__(
        self,
        test: MarchTest,
        size: int,
        detected: Sequence[str] = (),
        missed: Sequence[str] = (),
    ) -> None:
        self.test = test
        self.size = size
        self._assign(detected, missed)

    def _assign(self, detected: Sequence[str], missed: Sequence[str]) -> None:
        self.cases: Tuple[str, ...] = (*detected, *missed)
        self.flags = (1 << len(detected)) - 1

    @classmethod
    def from_flags(
        cls, test: MarchTest, size: int, cases: Tuple[str, ...], flags: int
    ) -> "SimulationReport":
        """A report over ``cases`` whose detected cases are the set bits
        of ``flags`` (bit ``i``: ``cases[i]``)."""
        report = cls(test, size)
        report.cases, report.flags = cases, flags
        return report

    @property
    def detected(self) -> List[str]:
        return _Cases(self, True)

    @detected.setter
    def detected(self, cases: Sequence[str]) -> None:
        self._assign(list(cases), self.missed)

    @property
    def missed(self) -> List[str]:
        return _Cases(self, False)

    @missed.setter
    def missed(self, cases: Sequence[str]) -> None:
        self._assign(self.detected, list(cases))

    @property
    def complete(self) -> bool:
        return self.flags == (1 << len(self.cases)) - 1

    @property
    def coverage(self) -> float:
        """Detected fraction; ``0.0`` for an empty fault-case list.

        An empty run detects nothing, so it must not masquerade as full
        coverage (the producer emits an :class:`EmptyFaultListWarning`
        at simulation time).
        """
        if not self.cases:
            return 0.0
        return bin(self.flags).count("1") / len(self.cases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationReport):
            return NotImplemented
        return (self.test, self.size, self.detected, self.missed) == (
            other.test, other.size, other.detected, other.missed
        )

    def __repr__(self) -> str:
        return (
            f"SimulationReport(test={self.test!r}, size={self.size!r},"
            f" detected={self.detected!r}, missed={self.missed!r})"
        )

    def __str__(self) -> str:
        return (
            f"{self.test.name or self.test}: "
            f"{bin(self.flags).count('1')}/{len(self.cases)}"
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
