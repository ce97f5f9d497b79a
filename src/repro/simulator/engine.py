"""March test execution engine.

Runs a March test on a :class:`~repro.memory.array.MemoryArray`
(fault-free or with an injected fault instance) and records every read
observation.  A fault is *detected* when some read-and-verify operation
returns a definite binary value different from the expected one; an
indeterminate ``'-'`` observation is conservatively treated as matching
(a floating line may happen to read back the expected value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..march.element import DelayElement, MarchElement
from ..march.test import MarchTest
from ..memory.array import MemoryArray


@dataclass(frozen=True)
class ReadRecord:
    """One observed read during a March run."""

    element_index: int
    op_index: int
    address: int
    expected: Optional[int]
    actual: object

    @property
    def is_verifying(self) -> bool:
        return self.expected is not None

    @property
    def mismatch(self) -> bool:
        """Definite detection: a binary value differing from expected."""
        return (
            self.expected is not None
            and self.actual in (0, 1)
            and self.actual != self.expected
        )


@dataclass(frozen=True)
class MarchRun:
    """The outcome of running a March test on one memory."""

    reads: Tuple[ReadRecord, ...]
    final_contents: Tuple[object, ...]

    @property
    def detected(self) -> bool:
        return any(r.mismatch for r in self.reads)

    @property
    def first_detection(self) -> Optional[ReadRecord]:
        for record in self.reads:
            if record.mismatch:
                return record
        return None

    def verifying_reads(self) -> Tuple[ReadRecord, ...]:
        return tuple(r for r in self.reads if r.is_verifying)


def run_march(test: MarchTest, memory: MemoryArray) -> MarchRun:
    """Execute ``test`` on ``memory`` and collect read observations."""
    records: List[ReadRecord] = []
    for element_index, element in enumerate(test.elements):
        if isinstance(element, DelayElement):
            memory.wait()
            continue
        assert isinstance(element, MarchElement)
        for address in element.order.addresses(memory.size):
            for op_index, op in enumerate(element.ops):
                if op.is_write:
                    memory.write(address, op.value)
                    continue
                records.append(
                    ReadRecord(
                        element_index, op_index, address, op.value,
                        memory.read(address),
                    )
                )
    return MarchRun(tuple(records), memory.snapshot())


def count_verifying_reads(test: MarchTest, size: int) -> int:
    """Number of verifying-read executions on an n-cell memory."""
    per_cell = sum(
        1
        for element in test.march_elements
        for op in element.ops
        if op.is_read and op.value is not None
    )
    return per_cell * size


def good_run(test: MarchTest, size: int) -> MarchRun:
    """Run the test on a fault-free memory (sanity reference).

    On a good memory every verifying read must match; a test whose good
    run mismatches is *malformed* (it expects a value the good machine
    does not produce).
    """
    memory = MemoryArray(size)
    return run_march(test, memory)


def is_well_formed(test: MarchTest, size: int = 4) -> bool:
    """True when all verifying reads match on a fault-free memory,
    under every realization of the ANY address orders."""
    for variant in test.concrete_order_variants():
        if good_run(variant, size).detected:
            return False
    return True
