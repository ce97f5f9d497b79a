"""Generic behavioural interpretation of BFE-defined faults.

The fault-model library pairs each model with a hand-written
behavioural instance.  For *user-defined* faults the paper only
requires the FSM description; this module closes the loop by
interpreting a set of BFEs directly on an n-cell memory, so any fault
expressible as machine deviations is also simulatable (and therefore
verifiable) without extra code:

* :class:`PairBFEInstance` -- executes the deviations of one faulty
  machine on a concrete (a, b) cell pair;
* :class:`GenericPairFault` -- a :class:`FaultModel` whose instances
  are derived automatically from its BFE classes.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from ..memory.array import MemoryArray, NullFaultInstance
from ..memory.state import MemoryState
from .bfe import BasicFaultEffect, BFEKind
from .faultlist import BFEClass, FaultModel
from .instances import FaultCase


class PairBFEInstance(NullFaultInstance):
    """Interpret two-cell BFEs on cells ``(a, b)`` of an n-cell memory.

    The symbolic cell ``i`` maps to address ``a`` and ``j`` to ``b``.
    All given BFEs belong to one faulty machine, so the first matching
    deviation wins (their trigger keys are disjoint in well-formed
    machines).
    """

    def __init__(
        self, bfes: Iterable[BasicFaultEffect], a: int, b: int
    ) -> None:
        if a == b:
            raise ValueError("the mapped cells must differ")
        self.bfes = tuple(bfes)
        self.a = a
        self.b = b
        for bfe in self.bfes:
            if tuple(bfe.cells) != ("i", "j"):
                raise ValueError(
                    "PairBFEInstance interprets two-cell (i, j) BFEs only"
                )

    # -- mapping helpers ---------------------------------------------------

    def _cell_of(self, address: int) -> str:
        return "i" if address == self.a else "j"

    def _pair_state(self, memory: MemoryArray) -> MemoryState:
        return MemoryState(
            ("i", "j"), (memory.raw[self.a], memory.raw[self.b])
        )

    def _apply_faulty_next(
        self, memory: MemoryArray, bfe: BasicFaultEffect, state: MemoryState
    ) -> None:
        faulty = bfe.concrete_faulty_next(state)
        memory.raw[self.a] = faulty["i"]
        memory.raw[self.b] = faulty["j"]

    def _matching(self, state: MemoryState, op_kind, op_cell, op_value):
        for bfe in self.bfes:
            op = bfe.op
            if op.kind is not op_kind:
                continue
            if not op.is_wait and op.cell != op_cell:
                continue
            if op.is_write and op.value != op_value:
                continue
            if bfe.state.matches(state):
                return bfe
        return None

    # -- hooks ----------------------------------------------------------------

    def on_write(self, memory: MemoryArray, address: int, value: int) -> None:
        from ..memory.operations import OpKind

        if address in (self.a, self.b):
            state = self._pair_state(memory)
            bfe = self._matching(
                state, OpKind.WRITE, self._cell_of(address), value
            )
            if bfe is not None and bfe.kind is BFEKind.DELTA:
                self._apply_faulty_next(memory, bfe, state)
                return
        memory.raw[address] = value

    def on_read(self, memory: MemoryArray, address: int) -> object:
        from ..memory.operations import OpKind

        if address not in (self.a, self.b):
            return memory.raw[address]
        state = self._pair_state(memory)
        good = memory.raw[address]
        bfe = self._matching(state, OpKind.READ, self._cell_of(address), None)
        if bfe is None:
            return good
        if bfe.kind is BFEKind.LAMBDA:
            return bfe.faulty_output
        # Destructive read: the state deviates, the output is the good
        # pre-read value.
        self._apply_faulty_next(memory, bfe, state)
        return good

    def on_wait(self, memory: MemoryArray) -> None:
        from ..memory.operations import OpKind

        state = self._pair_state(memory)
        bfe = self._matching(state, OpKind.WAIT, None, None)
        if bfe is not None and bfe.kind is BFEKind.DELTA:
            self._apply_faulty_next(memory, bfe, state)


class GenericPairFault(FaultModel):
    """A fault model whose simulator instances are derived from its BFEs.

    One physical fault per class: the behavioural machine of a class
    exhibits **all** member deviations simultaneously (the members are
    detection alternatives of the same fault, per Section 5).

    >>> from repro.faults.bfe import delta_bfe
    >>> from repro.memory.operations import write
    >>> from repro.memory.state import MemoryState
    >>> bfe = delta_bfe(MemoryState.parse("01"), write("i", 1),
    ...                 MemoryState.parse("-0"))
    >>> model = GenericPairFault("MYCF", [BFEClass("c", (bfe,))])
    >>> len(model.instances(3))
    3
    """

    def __init__(self, name: str, classes: Sequence[BFEClass]) -> None:
        self.name = name
        self._classes = tuple(classes)

    def classes(self, cells: Sequence[str] = ("i", "j")) -> Tuple[BFEClass, ...]:
        if tuple(cells) != ("i", "j"):
            raise ValueError("GenericPairFault is defined over (i, j)")
        return self._classes

    def instances(self, size: int) -> Tuple[FaultCase, ...]:
        cases = []
        for cls in self._classes:
            if cls.cell_symmetric:
                pairs = [(a, (a + 1) % size) for a in range(size)]
            else:
                # The paper's convention: address(i) < address(j).  A
                # class covering the opposite direction is a separate
                # class with the roles swapped (as the library models
                # do), so placements keep i at the lower address.
                pairs = [
                    (a, b) for a in range(size) for b in range(size) if a < b
                ]
            for a, b in pairs:
                cases.append(
                    FaultCase(
                        f"{cls.name} @({a},{b})",
                        (
                            lambda members=cls.members, a=a, b=b:
                            PairBFEInstance(members, a, b),
                        ),
                    )
                )
        return tuple(cases)
