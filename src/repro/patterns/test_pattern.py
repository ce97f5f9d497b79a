"""Test Patterns (paper, f.2.3).

A test pattern is the triplet ``TP = (I, E, O)``:

* ``I`` -- the initialization state (a :class:`MemoryState`, possibly
  with don't-cares for cells the pattern does not constrain);
* ``E`` -- the operation exciting the BFE (a write, a read for
  destructive-read faults, the wait ``T`` for retention faults, or
  ``None`` when the observation itself excites the fault);
* ``O`` -- the *read-and-verify* operation observing the fault effect
  (``rd_c``: read cell ``c`` and verify the value equals ``d``).

TPs are derived mechanically from BFEs: a delta-BFE is observed on any
cell where the good and faulty next states disagree (each choice yields
an alternative TP); a lambda-BFE is observed by the deviating read
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..faults.bfe import BasicFaultEffect, BFEKind
from ..memory.operations import Operation, read
from ..memory.state import DASH, MemoryState


@dataclass(frozen=True)
class TestPattern:
    """An (I, E, O) triplet covering one BFE."""

    __test__ = False  # not a pytest class, despite the Test* name

    init: MemoryState
    excite: Optional[Operation]
    observe: Operation
    label: str = ""

    def __post_init__(self) -> None:
        if not self.observe.is_verifying_read:
            raise ValueError("O must be a read-and-verify operation")
        if self.excite is not None and self.excite.is_verifying_read:
            # Canonicalize: the excitation read carries its good value so
            # it can double as a verifying read in the final test.
            pass

    # -- derived values -------------------------------------------------------

    @property
    def cells(self) -> Tuple[str, ...]:
        return self.init.cells

    @property
    def observation_state(self) -> MemoryState:
        """The good-machine state after ``I`` then ``E`` (the TPG's S_S).

        Reads and waits leave the state unchanged; don't-cares persist.
        """
        if self.excite is None:
            return self.init
        return self.init.apply(self.excite)

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """E then O (the pattern body, without initialization writes)."""
        if self.excite is None:
            return (self.observe,)
        return (self.excite, self.observe)

    def setup_cost(self, from_state: MemoryState) -> int:
        """Writes needed to satisfy ``init`` starting from ``from_state``.

        This realizes the TPG edge weight (f.4.1): for concrete states it
        equals the Hamming distance; an unknown source cell needing a
        concrete value costs one write.
        """
        return len(from_state.fill_operations(self.init))

    def setup_operations(self, from_state: MemoryState) -> Tuple[Operation, ...]:
        return from_state.fill_operations(self.init)

    def key(self) -> Tuple[str, Optional[str], str]:
        """Structural identity (used to de-duplicate TPG nodes).

        Frozen, so the key is built once: selection enumeration, TPG
        de-duplication and the generator's pattern interning all ask
        for it.  The memo lives in ``__dict__`` like ``MarchElement``'s
        hash; it is plain strings, so it pickles safely.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = self.__dict__["_key"] = (
                str(self.init),
                None if self.excite is None else str(self.excite),
                str(self.observe),
            )
        return cached

    def __str__(self) -> str:
        excite = "-" if self.excite is None else str(self.excite)
        return f"({self.init}, {excite}, {self.observe})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TestPattern{self}"


def patterns_for_bfe(bfe: BasicFaultEffect) -> Tuple[TestPattern, ...]:
    """All alternative TPs covering one BFE.

    * lambda-BFE: one TP -- drive to the state and read-and-verify the
      good value (the faulty machine answers differently).
    * delta-BFE: one TP per cell on which the good and faulty next
      states disagree *and* whose good value is concrete.  The
      excitation is the deviating input; write excitations double as
      part of the observation epoch.
    """
    if bfe.kind is BFEKind.LAMBDA:
        cell = bfe.op.cell
        good_value = bfe.state[cell]
        if good_value == DASH:
            raise ValueError(
                f"lambda-BFE {bfe} reads a cell with unknown good value"
            )
        return (
            TestPattern(
                bfe.state,
                None,
                read(cell, good_value),
                label=bfe.label,
            ),
        )

    good_next = _good_next(bfe.state, bfe.op)
    assert bfe.faulty_next is not None
    patterns = []
    for cell, faulty_value in bfe.faulty_next:
        if faulty_value == DASH:
            continue
        good_value = good_next[cell]
        if good_value == DASH or good_value == faulty_value:
            continue
        excite = bfe.op
        if excite.is_read:
            # Canonicalize a destructive-read excitation to a verifying
            # read of its good value.
            value = bfe.state[excite.cell]
            if value != DASH:
                excite = read(excite.cell, value)
        patterns.append(
            TestPattern(
                bfe.state,
                excite,
                read(cell, good_value),
                label=bfe.label,
            )
        )
    if not patterns:
        raise ValueError(f"delta-BFE {bfe} has no observable deviation")
    return tuple(patterns)


def _good_next(state: MemoryState, op: Operation) -> MemoryState:
    return state.apply(op)
