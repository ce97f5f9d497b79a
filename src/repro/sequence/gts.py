"""Global Test Sequences (paper, Section 4).

A GTS is a sequence of memory operations able to detect all target
BFEs, obtained by concatenating test patterns along an ATSP tour of the
TPG: between consecutive patterns only the *setup writes* bridging the
observation state of the first to the initialization state of the
second are inserted (a 0-weight edge needs none).

Each GTS symbol carries provenance (setup / excite / observe, and the
tour position of the owning pattern) plus the *color* marks of the
rewrite formalism (Section 4: the Red and Blue operators delimiting
future March element nuclei).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..memory.operations import Operation, format_sequence
from ..memory.state import MemoryState
from ..patterns.test_pattern import TestPattern
from ..patterns.tpg import TestPatternGraph


class Role(enum.Enum):
    """Provenance of a GTS symbol."""

    SETUP = "setup"      # initialization write bridging two patterns
    EXCITE = "excite"    # the E operation of a pattern
    OBSERVE = "observe"  # the O operation of a pattern


class Color(enum.Enum):
    """The Red/Blue marks of the rewrite formalism (Section 4)."""

    RED = "R"
    BLUE = "B"


@dataclass(frozen=True)
class GTSSymbol:
    """One operation of a GTS with rewrite-engine metadata.

    ``cell`` mirrors ``op.cell`` but may be cleared (``None``) by the
    minimization rules when a symbol is merged across cells -- a merged
    symbol stands for "this operation on every cell".
    """

    op: Operation
    role: Role
    tour_position: int
    color: Optional[Color] = None
    terminal: bool = False
    merged: bool = False

    @property
    def cell(self) -> Optional[str]:
        return None if self.merged else self.op.cell

    def colored(self, color: Color) -> "GTSSymbol":
        return replace(self, color=color)

    def as_terminal(self) -> "GTSSymbol":
        return replace(self, terminal=True)

    def as_merged(self) -> "GTSSymbol":
        return replace(self, merged=True)

    def __str__(self) -> str:
        text = str(self.op)
        if self.merged and not self.op.is_wait:
            text = text[:-1]  # drop the cell suffix
        if self.terminal:
            text += "^"
        if self.color is not None:
            text = f"[{text}]{self.color.value}"
        return text


@dataclass
class GlobalTestSequence:
    """An annotated operation sequence plus its tour provenance."""

    symbols: List[GTSSymbol] = field(default_factory=list)
    tour: Tuple[int, ...] = ()

    @property
    def operations(self) -> Tuple[Operation, ...]:
        return tuple(s.op for s in self.symbols)

    @property
    def length(self) -> int:
        """Number of memory operations (the GTS cost, f.4.3 + setup)."""
        return len(self.symbols)

    def per_cell_length(self, cells: Sequence[str]) -> int:
        """Operations seen by the busiest cell (a complexity lower bound)."""
        counts = {c: 0 for c in cells}
        for symbol in self.symbols:
            if symbol.merged or symbol.op.is_wait:
                for c in counts:
                    counts[c] += 1
            elif symbol.op.cell in counts:
                counts[symbol.op.cell] += 1
        return max(counts.values()) if counts else 0

    def __str__(self) -> str:
        return ", ".join(str(s) for s in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


#: A :func:`build_gts` step: the state before it and the pattern, and
#: the setup writes it emits and the state after the pattern.
GTSStepKey = Tuple[MemoryState, TestPattern]
GTSStep = Tuple[Tuple[Operation, ...], MemoryState]


def build_gts(
    tpg: TestPatternGraph,
    order: Sequence[int],
    power_up: Optional[MemoryState] = None,
    memo: Optional[Dict[GTSStepKey, GTSStep]] = None,
) -> GlobalTestSequence:
    """Concatenate the tour's patterns into a raw GTS.

    Setup writes are emitted value-grouped (both cells' writes of the
    same value adjacent) so the later cross-cell merge rules apply; this
    mirrors the reordering the paper performs in Section 4.1.

    A step -- the setup writes that take ``state`` to a pattern's
    initialization, and the state after the pattern -- is a pure
    function of ``(state, pattern)``.  ``memo``, when given, keeps the
    steps across calls: the generator passes one dict per
    ``generate()``, whose selections repeat most of their steps.
    """
    if not order:
        return GlobalTestSequence([], ())
    cells = tpg.nodes[order[0]].pattern.cells
    state = power_up if power_up is not None else MemoryState.unknown(cells)

    symbols: List[GTSSymbol] = []
    for position, node_index in enumerate(order):
        pattern = tpg.nodes[node_index].pattern
        step = None if memo is None else memo.get((state, pattern))
        if step is None:
            step = _step(state, pattern)
            if memo is not None:
                memo[state, pattern] = step
        setup, state = step
        for op in setup:
            symbols.append(GTSSymbol(op, Role.SETUP, position))
        if pattern.excite is not None:
            symbols.append(GTSSymbol(pattern.excite, Role.EXCITE, position))
        symbols.append(GTSSymbol(pattern.observe, Role.OBSERVE, position))
    return GlobalTestSequence(symbols, tuple(order))


def _step(state: MemoryState, pattern: TestPattern) -> GTSStep:
    setup = tuple(sorted(
        pattern.setup_operations(state),
        key=lambda op: (op.value, op.cell),
    ))
    for op in setup:
        state = state.apply(op)
    state = state.merge(pattern.init)
    if pattern.excite is not None:
        state = state.apply(pattern.excite)
    return setup, state


def gts_text(gts: GlobalTestSequence) -> str:
    """Plain operation text (the form printed in the paper)."""
    return format_sequence(gts.operations)
