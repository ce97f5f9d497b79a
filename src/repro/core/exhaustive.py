"""Bounded exhaustive March test search (the Section 2 baseline).

Earlier generators ([2][3][4] van de Goor & Smit) search a *transition
tree* whose paths enumerate candidate March tests, bounded in depth and
checked one by one -- exhaustive and increasingly slow.  This module
reimplements that strategy as an iterative-deepening enumeration over
well-formed March structures, used:

* as the paper's point of comparison in the benchmarks (pipeline vs
  exhaustive runtime);
* as a last-resort fallback guaranteeing a minimal test exists below a
  bound.

The enumeration is restricted to the classic March grammar: an optional
initializing write element, then elements made of a read of the current
background followed by alternating writes (each possibly re-read), each
element marching up or down.  This matches the structure of every test
in the literature catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..march.element import AddressOrder, MarchElement, MarchOp
from ..march.test import MarchTest
from .optimize import Verifier


@dataclass
class SearchStats:
    """Instrumentation of the exhaustive search."""

    candidates_tested: int = 0
    nodes_expanded: int = 0
    complexity_reached: int = 0
    #: The search stopped because ``candidates_tested`` passed its
    #: budget, not because the grammar ran out: an empty result is then
    #: inconclusive.
    budget_exhausted: bool = False


def _element_bodies(
    background: int, max_ops: int
) -> Iterator[Tuple[Tuple[MarchOp, ...], int]]:
    """Yield canonical element bodies valid on a ``background`` value.

    Bodies start with a read of the background (the transition-tree
    branching of [2]); writes then evolve the tracked value, each
    optionally re-read; a repeated read probes destructive-read faults.
    Yields ``(ops, new_background)``.
    """

    def extend(
        ops: Tuple[MarchOp, ...], value: int, budget: int
    ) -> Iterator[Tuple[Tuple[MarchOp, ...], int]]:
        yield ops, value
        if budget == 0:
            return
        last = ops[-1]
        # Writes: flip the value, or repeat it (write-disturb probing),
        # but never two identical consecutive writes.
        for new_value in (1 - value, value):
            if last.is_write and last.value == new_value:
                continue
            for tail in extend(
                ops + (MarchOp("w", new_value),), new_value, budget - 1
            ):
                yield tail
        # A verifying read after a write, or one repeated read.
        if last.is_write or (len(ops) < 2 or not ops[-2].is_read):
            for tail in extend(
                ops + (MarchOp("r", value),), value, budget - 1
            ):
                yield tail

    first = (MarchOp("r", background),)
    yield from extend(first, background, max_ops - 1)


#: ``(UP element, DOWN element, length, new background)`` per body.
_Choice = Tuple[MarchElement, MarchElement, int, int]


class _Alphabet:
    """The grammar's elements, each built once per search.

    ``initial[value]`` are the write-only first elements ending on
    ``value``; :meth:`after` yields the read-first element choices of
    :func:`_element_bodies` in grammar order.  Choices are built on first
    use, so a search touches only the bodies its bounds and budget reach,
    and one body interns one UP/DOWN pair: equal elements of different
    candidates are one object, cheap to compare when the verifier's
    transition table looks them up.
    """

    def __init__(self) -> None:
        self.initial: Dict[int, List[MarchElement]] = {
            value: [
                MarchElement(AddressOrder.UP, (MarchOp("w", value),)),
                MarchElement(AddressOrder.UP, (
                    MarchOp("w", value), MarchOp("w", 1 - value),
                )),
            ]
            for value in (0, 1)
        }
        self._after: Dict[Tuple[int, int], List[_Choice]] = {}
        self._pairs: Dict[
            Tuple[MarchOp, ...], Tuple[MarchElement, MarchElement]
        ] = {}

    def after(self, background: int, budget: int) -> Iterator[_Choice]:
        """The choices of at most ``budget`` ops on ``background``.

        The list is kept once it has been walked to the end, so a search
        cut short by its budget holds no more than it enumerated.
        """
        choices = self._after.get((background, budget))
        if choices is not None:
            yield from choices
            return
        choices = []
        for body, new_background in _element_bodies(background, budget):
            pair = self._pairs.get(body)
            if pair is None:
                pair = self._pairs[body] = (
                    MarchElement(AddressOrder.UP, body),
                    MarchElement(AddressOrder.DOWN, body),
                )
            choice = (*pair, len(body), new_background)
            choices.append(choice)
            yield choice
        self._after[background, budget] = choices


def _marches(
    max_complexity: int,
    max_elements: int,
    stats: SearchStats,
    alphabet: _Alphabet,
) -> Iterator[MarchTest]:
    """Enumerate the canonical candidate tests of complexity exactly
    ``max_complexity``.

    Canonical form: an initial write-only element (one or two writes,
    order fixed UP -- the mirror test is equivalent up to cell
    relabelling for direction-symmetric fault lists), followed by
    read-first elements marching either way.  Every candidate is a
    distinct path of the grammar, so no candidate repeats
    (``tests/core/test_exhaustive.py`` pins the counts per bound).
    """
    after = alphabet.after

    def grow(
        elements: Tuple[MarchElement, ...],
        background: int,
        budget: int,
    ) -> Iterator[MarchTest]:
        if budget == 0:
            yield MarchTest(elements)
            return
        if len(elements) >= max_elements:
            return
        for up, down, length, new_background in after(background, budget):
            stats.nodes_expanded += 1
            for element in (up, down):
                yield from grow(
                    elements + (element,), new_background, budget - length
                )

    for initial_value in (0, 1):
        for element in alphabet.initial[initial_value]:
            if len(element) <= max_complexity:
                yield from grow(
                    (element,), element.ops[-1].value,
                    max_complexity - len(element),
                )


def exhaustive_search(
    verify: Verifier,
    max_complexity: int = 10,
    max_elements: int = 6,
    min_complexity: int = 2,
    budget: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[MarchTest]:
    """Find a minimal-complexity March test passing ``verify``.

    Iterative deepening on complexity guarantees the first hit is
    minimal within the grammar.  Returns ``None`` when no test of
    complexity <= ``max_complexity`` exists, or when the candidate
    ``budget`` runs out first; ``stats.budget_exhausted`` tells the two
    apart.  The budget-th candidate is verified; the next one is counted
    and stops the search.

    Candidates arrive depth-first, so consecutive ones share element
    prefixes; the packed verifier's transition table
    (:class:`~repro.simulator.bitengine.TransitionTable`) turns that
    into element steps it has already simulated.
    """
    stats = stats if stats is not None else SearchStats()
    alphabet = _Alphabet()
    for bound in range(max(2, min_complexity), max_complexity + 1):
        stats.complexity_reached = bound
        for candidate in _marches(bound, max_elements, stats, alphabet):
            stats.candidates_tested += 1
            if budget is not None and stats.candidates_tested > budget:
                stats.budget_exhausted = True
                return None
            if verify(candidate):
                return candidate
    return None
