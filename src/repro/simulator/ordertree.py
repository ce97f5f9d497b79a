"""Shared-prefix walk of a march test's ANY-order realizations.

A test with ``k`` ``⇕`` elements must detect every fault under each of
its ``2**k`` UP/DOWN realizations (:meth:`~repro.march.test.MarchTest.
concrete_order_variants`).  The realizations share prefixes: they only
differ from the first ``⇕`` element on.  :func:`walk_realizations`
walks them as a tree instead of ``2**k`` independent runs from an empty
memory:

* the test's elements become steps: each maximal run of fixed-order
  elements is one step with one segment, run once per tree node, and
  each ``⇕`` element a step with its UP and its DOWN segment;
* a segment is a tuple of elements, stepped one element at a time
  through the engine's ``step(words, element) -> (words, detected)``;
* the packed state is an immutable word tuple, so the UP and DOWN
  branch of a ``⇕`` element both start from the same words, and no
  state is ever copied;
* a node whose key ``(step index, words, prefix-detected)`` was already
  walked is skipped.  That is exact: equal states have equal suffixes,
  so the skipped subtree's leaves are the walked ones, and the AND over
  leaves of ``prefix | suffix`` is ``prefix | AND(suffix)``.

The walk is depth-first with UP before DOWN, so its first leaf is the
all-UP realization and a caller can stop at any leaf.  The engine is a
:class:`~repro.simulator.bitengine.TransitionTable`: it supplies
``power_up`` and ``step``, and each distinct (state, element) pair
runs the engine once per table: the verifier's table serves its
candidates, and the ``bitparallel`` backend's table per lane plan
serves every test of a sweep.  The walk builds no
:class:`~repro.march.test.MarchTest`; only a table miss hands the
engine a one-element test.  The scalar engine keeps enumerating
realizations as the reference oracle.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Set, Tuple

from ..march.element import AddressOrder, MarchElement
from ..march.test import MarchTest

ANY, UP, DOWN = AddressOrder.ANY, AddressOrder.UP, AddressOrder.DOWN


class Walk(NamedTuple):
    """Outcome of one :func:`walk_realizations` call."""

    #: ``visit`` returned true for some leaf, and the walk stopped there.
    stopped: bool
    #: Leaves evaluated (distinct realizations visited).
    leaves: int
    #: Segment runs: one per step of each walked tree node.
    segments: int


def walk_realizations(
    engine: Any, test: MarchTest, visit: Callable[[int], Any]
) -> Walk:
    """Call ``visit(detected)`` on the detected mask of each distinct
    realization leaf of ``test``; stop at the first leaf where it
    returns true.

    A test without ``⇕`` elements costs one segment run of its
    elements, with no key building.
    """
    step = engine.step
    steps: List[Tuple[Tuple[Any, ...], ...]] = []
    run: List[Any] = []
    for element in test.elements:
        if isinstance(element, MarchElement) and element.order is ANY:
            if run:
                steps.append((tuple(run),))
                run = []
            steps.append(((element.with_order(UP),),
                          (element.with_order(DOWN),)))
        else:
            run.append(element)
    if run:
        steps.append((tuple(run),))
    last = len(steps) - 1
    seen: Set[Tuple[int, Any, int]] = set()
    leaves = segments = 0
    # Pending segment runs ``(step index, segment, start words, prefix
    # detected)``, the next on top: a node's children go on top of its
    # siblings, so the runs come depth-first, UP before DOWN.  A stack,
    # not a recursive closure, so a walk makes no reference cycle that
    # would keep ``engine`` alive until a cycle collection.
    pending = [(0, segment, engine.power_up, 0) for segment in steps[0][::-1]]
    while pending:
        index, segment, words, found = pending.pop()
        for element in segment:
            words, detected = step(words, element)
            found |= detected
        segments += 1
        if index == last:
            leaves += 1
            if visit(found):
                return Walk(True, leaves, segments)
            continue
        key = (index, words, found)
        if key in seen:
            continue
        seen.add(key)
        index += 1
        pending += [(index, child, words, found)
                    for child in steps[index][::-1]]
    return Walk(False, leaves, segments)
