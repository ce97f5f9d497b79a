"""Shared-prefix walk of a march test's ANY-order realizations.

A test with ``k`` ``⇕`` elements must detect every fault under each of
its ``2**k`` UP/DOWN realizations (:meth:`~repro.march.test.MarchTest.
concrete_order_variants`).  The realizations share prefixes: they only
differ from the first ``⇕`` element on.  :func:`walk_realizations`
walks them as a tree instead of ``2**k`` independent runs from an empty
memory:

* each maximal run of fixed-order elements is one segment, run once
  per tree node (:meth:`~repro.march.test.MarchTest.order_segments`);
* the packed state is an immutable word tuple, so the UP and DOWN
  branch of a ``⇕`` element both start from the same words, and no
  state is ever copied;
* a node whose key ``(step index, words, prefix-detected)`` was already
  walked is skipped.  That is exact: equal states have equal suffixes,
  so the skipped subtree's leaves are the walked ones, and the AND over
  leaves of ``prefix | suffix`` is ``prefix | AND(suffix)``.

The walk is depth-first with UP before DOWN, so its first leaf is the
all-UP realization and a caller can stop at any leaf.  The engine
supplies ``power_up`` and ``run_variant(segment, words) -> (words,
detected)``.  Every packed caller passes a
:class:`~repro.simulator.bitengine.TransitionTable`, so a segment is
stepped element by element and each distinct (state, element) pair
runs once per table: the verifier's table serves its candidates, and
the ``bitparallel`` backend's table per lane plan serves every test of
a sweep.  A bare :class:`~repro.simulator.bitengine.PackedSimulation`
speaks the same protocol.  The scalar engine keeps enumerating
realizations as the reference oracle.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Set, Tuple

from ..march.test import MarchTest


class Walk(NamedTuple):
    """Outcome of one :func:`walk_realizations` call."""

    #: ``visit`` returned true for some leaf, and the walk stopped there.
    stopped: bool
    #: Leaves evaluated (distinct realizations visited).
    leaves: int
    #: ``run_variant`` calls, one per segment run.
    segments: int


def walk_realizations(
    engine: Any, test: MarchTest, visit: Callable[[int], Any]
) -> Walk:
    """Call ``visit(detected)`` on the detected mask of each distinct
    realization leaf of ``test``; stop at the first leaf where it
    returns true.

    A test without ``⇕`` elements costs exactly one plain
    ``engine.run_variant(test)``, with no key building.
    """
    steps = test.order_segments()
    if len(steps) == 1 and len(steps[0]) == 1:
        # No ⇕ element: one plain run.  ``descend`` would give the same
        # walk, but this is every candidate of the minimality search,
        # and its closure and bookkeeping cost ~10% per call.
        return Walk(bool(visit(engine.run_variant(test)[1])), 1, 1)
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
        index, segment, words, detected = pending.pop()
        reached, found = engine.run_variant(segment, words)
        found |= detected
        segments += 1
        if index == last:
            leaves += 1
            if visit(found):
                return Walk(True, leaves, segments)
            continue
        key = (index, reached, found)
        if key in seen:
            continue
        seen.add(key)
        index += 1
        pending += [(index, child, reached, found)
                    for child in steps[index][::-1]]
    return Walk(False, leaves, segments)
