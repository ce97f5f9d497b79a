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

The candidates are still counted one by one, as the transition-tree
search counts them, but the packed verifier's tree is walked as a DAG:
a prefix is stepped once, and a subtree already walked without an
accepted candidate is counted again from a memo instead of stepped
(equal verifier nodes have equal futures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..kernel.kernel import PackedVerifier
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
    #: Dead subtrees answered from the search's memo instead of walked
    #: again (their candidates and nodes still count above).
    subtrees_reused: int = 0


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


#: ``(elements, length, new background)``: the elements one body (or
#: one initial write) offers as a tree edge, all of ``length`` ops.
_Choice = Tuple[Tuple[MarchElement, ...], int, int]


class _Alphabet:
    """The grammar's elements, each built once per search.

    ``initial`` are the write-only first elements, marching UP only;
    :meth:`after` yields the read-first element choices of
    :func:`_element_bodies` in grammar order, each body as its UP and
    its DOWN element.  Choices are built on first use, so a search
    touches only the bodies its bounds and budget reach, and one body
    interns one UP/DOWN pair: equal elements of different candidates
    are one object, cheap to compare when the verifier's transition
    table looks them up.
    """

    def __init__(self) -> None:
        self.initial: List[_Choice] = [
            ((MarchElement(AddressOrder.UP, ops),), len(ops), ops[-1].value)
            for value in (0, 1)
            for ops in (
                (MarchOp("w", value),),
                (MarchOp("w", value), MarchOp("w", 1 - value)),
            )
        ]
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
            choice = (pair, len(body), new_background)
            choices.append(choice)
            yield choice
        self._after[background, budget] = choices


class _Predicate:
    """A plain ``verify(test)`` seen through the prefix protocol of
    :class:`~repro.kernel.kernel.PackedVerifier`: it carries no state
    down the tree and decides each candidate as one call."""

    __slots__ = ("verify",)

    #: Each candidate is one call, so no subtree is answered from a memo.
    node_decides = False

    def __init__(self, verify: Verifier) -> None:
        self.verify = verify

    def root(self) -> None:
        return None

    @staticmethod
    def extend(node: None, element: MarchElement) -> None:
        return None

    def accepts(self, node: None, elements: Tuple[MarchElement, ...]) -> bool:
        return self.verify(MarchTest(elements))

    @staticmethod
    def count(candidates: int, accepted: bool) -> None:
        pass


class _Search:
    """One search's bounds, counters, verifier and subtree memo.

    The candidates of one bound are the leaves of a grammar tree:
    power-up at the root, an initial write element below it, then one
    edge per read-first element (:class:`_Alphabet`), walked
    depth-first with UP before DOWN.
    Canonical form: the initial element marches UP only (the mirror
    test is equivalent up to cell relabelling for direction-symmetric
    fault lists).  Every candidate is a distinct path of the grammar,
    so no candidate repeats (``tests/core/test_exhaustive.py`` pins the
    counts per bound).

    The tree is walked as a DAG.  The subtree below an element is a
    pure function of ``(verifier node, background, ops left, element
    depth)`` when the verifier decides a candidate from its node alone
    (``prefix.node_decides``): its children are
    ``alphabet.after(background, left)``, whether they may grow follows
    from the depth, and a candidate passes when its node does.  So a
    subtree walked to its end without an accepted candidate is dead
    wherever that key comes back, in this bound or a later one, and
    ``memo`` keeps its ``(candidates, nodes expanded)`` to count it
    again without stepping it.
    """

    __slots__ = ("prefix", "stats", "alphabet", "max_elements", "limit",
                 "decided", "memo")

    def __init__(
        self,
        prefix: Any,
        stats: SearchStats,
        max_elements: int,
        budget: Optional[int],
    ) -> None:
        self.prefix = prefix
        self.stats = stats
        self.alphabet = _Alphabet()
        self.max_elements = max_elements
        self.limit = budget if budget is not None else float("inf")
        #: Candidates handed to ``prefix.accepts``.
        self.decided = 0
        #: Dead subtree key -> its ``(candidates, nodes expanded)``;
        #: ``None`` when a candidate's verdict needs more than its node.
        self.memo: Optional[Dict[Any, Tuple[int, int]]] = (
            {} if prefix.node_decides else None
        )

    def bound(self, complexity: int) -> Optional[Tuple[MarchElement, ...]]:
        """Search the candidates of exactly ``complexity`` operations.

        Returns the accepted candidate's elements, ``()`` when the
        budget stopped the search, or ``None`` when the bound holds no
        accepted candidate.
        """
        initial = [
            choice for choice in self.alphabet.initial
            if choice[1] <= complexity
        ]
        return self.grow(self.prefix.root(), (), initial, complexity)

    def grow(
        self,
        node: Any,
        elements: Tuple[MarchElement, ...],
        choices: Iterable[_Choice],
        remaining: int,
    ) -> Optional[Tuple[MarchElement, ...]]:
        """Search below ``node``, the verifier's node after
        ``elements``, whose children are ``choices`` of at most
        ``remaining`` ops; returns like :meth:`bound`.

        A child is stepped only if it is a candidate or can still grow,
        and only while the budget can still verify a candidate, so dead
        ends cost nothing and no step is wasted.
        """
        stats = self.stats
        prefix = self.prefix
        limit = self.limit
        can_grow = len(elements) + 1 < self.max_elements
        for children, length, background in choices:
            # The initial writes below the root are not grammar nodes.
            if elements:
                stats.nodes_expanded += 1
            left = remaining - length
            if left and not can_grow:
                continue
            for element in children:
                child = elements + (element,)
                if left:
                    # Past the budget only the overflow probe is left:
                    # nothing is stepped, and the memo counts no subtree
                    # holding a candidate.
                    stop = self.below(
                        prefix.extend(node, element)
                        if stats.candidates_tested < limit else node,
                        child, background, left,
                    )
                    if stop is not None:
                        return stop
                    continue
                stats.candidates_tested += 1
                if stats.candidates_tested > limit:
                    stats.budget_exhausted = True
                    return ()
                self.decided += 1
                if prefix.accepts(prefix.extend(node, element), child):
                    return child
        return None

    def below(
        self,
        node: Any,
        elements: Tuple[MarchElement, ...],
        background: int,
        left: int,
    ) -> Optional[Tuple[MarchElement, ...]]:
        """:meth:`grow` below ``elements``, which reached ``node`` on
        ``background`` with ``left`` ops to go: counted from the memo
        when that subtree is known dead and its candidates fit in the
        budget, else walked, and kept when it turns out dead."""
        stats = self.stats
        memo = self.memo
        if memo is not None:
            key = (node, background, left, len(elements))
            dead = memo.get(key)
            if dead is not None and (
                stats.candidates_tested + dead[0] <= self.limit
            ):
                stats.candidates_tested += dead[0]
                stats.nodes_expanded += dead[1]
                stats.subtrees_reused += 1
                self.decided += dead[0]
                return None
        candidates = stats.candidates_tested
        nodes = stats.nodes_expanded
        stop = self.grow(
            node, elements, self.alphabet.after(background, left), left
        )
        if stop is None and memo is not None:
            memo[key] = (
                stats.candidates_tested - candidates,
                stats.nodes_expanded - nodes,
            )
        return stop


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

    Candidates arrive depth-first, so the candidates below a tree node
    share its element prefix.  The packed verifier
    (:class:`~repro.kernel.kernel.PackedVerifier`) is not called per
    candidate: the search carries its state ``(state words, detected
    mask)`` down the tree and steps it once per tree edge through the
    transition table (:meth:`~repro.simulator.bitengine.
    TransitionTable.step`), so each prefix is simulated once, not once
    per candidate from power-up.  When the verifier decides a candidate
    from its node alone, a subtree walked to its end without an
    accepted candidate is remembered for the whole call, across bounds,
    and a later subtree with the same node, background, ops left and
    depth is counted from it without a step (``stats.subtrees_reused``)
    -- unless its candidates would cross the budget, where it is walked
    so the budget stops at the same candidate.  The witness, the search
    counters and the verifier's calls, realizations and segments equal
    the per-candidate search's; it steps fewer elements and runs the
    engine no more often.  Any other predicate is called once per
    candidate, on a :class:`MarchTest` built for it.
    """
    stats = stats if stats is not None else SearchStats()
    # Only the packed verifier itself is stepped: a wrapper around it
    # is a plain predicate, so it sees every candidate it wraps.
    prefix = (
        verify if isinstance(verify, PackedVerifier) else _Predicate(verify)
    )
    search = _Search(prefix, stats, max_elements, budget)
    found: Optional[Tuple[MarchElement, ...]] = None
    try:
        for bound in range(max(2, min_complexity), max_complexity + 1):
            stats.complexity_reached = bound
            found = search.bound(bound)
            if found is not None:
                break
    finally:
        prefix.count(search.decided, bool(found))
    return MarchTest(found) if found else None
