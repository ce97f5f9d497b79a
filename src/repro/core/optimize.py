"""Simulation-checked optimization of March tests.

The paper's rewrite rules aim at a *minimal* March test; because the
published rule tables are OCR-corrupted, this module closes the gap
with a deterministic local search whose every step is validated by
the fault simulator: an operation or element is removed (or two
elements merged) only when the shrunken test still detects the whole
target fault list.  The result is non-redundant by construction
at operation granularity.

The hill-climb generates its successors lazily.  A shrink *move* (an
op removal, an element removal, or a merge of two neighbouring
elements under one order) knows its candidate's metric before the
candidate exists, because normalization only rewrites read values; so
the moves are sorted first and a candidate is built and normalized
only when the climb reaches it.  The climbs of one ``generate()`` can
share a memo of the tests they passed through (see :func:`tighten`).
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..faults.instances import FaultCase
from ..kernel import SimulationKernel, get_default_kernel
from ..march.builder import normalize_expectations
from ..march.element import AddressOrder, DelayElement, MarchElement
from ..march.test import MarchTest

Element = Union[MarchElement, DelayElement]
Verifier = Callable[[MarchTest], bool]
Metric = Tuple[int, int]
#: A shrink move: the candidate's metric and the call that builds it
#: (normalized, or None when malformed).
Move = Tuple[Metric, Callable[[], Optional[MarchTest]]]


def make_verifier(
    cases: Sequence[FaultCase],
    size: int,
    kernel: Optional[SimulationKernel] = None,
) -> Verifier:
    """A predicate: well-formed and detects every fault case.

    The implementation is :meth:`repro.kernel.SimulationKernel.verifier`
    (the process-wide kernel unless one is supplied): one packed
    shared-prefix walk of the order realizations over the whole fault
    list on the lane-packed backend, fail-fast cached per-case probes
    on ``serial``.
    """
    return (kernel or get_default_kernel()).verifier(cases, size)


def _metric(test: MarchTest) -> Metric:
    return (test.complexity, len(test.elements))


def _normalized(
    test: MarchTest, elements: List[Element]
) -> Optional[MarchTest]:
    if not elements:
        return None
    return normalize_expectations(MarchTest(tuple(elements), test.name))


def _with_op_removed(
    test: MarchTest, element_index: int, op_index: int
) -> Optional[MarchTest]:
    elements: List[Element] = list(test.elements)
    element = elements[element_index]
    ops = element.ops[:op_index] + element.ops[op_index + 1:]
    if ops:
        elements[element_index] = MarchElement(element.order, ops)
    else:
        del elements[element_index]
    return _normalized(test, elements)


def _with_element_removed(
    test: MarchTest, element_index: int
) -> Optional[MarchTest]:
    elements = list(test.elements)
    del elements[element_index]
    return _normalized(test, elements)


def _with_merged(
    test: MarchTest, element_index: int, order: AddressOrder
) -> Optional[MarchTest]:
    """Element k merged into k+1 under ``order``."""
    elements = list(test.elements)
    first = elements[element_index]
    merged = MarchElement(order, first.ops + elements[element_index + 1].ops)
    elements[element_index:element_index + 2] = [merged]
    return _normalized(test, elements)


def _shrink_moves(test: MarchTest) -> List[Move]:
    """Every one-step shrink of ``test``, best metric first.

    The sort is stable, so equal metrics keep the enumeration order:
    per element its op removals, then its removal; then the merges of
    each neighbouring pair, under the first element's order and then
    the second's.  Every move lowers the metric: it drops an op or an
    element.
    """
    complexity, count = _metric(test)
    elements = test.elements
    moves: List[Move] = []
    for index, element in enumerate(elements):
        if isinstance(element, MarchElement):
            ops = len(element.ops)
            metric = (complexity - 1, count - 1 if ops == 1 else count)
            for op_index in range(ops):
                moves.append(
                    (metric, partial(_with_op_removed, test, index, op_index))
                )
        moves.append((
            (complexity - element.complexity, count - 1),
            partial(_with_element_removed, test, index),
        ))
    for index in range(len(elements) - 1):
        first, second = elements[index], elements[index + 1]
        if isinstance(first, MarchElement) and isinstance(
            second, MarchElement
        ):
            # A dict, not a set: a set of enum members iterates in
            # string-hash order, which changes with PYTHONHASHSEED.
            for order in dict.fromkeys((first.order, second.order)):
                moves.append((
                    (complexity, count - 1),
                    partial(_with_merged, test, index, order),
                ))
    moves.sort(key=itemgetter(0))
    return moves


def _verified_shrink(test: MarchTest, verify: Verifier) -> Optional[MarchTest]:
    """The first candidate, best metric first, that ``verify`` accepts;
    each candidate is built only when reached, and a malformed one is
    skipped."""
    for _, build in _shrink_moves(test):
        candidate = build()
        if candidate is not None and verify(candidate):
            return candidate
    return None


def tighten(
    test: MarchTest,
    verify: Verifier,
    memo: Optional[Dict[MarchTest, MarchTest]] = None,
) -> MarchTest:
    """Hill-climb: apply verified shrinking moves until fixpoint.

    Every accepted candidate detects the full fault list, so the result
    is at least as good as the input and every remaining operation is
    load-bearing with respect to single-op removal.

    Each step verifies the one-step shrinks of the current test in
    metric order and takes the first that passes; a candidate is built
    only when the walk reaches it (see :func:`_shrink_moves`).

    ``memo`` shares climbs under one verifier: it maps every test a
    climb passed through to the climb's result, and a climb that
    reaches a test in it stops there with that result.  This is exact
    because a climb is a pure function of its test.
    """
    memo = {} if memo is None else memo
    path: List[MarchTest] = []
    current = test
    while current not in memo:
        path.append(current)
        shrunk = _verified_shrink(current, verify)
        if shrunk is None:
            memo[current] = current
        else:
            current = shrunk
    result = memo[current]
    for visited in path:
        memo[visited] = result
    return result


def canonicalize_orders(test: MarchTest, verify: Verifier) -> MarchTest:
    """Relax element orders to ``ANY`` wherever both realizations pass.

    ``ANY`` is the strongest claim (the element works marching either
    way); the verifier checks all realizations, so relaxation is sound.
    """
    elements = list(test.elements)
    for element_index, element in enumerate(elements):
        if not isinstance(element, MarchElement):
            continue
        if element.order is AddressOrder.ANY:
            continue
        relaxed = list(elements)
        relaxed[element_index] = element.with_order(AddressOrder.ANY)
        candidate = MarchTest(tuple(relaxed), test.name)
        if verify(candidate):
            elements = relaxed
    return MarchTest(tuple(elements), test.name)


def optimize(
    test: MarchTest,
    verify: Verifier,
    do_tighten: bool = True,
    do_canonicalize: bool = True,
    memo: Optional[Dict[MarchTest, MarchTest]] = None,
) -> MarchTest:
    """Tighten (through ``memo``, see :func:`tighten`) then
    canonicalize (both optional)."""
    out = test
    if do_tighten:
        out = tighten(out, verify, memo)
    if do_canonicalize:
        out = canonicalize_orders(out, verify)
    return out
