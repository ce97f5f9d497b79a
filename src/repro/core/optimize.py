"""Simulation-checked optimization of March tests.

The paper's rewrite rules aim at a *minimal* March test; because the
published rule tables are OCR-corrupted (see DESIGN.md), this module
closes the gap with a deterministic local search whose every step is
validated by the fault simulator: an operation or element is removed
(or two elements merged) only when the shrunken test still detects the
whole target fault list.  The result is non-redundant by construction
at operation granularity.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..faults.instances import FaultCase
from ..kernel import SimulationKernel, get_default_kernel
from ..march.builder import normalize_expectations
from ..march.element import AddressOrder, DelayElement, MarchElement
from ..march.test import MarchTest

Element = Union[MarchElement, DelayElement]
Verifier = Callable[[MarchTest], bool]


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


def _metric(test: MarchTest) -> Tuple[int, int]:
    return (test.complexity, len(test.elements))


def _with_op_removed(
    test: MarchTest, element_index: int, op_index: int
) -> Optional[MarchTest]:
    elements: List[Element] = list(test.elements)
    element = elements[element_index]
    if not isinstance(element, MarchElement):
        return None
    ops = element.ops[:op_index] + element.ops[op_index + 1:]
    if ops:
        elements[element_index] = MarchElement(element.order, ops)
    else:
        del elements[element_index]
    if not elements:
        return None
    return normalize_expectations(MarchTest(tuple(elements), test.name))


def _with_element_removed(test: MarchTest, element_index: int) -> Optional[MarchTest]:
    elements = list(test.elements)
    del elements[element_index]
    if not elements:
        return None
    return normalize_expectations(MarchTest(tuple(elements), test.name))


def _merged_neighbors(
    test: MarchTest, element_index: int
) -> List[MarchTest]:
    """Candidates merging element k into k+1 under either order."""
    elements = list(test.elements)
    if element_index + 1 >= len(elements):
        return []
    first = elements[element_index]
    second = elements[element_index + 1]
    if not (
        isinstance(first, MarchElement) and isinstance(second, MarchElement)
    ):
        return []
    orders = {first.order, second.order}
    out = []
    for order in orders:
        merged = MarchElement(order, first.ops + second.ops)
        candidate = (
            elements[:element_index]
            + [merged]
            + elements[element_index + 2:]
        )
        normalized = normalize_expectations(
            MarchTest(tuple(candidate), test.name)
        )
        if normalized is not None:
            out.append(normalized)
    return out


def _improving_candidates(test: MarchTest) -> List[MarchTest]:
    """All one-step shrink candidates, best first."""
    candidates: List[MarchTest] = []
    for element_index, element in enumerate(test.elements):
        if isinstance(element, MarchElement):
            for op_index in range(len(element.ops)):
                shrunk = _with_op_removed(test, element_index, op_index)
                if shrunk is not None:
                    candidates.append(shrunk)
        removed = _with_element_removed(test, element_index)
        if removed is not None:
            candidates.append(removed)
    for element_index in range(len(test.elements) - 1):
        candidates.extend(_merged_neighbors(test, element_index))
    candidates.sort(key=_metric)
    return candidates


def tighten(test: MarchTest, verify: Verifier) -> MarchTest:
    """Hill-climb: apply verified shrinking moves until fixpoint.

    Every accepted candidate detects the full fault list, so the result
    is at least as good as the input and every remaining operation is
    load-bearing with respect to single-op removal.
    """
    current = test
    current_metric = _metric(test)
    improved = True
    while improved:
        improved = False
        for candidate in _improving_candidates(current):
            if _metric(candidate) >= current_metric:
                continue
            if verify(candidate):
                current = candidate
                current_metric = _metric(candidate)
                improved = True
                break
    return current


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
) -> MarchTest:
    """Tighten then canonicalize (both optional)."""
    out = test
    if do_tighten:
        out = tighten(out, verify)
    if do_canonicalize:
        out = canonicalize_orders(out, verify)
    return out
