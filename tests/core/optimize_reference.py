"""The eager hill-climb, kept as the oracle of ``core/optimize.py``.

Every step builds and normalizes every one-step shrink of the current
test, sorts the list by metric and verifies in that order until one
passes.  The only change from the eager optimizer is the merge order:
both merges of a neighbouring pair are listed under the first
element's order and then the second's (the eager code iterated a set
of the two orders, whose order changes with ``PYTHONHASHSEED``).
"""

from typing import Callable, List, Optional

from repro.march.builder import normalize_expectations
from repro.march.element import MarchElement
from repro.march.test import MarchTest


def _metric(test):
    return (test.complexity, len(test.elements))


def _with_op_removed(test, element_index, op_index) -> Optional[MarchTest]:
    elements = list(test.elements)
    element = elements[element_index]
    ops = element.ops[:op_index] + element.ops[op_index + 1:]
    if ops:
        elements[element_index] = MarchElement(element.order, ops)
    else:
        del elements[element_index]
    if not elements:
        return None
    return normalize_expectations(MarchTest(tuple(elements), test.name))


def _with_element_removed(test, element_index) -> Optional[MarchTest]:
    elements = list(test.elements)
    del elements[element_index]
    if not elements:
        return None
    return normalize_expectations(MarchTest(tuple(elements), test.name))


def _merged_neighbors(test, element_index) -> List[MarchTest]:
    elements = list(test.elements)
    first = elements[element_index]
    second = elements[element_index + 1]
    if not (
        isinstance(first, MarchElement) and isinstance(second, MarchElement)
    ):
        return []
    out = []
    for order in dict.fromkeys((first.order, second.order)):
        merged = MarchElement(order, first.ops + second.ops)
        candidate = (
            elements[:element_index] + [merged] + elements[element_index + 2:]
        )
        normalized = normalize_expectations(
            MarchTest(tuple(candidate), test.name)
        )
        if normalized is not None:
            out.append(normalized)
    return out


def improving_candidates(test: MarchTest) -> List[MarchTest]:
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


def eager_tighten(
    test: MarchTest, verify: Callable[[MarchTest], bool]
) -> MarchTest:
    current = test
    current_metric = _metric(test)
    improved = True
    while improved:
        improved = False
        for candidate in improving_candidates(current):
            if _metric(candidate) >= current_metric:
                continue
            if verify(candidate):
                current = candidate
                current_metric = _metric(candidate)
                improved = True
                break
    return current
