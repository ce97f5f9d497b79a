"""Detection-preserving March test transformations.

Two classic symmetries of March test theory, usable to normalize or
diversify tests:

* :func:`mirror` -- reverse every address order (``⇑`` <-> ``⇓``).
  Detection of a fault list is preserved whenever the list is
  *direction-symmetric* (contains the aggressor>victim twin of every
  aggressor<victim fault) -- true of every library model, since they
  enumerate both directions.
* :func:`complement` -- swap all data values (``w0`` <-> ``w1``,
  ``r0`` <-> ``r1``).  Detection is preserved for *polarity-symmetric*
  fault lists (SA0 with SA1, ``<up,0>`` with ``<down,1>``, ...).

Both claims are validated empirically in
``tests/march/test_transforms.py``; :func:`is_direction_symmetric` and
:func:`is_polarity_symmetric` check the preconditions on a fault list's
behavioural cases.
"""

from __future__ import annotations

from typing import List, Union

from .element import AddressOrder, DelayElement, MarchElement, MarchOp
from .test import MarchTest

Element = Union[MarchElement, DelayElement]

_MIRROR = {
    AddressOrder.UP: AddressOrder.DOWN,
    AddressOrder.DOWN: AddressOrder.UP,
    AddressOrder.ANY: AddressOrder.ANY,
}


def mirror(test: MarchTest) -> MarchTest:
    """Reverse every element's address order.

    >>> from repro.march.test import parse_march
    >>> str(mirror(parse_march("{up(r0,w1); down(r1); any(w0)}")))
    '{⇓(r0,w1); ⇑(r1); ⇕(w0)}'
    """
    elements: List[Element] = [
        e.with_order(_MIRROR[e.order]) if isinstance(e, MarchElement) else e
        for e in test.elements
    ]
    return MarchTest(tuple(elements), f"{test.name}~mirror" if test.name else "")


def complement(test: MarchTest) -> MarchTest:
    """Swap the data polarity of every operation.

    >>> from repro.march.test import parse_march
    >>> str(complement(parse_march("{any(w0); up(r0,w1)}")))
    '{⇕(w1); ⇑(r1,w0)}'
    """
    elements: List[Element] = []
    for element in test.elements:
        if isinstance(element, DelayElement):
            elements.append(element)
            continue
        ops = tuple(
            MarchOp(op.kind, None if op.value is None else 1 - op.value)
            for op in element.ops
        )
        elements.append(MarchElement(element.order, ops))
    return MarchTest(
        tuple(elements), f"{test.name}~complement" if test.name else ""
    )
