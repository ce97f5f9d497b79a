"""March tests: sequences of March elements with notation support.

The textual notation follows the literature::

    {⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0)}

ASCII aliases are accepted when parsing (``any``/``up``/``down`` or
``^``/``c`` for the order symbols).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

from .element import (
    _ORDER_ALIASES,
    AddressOrder,
    DelayElement,
    MarchElement,
    MarchOp,
    parse_march_op,
)

Element = Union[MarchElement, DelayElement]


@dataclass(frozen=True)
class MarchTest:
    """An ordered sequence of March elements."""

    elements: Tuple[Element, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("march test needs at least one element")

    # -- metrics ---------------------------------------------------------------

    @property
    def complexity(self) -> int:
        """Total operations per cell -- the March test complexity [1]."""
        return sum(e.complexity for e in self.elements)

    @property
    def complexity_label(self) -> str:
        """The conventional ``<k>n`` complexity notation, e.g. ``"10n"``."""
        return f"{self.complexity}n"

    @property
    def march_elements(self) -> Tuple[MarchElement, ...]:
        return tuple(
            e for e in self.elements if isinstance(e, MarchElement)
        )

    def operation_count(self, size: int) -> int:
        """Total operations executed on an n-cell memory."""
        return self.complexity * size

    # -- transformations -------------------------------------------------------

    def renamed(self, name: str) -> "MarchTest":
        return MarchTest(self.elements, name)

    def concrete_order_variants(self) -> Tuple["MarchTest", ...]:
        """Every realization of the ``ANY`` orders as UP/DOWN.

        A test advertising ``⇕`` elements must detect its faults under
        *either* realization; the simulator checks all combinations.

        The enumeration is memoized per instance (the test is frozen, so
        the realization set can never change): simulating the same test
        against many fault cases touches the variants once instead of
        re-enumerating ``2**k`` permutations per case.
        """
        cached = self.__dict__.get("_order_variants")
        if cached is not None:
            return cached
        variants = self._enumerate_order_variants()
        # Frozen dataclass: write the memo through __dict__ (allowed --
        # field assignment is what __setattr__ blocks, and __eq__/__hash__
        # only consider declared fields).
        self.__dict__["_order_variants"] = variants
        return variants

    def _enumerate_order_variants(self) -> Tuple["MarchTest", ...]:
        variants: List[Tuple[Element, ...]] = [()]
        for elem in self.elements:
            if (
                isinstance(elem, MarchElement)
                and elem.order is AddressOrder.ANY
            ):
                choices = [
                    elem.with_order(AddressOrder.UP),
                    elem.with_order(AddressOrder.DOWN),
                ]
            else:
                choices = [elem]
            variants = [prefix + (c,) for prefix in variants for c in choices]
        return tuple(MarchTest(v, self.name) for v in variants)

    # -- notation ----------------------------------------------------------------

    def __str__(self) -> str:
        body = "; ".join(str(e) for e in self.elements)
        return "{" + body + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name}" if self.name else ""
        return f"MarchTest{label} {self}"

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


_ELEMENT_RE = re.compile(
    r"(?P<order>⇑|⇓|⇕|up|down|any|\^|c)\s*\(\s*(?P<body>[^)]*)\s*\)"
    r"|(?P<delay>Del|T)",
    re.IGNORECASE,
)


def parse_march(text: str, name: str = "") -> MarchTest:
    """Parse the textual March notation.

    >>> t = parse_march("{any(w0); up(r0,w1); down(r1,w0); any(r0)}")
    >>> t.complexity
    6
    """
    elements: List[Element] = []
    for match in _ELEMENT_RE.finditer(text):
        if match.group("delay"):
            elements.append(DelayElement())
            continue
        order_text = match.group("order").lower()
        order = _ORDER_ALIASES[order_text]
        body = match.group("body").strip()
        if not body:
            raise ValueError("march element with no operations")
        ops = tuple(
            parse_march_op(tok) for tok in body.split(",") if tok.strip()
        )
        elements.append(MarchElement(order, ops))
    if not elements:
        raise ValueError(f"no march elements found in {text!r}")
    return MarchTest(tuple(elements), name)


def march(*element_specs: Iterable, name: str = "") -> MarchTest:
    """Build a test from ``("up", "r0", "w1")``-style element specs."""
    from .element import element as build_element

    elements: List[Element] = []
    for spec in element_specs:
        if isinstance(spec, (MarchElement, DelayElement)):
            elements.append(spec)
        elif isinstance(spec, str) and spec in ("T", "Del"):
            elements.append(DelayElement())
        else:
            parts = tuple(spec)
            elements.append(build_element(parts[0], *parts[1:]))
    return MarchTest(tuple(elements), name)
