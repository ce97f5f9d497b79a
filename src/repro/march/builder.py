"""March test generation from a minimized GTS (paper, Section 4.3).

Segmentation reconstructs the paper's Rules 1-5:

* a Red-marked symbol opens a new March element; the matching
  Blue-marked symbol closes it (Rule 2);
* the wait symbol ``T`` becomes a :class:`DelayElement` of its own;
* addressing order: an element whose first symbol is tagged on the
  lower-address cell ``i`` marches up (Rule 3), on ``j`` marches down
  (Rule 4); cell-agnostic (merged) first symbols leave the order free
  (Rule 5, the paper's ``c`` order).

After segmentation the expected values of all reads are *recomputed*
from the per-cell operation stream (:func:`normalize_expectations`), so
the emitted test is well-formed by construction; fault detection is
then established by simulation (Section 6).

:func:`realize_pattern_blocks` provides the direct, guaranteed
realization of a single test pattern as March elements -- used by the
generator's repair fallback and by the sequential baseline strategy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..memory.state import DASH
from ..patterns.test_pattern import TestPattern
from ..sequence.gts import Color, GlobalTestSequence, GTSSymbol
from .element import AddressOrder, DelayElement, MarchElement, MarchOp
from .test import MarchTest

Element = Union[MarchElement, DelayElement]


def _symbol_march_op(symbol: GTSSymbol) -> MarchOp:
    op = symbol.op
    if op.is_write:
        return MarchOp("w", op.value)
    return MarchOp("r", op.value)


def _order_for(symbol: GTSSymbol) -> AddressOrder:
    if symbol.cell is None:
        return AddressOrder.ANY
    if symbol.cell == "i":
        return AddressOrder.UP
    return AddressOrder.DOWN


def segment(minimized: GlobalTestSequence) -> MarchTest:
    """Split a minimized symbol stream into March elements (Rules 1-5)."""
    elements: List[Element] = []
    current: List[GTSSymbol] = []

    def flush() -> None:
        if not current:
            return
        ops = tuple(_symbol_march_op(s) for s in current)
        elements.append(MarchElement(_order_for(current[0]), ops))
        current.clear()

    for symbol in minimized.symbols:
        if symbol.op.is_wait:
            flush()
            elements.append(DelayElement())
            continue
        if symbol.color is Color.RED:
            flush()
            current.append(symbol)
            continue
        current.append(symbol)
        if symbol.color is Color.BLUE:
            flush()
    flush()
    if not elements:
        raise ValueError("empty GTS cannot produce a March test")
    return MarchTest(tuple(elements))


#: The verifying reads a normalized element expects, one object per
#: value: equal elements of different candidates then compare op by op
#: by identity.
_READS = {0: MarchOp("r", 0), 1: MarchOp("r", 1)}


def normalize_expectations(test: MarchTest) -> Optional[MarchTest]:
    """Recompute every read's expected value from the op stream.

    The per-cell operation stream of a March test is the concatenation
    of its elements' operations; on a fault-free memory each cell
    tracks it identically.  Reads before the first write observe the
    non-initialized value and make the test malformed: ``None`` is
    returned in that case.  An element whose reads already expect the
    tracked value is kept as the same object, so its memoized hash
    carries over to the normalized test.
    """
    value: object = DASH
    new_elements: List[Element] = []
    for element in test.elements:
        if isinstance(element, DelayElement):
            new_elements.append(element)
            continue
        ops: Optional[List[MarchOp]] = None
        for index, op in enumerate(element.ops):
            if op.is_write:
                value = op.value
            elif value == DASH:
                return None
            elif op.value != value:
                if ops is None:
                    ops = list(element.ops)
                ops[index] = _READS[value]
        if ops is not None:
            element = MarchElement(element.order, tuple(ops))
        new_elements.append(element)
    return MarchTest(tuple(new_elements), test.name)


def build_march(minimized: GlobalTestSequence, name: str = "") -> Optional[MarchTest]:
    """Segment + normalize; None when the stream is not realizable."""
    test = segment(minimized)
    normalized = normalize_expectations(test)
    if normalized is None:
        return None
    return normalized.renamed(name)


# ---------------------------------------------------------------------------
# Direct per-pattern realization (repair fallback / sequential baseline)
# ---------------------------------------------------------------------------


def realize_pattern_blocks(pattern: TestPattern) -> Tuple[Element, ...]:
    """March elements realizing one test pattern unconditionally.

    The recipe places the observation read *before* the element's
    writes so the faulty value is sampled ahead of any masking write,
    and picks the address order that processes the aggressor first.
    """
    cells = pattern.cells
    observe_cell = pattern.observe.cell
    expected = pattern.observe.value
    excite = pattern.excite

    init = pattern.init
    if excite is not None and excite.is_wait:
        # Retention pattern: set, wait, read.
        target = init[observe_cell]
        if target == DASH:
            target = expected
        return (
            MarchElement(AddressOrder.ANY, (MarchOp("w", target),)),
            DelayElement(),
            MarchElement(AddressOrder.ANY, (MarchOp("r", expected),)),
        )

    other_cells = [c for c in cells if c != observe_cell]
    single_cell = excite is None or excite.cell in (None, observe_cell)
    if single_cell and all(init[c] == DASH for c in other_cells):
        # Cell-symmetric pattern: one stream serves every cell.
        ops: List[MarchOp] = []
        base = init[observe_cell]
        if base != DASH:
            ops.append(MarchOp("w", base))
        if excite is not None:
            if excite.is_write:
                ops.append(MarchOp("w", excite.value))
            else:
                ops.append(MarchOp("r", excite.value))
        ops.append(MarchOp("r", expected))
        return (MarchElement(AddressOrder.ANY, tuple(ops)),)

    vic = observe_cell
    agg = (
        excite.cell
        if excite is not None and excite.cell is not None
        else other_cells[0]
    )

    def first_order(cell: str) -> AddressOrder:
        return AddressOrder.UP if cell == "i" else AddressOrder.DOWN

    def excite_ops() -> List[MarchOp]:
        if excite is None:
            return []
        if excite.is_write:
            return [MarchOp("w", excite.value)]
        return [MarchOp("r", excite.value)]

    if agg == vic:
        # Excitation and observation on the same cell; the other cell
        # only supplies state context that must hold at excite time.
        # The prologue writes the context value to *every* cell, so a
        # separate victim-establishing write is only needed when the
        # victim's init differs (re-writing it could mask a fired
        # non-transition excitation).
        context = other_cells[0]
        context_init = init[context]
        vic_init = init[vic]
        body: List[MarchOp] = []
        if vic_init != DASH and vic_init != context_init:
            body.append(MarchOp("w", vic_init))
        body.extend(excite_ops())
        body.append(MarchOp("r", expected))
        prologue: Tuple[Element, ...] = ()
        if context_init != DASH:
            prologue = (
                MarchElement(AddressOrder.ANY, (MarchOp("w", context_init),)),
            )
        return prologue + (MarchElement(first_order(vic), tuple(body)),)

    # Aggressor and victim differ: march the aggressor first so the
    # victim still holds its initialization value at excite time, and
    # read the victim before any masking write reaches it.
    vic_init = init[vic]
    if vic_init == DASH:
        vic_init = expected
    agg_init = init[agg]
    body = [MarchOp("r", vic_init)]
    if agg_init not in (DASH, vic_init):
        body.append(MarchOp("w", agg_init))
    body.extend(excite_ops())
    return (
        MarchElement(AddressOrder.ANY, (MarchOp("w", vic_init),)),
        MarchElement(first_order(agg), tuple(body)),
    )


def sequential_march(
    patterns: Sequence[TestPattern], name: str = "sequential"
) -> Optional[MarchTest]:
    """Concatenate per-pattern realizations (the safe construction).

    A guard read is prepended to every element (after the very first)
    that starts with a write: a setup or excitation write may
    accidentally *excite* another pattern's fault and a later write of
    the same value would mask it before any observation -- the guard
    read samples the cell first (its expected value is recomputed by
    normalization).  Long but dependable; the optimizer shrinks it
    afterwards.
    """
    elements: List[Element] = []
    for pattern in patterns:
        for block in realize_pattern_blocks(pattern):
            if (
                elements
                and isinstance(block, MarchElement)
                and block.ops[0].is_write
            ):
                block = MarchElement(
                    block.order, (MarchOp("r", 0),) + block.ops
                )
            elements.append(block)
    if not elements:
        return None
    test = MarchTest(tuple(elements), name)
    return normalize_expectations(test)
