"""Section 6 set algebra against the per-block definition.

The Coverage Matrix and the demotion check are computed from one plain
run per (realization, behavioural variant): the set of reads that
mismatched.  The reference here is the definition itself -- demote
reads by rewriting them into plain reads (``value=None``) at the same
indices, then run the demoted test through the worst-case scalar path,
once per (block, case) -- on drawn tests with ⇕ elements, ``Del`` and
plain reads, against fault models whose reads disturb the memory (DRDF)
or whose behaviour depends on earlier reads (SOF's sense-amp latch).
"""

from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from repro.faults.faultlist import FaultList
from repro.faults.library import MODEL_REGISTRY
from repro.kernel import SimulationKernel, worst_case_detects
from repro.march.catalog import CATALOG
from repro.march.element import (
    AddressOrder,
    DelayElement,
    MarchElement,
    MarchOp,
)
from repro.march.test import MarchTest, parse_march
from repro.simulator.coverage import (
    CoverageMatrix,
    coverage_matrix,
    demotion_redundant_blocks,
    elementary_blocks,
    is_non_redundant,
)

MODELS = tuple(sorted(MODEL_REGISTRY))
DISTURBING = ("SOF", "ADF", "CFID", "DRDF")

ops = st.sampled_from([
    MarchOp("w", 0), MarchOp("w", 1),
    MarchOp("r", 0), MarchOp("r", 1), MarchOp("r", None),
])


@st.composite
def drawn_tests(draw):
    """1-4 elements: ⇕, ⇑, ⇓ or ``Del``, with 1-3 mixed operations."""
    elements = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 5)) == 0:
            elements.append(DelayElement())
            continue
        order = draw(st.sampled_from(
            [AddressOrder.ANY, AddressOrder.ANY, AddressOrder.UP,
             AddressOrder.DOWN]
        ))
        body = draw(st.lists(ops, min_size=1, max_size=3))
        elements.append(MarchElement(order, tuple(body)))
    return MarchTest(tuple(elements))


#: Every catalog test but March G (23n), whose per-block reference
#: alone takes over a second at size 4; drawn tests supply its ``Del``.
catalog_tests = st.sampled_from(sorted(
    (test for test in CATALOG.values() if test.complexity < 20), key=str
))


@st.composite
def reordered_catalog_tests(draw):
    """A catalog test with every element's order redrawn.

    Such tests mostly cover their faults, so blocks turn redundant, and
    with their ⇕ elements a block is often necessary under one
    realization only.
    """
    base = draw(catalog_tests)
    return MarchTest(tuple(
        element.with_order(draw(st.sampled_from(list(AddressOrder))))
        if isinstance(element, MarchElement)
        else element
        for element in base.elements
    ))


tests = st.one_of(drawn_tests(), reordered_catalog_tests())

model_sets = st.one_of(
    st.just(DISTURBING),
    st.lists(
        st.sampled_from(MODELS), min_size=1, max_size=2, unique=True
    ).map(tuple),
)


@lru_cache(maxsize=None)
def fault_cases(models, size):
    return tuple(FaultList.from_names(*models).instances(size))


# -- the per-block reference ---------------------------------------------------


def demoted(test, active):
    """``test`` with every verifying read outside ``active`` rewritten
    into a plain read at the same indices."""
    elements = []
    for element_index, element in enumerate(test.elements):
        if isinstance(element, MarchElement):
            element = MarchElement(element.order, tuple(
                MarchOp("r", None)
                if op.is_read and op.value is not None
                and (element_index, op_index) not in active
                else op
                for op_index, op in enumerate(element.ops)
            ))
        elements.append(element)
    return MarchTest(tuple(elements), test.name)


def detects_with(test, factories, active, size):
    return worst_case_detects(
        demoted(test, active).concrete_order_variants(), factories, size
    )


def ascending(test):
    return MarchTest(tuple(
        element.with_order(AddressOrder.UP)
        if isinstance(element, MarchElement)
        and element.order is AddressOrder.ANY
        else element
        for element in test.elements
    ), test.name)


def oracle_matrix(test, cases, size):
    concrete = ascending(test)
    factories = [factory for c in cases for factory in c.variants]
    return tuple(
        tuple(
            detects_with(concrete, (factory,), {block.key}, size)
            for factory in factories
        )
        for block in elementary_blocks(concrete)
    )


def oracle_demotion_redundant(test, cases, size):
    blocks = elementary_blocks(test)
    keys = {block.key for block in blocks}
    return [
        block
        for block in blocks
        if all(
            detects_with(test, c.variants, keys - {block.key}, size)
            for c in cases
        )
    ]


@given(test=tests, models=model_sets, size=st.sampled_from((2, 3, 4)))
# Under the all-UP realization three of the five reads look redundant
# against CFrd; the other ⇕ realizations need every read.
@example(
    test=parse_march("{up(w0); any(r0,w1,r1); up(r1,w0,r0); any(r0)}"),
    models=("CFRD",),
    size=2,
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_section6_matches_the_per_block_definition(test, models, size):
    cases = fault_cases(models, size)
    kernel = SimulationKernel()
    cm = coverage_matrix(test, cases, size, kernel=kernel)
    reference = CoverageMatrix(
        cm.test, cm.blocks, cm.case_names, oracle_matrix(test, cases, size)
    )
    assert cm.matrix == reference.matrix, (str(test), models, size)
    assert cm.covers_all == reference.covers_all
    assert cm.redundant_blocks() == reference.redundant_blocks()
    assert cm.is_non_redundant() == reference.is_non_redundant()
    expected = oracle_demotion_redundant(test, cases, size)
    assert demotion_redundant_blocks(test, cases, size, kernel) == expected, (
        str(test), models, size
    )
    assert is_non_redundant(test, cases, size, kernel) == (not expected)
