"""Differential property: the packed whole-list verifier against the
serial scalar verifier.

On the lane-packed backends ``SimulationKernel.verifier`` checks a
candidate with one shared-prefix walk of its order realizations --
lane 0 doubles as the well-formedness check -- and then a fail-fast
scalar pass over the unpackable cases.  The ``serial`` backend keeps the reference
predicate: a scalar good-machine run per realization, then one cached
``detects`` per case.  Both must accept exactly the same march tests,
call after call (the fail-fast pass reorders its cases between calls).
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.faults.faultlist import FaultList
from repro.faults.instances import case
from repro.faults.library import MODEL_REGISTRY
from repro.kernel import SimulationKernel
from repro.march.catalog import CATALOG
from repro.march.element import (
    AddressOrder,
    DelayElement,
    MarchElement,
    MarchOp,
)
from repro.march.test import MarchTest
from repro.memory.array import NullFaultInstance
from repro.simulator.bitengine import lane_packable_case

MODELS = tuple(sorted(MODEL_REGISTRY))

ops = st.sampled_from([
    MarchOp("w", 0), MarchOp("w", 1),
    MarchOp("r", 0), MarchOp("r", 1), MarchOp("r", None),
])


class StuckReadInstance(NullFaultInstance):
    """A user fault type the packed engine cannot encode: reads of
    ``cell`` always report ``value``."""

    def __init__(self, cell: int, value: int) -> None:
        self.cell = cell
        self.value = value

    def on_read(self, memory, address):
        if address == self.cell:
            return self.value
        return memory.raw[address]


def custom_cases(size):
    return (
        case("custom read0@0", lambda: StuckReadInstance(0, 0)),
        case(f"custom read1@{size - 1}",
             lambda: StuckReadInstance(size - 1, 1)),
    )


@st.composite
def random_tests(draw):
    """0-8 ANY elements shuffled among 0-6 UP/DOWN elements or ``Del``
    (at least one element in all), with random read expectations (so
    malformed tests occur), so deep realization trees are covered too."""
    any_count = draw(st.integers(min_value=0, max_value=8))
    fixed_count = draw(st.integers(min_value=0, max_value=6))
    kinds = draw(st.permutations(
        ["any"] * any_count + ["fixed"] * max(fixed_count, 1 - any_count)
    ))
    elements = []
    for kind in kinds:
        if kind == "fixed" and draw(st.integers(0, 5)) == 0:
            elements.append(DelayElement())
            continue
        body = draw(st.lists(ops, min_size=1, max_size=4))
        order = AddressOrder.ANY if kind == "any" else draw(
            st.sampled_from([AddressOrder.UP, AddressOrder.DOWN])
        )
        elements.append(MarchElement(order, tuple(body)))
    return MarchTest(tuple(elements))


#: Catalog tests mixed in so that accepted candidates occur too.
candidates = st.one_of(
    random_tests(), st.sampled_from(sorted(CATALOG.values(), key=str))
)

model_sets = st.one_of(
    st.just(MODELS),
    st.lists(
        st.sampled_from(MODELS), min_size=1, max_size=4, unique=True
    ).map(tuple),
)


@lru_cache(maxsize=None)
def fault_cases(models, size, custom):
    cases = tuple(FaultList.from_names(*models).instances(size))
    return cases + custom_cases(size) if custom else cases


@given(
    models=model_sets,
    size=st.sampled_from((2, 3)),
    custom=st.booleans(),
    tests=st.lists(candidates, min_size=1, max_size=4),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_packed_verifier_agrees_with_serial(models, size, custom, tests):
    cases = fault_cases(models, size, custom)
    packed = SimulationKernel(backend="bitparallel").verifier(cases, size)
    serial = SimulationKernel(backend="serial").verifier(cases, size)
    for test in tests:
        assert packed(test) == serial(test), (str(test), models, size)


def test_custom_cases_ride_the_scalar_remainder():
    cases = custom_cases(3)
    assert not any(lane_packable_case(c) for c in cases)
    kernel = SimulationKernel(backend="bitparallel")
    verify = kernel.verifier(
        FaultList.from_names("SAF").instances(3) + cases, 3
    )
    # MATS catches both stuck reads: its r0 sees read1@2, its r1 read0@0.
    assert verify(CATALOG["MATS"])
    assert kernel.backend.served == {"serial": len(cases)}
