"""One transition table shared by a sequence of tests.

The ``bitparallel`` backend keeps one
:class:`~repro.simulator.bitengine.TransitionTable` per lane plan, so
every test of a sweep over that plan, and every later call on it,
steps through the transitions the earlier tests left.  A table is a
memo of a pure function, so this must never change a verdict: over
drawn test sequences that share elements and prefixes and repeat
whole tests, the shared table answers what a fresh table per test
answers, and what the scalar ``serial`` backend answers -- also when a
tiny bound makes the table start over again and again.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.faultlist import FaultList
from repro.faults.library import MODEL_REGISTRY
from repro.kernel import BitParallelBackend, SerialBackend
from repro.march.element import (
    AddressOrder,
    DelayElement,
    MarchElement,
    MarchOp,
)
from repro.march.test import MarchTest
from repro.simulator import bitengine
from repro.simulator.bitengine import PackedSimulation, TransitionTable

MODELS = tuple(sorted(MODEL_REGISTRY))

ops = st.sampled_from([
    MarchOp("w", 0), MarchOp("w", 1),
    MarchOp("r", 0), MarchOp("r", 1), MarchOp("r", None),
])

#: ⇑, ⇓ and ⇕ elements and ``Del``.
elements = st.one_of(
    st.just(DelayElement()),
    st.builds(
        MarchElement,
        st.sampled_from(list(AddressOrder)),
        st.lists(ops, min_size=1, max_size=3).map(tuple),
    ),
)


@st.composite
def sweeps(draw):
    """Tests over a small drawn element pool, so they share elements
    and prefixes, plus some of them again, in a drawn order."""
    pool = draw(st.lists(elements, min_size=2, max_size=4))
    bodies = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    tests = [MarchTest(tuple(body))
             for body in draw(st.lists(bodies, min_size=1, max_size=5))]
    repeats = draw(st.lists(st.sampled_from(tests), max_size=3))
    return draw(st.permutations(tests + repeats))


@pytest.mark.parametrize("limit", [None, 3], ids=["unbounded", "tiny"])
@given(
    models=st.lists(
        st.sampled_from(MODELS), min_size=1, max_size=4, unique=True
    ).map(tuple),
    size=st.integers(min_value=2, max_value=6),
    tests=sweeps(),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_one_shared_table_agrees_with_fresh_tables_and_serial(
    limit, models, size, tests
):
    cases = FaultList.from_names(*models).instances(size)
    bound = mock.patch.object(
        bitengine, "TRANSITION_TABLE_LIMIT",
        limit or bitengine.TRANSITION_TABLE_LIMIT,
    )
    with bound:
        simulation = PackedSimulation(cases, size)
        shared = TransitionTable(simulation)
        backend = BitParallelBackend()
        for test in tests:
            verdicts = shared.worst_case_verdicts(test)
            fresh = TransitionTable(simulation).worst_case_verdicts(test)
            assert verdicts == fresh, (str(test), models, size)
            assert verdicts == SerialBackend().detect_batch(
                cases, test, size
            ), (str(test), models, size)
            assert backend.detect_batch(cases, test, size) == verdicts
            assert len(shared.transitions) <= shared.limit
    ((_, plan_table),) = backend._plans.values()
    assert plan_table.hits.value == shared.hits.value
    assert plan_table.misses.value == shared.misses.value
    if limit is not None:
        assert shared.limit == limit
