"""Differential properties: the packed engine against the serial scalar
engine, through the whole-list verifier and the batched detection
matrix.

On the lane-packed backend ``SimulationKernel.verifier`` checks a
candidate with one shared-prefix walk of its order realizations --
lane 0 doubles as the well-formedness check -- and then a fail-fast
scalar pass over the unpackable cases.  The ``serial`` backend keeps the reference
predicate: a scalar good-machine run per realization, then one cached
``detects`` per case.  Both must accept exactly the same march tests,
call after call (the fail-fast pass reorders its cases between calls).

The packed predicate is stateful: its transition table remembers every
(state, element) step it has run.  So one predicate is also checked
over long candidate streams whose members share prefixes, the way the
minimality search feeds it, and with a table small enough to start
over mid-stream.
"""

import uuid
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from repro.march.test import MarchTest, parse_march
from repro.memory.array import NullFaultInstance
from repro.simulator import bitengine
from repro.simulator.bitengine import (
    PackedSimulation,
    TransitionTable,
    pack_cases,
)
from repro.store import FaultDictionaryStore

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
def random_tests(draw, max_any=8):
    """0-``max_any`` ANY elements shuffled among 0-6 UP/DOWN elements or
    ``Del`` (at least one element in all), with random read expectations
    (so malformed tests occur), so deep realization trees are covered
    too."""
    any_count = draw(st.integers(min_value=0, max_value=max_any))
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


@given(
    models=model_sets,
    size=st.sampled_from((2, 3, 4)),
    tests=st.lists(
        st.one_of(
            random_tests(max_any=3),
            st.sampled_from(sorted(CATALOG.values(), key=str)),
        ),
        min_size=1,
        max_size=2,
    ),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_packed_detection_matrix_agrees_with_serial(models, size, tests):
    # Per test, one verdict per fault case: the batched sweep path
    # (``TransitionTable.worst_case_verdicts``), not the verifier.  The
    # scalar reference runs every realization, so drawn tests keep to at
    # most three ⇕ elements.
    cases = fault_cases(models, size, False)
    serial = SimulationKernel(backend="serial").detection_matrix(
        tests, cases, size
    )
    packed = SimulationKernel(backend="bitparallel").detection_matrix(
        tests, cases, size
    )
    assert packed == serial, ([str(test) for test in tests], models, size)


def test_custom_cases_ride_the_scalar_remainder():
    cases = custom_cases(3)
    assert not any(pack_cases(cases, 3)[2])
    kernel = SimulationKernel(backend="bitparallel")
    verify = kernel.verifier(
        FaultList.from_names("SAF").instances(3) + cases, 3
    )
    # MATS catches both stuck reads: its r0 sees read1@2, its r1 read0@0.
    assert verify(CATALOG["MATS"])
    assert kernel.backend.served == {"serial": len(cases)}


#: Element choices for one-element extensions: fixed orders, ⇕ and Del.
extension_elements = st.one_of(
    st.just(DelayElement()),
    st.builds(
        MarchElement,
        st.sampled_from(list(AddressOrder)),
        st.lists(ops, min_size=1, max_size=3).map(tuple),
    ),
)

#: Fault lists that exercise the latch (SOF), the decoder redirections
#: (ADF) and the coupling groups (CF*), alone and mixed.
stateful_models = st.one_of(
    st.sampled_from([
        ("SOF",), ("ADF",), ("CFIN", "CFID"), ("CFST",), ("SOF", "ADF"),
        ("SAF", "TF", "ADF", "CFIN", "CFID"), MODELS,
    ]),
    model_sets,
)


#: Stream bases: random tests of 3-7 elements (⇕, Del and random
#: expectations included) or catalog tests, so streams have >= 24 members.
stream_bases = st.one_of(
    st.lists(extension_elements, min_size=3, max_size=7).map(
        lambda elements: MarchTest(tuple(elements))
    ),
    st.sampled_from(sorted(
        (test for test in CATALOG.values() if len(test) >= 3), key=str
    )),
)


def sibling_stream(test, extensions):
    """Every element prefix of ``test``, each followed by its one-element
    extensions, then the whole stream again (all table hits)."""
    elements = test.elements
    stream = []
    for length in range(1, len(elements) + 1):
        prefix = elements[:length]
        stream.append(MarchTest(prefix))
        stream.extend(MarchTest(prefix + (extra,)) for extra in extensions)
    return stream + stream


@given(
    models=stateful_models,
    size=st.sampled_from((2, 3)),
    test=stream_bases,
    extensions=st.lists(extension_elements, min_size=3, max_size=4),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_memoized_verifier_agrees_over_a_candidate_stream(
    models, size, test, extensions
):
    cases = fault_cases(models, size, False)
    kernel = SimulationKernel(backend="bitparallel")
    packed = kernel.verifier(cases, size)
    serial = SimulationKernel(backend="serial").verifier(cases, size)
    stream = sibling_stream(test, extensions)
    assert len(stream) >= 20
    for candidate in stream:
        assert packed(candidate) == serial(candidate), (
            str(candidate), models, size
        )
    assert kernel.verify_stats.table_hits.value > 0


def concrete_tests():
    """Catalog realizations plus a test with ``Del``: tests the engine
    runs as one segment."""
    tests = [
        variant
        for name in sorted(CATALOG)
        for variant in CATALOG[name].concrete_order_variants()[:2]
    ]
    tests.append(MarchTest((
        MarchElement(AddressOrder.UP, (MarchOp("w", 1),)),
        DelayElement(),
        MarchElement(AddressOrder.DOWN, (MarchOp("r", 1), MarchOp("w", 0))),
        DelayElement(),
        MarchElement(AddressOrder.UP, (MarchOp("r", 0),)),
    )))
    return tests


def test_table_hits_reach_the_direct_state():
    size = 3
    simulation = PackedSimulation(
        FaultList.from_names(*MODELS).instances(size), size
    )
    table = TransitionTable(simulation)
    tests = concrete_tests()
    for test in tests:
        table.run_variant(test)
    misses = table.misses.value
    for test in tests:
        # Every step is now a hit, from power-up and from a state the
        # table reached mid-test.
        elements = test.elements
        split = len(elements) // 2
        words, detected = table.run_variant(
            MarchTest(elements[:split] or elements)
        )
        if split:
            words, found = table.run_variant(MarchTest(elements[split:]), words)
            detected |= found
        direct = simulation.run_variant(test)
        assert (words, detected) == direct, str(test)
        assert table.run_variant(test) == direct
    assert table.misses.value == misses
    assert table.hits.value > 0


def test_a_full_table_starts_over_and_still_agrees(monkeypatch):
    limit = 16
    monkeypatch.setattr(bitengine, "TRANSITION_TABLE_LIMIT", limit)
    size = 2
    cases = fault_cases(("SAF", "TF", "ADF", "CFIN", "SOF"), size, False)
    simulation = PackedSimulation(cases, size)
    table = TransitionTable(simulation)
    tests = concrete_tests()
    for test in tests + tests:
        ran = table.run_variant(test)
        assert len(table.transitions) <= limit
        assert ran == simulation.run_variant(test), str(test)
    assert table.misses.value > 2 * limit  # the table filled and started over
    kernel = SimulationKernel(backend="bitparallel")
    packed = kernel.verifier(cases, size)
    serial = SimulationKernel(backend="serial").verifier(cases, size)
    stream = sibling_stream(CATALOG["MarchC-"], [
        MarchElement(AddressOrder.ANY, (MarchOp("r", 0),)),
        DelayElement(),
        MarchElement(AddressOrder.DOWN, (MarchOp("r", 1), MarchOp("w", 0))),
    ])
    for candidate in stream:
        assert packed(candidate) == serial(candidate), str(candidate)
    assert kernel.verify_stats.table_misses.value > limit


def assert_table_matches_engine(simulation, stream):
    """One table over ``stream``: every realization's detected mask and
    end state equal a plain engine run's."""
    table = TransitionTable(simulation)
    for test in stream:
        for variant in test.concrete_order_variants():
            assert table.run_variant(variant) == simulation.run_variant(
                variant
            ), str(variant)
    return table


@pytest.mark.parametrize("models, stream", [
    # After ⇓(r0) the SOF latch holds 0, after ⇑(w0) its power-up
    # value: equal cells, different latch, different ⇑(r0) outcome.
    (("SOF",), ["{up(w0); up(r0)}", "{up(w0); down(r0); up(r0)}"]),
    # Power-up and ⇑(w0) leave equal TF value words; only the defined
    # words tell the undefined cells apart.
    (("TF",), ["{up(w0); up(r0)}", "{up(r0); up(w1); up(r1)}"]),
])
def test_every_state_field_reaches_the_table_key(models, stream):
    simulation = PackedSimulation(fault_cases(models, 2, False), 2)
    assert_table_matches_engine(
        simulation, [parse_march(text) for text in stream]
    )


@given(
    models=stateful_models,
    size=st.sampled_from((2, 3)),
    test=stream_bases,
    extensions=st.lists(extension_elements, min_size=3, max_size=4),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_table_steps_match_the_engine_over_a_candidate_stream(
    models, size, test, extensions
):
    simulation = PackedSimulation(fault_cases(models, size, False), size)
    table = assert_table_matches_engine(
        simulation, sibling_stream(test, extensions)
    )
    assert table.hits.value > 0


#: Tests for the batched verdict path: drawn (⇕, ``Del``) and catalog.
batch_tests = st.one_of(
    random_tests(max_any=3),
    st.sampled_from(sorted(CATALOG.values(), key=str)),
)


def shuffled_with_repeats(data, items):
    """``items`` plus some of them again, in a drawn order."""
    repeats = data.draw(st.lists(st.sampled_from(items), max_size=3))
    return data.draw(st.permutations(items + repeats))


@pytest.mark.parametrize("with_store", [False, True])
@given(
    models=st.lists(
        st.sampled_from(MODELS), min_size=1, max_size=3, unique=True
    ).map(tuple),
    size=st.sampled_from((2, 3)),
    tests=st.lists(batch_tests, min_size=1, max_size=3),
    data=st.data(),
)
@settings(
    max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_batched_verdict_path_agrees_with_serial(
    tmp_path, with_store, models, size, tests, data
):
    # Repeated tests and cases, packable cases mixed with unpackable
    # user types, and a pre-warmed subset of pairs, so every test
    # reaches the backend with a different subset of its cases, in a
    # different order.
    standard = list(fault_cases(models, size, False))
    cases = (
        data.draw(st.lists(st.sampled_from(standard), min_size=1,
                           max_size=8))
        + data.draw(st.lists(st.sampled_from(custom_cases(size)),
                             min_size=1, max_size=2))
    )
    cases = shuffled_with_repeats(data, cases)
    tests = shuffled_with_repeats(data, tests)
    reference = SimulationKernel(backend="serial")
    expected = reference.detection_matrix(tests, cases, size)
    expected_reports = reference.simulate_many(tests, cases, size)

    store = None
    if with_store:
        store = tmp_path / f"{uuid.uuid4().hex}.sqlite"
    kernel = SimulationKernel(backend="bitparallel", store=store)
    pairs = {(str(test), case.name): (test, case)
             for test in tests for case in cases}
    warm = data.draw(st.lists(st.sampled_from(sorted(pairs)), unique=True))
    for signature, name in warm:
        test, fault_case = pairs[(signature, name)]
        assert kernel.detects(test, fault_case, size) == (
            expected[test.name or signature][name]
        )
    assert kernel.detection_matrix(tests, cases, size) == expected
    reports = kernel.simulate_many(tests, cases, size)
    assert [(r.detected, r.missed) for r in reports] == [
        (r.detected, r.missed) for r in expected_reports
    ]
    kernel.close()
    if store is None:
        return
    with FaultDictionaryStore(store) as rows:
        assert len(rows) == len(pairs)
    reader = SimulationKernel(backend="bitparallel", store=store)
    assert reader.detection_matrix(tests, cases, size) == expected
    assert reader.backend.served == {}
    reader.close()
