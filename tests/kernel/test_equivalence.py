"""Kernel/legacy equivalence properties.

The refactor's contract: :class:`SimulationKernel` must return results
byte-identical to the pre-refactor per-call path.  The legacy path is
reproduced verbatim below (fresh ``MemoryArray`` per (order-variant,
fault-variant) pair, variants re-enumerated per call) and compared
against the kernel over the full standard fault library at sizes 3-5.

The bit-parallel backend carries the same contract one level up: its
word-packed runs (plus the scalar fallback for unpackable cases) must
produce detection matrices byte-identical to the serial backend over
the full standard fault library at sizes 3-6.
"""

import json

import pytest

from legacy_reference import (
    legacy_detection_matrix,
    legacy_make_verifier,
    legacy_simulate,
)
from repro.faults.faultlist import FaultList
from repro.faults.library import MODEL_REGISTRY
from repro.kernel import SimulationKernel
from repro.march.catalog import MARCH_C_MINUS, MATS, MATS_PLUS_PLUS
from repro.memory.array import MemoryArray
from repro.simulator.engine import run_march

TESTS = [MATS, MATS_PLUS_PLUS, MARCH_C_MINUS]
SIZES = [3, 4, 5]


@pytest.fixture(scope="module")
def full_library():
    return FaultList.from_names(*MODEL_REGISTRY)


# -- equivalence properties ----------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("test", TESTS, ids=lambda t: t.name)
def test_simulation_report_identical(test, size, full_library):
    cases = full_library.instances(size)
    kernel = SimulationKernel()
    ours = kernel.simulate(test, cases, size)
    reference = legacy_simulate(test, cases, size)
    assert ours.detected == reference.detected
    assert ours.missed == reference.missed
    assert ours.size == reference.size
    assert ours.coverage == reference.coverage
    assert str(ours) == str(reference)


@pytest.mark.parametrize("size", SIZES)
def test_detection_matrix_identical(size, full_library):
    kernel = SimulationKernel()
    ours = kernel.detection_matrix(TESTS, full_library, size)
    reference = legacy_detection_matrix(TESTS, full_library, size)
    assert ours == reference


def test_warm_cache_results_stay_identical(full_library):
    kernel = SimulationKernel()
    cases = full_library.instances(3)
    cold = kernel.simulate(MARCH_C_MINUS, cases, 3)
    hits_before = kernel.stats.hits
    warm = kernel.simulate(MARCH_C_MINUS, cases, 3)
    assert warm.detected == cold.detected
    assert warm.missed == cold.missed
    assert kernel.stats.hits >= hits_before + len(cases)


def test_verifier_agrees_with_legacy(full_library):
    from repro.march.test import parse_march

    cases = full_library.instances(3)
    kernel_verify = SimulationKernel().verifier(cases, 3)
    legacy_verify = legacy_make_verifier(cases, 3)
    candidates = TESTS + [
        parse_march("{any(w0); any(r0)}"),
        parse_march("{up(w0); up(r0,w1); down(r1,w0); down(r0)}"),
        parse_march("{any(w1); any(r0)}"),  # malformed: expects the wrong value
    ]
    for candidate in candidates:
        assert kernel_verify(candidate) == legacy_verify(candidate), str(
            candidate
        )


def test_syndromes_identical_to_legacy(full_library):
    from repro.kernel import concrete_realization

    kernel = SimulationKernel()
    for fault_case in full_library.instances(4):
        concrete = concrete_realization(MARCH_C_MINUS)
        memory = MemoryArray(4, fault=fault_case.variants[0]())
        run = run_march(concrete, memory)
        reference = frozenset(
            (r.element_index, r.op_index, r.address, r.actual)
            for r in run.reads
            if r.mismatch
        )
        assert kernel.syndrome(MARCH_C_MINUS, fault_case, 4) == reference
        # Cached round trip returns the same object.
        assert kernel.syndrome(MARCH_C_MINUS, fault_case, 4) == reference


def test_two_port_domain_matches_differential_simulator():
    from repro.multiport.faults import weak_fault_cases
    from repro.multiport.march2p import MARCH_2PF, detects_weak_case

    kernel = SimulationKernel()
    for fault_case in weak_fault_cases(3):
        expected = detects_weak_case(MARCH_2PF, fault_case, 3)
        assert kernel.detects_2p(MARCH_2PF, fault_case, 3) == expected
        assert kernel.detects_2p(MARCH_2PF, fault_case, 3) == expected
    assert kernel.stats.hits > 0


# -- bit-parallel backend equivalence ------------------------------------------


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_bitparallel_matrix_byte_identical_to_serial(size, full_library):
    """Acceptance criterion of the bit-parallel backend.

    The full standard library includes SOF, whose sense-amplifier
    latch packs through the per-lane latch word, so every standard
    model rides the word-packed path here.
    """
    serial = SimulationKernel(backend="serial").detection_matrix(
        TESTS, full_library, size
    )
    packed = SimulationKernel(backend="bitparallel").detection_matrix(
        TESTS, full_library, size
    )
    assert packed == serial
    # Byte-identical, not merely equal: the serialized matrices match.
    assert json.dumps(packed, sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )


def test_bitparallel_routes_both_ways(full_library):
    from repro.faults.instances import case
    from repro.memory.array import NullFaultInstance

    class CustomInstance(NullFaultInstance):
        """Unknown type: must route to the scalar fallback."""

    kernel = SimulationKernel(backend="bitparallel")
    cases = list(full_library.instances(3)) + [case("custom", CustomInstance)]
    kernel.detection_matrix(TESTS, cases, 3)
    served = kernel.backend.served
    assert served.get("bitparallel", 0) > 0, "no packed tasks"
    assert served.get("serial", 0) > 0, (
        "unknown instance types should fall back to scalar"
    )


def test_bitparallel_serves_whole_standard_library_packed(full_library):
    # Since SOF gained its latch-word encoding, no standard model
    # needs the scalar fallback.
    kernel = SimulationKernel(backend="bitparallel")
    kernel.detection_matrix(TESTS, full_library, 3)
    assert kernel.backend.served.get("serial", 0) == 0


def test_bitparallel_simulation_report_identical(full_library):
    cases = full_library.instances(4)
    packed = SimulationKernel(backend="bitparallel").simulate(
        MARCH_C_MINUS, cases, 4
    )
    serial = SimulationKernel().simulate(MARCH_C_MINUS, cases, 4)
    assert packed.detected == serial.detected
    assert packed.missed == serial.missed
    assert str(packed) == str(serial)


def test_bitparallel_handles_delay_elements():
    from repro.faults.faultlist import FaultList
    from repro.march.test import parse_march

    test = parse_march("{up(w0); Del; up(r0,w1); Del; down(r1,w0)}")
    faults = FaultList.from_names("DRF")
    packed = SimulationKernel(backend="bitparallel").simulate_fault_list(
        test, faults, 4
    )
    serial = SimulationKernel().simulate_fault_list(test, faults, 4)
    assert packed.detected == serial.detected
    assert packed.detected, "the retention test must catch DRF"


def test_bitparallel_verifier_agrees_with_serial(full_library):
    from repro.march.test import parse_march

    cases = full_library.instances(3)
    packed_verify = SimulationKernel(backend="bitparallel").verifier(cases, 3)
    serial_verify = SimulationKernel().verifier(cases, 3)
    candidates = TESTS + [
        parse_march("{any(w0); any(r0)}"),
        parse_march("{up(w0); up(r0,w1); down(r1,w0); down(r0)}"),
        parse_march("{any(w1); any(r0)}"),  # malformed
    ]
    for candidate in candidates:
        assert packed_verify(candidate) == serial_verify(candidate), str(
            candidate
        )


def test_coverage_matrix_unchanged_by_kernel_routing(full_library):
    from repro.simulator.coverage import coverage_matrix

    cases = FaultList.from_names("SAF", "TF").instances(3)
    via_default = coverage_matrix(MATS_PLUS_PLUS, cases, 3)
    via_fresh = coverage_matrix(
        MATS_PLUS_PLUS, cases, 3, kernel=SimulationKernel()
    )
    assert via_default.matrix == via_fresh.matrix
    assert via_default.case_names == via_fresh.case_names
