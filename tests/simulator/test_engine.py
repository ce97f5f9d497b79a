"""Tests for the March execution engine."""

import pytest

from repro.faults.instances import StuckAtInstance, TransitionFaultInstance
from repro.kernel import SimulationKernel
from repro.march.catalog import MATS, MARCH_C_MINUS
from repro.march.test import parse_march
from repro.memory.array import MemoryArray
from repro.simulator.engine import (
    count_verifying_reads,
    good_run,
    is_well_formed,
    run_march,
)


class TestGoodRuns:
    def test_good_memory_never_mismatches(self):
        run = good_run(MARCH_C_MINUS, size=5)
        assert not run.detected
        assert run.first_detection is None

    def test_read_records_have_positions(self):
        run = good_run(MATS, size=2)
        reads = run.verifying_reads()
        assert len(reads) == count_verifying_reads(MATS, 2) == 4
        assert {r.address for r in reads} == {0, 1}

    def test_final_contents(self):
        run = good_run(parse_march("{any(w1)}"), size=3)
        assert run.final_contents == (1, 1, 1)

    def test_malformed_test_detected(self):
        bad = parse_march("{any(w0); any(r1)}")
        assert good_run(bad, size=2).detected
        assert not is_well_formed(bad)

    def test_well_formed_checks_all_order_variants(self):
        assert is_well_formed(MATS)
        assert is_well_formed(MARCH_C_MINUS)


class TestFaultyRuns:
    def test_stuck_at_detected(self):
        memory = MemoryArray(3, fault=StuckAtInstance(1, 0))
        run = run_march(MATS, memory)
        assert run.detected
        hit = run.first_detection
        assert hit.address == 1
        assert hit.expected == 1 and hit.actual == 0

    def test_transition_fault_missed_by_mats(self):
        # MATS does not guarantee down-transition coverage.
        memory = MemoryArray(3, fault=TransitionFaultInstance(0, rising=False))
        run = run_march(MATS, memory)
        assert not run.detected

    def test_unknown_actual_is_not_detection(self):
        # A read of a floating value must not count as a definite
        # detection (worst-case semantics).
        from repro.faults.instances import DeadCellInstance
        from repro.memory.state import DASH

        class FloatsToDash(DeadCellInstance):
            def on_read(self, memory, address):
                if address == self.cell:
                    return DASH
                return memory.raw[address]

        memory = MemoryArray(2, fault=FloatsToDash(0, 0))
        run = run_march(MATS, memory)
        assert not run.detected


class TestReadDetections:
    """The per-run detecting-read sets behind the Section 6 analysis."""

    def test_only_r1_detects_sa0(self):
        # MATS's r1 lives in its third element (index 2), op 0; r0
        # reads the stuck value back as expected.
        sa0 = lambda: StuckAtInstance(0, 0)  # noqa: E731
        detections = list(SimulationKernel().read_detections(MATS, [sa0], 2))
        assert len(detections) == len(MATS.concrete_order_variants())
        assert set(detections) == {frozenset({(2, 0)})}

    def test_every_read_still_executes(self):
        memory = MemoryArray(2, fault=StuckAtInstance(0, 0))
        run = run_march(MATS, memory)
        assert len(run.reads) == count_verifying_reads(MATS, 2)
        mismatched = {
            (r.element_index, r.op_index) for r in run.reads if r.mismatch
        }
        assert mismatched == {(2, 0)}
