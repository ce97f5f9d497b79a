"""Tests for the read-coupling fault model (CFrd)."""

import pytest

from repro.core import MarchTestGenerator
from repro.faults import FaultList
from repro.faults.instances import ReadCouplingInstance
from repro.faults.library import ReadCouplingFault
from repro.kernel import SimulationKernel
from repro.march.catalog import MARCH_C_MINUS, MATS
from repro.march.test import parse_march
from repro.memory.array import MemoryArray

KERNEL = SimulationKernel()


class TestInstance:
    def test_reading_aggressor_forces_victim(self):
        memory = MemoryArray(3, fault=ReadCouplingInstance(0, 2, 1))
        memory.write(0, 0)
        memory.write(2, 0)
        assert memory.read(0) == 0       # aggressor reads fine
        assert memory.raw[2] == 1        # but the victim was forced

    def test_other_reads_harmless(self):
        memory = MemoryArray(3, fault=ReadCouplingInstance(0, 2, 1))
        memory.write(1, 0)
        memory.write(2, 0)
        memory.read(1)
        assert memory.raw[2] == 0

    def test_distinct_cells_required(self):
        with pytest.raises(ValueError):
            ReadCouplingInstance(1, 1, 0)


class TestModel:
    def test_classes(self):
        classes = ReadCouplingFault().classes()
        assert len(classes) == 4  # 2 forced values x 2 directions
        assert all(cls.cardinality == 1 for cls in classes)

    def test_registry(self):
        faults = FaultList.from_names("CFRD")
        assert faults.names == ("CFRD",)
        assert len(faults.instances(3)) == 12

    def test_march_c_minus_covers_cfrd(self):
        faults = FaultList.from_names("CFRD")
        assert KERNEL.simulate_fault_list(MARCH_C_MINUS, faults, 3).complete

    def test_mats_misses_cfrd(self):
        faults = FaultList.from_names("CFRD")
        assert not KERNEL.simulate_fault_list(MATS, faults, 3).complete


class TestGeneration:
    def test_generated_test_is_verified_and_not_claimed_minimal(self):
        faults = FaultList.from_names("CFRD")
        report = MarchTestGenerator().generate(faults)
        assert report.verified
        assert report.complexity == 6
        assert not any("provably minimal" in note for note in report.notes)
        # A 5n test covers CFrd, so the 6n result is not minimal.
        shorter = parse_march("{up(w0); up(r0); up(r0,w1); up(r1)}")
        assert shorter.complexity == 5
        serial = SimulationKernel(backend="serial")
        for size in (2, 3):
            assert serial.verifier(faults.instances(size), size)(shorter)

    def test_excitation_reads_flagged_by_redundancy_check(self):
        """A CFrd test needs reads as *excitations*; demoting their
        verification is harmless, so the Section-6 criterion reports
        them -- an interesting, documented corner."""
        faults = FaultList.from_names("CFRD")
        report = MarchTestGenerator().generate(faults)
        assert report.non_redundant is False
