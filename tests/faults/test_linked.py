"""Linked-fault masking: the classic March C- vs March A separation."""

import pytest

from repro.faults.linked import (
    LinkedIdempotentPair,
    LinkedInversionPair,
    linked_idempotent_cases,
    linked_inversion_cases,
)
from repro.faults.instances import case
from repro.kernel import SimulationKernel
from repro.march.catalog import MARCH_A, MARCH_B, MARCH_C_MINUS, MARCH_LR
from repro.memory.array import MemoryArray

KERNEL = SimulationKernel()


class TestInstances:
    def test_linked_inversions_cancel(self):
        memory = MemoryArray(4, fault=LinkedInversionPair(0, 1, 3))
        memory.write(3, 0)
        memory.write(0, 0)
        memory.write(1, 0)
        memory.write(0, 1)   # invert victim -> 1
        assert memory.raw[3] == 1
        memory.write(1, 1)   # invert back -> 0: masked
        assert memory.raw[3] == 0

    def test_linked_idempotents_overwrite(self):
        memory = MemoryArray(4, fault=LinkedIdempotentPair(0, 1, 3, 1))
        memory.write(3, 0)
        memory.write(0, 0)
        memory.write(1, 0)
        memory.write(0, 1)   # forces victim to 1
        assert memory.raw[3] == 1
        memory.write(1, 1)   # second aggressor forces it back to 0
        assert memory.raw[3] == 0

    def test_distinct_cells_required(self):
        with pytest.raises(ValueError):
            LinkedInversionPair(0, 0, 1)
        with pytest.raises(ValueError):
            LinkedIdempotentPair(0, 1, 1)

    def test_case_enumeration_sizes(self):
        # 4 cells: C(4,2) aggressor pairs x 2 remaining victims = 12;
        # ordered CFid pairs double that.
        assert len(linked_inversion_cases(4)) == 12
        assert len(linked_idempotent_cases(4)) == 24


class TestMaskingSeparation:
    """March C- detects all *unlinked* CFids but loses linked pairs;
    the longer March A/B/LR close the gap -- the textbook hierarchy."""

    def test_march_c_minus_misses_linked_idempotents(self):
        missed = [
            c for c in linked_idempotent_cases(4)
            if not KERNEL.detects(MARCH_C_MINUS, c, 4)
        ]
        assert len(missed) == 8  # measured; see docs/theory.md

    @pytest.mark.parametrize(
        "march", [MARCH_A, MARCH_B, MARCH_LR],
        ids=["MarchA", "MarchB", "MarchLR"],
    )
    def test_longer_tests_catch_all_linked_idempotents(self, march):
        for fault_case in linked_idempotent_cases(4):
            assert KERNEL.detects(march, fault_case, 4), fault_case.name

    def test_specific_masked_placement(self):
        # Both aggressors below the victim: an ascending element fires
        # both before reaching the victim's read.
        fc = case(
            "CFid&CFid 0,1->2",
            lambda: LinkedIdempotentPair(0, 1, 2, first_forces=1),
        )
        assert not KERNEL.detects(MARCH_C_MINUS, fc, 3)
        assert KERNEL.detects(MARCH_A, fc, 3)

    def test_linked_inversions_mostly_hide(self):
        # Double inversions cancel regardless of test length: even
        # March A only sees placements whose victim read falls between
        # the two excitations.
        for march in (MARCH_C_MINUS, MARCH_A, MARCH_LR):
            hit = sum(
                KERNEL.detects(march, c, 4)
                for c in linked_inversion_cases(4)
            )
            assert hit == 4, march.name
