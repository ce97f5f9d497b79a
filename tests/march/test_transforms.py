"""Tests for detection-preserving March transformations."""

import pytest

from repro.faults import FaultList
from repro.kernel import SimulationKernel
from repro.march.catalog import CATALOG, MARCH_C_MINUS, MARCH_X, MATS
from repro.march.element import AddressOrder
from repro.march.test import parse_march
from repro.march.transforms import complement, mirror

KERNEL = SimulationKernel()


class TestStructure:
    def test_mirror_swaps_orders(self):
        test = parse_march("{up(w0); down(r0,w1); any(r1)}")
        mirrored = mirror(test)
        assert [e.order for e in mirrored.march_elements] == [
            AddressOrder.DOWN, AddressOrder.UP, AddressOrder.ANY,
        ]

    def test_complement_swaps_values(self):
        test = parse_march("{any(w0); up(r0,w1); down(r1)}")
        assert str(complement(test)) == "{⇕(w1); ⇑(r1,w0); ⇓(r0)}"

    def test_transforms_are_involutions(self):
        for name, test in CATALOG.items():
            assert str(mirror(mirror(test))) == str(test), name
            assert str(complement(complement(test))) == str(test), name

    def test_complexity_invariant(self):
        for test in (MATS, MARCH_X, MARCH_C_MINUS):
            assert mirror(test).complexity == test.complexity
            assert complement(test).complexity == test.complexity

    def test_delay_preserved(self):
        test = parse_march("{any(w1); Del; any(r1)}")
        assert "Del" in str(mirror(test))
        assert "Del" in str(complement(test))

    def test_names_tagged(self):
        assert mirror(MATS).name == "MATS~mirror"
        assert complement(MATS).name == "MATS~complement"


ROW5 = ("SAF", "TF", "ADF", "CFIN", "CFID")


class TestDetectionPreservation:
    """The library fault models are direction- and polarity-symmetric,
    so both transforms preserve full coverage."""

    @pytest.mark.parametrize("names", [("SAF",), ("SAF", "TF"), ROW5])
    def test_mirror_preserves_coverage(self, names):
        faults = FaultList.from_names(*names)
        test = MARCH_C_MINUS
        base = KERNEL.simulate_fault_list(test, faults, 3)
        transformed = KERNEL.simulate_fault_list(mirror(test), faults, 3)
        assert base.complete and transformed.complete

    @pytest.mark.parametrize("names", [("SAF",), ("SAF", "TF"), ROW5])
    def test_complement_preserves_coverage(self, names):
        faults = FaultList.from_names(*names)
        base = KERNEL.simulate_fault_list(MARCH_C_MINUS, faults, 3)
        transformed = KERNEL.simulate_fault_list(
            complement(MARCH_C_MINUS), faults, 3
        )
        assert base.complete and transformed.complete

    def test_transforms_preserve_misses_too(self):
        # MATS misses TF either way: the transforms do not create
        # coverage out of thin air.
        faults = FaultList.from_names("TF")
        assert not KERNEL.simulate_fault_list(MATS, faults, 3).complete
        assert not KERNEL.simulate_fault_list(mirror(MATS), faults, 3).complete
        assert not KERNEL.simulate_fault_list(
            complement(MATS), faults, 3
        ).complete
