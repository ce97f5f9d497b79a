"""Tests for the literature catalog of March tests."""

import pytest

from repro.kernel import SimulationKernel
from repro.march.catalog import (
    CATALOG,
    MARCH_A,
    MARCH_B,
    MARCH_C,
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS,
    MATS_PLUS,
    MATS_PLUS_PLUS,
    by_name,
)
from repro.simulator.engine import is_well_formed

KERNEL = SimulationKernel()


class TestComplexities:
    """The complexities quoted in the paper's Table 3 and van de Goor."""

    @pytest.mark.parametrize(
        "test, expected",
        [
            (MATS, 4),
            (MATS_PLUS, 5),
            (MATS_PLUS_PLUS, 6),
            (MARCH_X, 6),
            (MARCH_Y, 8),
            (MARCH_C_MINUS, 10),
            (MARCH_C, 11),
            (MARCH_A, 15),
            (MARCH_B, 17),
        ],
    )
    def test_complexity(self, test, expected):
        assert test.complexity == expected


class TestWellFormedness:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_catalog_test_is_well_formed(self, name):
        # Every verifying read expects the value the good memory holds.
        assert is_well_formed(CATALOG[name], size=4)


class TestLookup:
    def test_by_name_case_insensitive(self):
        assert by_name("mats+").name == "MATS+"
        assert by_name("MARCHC-").name == "MarchC-"

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            by_name("MarchZ")


class TestMarchG:
    def test_complexity(self):
        from repro.march.catalog import MARCH_G

        assert MARCH_G.complexity == 23
        from repro.march.element import DelayElement

        assert sum(
            1 for e in MARCH_G.elements if isinstance(e, DelayElement)
        ) == 2

    def test_covers_retention_faults(self):
        from repro.faults import FaultList
        from repro.march.catalog import MARCH_G

        assert KERNEL.simulate_fault_list(
            MARCH_G, FaultList.from_names("DRF"), 3
        ).complete

    def test_march_c_minus_misses_retention(self):
        from repro.faults import FaultList
        from repro.march.catalog import MARCH_C_MINUS

        assert not KERNEL.simulate_fault_list(
            MARCH_C_MINUS, FaultList.from_names("DRF"), 3
        ).complete
