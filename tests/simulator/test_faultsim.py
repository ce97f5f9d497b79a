"""Tests for fault simulation: which classic tests detect which faults.

These cross-checks mirror the known coverage table of the literature
(van de Goor [1]): e.g. MATS covers SAF only; March C- covers SAF, TF,
ADF and unlinked coupling faults.
"""

import pytest

from repro.faults import FaultList
from repro.kernel import SimulationKernel
from repro.march.catalog import (
    MARCH_C_MINUS,
    MARCH_X,
    MATS,
    MATS_PLUS,
    MATS_PLUS_PLUS,
    MSCAN,
)

KERNEL = SimulationKernel()


class TestKnownCoverage:
    def test_mats_covers_saf(self, saf_list):
        report = KERNEL.simulate_fault_list(MATS, saf_list)
        assert report.complete
        assert report.coverage == 1.0

    def test_mats_misses_tf(self):
        faults = FaultList.from_names("TF")
        report = KERNEL.simulate_fault_list(MATS, faults)
        assert not report.complete
        assert any("TFdown" in name for name in report.missed)

    def test_mats_plus_plus_covers_saf_tf_adf(self):
        faults = FaultList.from_names("SAF", "TF", "ADF")
        assert KERNEL.simulate_fault_list(MATS_PLUS_PLUS, faults).complete

    @pytest.mark.parametrize("backend", ["serial", "bitparallel"])
    @pytest.mark.parametrize("size", [2, 3, 4, 8])
    def test_mats_plus_covers_adf(self, backend, size):
        # van de Goor: MATS+ = {any(w0); up(r0,w1); down(r1,w0)}
        # detects every address-decoder fault.
        faults = FaultList.from_names("ADF")
        report = SimulationKernel(backend=backend).simulate_fault_list(
            MATS_PLUS, faults, size
        )
        assert report.missed == []
        assert report.complete

    def test_march_x_covers_cfin(self):
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN")
        assert KERNEL.simulate_fault_list(MARCH_X, faults).complete

    def test_march_c_minus_covers_table3_row5(self):
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        assert KERNEL.simulate_fault_list(MARCH_C_MINUS, faults).complete

    def test_march_x_misses_cfid(self):
        faults = FaultList.from_names("CFID")
        report = KERNEL.simulate_fault_list(MARCH_X, faults)
        assert not report.complete

    def test_mscan_misses_address_faults(self):
        faults = FaultList.from_names("ADF")
        report = KERNEL.simulate_fault_list(MSCAN, faults)
        assert not report.complete


class TestWorstCaseSemantics:
    def test_every_variant_must_be_detected(self):
        # SOF cases carry two latch variants; a test detecting only one
        # latch polarity must not claim the case.
        from repro.faults.instances import FaultCase, StuckOpenInstance
        from repro.march.test import parse_march

        case = FaultCase(
            "SOF@0",
            (
                lambda: StuckOpenInstance(0, initial_latch=0),
                lambda: StuckOpenInstance(0, initial_latch=1),
            ),
        )
        # Only reads 1: the latch-1 variant sails through.
        weak = parse_march("{any(w1); any(r1)}")
        assert not KERNEL.detects(weak, case, 3)

    def test_any_order_must_hold_both_ways(self):
        from repro.faults.instances import CouplingIdempotentInstance, FaultCase
        from repro.march.test import parse_march

        case = FaultCase(
            "CFid<up,0> 2->0",
            (lambda: CouplingIdempotentInstance(2, 0, True, 0),),
        )
        # Detects with the DOWN realization of the second element only;
        # since it is declared ANY, the case must not count as covered.
        test = parse_march("{any(w1); any(r1,w0,w1); any(r1)}")
        down_only = parse_march("{up(w1); down(r1,w0,w1); up(r1)}")
        assert KERNEL.detects(down_only, case, 3)


class TestReports:
    def test_simulation_report_counters(self, saf_tf_list):
        report = KERNEL.simulate_fault_list(MATS, saf_tf_list)
        assert 0 < report.coverage < 1
        assert "fault cases detected" in str(report)

    def test_detection_matrix_shape(self, saf_list):
        matrix = KERNEL.detection_matrix([MATS, MSCAN], saf_list)
        assert set(matrix) == {"MATS", "MSCAN"}
        assert all(matrix["MATS"].values())

    def test_simulate_empty_cases(self):
        # An empty run must not masquerade as full coverage: it reports
        # 0.0 and warns at simulation time.
        from repro.kernel import EmptyFaultListWarning

        with pytest.warns(EmptyFaultListWarning):
            report = KERNEL.simulate(MATS, [])
        assert report.coverage == 0.0
        assert not report.detected and not report.missed
