"""Tests for the comparative analysis helpers."""

import pytest

from repro.analysis import (
    compare,
    coverage_report,
    dominates,
    minimal_certificate,
)
from repro.faults import FaultList
from repro.kernel import (
    SimulationKernel,
    get_default_kernel,
    set_default_kernel,
)
from repro.kernel.kernel import PackedVerifier
from repro.march.catalog import MARCH_C_MINUS, MARCH_X, MATS, MSCAN


class TestCoverageReport:
    def test_full_coverage(self, saf_list):
        report = coverage_report(MATS, saf_list)
        assert report.complete_models == ("SAF",)
        assert "full" in str(report)

    def test_partial_coverage(self, saf_tf_list):
        report = coverage_report(MATS, saf_tf_list)
        models = {m.model: m for m in report.models}
        assert models["SAF"].complete
        assert not models["TF"].complete
        assert 0 < models["TF"].ratio < 1

    def test_compare_shapes(self, saf_list):
        table = compare([MATS, MSCAN], saf_list)
        assert set(table) == {"MATS", "MSCAN"}


class TestDominance:
    def test_march_c_minus_dominates_march_x_on_row5(self):
        faults = FaultList.from_names("CFIN", "CFID")
        # March C- covers a superset but is longer: no dominance.
        assert not dominates(MARCH_C_MINUS, MARCH_X, faults)

    def test_equal_tests_dominate_each_other(self, saf_list):
        assert dominates(MATS, MATS, saf_list)

    def test_mats_dominates_mscan_on_saf(self, saf_list):
        # Same complexity, MATS detects everything MSCAN does.
        assert dominates(MATS, MSCAN, saf_list)

    def test_shorter_coverage_loss_breaks_dominance(self):
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        assert not dominates(MARCH_X, MARCH_C_MINUS, faults)


class TestMinimalityCertificate:
    def test_mats_is_minimal_for_saf(self, saf_list):
        certificate = minimal_certificate(MATS, saf_list)
        assert certificate.is_minimal
        assert certificate.exhausted
        assert "minimal" in str(certificate)

    def test_non_minimal_detected(self, saf_list):
        from repro.march.test import parse_march

        padded = parse_march(
            "{any(w0); any(r0); any(r0); any(w1); any(r1)}", "padded"
        )
        certificate = minimal_certificate(padded, saf_list)
        assert not certificate.is_minimal
        assert certificate.shorter_test is not None
        assert certificate.shorter_test.complexity < padded.complexity

    def test_budget_hit_is_inconclusive(self, saf_list):
        certificate = minimal_certificate(MATS, saf_list, budget=5)
        assert certificate.is_minimal  # nothing found, but not proven
        assert not certificate.exhausted
        assert certificate.candidates_tested == 6
        assert "inconclusive" in str(certificate)

    def test_rejects_non_covering_test(self, saf_tf_list):
        with pytest.raises(ValueError):
            minimal_certificate(MSCAN, saf_tf_list)

    def test_default_kernel_searches_on_the_packed_verifier(
        self, monkeypatch
    ):
        made = []
        verifier = SimulationKernel.verifier

        def recorded(kernel, cases, size):
            made.append(verifier(kernel, cases, size))
            return made[-1]

        monkeypatch.setattr(SimulationKernel, "verifier", recorded)
        get_default_kernel()  # the serial default built on demand
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        certificate = minimal_certificate(
            MARCH_C_MINUS, faults, budget=30000
        )
        assert certificate.candidates_tested == 30001
        assert [type(made_one) for made_one in made] == [PackedVerifier]
        # The search stepped shared prefixes, not one run per candidate.
        stats = made[0].stats
        steps = stats.table_hits.value + stats.table_misses.value
        assert steps < certificate.candidates_tested / 3

    def test_an_installed_default_kernel_is_followed(
        self, monkeypatch, saf_list
    ):
        used = []
        verifier = SimulationKernel.verifier

        def recorded(kernel, cases, size):
            used.append(kernel)
            return verifier(kernel, cases, size)

        monkeypatch.setattr(SimulationKernel, "verifier", recorded)
        original = get_default_kernel()
        installed = SimulationKernel()
        try:
            set_default_kernel(installed)
            minimal_certificate(MATS, saf_list)
        finally:
            set_default_kernel(original)
        assert used == [installed]
