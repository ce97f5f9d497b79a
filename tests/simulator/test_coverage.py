"""Tests for the Coverage Matrix and non-redundancy (Section 6)."""

import pytest

from repro.faults import FaultList
from repro.kernel import concrete_realization
from repro.march.catalog import MARCH_C, MARCH_C_MINUS, MATS
from repro.march.test import parse_march
from repro.simulator.coverage import (
    coverage_matrix,
    demotion_redundant_blocks,
    elementary_blocks,
    is_non_redundant,
)


class TestElementaryBlocks:
    def test_blocks_are_verifying_reads(self):
        blocks = elementary_blocks(MARCH_C_MINUS)
        assert len(blocks) == 5  # one read per element but the first

    def test_block_describe(self):
        block = elementary_blocks(MATS)[0]
        assert "r0" in block.describe(MATS)


class TestConcreteRealization:
    def test_any_resolved(self):
        from repro.march.element import AddressOrder

        test = concrete_realization(MATS)
        assert all(
            e.order is AddressOrder.UP for e in test.march_elements
        )


class TestCoverageMatrix:
    def test_mats_matrix_covers_saf(self, saf_list):
        cases = saf_list.instances(3)
        cm = coverage_matrix(MATS, cases, 3)
        assert cm.covers_all
        # r0 catches SA1, r1 catches SA0: both blocks needed.
        assert cm.is_non_redundant()
        assert cm.redundant_blocks() == []

    def test_march_c_has_redundant_block(self):
        # March C's extra ⇕(r0) is the textbook redundancy March C-
        # removes.
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        cases = faults.instances(3)
        cm = coverage_matrix(MARCH_C, cases, 3)
        assert cm.covers_all
        assert not cm.is_non_redundant()
        assert cm.redundant_blocks()

    def test_march_c_minus_non_redundant_by_demotion(self):
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        cases = faults.instances(3)
        assert is_non_redundant(MARCH_C_MINUS, cases, 3)

    def test_march_c_redundant_by_demotion(self):
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        cases = faults.instances(3)
        redundant = demotion_redundant_blocks(MARCH_C, cases, 3)
        assert redundant

    def test_incomplete_coverage_is_redundant(self, saf_tf_list):
        cases = saf_tf_list.instances(3)
        cm = coverage_matrix(MATS, cases, 3)
        assert not cm.covers_all
        assert not cm.is_non_redundant()

    def test_minimum_blocks_cover_everything(self, saf_list):
        cases = saf_list.instances(3)
        cm = coverage_matrix(MATS, cases, 3)
        chosen = cm.minimum_blocks()
        rows = cm.rows_as_sets()
        covered = set().union(*(rows[k] for k in chosen))
        assert covered == cm.covered_columns
