"""Tests for GTS segmentation and pattern realization."""

import pytest

from repro.march.builder import (
    build_march,
    normalize_expectations,
    realize_pattern_blocks,
    segment,
    sequential_march,
)
from repro.march.element import AddressOrder, DelayElement, MarchElement
from repro.march.test import MarchTest, parse_march
from repro.memory.operations import read, wait, write
from repro.memory.state import MemoryState
from repro.patterns.test_pattern import TestPattern
from repro.sequence.gts import (
    Color,
    GlobalTestSequence,
    GTSSymbol,
    Role,
)


def state(text):
    return MemoryState.parse(text)


def sym(op, role=Role.SETUP, color=None, merged=False):
    s = GTSSymbol(op, role, 0, color=color)
    return s.as_merged() if merged else s


class TestSegmentation:
    def test_red_opens_blue_closes(self):
        gts = GlobalTestSequence([
            sym(write("i", 0), merged=True),
            sym(read("i", 0), Role.OBSERVE, Color.RED),
            sym(write("i", 1), Role.EXCITE, Color.BLUE),
            sym(read("i", 1), Role.OBSERVE),
        ])
        test = segment(gts)
        assert len(test.elements) == 3
        assert [e.complexity for e in test.elements] == [1, 2, 1]

    def test_orders_follow_cell_tags(self):
        gts = GlobalTestSequence([
            sym(write("i", 0), merged=True),
            sym(read("i", 0), Role.OBSERVE, Color.RED),
            sym(write("i", 1), Role.EXCITE, Color.BLUE),
            sym(read("j", 1), Role.OBSERVE, Color.RED),
            sym(write("j", 0), Role.EXCITE, Color.BLUE),
        ])
        test = segment(gts)
        orders = [e.order for e in test.elements]
        assert orders == [
            AddressOrder.ANY,   # merged symbol: Rule 5
            AddressOrder.UP,    # i-tagged: Rule 3
            AddressOrder.DOWN,  # j-tagged: Rule 4
        ]

    def test_wait_becomes_delay_element(self):
        gts = GlobalTestSequence([
            sym(write("i", 1)),
            sym(wait(), Role.EXCITE),
            sym(read("i", 1), Role.OBSERVE),
        ])
        test = segment(gts)
        assert isinstance(test.elements[1], DelayElement)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segment(GlobalTestSequence([]))


class TestNormalizeExpectations:
    def test_recomputes_read_values(self):
        test = parse_march("{any(w0); any(r1)}")  # r1 is inconsistent
        fixed = normalize_expectations(test)
        assert str(fixed) == "{⇕(w0); ⇕(r0)}"

    def test_rejects_read_before_write(self):
        test = parse_march("{any(r0); any(w0)}")
        assert normalize_expectations(test) is None

    def test_keeps_delay(self):
        test = parse_march("{any(w1); Del; any(r1)}")
        fixed = normalize_expectations(test)
        assert any(isinstance(e, DelayElement) for e in fixed.elements)

    def test_unchanged_element_is_the_same_object(self):
        test = parse_march("{any(w0); up(r1,w1); down(r,w0); any(r1)}")
        fixed = normalize_expectations(test)
        assert str(fixed) == "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0)}"
        kept = [new is old for new, old in zip(fixed, test)]
        assert kept == [True, False, False, False]
        # A changed read takes one shared op per expected value.
        assert fixed.elements[1].ops[0] is fixed.elements[3].ops[0]
        assert fixed.elements[1].ops[1] is test.elements[1].ops[1]
        assert normalize_expectations(fixed).elements == fixed.elements
        assert all(
            new is old
            for new, old in zip(normalize_expectations(fixed), fixed)
        )

    def test_build_march_none_on_malformed(self):
        gts = GlobalTestSequence([sym(read("i", 0), Role.OBSERVE)])
        assert build_march(gts) is None


class TestRealizePatternBlocks:
    def test_single_cell_pattern(self):
        tp = TestPattern(state("0-"), write("i", 1), read("i", 1))
        (element,) = realize_pattern_blocks(tp)
        assert [str(op) for op in element.ops] == ["w0", "w1", "r1"]

    def test_lambda_single_cell(self):
        tp = TestPattern(state("1-"), None, read("i", 1))
        (element,) = realize_pattern_blocks(tp)
        assert [str(op) for op in element.ops] == ["w1", "r1"]

    def test_two_cell_aggressor_first(self):
        # CFid <up,0> with i aggressor: (01, w1i, r1j).
        tp = TestPattern(state("01"), write("i", 1), read("j", 1))
        elements = realize_pattern_blocks(tp)
        assert len(elements) == 2
        init, body = elements
        assert [str(op) for op in init.ops] == ["w1"]
        assert body.order is AddressOrder.UP  # i marches first
        assert [str(op) for op in body.ops] == ["r1", "w0", "w1"]

    def test_two_cell_j_aggressor_marches_down(self):
        tp = TestPattern(state("10"), write("j", 1), read("i", 1))
        _, body = realize_pattern_blocks(tp)
        assert body.order is AddressOrder.DOWN

    def test_retention_pattern_inserts_delay(self):
        tp = TestPattern(state("1-"), wait(), read("i", 1))
        elements = realize_pattern_blocks(tp)
        assert isinstance(elements[1], DelayElement)

    def test_same_cell_excite_observe_with_context(self):
        # ADF-style: (00, w1i, r1i) -- j supplies state context.
        tp = TestPattern(state("00"), write("i", 1), read("i", 1))
        elements = realize_pattern_blocks(tp)
        assert len(elements) == 2

    def test_realizations_verify_by_simulation(self):
        from repro.core.optimize import make_verifier
        from repro.faults import CouplingIdempotentFault, FaultList

        faults = FaultList([CouplingIdempotentFault(primitives=("up",))])
        classes = faults.classes()
        from repro.core.selection import enumerate_selections

        selection = next(enumerate_selections(classes, 1))
        test = sequential_march(selection.patterns)
        assert test is not None
        verify = make_verifier(faults.instances(2), 2)
        assert verify(test)


class TestSequentialMarch:
    def test_empty_patterns(self):
        assert sequential_march([]) is None

    def test_concatenates_with_guard_reads(self):
        tp1 = TestPattern(state("0-"), write("i", 1), read("i", 1))
        tp2 = TestPattern(state("1-"), write("i", 0), read("i", 0))
        test = sequential_march([tp1, tp2])
        # Block 1 (3 ops) + guarded block 2 (1 guard read + 3 ops).
        assert test.complexity == 7
        second = test.march_elements[1]
        assert second.ops[0].is_read  # the guard read
