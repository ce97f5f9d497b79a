"""Tests for March elements and operations."""

import pickle

import pytest

from repro.march.element import (
    AddressOrder,
    DelayElement,
    MarchElement,
    MarchOp,
    element,
    parse_march_op,
    r0,
    r1,
    w0,
    w1,
)


class TestMarchOp:
    def test_constructors(self):
        assert str(w0()) == "w0"
        assert str(w1()) == "w1"
        assert str(r0()) == "r0"
        assert str(r1()) == "r1"

    def test_plain_read(self):
        op = MarchOp("r", None)
        assert str(op) == "r"
        assert op.is_read and not op.is_write

    def test_validation(self):
        with pytest.raises(ValueError):
            MarchOp("x", 0)
        with pytest.raises(ValueError):
            MarchOp("w", None)
        with pytest.raises(ValueError):
            MarchOp("r", 2)

    @pytest.mark.parametrize("text", ["w0", "w1", "r0", "r1", "r"])
    def test_parse_roundtrip(self, text):
        assert str(parse_march_op(text)) == text

    @pytest.mark.parametrize("bad", ["", "x0", "w"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_march_op(bad)


class TestAddressOrder:
    def test_symbols(self):
        assert AddressOrder.UP.symbol == "⇑"
        assert AddressOrder.DOWN.symbol == "⇓"
        assert AddressOrder.ANY.symbol == "⇕"

    def test_addresses(self):
        assert list(AddressOrder.UP.addresses(3)) == [0, 1, 2]
        assert list(AddressOrder.DOWN.addresses(3)) == [2, 1, 0]
        assert list(AddressOrder.ANY.addresses(2)) == [0, 1]


class TestMarchElement:
    def test_complexity(self):
        e = element("up", "r0", "w1")
        assert e.complexity == 2
        assert len(e) == 2

    def test_str(self):
        assert str(element("down", "r1", "w0")) == "⇓(r1,w0)"
        assert str(element("any", "w0")) == "⇕(w0)"

    def test_needs_ops(self):
        with pytest.raises(ValueError):
            MarchElement(AddressOrder.UP, ())

    def test_with_order(self):
        e = element("up", "r0")
        assert e.with_order(AddressOrder.DOWN).order is AddressOrder.DOWN

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            element("sideways", "r0")

    def test_hash_memo_is_not_pickled(self):
        # str and enum hashes differ between processes, so a cached
        # hash must not travel with a pickled element.
        e = MarchElement(AddressOrder.DOWN, (r0(), w1()))
        hash(e)
        restored = pickle.loads(pickle.dumps(e))
        assert "_hash" not in restored.__dict__
        assert restored == e and hash(restored) == hash(e)


class TestDelayElement:
    def test_complexity_zero(self):
        assert DelayElement().complexity == 0

    def test_str(self):
        assert str(DelayElement()) == "Del"
