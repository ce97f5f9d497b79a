"""Tests for the simulation-checked optimizer."""

import sys

import pytest

from repro.core.optimize import (
    canonicalize_orders,
    make_verifier,
    optimize,
    tighten,
)
from repro.faults import FaultList
from repro.march.catalog import MARCH_B, MARCH_C, MARCH_C_MINUS, MATS
from repro.march.element import AddressOrder
from repro.march.test import parse_march


@pytest.fixture(scope="module")
def saf_verifier():
    faults = FaultList.from_names("SAF")
    return make_verifier(faults.instances(2), 2)


class TestVerifier:
    def test_accepts_covering_test(self, saf_verifier):
        assert saf_verifier(MATS)

    def test_rejects_malformed(self, saf_verifier):
        assert not saf_verifier(parse_march("{any(w0); any(r1)}"))

    def test_rejects_non_covering(self, saf_verifier):
        assert not saf_verifier(parse_march("{any(w0); any(r0)}"))


class TestTighten:
    def test_removes_padding(self, saf_verifier):
        padded = parse_march("{any(w0); any(r0); any(w0); any(w1); any(r1)}")
        slim = tighten(padded, saf_verifier)
        assert slim.complexity == 4
        assert saf_verifier(slim)

    def test_march_c_loses_redundant_read(self):
        # The optimizer rediscovers March C- from March C.
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        verify = make_verifier(faults.instances(2), 2)
        slim = tighten(MARCH_C, verify)
        assert slim.complexity == MARCH_C_MINUS.complexity == 10

    def test_already_minimal_unchanged(self, saf_verifier):
        assert tighten(MATS, saf_verifier).complexity == MATS.complexity

    @pytest.mark.parametrize("start, names", [
        (MARCH_C, ("SAF", "TF", "ADF", "CFIN", "CFID")),
        (MARCH_B, ("SAF", "TF")),
        (parse_march("{any(r0); any(w0); Del; any(r0,w1); any(r1)}"), ("SAF",)),
    ])
    def test_builds_only_the_candidates_it_verifies(
        self, monkeypatch, start, names
    ):
        # The moves are sorted before any candidate exists, so every
        # candidate built is verified, except the malformed ones.
        module = sys.modules["repro.core.optimize"]
        normalize = module.normalize_expectations
        built, verified = [], []

        def counted_normalize(test):
            out = normalize(test)
            if out is not None:
                built.append(out)
            return out

        monkeypatch.setattr(module, "normalize_expectations", counted_normalize)
        verify = make_verifier(FaultList.from_names(*names).instances(2), 2)

        def counted_verify(test):
            verified.append(test)
            return verify(test)

        slim = tighten(start, counted_verify)
        assert slim.complexity < start.complexity
        assert built == verified

    def test_shared_memo_stops_at_a_visited_test(self):
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        verify = make_verifier(faults.instances(2), 2)
        memo = {}
        slim = tighten(MARCH_C, verify, memo)
        assert memo[MARCH_C] == memo[slim] == slim
        calls = []
        assert tighten(MARCH_C, lambda t: calls.append(t), memo) == slim
        assert calls == []


class TestCanonicalize:
    def test_relaxes_order_insensitive_elements(self, saf_verifier):
        concrete = parse_march("{up(w0); up(r0,w1); up(r1)}")
        relaxed = canonicalize_orders(concrete, saf_verifier)
        assert all(
            e.order is AddressOrder.ANY for e in relaxed.march_elements
        )

    def test_keeps_load_bearing_orders(self):
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        verify = make_verifier(faults.instances(2), 2)
        relaxed = canonicalize_orders(MARCH_C_MINUS, verify)
        orders = [e.order for e in relaxed.march_elements]
        # March C- needs its up/down structure for coupling faults.
        assert AddressOrder.UP in orders or AddressOrder.DOWN in orders

    def test_optimize_composes(self, saf_verifier):
        padded = parse_march("{up(w0); up(r0); up(w1); up(r1); up(r1)}")
        out = optimize(padded, saf_verifier)
        assert out.complexity == 4
        assert saf_verifier(out)
