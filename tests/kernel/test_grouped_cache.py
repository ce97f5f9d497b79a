"""The group-keyed fault-dictionary cache and the coalesced lane plan.

:class:`FaultDictionaryCache` holds verdicts per ``(signature, size,
domain)`` group with per-group recency and a bound counted in
verdicts.  The properties below drive it with drawn sequences of
grouped and single-key puts and gets under small bounds and compare it
with a plain per-key model of the last verdict put: whatever it
returns is that verdict, it never holds more than its bound, its
counters add up, and it evicts exactly what it stopped holding.

The lane plan's address-decoder rules are one ``{target: mask}`` dict
per cell; the plan-shape test rebuilds them lane by lane from the
fault instances and checks they are the OR of every lane's mask.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.faults.faultlist import FaultList
from repro.faults.instances import (
    MultiCellAccessInstance,
    SharedCellAccessInstance,
    WrongCellAccessInstance,
)
from repro.kernel import FaultDictionaryCache, SimKey
from repro.simulator.bitengine import PackedSimulation

SIGNATURES = ("{up(w0)}", "{up(w0);dn(r0,w1)}")
SIZES = (3, 4)
DOMAINS = ("sp", "syn")
CASES = tuple(f"c{i}" for i in range(6))

groups_of = st.tuples(
    st.sampled_from(SIGNATURES),
    st.sampled_from(SIZES),
    st.sampled_from(DOMAINS),
)
keys = st.builds(
    SimKey,
    st.sampled_from(SIGNATURES),
    st.sampled_from(CASES),
    st.sampled_from(SIZES),
    st.sampled_from(DOMAINS),
)
verdicts = st.integers(0, 3)


@st.composite
def write_groups(draw):
    signature, size, domain = draw(groups_of)
    cases = draw(st.lists(st.sampled_from(CASES), min_size=1, max_size=5))
    values = draw(st.lists(verdicts, min_size=len(cases),
                           max_size=len(cases)))
    return (signature, size, domain, cases, values)


@st.composite
def lookup_groups(draw):
    signature, size, domain = draw(groups_of)
    return (signature, size, domain,
            draw(st.lists(st.sampled_from(CASES), max_size=6)))


operations = st.one_of(
    st.tuples(st.just("put_groups"), st.lists(write_groups(), max_size=3)),
    st.tuples(st.just("get_groups"), st.lists(lookup_groups(), max_size=3)),
    st.tuples(st.just("put"), keys, verdicts),
    st.tuples(st.just("get"), keys),
)


def _key(signature, size, domain, case):
    return SimKey(signature, case, size, domain)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.lists(operations, max_size=25))
def test_cache_agrees_with_a_per_key_model(bound, script):
    cache = FaultDictionaryCache(max_entries=bound)
    model = {}
    asked = 0
    for operation in script:
        op = operation[0]
        if op == "put_groups":
            cache.put_groups(operation[1])
            for signature, size, domain, cases, values in operation[1]:
                for case, value in zip(cases, values):
                    model[_key(signature, size, domain, case)] = value
        elif op == "put":
            _, key, value = operation
            cache.put(key, value)
            model[key] = value
        elif op == "get_groups":
            answers = cache.get_groups(operation[1])
            assert len(answers) == len(operation[1])
            for (signature, size, domain, cases), found in zip(
                operation[1], answers
            ):
                asked += len(cases)
                assert set(found) <= set(cases)
                for case, value in found.items():
                    assert value == model[_key(signature, size, domain, case)]
        else:
            _, key = operation
            asked += 1
            value = cache.get(key)
            assert value is None or value == model[key]
        assert len(cache) <= bound
        assert len(cache) == sum(key in cache for key in model)
        assert cache.stats.hits + cache.stats.misses == asked


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.tuples(keys, verdicts), max_size=30,
             unique_by=lambda pair: pair[0]),
    st.lists(st.integers(1, 4), min_size=1, max_size=10),
)
def test_evictions_are_the_verdicts_no_longer_held(bound, pairs, cuts):
    """Each key put once: every store is either held or evicted."""
    cache = FaultDictionaryCache(max_entries=bound)
    start = 0
    for cut in cuts * len(pairs):
        batch = pairs[start:start + cut]
        if not batch:
            break
        start += cut
        if len(batch) == 1:
            cache.put(*batch[0])
            continue
        groups = {}
        for key, value in batch:
            cases, values = groups.setdefault(
                (key.signature, key.size, key.domain), ([], [])
            )
            cases.append(key.case)
            values.append(value)
        cache.put_groups(
            [(*group, cases, values)
             for group, (cases, values) in groups.items()]
        )
    stats = cache.stats
    assert stats.stores == len(pairs)
    assert stats.evictions == stats.stores - len(cache)
    assert len(cache) == min(len(pairs), bound)


def test_eviction_drops_the_oldest_group_first():
    cache = FaultDictionaryCache(max_entries=4)
    cache.put_groups([("old", 3, "sp", ["a", "b"], [True, False])])
    cache.put_groups([("new", 3, "sp", ["a", "b"], [False, True])])
    # Touching "old" makes "new" the least recently used group.
    assert cache.get_groups([("old", 3, "sp", ["a"])]) == [{"a": True}]
    cache.put_groups([("third", 3, "sp", ["x"], [True])])
    assert SimKey("new", "a", 3) not in cache
    assert SimKey("new", "b", 3) in cache
    assert SimKey("old", "a", 3) in cache and SimKey("old", "b", 3) in cache
    assert cache.stats.evictions == 1


# -- the coalesced address-decoder plan ------------------------------------------


def expected_decoder_rules(cases, size):
    """The redirect/echo tables rebuilt lane by lane from the fault
    instances, in the lane order :class:`PackedSimulation` assigns."""
    tables = {
        name: [{} for _ in range(size)]
        for name in ("write_redirect", "write_echo", "read_redirect")
    }
    lane = 0
    for fault_case in cases:
        for factory in fault_case.variants:
            lane += 1
            instance = factory()
            if type(instance) is WrongCellAccessInstance:
                entries = [("write_redirect", instance.a, instance.b),
                           ("read_redirect", instance.a, instance.b)]
            elif type(instance) is SharedCellAccessInstance:
                entries = [("write_redirect", instance.b, instance.a),
                           ("read_redirect", instance.b, instance.a)]
            elif type(instance) is MultiCellAccessInstance:
                entries = [("write_echo", instance.a, instance.b)]
            else:
                entries = []
            for table, cell, target in entries:
                rules = tables[table][cell]
                rules[target] = rules.get(target, 0) | (1 << lane)
    return tables


@pytest.mark.parametrize("size", [3, 4, 16])
def test_decoder_rules_are_one_mask_per_target(size):
    cases = FaultList.from_names("SAF", "ADF", "CFIN").instances(size)
    plan = PackedSimulation(cases, size).plan
    expected = expected_decoder_rules(cases, size)
    for table, cells in expected.items():
        ours = getattr(plan, table)
        assert ours == cells, table
        for rules in ours:
            # One entry per target, and the masks of different targets
            # never share a lane.
            seen = 0
            for mask in rules.values():
                assert mask and not seen & mask
                seen |= mask
    assert any(any(rules) for rules in plan.write_echo)
