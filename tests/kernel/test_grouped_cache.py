"""The group-keyed fault-dictionary cache and the coalesced lane plan.

:class:`FaultDictionaryCache` holds verdicts per ``(signature, size,
domain)`` group with per-group recency and a bound counted in
verdicts.  The properties below drive it with drawn sequences of
grouped and single-key puts and gets under small bounds and compare it
with a plain per-key model of the last verdict put: whatever it
returns is that verdict, it never holds more than its bound, its
counters add up, and it evicts exactly what it stopped holding.

The lane plan's neighbour tables hold one entry of role masks per
(cell, target) pair; the plan-shape test rebuilds them lane by lane
from the fault instances and checks they are the OR of every lane's
mask.
"""

from functools import reduce
from operator import or_

from hypothesis import given, settings, strategies as st

import pytest

from repro.faults.faultlist import FaultList
from repro.faults.instances import (
    CouplingIdempotentInstance,
    CouplingInversionInstance,
    CouplingStateInstance,
    MultiCellAccessInstance,
    ReadCouplingInstance,
    SharedCellAccessInstance,
    WrongCellAccessInstance,
)
from repro.faults.library import MODEL_REGISTRY
from repro.kernel import FaultDictionaryCache, SimKey
from repro.simulator.bitengine import (
    AND,
    FORCE0,
    FORCE1,
    OR,
    OTHER,
    OWN,
    TRANSIT_FORCE0,
    TRANSIT_FORCE1,
    TRANSIT_INVERT,
    PackedSimulation,
)

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


# -- the coalesced lane plan ----------------------------------------------------

#: Every neighbour table of the plan, with its number of roles.
NEIGHBOUR_TABLES = {
    "write_fanout[0]": 5,
    "write_fanout[1]": 5,
    "cfst_victim": 4,
    "read_sources": 4,
    "cf_read": 2,
}

READ_ROLES = {"other": OTHER, "own": OWN, "and": AND, "or": OR}


def neighbour_entries(instance):
    """``(table, cell, target, role)`` of each mask bit ``instance``'s
    lane sets in the plan's neighbour tables."""
    kind = type(instance)
    if kind in (WrongCellAccessInstance, SharedCellAccessInstance):
        # ADF-B: accesses to a land on b; ADF-D: accesses to b land on a.
        cell, target = (
            (instance.a, instance.b) if kind is WrongCellAccessInstance
            else (instance.b, instance.a)
        )
        return [("write_fanout[1]", cell, target, FORCE1),
                ("write_fanout[0]", cell, target, FORCE0),
                ("read_sources", cell, target, OTHER)]
    if kind is MultiCellAccessInstance:
        return [("write_fanout[1]", instance.a, instance.b, FORCE1),
                ("write_fanout[0]", instance.a, instance.b, FORCE0),
                ("read_sources", instance.a, instance.b,
                 READ_ROLES[instance.read_model])]
    if kind is CouplingIdempotentInstance:
        role = TRANSIT_FORCE1 if instance.force_value else TRANSIT_FORCE0
        return [(f"write_fanout[{int(instance.rising)}]",
                 instance.aggressor, instance.victim, role)]
    if kind is CouplingInversionInstance:
        return [(f"write_fanout[{int(instance.rising)}]",
                 instance.aggressor, instance.victim, TRANSIT_INVERT)]
    if kind is CouplingStateInstance:
        return [(f"write_fanout[{instance.agg_state}]", instance.aggressor,
                 instance.victim,
                 FORCE1 if instance.forced_value else FORCE0),
                ("cfst_victim", instance.victim, instance.aggressor,
                 2 * instance.agg_state + instance.forced_value)]
    if kind is ReadCouplingInstance:
        return [("cf_read", instance.aggressor, instance.victim,
                 FORCE1 if instance.forced else FORCE0)]
    return []


def expected_neighbour_tables(cases, size):
    """The neighbour tables rebuilt lane by lane from the fault
    instances, in the lane order :class:`PackedSimulation` assigns."""
    tables = {name: [{} for _ in range(size)] for name in NEIGHBOUR_TABLES}
    lane = 0
    for fault_case in cases:
        for factory in fault_case.variants:
            lane += 1
            for table, cell, target, role in neighbour_entries(factory()):
                masks = tables[table][cell].setdefault(
                    target, [0] * NEIGHBOUR_TABLES[table]
                )
                masks[role] |= 1 << lane
    return tables


def plan_tables(plan):
    return {
        "write_fanout[0]": plan.write_fanout[0],
        "write_fanout[1]": plan.write_fanout[1],
        "cfst_victim": plan.cfst_victim,
        "read_sources": plan.read_sources,
        "cf_read": plan.cf_read,
    }


@pytest.mark.parametrize("size", [3, 4, 16])
def test_lane_plan_is_one_entry_per_target(size):
    cases = FaultList.from_names(*MODEL_REGISTRY).instances(size)
    plan = PackedSimulation(cases, size).plan
    expected = expected_neighbour_tables(cases, size)
    ours = plan_tables(plan)
    for table, cells in expected.items():
        # Equal dicts: one entry per (cell, target) pair an instance
        # names, and each role mask the OR of its lanes' bits.
        assert ours[table] == cells, table
        for entries in ours[table]:
            for role in range(NEIGHBOUR_TABLES[table]):
                # Within a role, different targets never share a lane.
                seen = 0
                for masks in entries.values():
                    assert not seen & masks[role]
                    seen |= masks[role]
            for masks in entries.values():
                assert any(masks)
        assert any(cells), table
    for cell, entries in enumerate(plan.read_sources):
        routed = [mask for masks in entries.values() for mask in masks]
        assert plan.read_routed[cell] == reduce(or_, routed, 0)
