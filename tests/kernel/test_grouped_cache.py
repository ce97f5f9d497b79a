"""The group-keyed fault-dictionary cache and the coalesced lane plan.

:class:`FaultDictionaryCache` holds verdicts per ``(signature, size,
domain)`` group with per-group recency and a bound counted in
verdicts.  The properties below drive it with drawn sequences of
grouped and single-key puts and gets under small bounds and compare it
with a plain per-key model of the last verdict put: whatever it
returns is that verdict, it never holds more than its bound, its
counters add up, and it evicts exactly what it stopped holding.

The lane plan holds one mask per role of each cell; the plan-shape
test rebuilds them lane by lane from the fault instances, checks they
are the OR of every lane's bit and that each two-cell lane has one
aggressor and one victim cell.
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
from repro.simulator import bitengine
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
    LanePlan,
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

#: Every per-cell role list of the plan, with its number of roles.
ROLE_TABLES = {
    "fanout[0]": 5,
    "fanout[1]": 5,
    "hold": 4,
    "read_source": 4,
    "read_force": 2,
}

READ_ROLES = {"other": OTHER, "own": OWN, "and": AND, "or": OR}


def lane_roles(instance):
    """``(aggressor, victim, [(table, cell, role), ...])`` of a two-cell
    instance's lane, ``None`` for a single-cell one."""
    kind = type(instance)
    if kind in (WrongCellAccessInstance, SharedCellAccessInstance):
        # ADF-B: accesses to a land on b; ADF-D: accesses to b land on a.
        cell, target = (
            (instance.a, instance.b) if kind is WrongCellAccessInstance
            else (instance.b, instance.a)
        )
        return cell, target, [("fanout[1]", cell, FORCE1),
                              ("fanout[0]", cell, FORCE0),
                              ("read_source", cell, OTHER)]
    if kind is MultiCellAccessInstance:
        return instance.a, instance.b, [
            ("fanout[1]", instance.a, FORCE1),
            ("fanout[0]", instance.a, FORCE0),
            ("read_source", instance.a, READ_ROLES[instance.read_model]),
        ]
    if kind is CouplingIdempotentInstance:
        role = TRANSIT_FORCE1 if instance.force_value else TRANSIT_FORCE0
        return instance.aggressor, instance.victim, [
            (f"fanout[{int(instance.rising)}]", instance.aggressor, role)
        ]
    if kind is CouplingInversionInstance:
        return instance.aggressor, instance.victim, [
            (f"fanout[{int(instance.rising)}]", instance.aggressor,
             TRANSIT_INVERT)
        ]
    if kind is CouplingStateInstance:
        return instance.aggressor, instance.victim, [
            (f"fanout[{instance.agg_state}]", instance.aggressor,
             FORCE1 if instance.forced_value else FORCE0),
            ("hold", instance.victim,
             2 * instance.agg_state + instance.forced_value),
        ]
    if kind is ReadCouplingInstance:
        return instance.aggressor, instance.victim, [
            ("read_force", instance.aggressor,
             FORCE1 if instance.forced else FORCE0)
        ]
    return None


def expected_plan(cases, size):
    """The per-cell masks rebuilt lane by lane from the fault
    instances, in the lane order :class:`PackedSimulation` assigns."""
    tables = {
        name: [[0] * roles for _ in range(size)]
        for name, roles in ROLE_TABLES.items()
    }
    cells = {name: [0] * size
             for name in ("aggressor", "victim", "cfst_aggressor")}
    lane = 0
    for fault_case in cases:
        for factory in fault_case.variants:
            lane += 1
            instance = factory()
            roles = lane_roles(instance)
            if roles is None:
                continue
            aggressor, victim, entries = roles
            cells["aggressor"][aggressor] |= 1 << lane
            cells["victim"][victim] |= 1 << lane
            if type(instance) is CouplingStateInstance:
                cells["cfst_aggressor"][aggressor] |= 1 << lane
            for table, cell, role in entries:
                tables[table][cell][role] |= 1 << lane
    return tables, cells, lane


def plan_tables(plan):
    return {
        "fanout[0]": plan.fanout[0],
        "fanout[1]": plan.fanout[1],
        "hold": plan.hold,
        "read_source": plan.read_source,
        "read_force": plan.read_force,
    }


@pytest.mark.parametrize("size", [3, 4, 16])
def test_lane_plan_is_one_mask_per_cell_role(size):
    cases = FaultList.from_names(*MODEL_REGISTRY).instances(size)
    plan = PackedSimulation(cases, size).plan
    tables, cells, lanes = expected_plan(cases, size)
    assert plan.lanes == lanes + 1
    # Each role mask of a cell is the OR of its lanes' bits, whichever
    # neighbour a lane's other cell is.
    for table, masks in plan_tables(plan).items():
        assert masks == tables[table], table
        assert any(map(any, masks)), table
    for name, masks in cells.items():
        assert getattr(plan, name) == masks, name
    assert plan.read_routed == [reduce(or_, roles) for roles in
                                plan.read_source]
    # Each two-cell lane sits in exactly one aggressor mask and one
    # victim mask, never both of one cell.
    paired = reduce(or_, plan.aggressor)
    assert paired == reduce(or_, plan.victim)
    for lane in range(1, plan.lanes):
        bit = 1 << lane
        if paired & bit:
            assert sum(bool(mask & bit) for mask in plan.aggressor) == 1
            assert sum(bool(mask & bit) for mask in plan.victim) == 1
    for cell in range(size):
        assert not plan.aggressor[cell] & plan.victim[cell]
        # A role mask holds only the lanes the cell triggers (fan-out,
        # read source, CFrd) or those it is the victim of (CFst hold).
        for table in ("fanout[0]", "fanout[1]", "read_source",
                      "read_force"):
            for mask in plan_tables(plan)[table][cell]:
                assert not mask & ~plan.aggressor[cell], table
        for mask in plan.hold[cell]:
            assert not mask & ~plan.victim[cell]


def test_plan_refuses_a_lane_under_a_second_cell(monkeypatch):
    plan = LanePlan(4, 3)
    plan.pair(0, 1, 0b10)
    plan.pair(0, 1, 0b10)  # one lane may take several roles of one pair
    plan.pair(2, 3, 0b100)
    plan.check_pairs()
    for aggressor, victim, role in ((0, 2, "victim"), (3, 1, "aggressor"),
                                    (1, 0, "aggressor")):
        plan = LanePlan(4, 3)
        plan.pair(0, 1, 0b10)
        plan.pair(aggressor, victim, 0b10)
        with pytest.raises(ValueError, match=f"a second {role} cell"):
            plan.check_pairs()
    plan = LanePlan(4, 3)
    plan.pair(2, 2, 0b100)
    with pytest.raises(ValueError, match="both aggressor and victim"):
        plan.check_pairs()

    # An encoder that also registers its lane under a second victim cell
    # (a three-cell fault) fails the plan build instead of simulating it.
    encode = bitengine._ENCODERS[CouplingIdempotentInstance]

    def three_cells(instance, plan, mask):
        encode(instance, plan, mask)
        other = next(cell for cell in range(plan.size)
                     if cell not in (instance.aggressor, instance.victim))
        plan.pair(instance.aggressor, other, mask)

    monkeypatch.setitem(
        bitengine._ENCODERS, CouplingIdempotentInstance, three_cells
    )
    cases = FaultList.from_names("CFID").instances(3)
    with pytest.raises(ValueError, match="a second victim cell"):
        PackedSimulation(cases, 3)
