"""The shared-prefix realization walk against the ``2**k`` enumeration.

``walk_realizations`` runs each segment of a march test once per tree
node, starts both branches of a ``⇕`` element from the same state words
and skips subtrees whose (step, words, prefix-detected) key it already
walked.  The reference is the enumeration it replaced: one bignum
``run_variant`` per ``concrete_order_variants()`` realization from an
empty memory.
The walk must produce the same set of leaf masks -- hence the same
AND, the same worst-case verdicts and the same first failing leaf --
on the bare bignum engine and through a
:class:`~repro.simulator.bitengine.TransitionTable`, whose walk must
also match the bare walk leaf for leaf.
"""

from functools import lru_cache, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.faultlist import FaultList
from repro.faults.library import MODEL_REGISTRY
from repro.march.catalog import CATALOG, MARCH_C_MINUS
from repro.march.element import (
    AddressOrder,
    DelayElement,
    MarchElement,
    MarchOp,
)
from repro.march.test import MarchTest, parse_march
from repro.simulator.bitengine import PackedSimulation, TransitionTable
from repro.simulator.ordertree import walk_realizations

MODELS = tuple(sorted(MODEL_REGISTRY))

ENGINES = {
    "bignum": PackedSimulation,
    "table": lambda cases, size: TransitionTable(
        PackedSimulation(cases, size)
    ),
}
ENGINE_PARAMS = sorted(ENGINES)

#: ``MarchOp("r", None)`` is a read that verifies nothing.
ops = st.sampled_from([
    MarchOp("w", 0), MarchOp("w", 1),
    MarchOp("r", 0), MarchOp("r", 1), MarchOp("r", None),
])


@st.composite
def any_order_tests(draw):
    """0-8 ``⇕`` elements shuffled among 0-3 UP/DOWN elements or
    ``Del``, with random read expectations (so malformed tests occur)."""
    any_count = draw(st.integers(min_value=0, max_value=8))
    fixed_count = draw(st.integers(min_value=0, max_value=3))
    fixed_count = max(fixed_count, 1 - any_count)
    kinds = draw(st.permutations(
        ["any"] * any_count + ["fixed"] * fixed_count
    ))
    elements = []
    for kind in kinds:
        if kind == "fixed" and draw(st.integers(0, 4)) == 0:
            elements.append(DelayElement())
            continue
        order = AddressOrder.ANY if kind == "any" else draw(
            st.sampled_from([AddressOrder.UP, AddressOrder.DOWN])
        )
        body = draw(st.lists(ops, min_size=1, max_size=3))
        elements.append(MarchElement(order, tuple(body)))
    return MarchTest(tuple(elements))


model_sets = st.one_of(
    st.just(MODELS),
    st.just(("SOF",)),
    st.just(("ADF", "CFIN", "CFID", "SOF")),
    st.lists(
        st.sampled_from(MODELS), min_size=1, max_size=4, unique=True
    ).map(tuple),
)


@lru_cache(maxsize=None)
def simulation(engine, models, size):
    cases = FaultList.from_names(*models).instances(size)
    return ENGINES[engine](cases, size)


def enumerated_leaves(sim, test):
    return [
        sim.run_variant(variant)[1]
        for variant in test.concrete_order_variants()
    ]


def walked_leaves(sim, test):
    leaves = []
    walk = walk_realizations(sim, test, leaves.append)
    assert not walk.stopped
    assert walk.leaves == len(leaves)
    return leaves, walk


#: Eight ⇕ elements (256 realizations), a ``Del`` and unverified reads.
DEEP = parse_march(
    "{any(w0); any(r0,w1); any(r1,r); Del; any(r1,w0); any(r0,w1);"
    " any(r,w0); any(r0,w1,r1); any(r1)}"
)


@given(
    test=any_order_tests(),
    models=model_sets,
    size=st.sampled_from((2, 3, 4)),
)
@example(test=DEEP, models=MODELS, size=4)
@example(test=DEEP, models=("ADF", "CFIN", "CFID", "SOF"), size=2)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_bignum_walk_matches_the_enumeration(test, models, size):
    sim = simulation("bignum", models, size)
    reference = enumerated_leaves(sim, test)
    leaves, walk = walked_leaves(sim, test)
    # Merging only skips repeats, so every leaf value still shows up.
    assert set(leaves) == set(reference), (str(test), models, size)
    assert reduce(int.__and__, leaves) == reduce(int.__and__, reference)
    assert walk.leaves <= len(reference)
    # The walk is depth-first with UP first: its first leaf is the
    # all-UP realization, the first one a caller would reject on.
    assert leaves[0] == reference[0]
    stopped = walk_realizations(sim, test, lambda d: True)
    assert stopped == (True, 1, len(test.order_segments()))


@given(
    tests=st.lists(any_order_tests(), min_size=2, max_size=6),
    models=model_sets,
    size=st.sampled_from((2, 3, 4)),
)
@example(tests=[DEEP, MARCH_C_MINUS], models=MODELS, size=4)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_table_walk_matches_the_bare_walk(tests, models, size):
    # Per-lane equality, leaf for leaf and in walk order.  One table
    # walks the whole stream, so later walks step through transitions
    # that earlier ones stored: a table key that forgot a state field
    # would hand a state another state's successor, and the masks would
    # part even where no verdict flips.
    bare = simulation("bignum", models, size)
    table = TransitionTable(bare)
    for test in tests:
        leaves, walk = walked_leaves(table, test)
        assert (leaves, walk) == walked_leaves(bare, test), (
            str(test), models, size
        )


@pytest.mark.parametrize("engine", ENGINE_PARAMS)
def test_a_test_without_any_element_is_one_plain_run(engine):
    test = MarchTest((
        MarchElement(AddressOrder.UP, (MarchOp("w", 0),)),
        DelayElement(),
        MarchElement(AddressOrder.DOWN, (MarchOp("r", 0),)),
    ))
    assert test.order_segments() == ((test,),)
    sim = simulation(engine, MODELS, 3)
    leaves, walk = walked_leaves(sim, test)
    assert walk == (False, 1, 1)
    assert leaves == enumerated_leaves(sim, test)


def never(detected):
    """A ``visit`` that walks every leaf."""
    return False


#: One ⇕ element, then a read: the walk's one fork and merge point.
FORK = parse_march("{any(w0); up(r0)}")


class ForkedEngine:
    """``engine`` whose run of ``FORK``'s DOWN branch ends in ``down``.

    The walk runs the UP branch, its read, then the DOWN branch."""

    def __init__(self, engine, down):
        self.engine = engine
        self.down = down
        self.power_up = engine.power_up
        self.calls = 0

    def run_variant(self, test, words=None):
        self.calls += 1
        if self.calls == 3:
            return self.down
        return self.engine.run_variant(test, words)


@pytest.mark.parametrize("engine", ENGINE_PARAMS)
def test_state_keys_cover_every_field(engine):
    # Equal keys must mean equal suffixes, so every state word and the
    # prefix-detected mask has to reach the key: a DOWN branch that
    # ends one word or one detected bit away from the UP branch is
    # walked, not merged.
    sim = simulation(engine, ("SOF",), 2)
    up = sim.run_variant(FORK.order_segments()[0][0])
    merged = walk_realizations(ForkedEngine(sim, up), FORK, never)
    assert merged == (False, 1, 3)
    words, detected = up
    assert len(words) == 2 * 2 + 1  # value words, defined words, latch
    downs = [(words, detected ^ 2)] + [
        (words[:index] + (words[index] ^ 2,) + words[index + 1:], detected)
        for index in range(len(words))
    ]
    for down in downs:
        walk = walk_realizations(ForkedEngine(sim, down), FORK, never)
        assert walk == (False, 2, 4), down


class CountingSimulation(PackedSimulation):
    """Records the elements of every segment it runs."""

    def __init__(self, cases, size):
        super().__init__(cases, size)
        self.runs = []

    def run_variant(self, test, words=None):
        self.runs.append(len(test.elements))
        return super().run_variant(test, words)


def test_march_c_minus_states_merge():
    # 4 realizations x 6 elements when every realization starts from
    # an empty memory; ⇕(w0) leaves one state whichever way it runs.
    sim = CountingSimulation(FaultList.from_names(*MODELS).instances(4), 4)
    reference = enumerated_leaves(sim, MARCH_C_MINUS)
    assert sum(sim.runs) == 4 * 6
    sim.runs.clear()
    leaves, walk = walked_leaves(sim, MARCH_C_MINUS)
    assert walk.segments == len(sim.runs)
    assert sum(sim.runs) < 4 * 6
    assert walk.leaves < 4
    assert reduce(int.__and__, leaves) == reduce(int.__and__, reference)


class TrackingSimulation(PackedSimulation):
    """Records the start and end words of every run, by identity."""

    def __init__(self, cases, size):
        super().__init__(cases, size)
        self.runs = []

    def run_variant(self, test, words=None):
        ended = super().run_variant(test, words)
        start = self.power_up if words is None else words
        self.runs.append((start, ended[0]))
        return ended


def most_pending(runs, power_up):
    """The most states a walk holds for later at once: before each run,
    the reached states (power-up included) that it or a later run
    starts from."""
    last_start = {id(start): index for index, (start, _) in enumerate(runs)}
    reached = {id(power_up)}
    most = 0
    for index, (_, end) in enumerate(runs):
        pending = sum(last_start.get(state, -1) >= index for state in reached)
        most = max(most, pending)
        reached.add(id(end))
    return most


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_walk_holds_one_state_per_any_element_plus_one(name):
    # At large sizes the walk's memory is the states it must come back
    # to; the enumeration it replaced held one at a time.  Depth-first,
    # that is the start of each pending DOWN branch plus the current one.
    test = CATALOG[name]
    any_count = len(test.concrete_order_variants()).bit_length() - 1
    sim = TrackingSimulation(FaultList.from_names("SAF", "TF").instances(3), 3)
    walk_realizations(sim, test, never)
    assert 1 <= most_pending(sim.runs, sim.power_up) <= any_count + 1
