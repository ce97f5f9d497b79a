"""The coalesced lane plan against the per-lane engine it replaced.

:class:`~repro.simulator.bitengine.PackedSimulation` merges the rule
entries of all lanes in one role of a cell into one mask, and carries
every two-cell lane's victim cell in lane words during a run.
``lane_reference.LaneReferenceSimulation`` is the engine before
coalescing, one rule entry per lane, walking its victims and sources
cell by cell.  Both encode the same lanes in the same order, so
stepping a march test one element at a time must give equal detected
masks and equal state words after every element -- from power-up and
from an arbitrary state.  That is
the property :class:`~repro.simulator.bitengine.TransitionTable` and
the minimality search rely on: a step is a function of the state
words and the element alone.
"""

import random
from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from lane_reference import LaneReferenceSimulation
from repro.faults.faultlist import FaultList
from repro.faults.instances import CouplingStateInstance, case
from repro.faults.library import MODEL_REGISTRY
from repro.march.element import (
    AddressOrder,
    DelayElement,
    MarchElement,
    MarchOp,
)
from repro.march.test import MarchTest, parse_march
from repro.simulator.bitengine import PackedSimulation

MODELS = tuple(sorted(MODEL_REGISTRY))

#: ADF (B, D and C with every read model), CFst's two tables, the SOF
#: latch and DRF's ``Del`` rules in one lane set.
MIXED = ("ADF", "CFST", "SOF", "DRF")

#: ``MarchOp("r", None)`` is a read that verifies nothing.
ops = st.sampled_from([
    MarchOp("w", 0), MarchOp("w", 1),
    MarchOp("r", 0), MarchOp("r", 1), MarchOp("r", None),
])

elements = st.one_of(
    st.builds(DelayElement),
    st.builds(
        MarchElement,
        st.sampled_from([AddressOrder.UP, AddressOrder.DOWN, AddressOrder.ANY]),
        st.lists(ops, min_size=1, max_size=4).map(tuple),
    ),
)

march_tests = st.lists(elements, min_size=1, max_size=7).map(
    lambda drawn: MarchTest(tuple(drawn))
)

#: The coverage sweep's twelve base models, whose size-16 plan carries
#: 4,129 lanes with 15 neighbours per cell.
SWEEP = (
    "SAF", "TF", "ADF", "CFIN", "CFID", "CFST", "RDF", "DRDF", "IRF",
    "WDF", "DRF", "SOF",
)

model_sets = st.one_of(
    st.just(MIXED),
    st.lists(
        st.sampled_from(MODELS), min_size=1, max_size=4, unique=True
    ).map(tuple),
)


@lru_cache(maxsize=None)
def engines(models, size):
    cases = FaultList.from_names(*models).instances(size)
    return PackedSimulation(cases, size), LaneReferenceSimulation(cases, size)


@given(
    test=march_tests,
    models=model_sets,
    size=st.integers(min_value=2, max_value=8),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    realization=st.integers(min_value=0, max_value=127),
)
@example(
    test=parse_march(
        "{any(w0); up(r0,w1); Del; down(r1,r,w0); any(r0,w1,r1); Del;"
        " down(r1)}"
    ),
    models=MIXED, size=5, seed=None, realization=1,
)
@example(
    test=parse_march("{up(w1); down(r1,w0,r0,w1); up(r,w0); Del; up(r0)}"),
    models=MIXED, size=8, seed=7, realization=0,
)
@example(
    test=parse_march(
        "{any(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1,w0); any(r0)}"
    ),
    models=SWEEP, size=16, seed=None, realization=3,
)
@example(
    test=parse_march(
        "{up(w1); Del; down(r1,w0,r0,w1); any(r,w0,w1); up(r1,w0); Del;"
        " down(r0)}"
    ),
    models=SWEEP, size=16, seed=11, realization=1,
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_every_element_steps_like_the_lane_oracle(
    test, models, size, seed, realization
):
    packed, reference = engines(models, size)
    assert packed.lanes == reference.lanes
    variants = test.concrete_order_variants()
    variant = variants[realization % len(variants)]
    assert packed.power_up == reference.power_up
    words = packed.power_up
    if seed is not None:
        rng = random.Random(seed)
        words = tuple(
            rng.getrandbits(packed.lanes) for _ in range(2 * size + 1)
        )
    for element in variant.elements:
        step = MarchTest((element,))
        ours = packed.run_variant(step, words)
        # Both the detected mask and the words after every element.
        assert ours == reference.run_variant(step, words), str(element)
        words = ours[0]
    assert packed.run_variant(variant) == reference.run_variant(variant)


def test_a_cfst_hold_alone_reaches_the_end_words():
    """A run whose only two-cell effect is a CFst hold -- the aggressor
    holds its state from the start words and the run writes no held
    state to it -- still folds the held victim into its end words."""
    cases = [case("cfst", lambda: CouplingStateInstance(0, 1, 1, 1))]
    packed = PackedSimulation(cases, 2)
    reference = LaneReferenceSimulation(cases, 2)
    # Lane 1's aggressor (cell 0) holds a definite 1; ⇓(w0) writes the
    # victim (cell 1) first, then a 0 to the aggressor.
    words = (0b10, 0, 0b10, 0, 0)
    step = parse_march("{down(w0)}")
    ours = packed.run_variant(step, words)
    assert ours == reference.run_variant(step, words)
    assert ours == ((0, 0b10, 0b11, 0b11, 0), 0)
