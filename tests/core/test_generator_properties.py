"""Property-based end-to-end tests: the generator handles *arbitrary*
user-defined two-cell faults.

Hypothesis draws random single-deviation faulty machines (delta or
lambda BFEs); each becomes a :class:`GenericPairFault` whose simulator
instances are derived automatically.  The generated March test must
always be verified and non-trivial.  This is the strongest invariant of
the system: generation is sound for the whole unconstrained fault
space the paper's model covers, not just the named library models.
"""

from hypothesis import given, settings, strategies as st

from repro.core import GeneratorConfig, MarchTestGenerator
from repro.faults.bfe import delta_bfe, lambda_bfe
from repro.faults.faultlist import BFEClass, FaultList
from repro.faults.generic import GenericPairFault
from repro.kernel import SimulationKernel
from repro.memory.operations import read, write
from repro.memory.state import MemoryState

KERNEL = SimulationKernel()

concrete_states = st.sampled_from(
    [MemoryState.parse(a + b) for a in "01" for b in "01"]
)
cells = st.sampled_from(["i", "j"])
bits = st.sampled_from([0, 1])


@st.composite
def delta_bfes(draw):
    """A random genuine, observable delta deviation on a write."""
    state = draw(concrete_states)
    cell = draw(cells)
    value = draw(bits)
    op = write(cell, value)
    good = state.apply(op)
    # Choose a faulty next state differing from the good one.
    flip_i = draw(st.booleans())
    flip_j = draw(st.booleans())
    if not (flip_i or flip_j):
        flip_i = True
    faulty = good
    if flip_i:
        faulty = faulty.set("i", 1 - int(good["i"]))
    if flip_j:
        faulty = faulty.set("j", 1 - int(good["j"]))
    return delta_bfe(state, op, faulty, label="random-delta")


@st.composite
def lambda_bfes(draw):
    state = draw(concrete_states)
    cell = draw(cells)
    return lambda_bfe(state, read(cell), 1 - int(state[cell]),
                      label="random-lambda")


FAST = GeneratorConfig(
    selection_limit=8,
    polish=False,
    check_redundancy=False,
)


def _generate_for(bfe):
    model = GenericPairFault("RAND", [BFEClass("c0", (bfe,))])
    faults = FaultList([model])
    report = MarchTestGenerator(FAST).generate(faults)
    return faults, report


class TestArbitraryFaults:
    @given(delta_bfes())
    @settings(max_examples=25, deadline=None)
    def test_random_delta_faults_always_covered(self, bfe):
        faults, report = _generate_for(bfe)
        assert report.verified
        assert KERNEL.simulate_fault_list(report.test, faults, 3).complete
        assert 2 <= report.complexity <= 12

    @given(lambda_bfes())
    @settings(max_examples=15, deadline=None)
    def test_random_lambda_faults_always_covered(self, bfe):
        faults, report = _generate_for(bfe)
        assert report.verified
        assert KERNEL.simulate_fault_list(report.test, faults, 3).complete

    @given(st.lists(delta_bfes(), min_size=2, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_random_fault_lists_covered(self, bfes):
        classes = [
            BFEClass(f"c{k}", (bfe,)) for k, bfe in enumerate(bfes)
        ]
        model = GenericPairFault("RANDLIST", classes)
        faults = FaultList([model])
        report = MarchTestGenerator(FAST).generate(faults)
        assert report.verified
        assert KERNEL.simulate_fault_list(report.test, faults, 3).complete
