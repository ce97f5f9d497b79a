"""Oracle properties of the stepped minimality search.

On the lane-packed backend ``exhaustive_search`` does not call the
verifier per candidate: it carries the packed verifier's node (state
words, detected mask) down the grammar tree, steps it once per tree
edge, and counts a subtree it already walked dead again from its memo.
The oracle is the same verifier seen as a plain predicate, which the
search calls once per candidate from power-up, and, without a budget,
the serial reference verifier.  Every observable of a search must
agree: the witness, every ``SearchStats`` counter but
``subtrees_reused``, and the verifier's ``VerifyStats``.
"""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exhaustive import SearchStats, exhaustive_search
from repro.faults.faultlist import FaultList
from repro.faults.instances import case
from repro.kernel import SimulationKernel
from repro.kernel.kernel import PackedVerifier
from repro.memory.array import NullFaultInstance
from repro.telemetry import Telemetry

MODELS = (
    "SAF", "TF", "ADF", "CFIN", "CFID", "CFST", "RDF", "DRDF", "IRF", "WDF",
    "SOF",
)

model_lists = st.lists(
    st.sampled_from(MODELS), min_size=1, max_size=3, unique=True
).map(tuple)

#: 1 and 2 stop at the first candidates; the rest cut bounds anywhere,
#: up to past the whole grammar below 8n at ``max_elements`` 3.
budgets = st.one_of(st.sampled_from([1, 2]), st.integers(3, 4000))


class StuckRead(NullFaultInstance):
    """A fault type the packed engine cannot encode: reads of ``cell``
    always report ``value``."""

    def __init__(self, cell: int, value: int) -> None:
        self.cell = cell
        self.value = value

    def on_read(self, memory, address):
        if address == self.cell:
            return self.value
        return memory.raw[address]


@lru_cache(maxsize=None)
def fault_cases(models, size, custom=False):
    cases = tuple(FaultList.from_names(*models).instances(size))
    if custom:
        cases += (case("stuck read0@0", lambda: StuckRead(0, 0)),)
    return cases


def search(verify, bound, max_elements, budget):
    """``(outcome, witness, subtrees reused)``: the outcome is the
    witness string and every ``SearchStats`` counter but the reuse
    count, which a per-candidate search leaves at 0."""
    stats = SearchStats()
    found = exhaustive_search(
        verify, max_complexity=bound, max_elements=max_elements,
        budget=budget, stats=stats,
    )
    reused, stats.subtrees_reused = stats.subtrees_reused, 0
    return (found and str(found), stats), found, reused


def verify_counts(kernel):
    stats = kernel.verify_stats
    return (
        stats.calls, stats.accepted.value, stats.realizations.value,
        stats.segments.value, stats.table_misses.value,
    )


def assert_serial_witness(found, models, custom):
    """The witness passes the serial verifier at the search's size 2.
    At size 3 the serial and packed verifiers agree on it, but need not
    accept it: ADF+SOF's first 6n witness at size 2,
    ``{⇑(w0); ⇑(r0,w1); ⇓(r1,w0); ⇑(r0)}``, misses SOF at size 3."""
    cases = fault_cases(models, 2, custom)
    assert SimulationKernel(backend="serial").verifier(cases, 2)(found)
    cases = fault_cases(models, 3, custom)
    assert SimulationKernel(backend="serial").verifier(cases, 3)(
        found
    ) == SimulationKernel(backend="bitparallel").verifier(cases, 3)(found)


@given(
    models=model_lists,
    custom=st.booleans(),
    bound=st.integers(2, 8),
    max_elements=st.integers(3, 7),
    budget=budgets,
)
# The budget ends inside a subtree the memo holds as dead: 14 of its 36
# candidates, 6 of 10, and 1 of 2.  The search must walk it, not add
# it whole (adding it read more nodes expanded than the tree walk).
@example(("SAF", "TF"), False, 6, 4, 188)
@example(("CFIN",), False, 8, 7, 188)
@example(("TF", "ADF"), False, 8, 5, 77)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_stepped_search_matches_the_per_candidate_search(
    models, custom, bound, max_elements, budget
):
    cases = fault_cases(models, 2, custom)
    stepped_kernel = SimulationKernel(backend="bitparallel")
    stepped = stepped_kernel.verifier(cases, 2)
    assert isinstance(stepped, PackedVerifier)
    plain_kernel = SimulationKernel(backend="bitparallel")
    plain = plain_kernel.verifier(cases, 2)

    outcome, found, reused = search(stepped, bound, max_elements, budget)
    assert outcome == search(
        lambda test: plain(test), bound, max_elements, budget
    )[0], (models, custom)
    # The same calls, realizations and segments, and the same engine
    # runs: the stepped search runs no (state, element) pair that a
    # per-candidate verifier would not.
    assert verify_counts(stepped_kernel) == verify_counts(plain_kernel)
    if custom:
        # The unpackable case is decided per candidate.
        assert reused == 0
    if found is not None:
        assert_serial_witness(found, models, custom)


@pytest.mark.parametrize("variant", ["scalar case", "telemetry"])
def test_no_subtree_is_reused_when_a_candidate_needs_more_than_its_node(
    variant
):
    # With a scalar case each candidate is also checked off the node;
    # under telemetry each candidate is one ``kernel.verify`` span.
    models, bound, max_elements, budget = ("SAF", "TF"), 6, 4, 188
    packed = SimulationKernel(backend="bitparallel").verifier(
        fault_cases(models, 2), 2
    )
    outcome, _, reused = search(packed, bound, max_elements, budget)
    assert reused > 0
    if variant == "scalar case":
        kernel = SimulationKernel(backend="bitparallel")
        cases = fault_cases(models, 2, custom=True)
    else:
        kernel = SimulationKernel(
            backend="bitparallel", telemetry=Telemetry()
        )
        cases = fault_cases(models, 2)
    verify = kernel.verifier(cases, 2)
    assert not verify.node_decides
    other, _, reused = search(verify, bound, max_elements, budget)
    assert reused == 0
    if variant == "telemetry":
        assert other == outcome


@given(
    models=model_lists,
    bound=st.integers(2, 6),
    max_elements=st.integers(3, 7),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_unbudgeted_stepped_search_matches_the_serial_verifier(
    models, bound, max_elements
):
    cases = fault_cases(models, 2)
    stepped = SimulationKernel(backend="bitparallel").verifier(cases, 2)
    serial = SimulationKernel(backend="serial").verifier(cases, 2)
    outcome, found, _ = search(stepped, bound, max_elements, None)
    assert outcome == search(serial, bound, max_elements, None)[0], models
    if found is not None:
        assert_serial_witness(found, models, False)
