"""Oracle properties of the lazy hill-climb.

``tighten`` sorts its shrink moves by metric and builds a candidate
only when its walk reaches it.  The oracle is the eager climb in
``optimize_reference.py``, which builds, normalizes and sorts every
one-step shrink first.  Both must verify the same candidates in the
same order and end at the same test, on the serial and the packed
verifier.  Climbs that share a memo must end where each climb alone
ends.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.optimize import optimize, tighten
from repro.faults.faultlist import FaultList
from repro.kernel import SimulationKernel
from repro.march.builder import normalize_expectations
from repro.march.catalog import CATALOG
from repro.march.element import (
    AddressOrder,
    DelayElement,
    MarchElement,
    MarchOp,
)
from repro.march.test import MarchTest

from optimize_reference import eager_tighten

MODELS = (
    "SAF", "TF", "ADF", "CFIN", "CFID", "CFST", "RDF", "DRDF", "IRF", "WDF",
    "SOF",
)

model_lists = st.lists(
    st.sampled_from(MODELS), min_size=1, max_size=3, unique=True
).map(tuple)

backends = st.sampled_from(["serial", "bitparallel"])

ops = st.sampled_from([
    MarchOp("w", 0), MarchOp("w", 1), MarchOp("r", 0), MarchOp("r", 1),
])

elements = st.one_of(
    st.builds(DelayElement),
    st.builds(
        MarchElement,
        st.sampled_from([AddressOrder.UP, AddressOrder.DOWN, AddressOrder.ANY]),
        st.lists(ops, min_size=1, max_size=3).map(tuple),
    ),
)

catalog_tests = st.sampled_from(sorted(CATALOG)).map(CATALOG.__getitem__)


@st.composite
def march_tests(draw):
    """A catalog test, a drawn element list, or a catalog test with
    drawn elements spliced in (reads normalized when that is
    well-formed, so most of these still cover their faults)."""
    kind = draw(st.sampled_from(["catalog", "drawn", "padded"]))
    if kind == "catalog":
        return draw(catalog_tests)
    extra = draw(st.lists(elements, min_size=1, max_size=4))
    if kind == "drawn":
        return MarchTest(tuple(extra), "drawn")
    base = list(draw(catalog_tests).elements)
    at = draw(st.integers(0, len(base)))
    padded = MarchTest(tuple(base[:at] + extra + base[at:]), "padded")
    return normalize_expectations(padded) or padded


@lru_cache(maxsize=None)
def fault_cases(models):
    return tuple(FaultList.from_names(*models).instances(2))


def recording(verify):
    """``verify`` plus the list of the candidates it was asked about."""
    asked = []

    def predicate(test):
        asked.append(test)
        return verify(test)

    return predicate, asked


@given(test=march_tests(), models=model_lists, backend=backends)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_lazy_climb_verifies_what_the_eager_climb_verifies(
    test, models, backend
):
    verify = SimulationKernel(backend=backend).verifier(fault_cases(models), 2)
    lazy, lazy_asked = recording(verify)
    eager, eager_asked = recording(verify)
    assert tighten(test, lazy) == eager_tighten(test, eager)
    assert lazy_asked == eager_asked, (str(test), models)


@given(
    tests=st.lists(march_tests(), min_size=1, max_size=3),
    models=model_lists,
    backend=backends,
    picks=st.lists(st.integers(0, 50), max_size=3),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_shared_climbs_end_where_each_climb_alone_ends(
    tests, models, backend, picks
):
    verify = SimulationKernel(backend=backend).verifier(fault_cases(models), 2)
    # Lead with tests the first climb passes through, deepest first,
    # and repeat the first test, so later climbs start on or run into
    # a memoized path, some after several steps of their own.
    predicate, asked = recording(verify)
    eager_tighten(tests[0], predicate)
    path = [test for test in asked if verify(test)]
    positions = sorted({pick % len(path) for pick in picks} if path else ())
    finalists = [path[at] for at in reversed(positions)]
    finalists += list(tests) + [tests[0]]

    alone = [optimize(test, verify) for test in finalists]
    memo = {}
    assert [optimize(test, verify, memo=memo) for test in finalists] == alone
    memo = {}
    assert [tighten(test, verify, memo) for test in finalists] == [
        tighten(test, verify) for test in finalists
    ]
    # Every memoized test maps to the end of its own climb.
    assert all(
        result == tighten(test, verify) for test, result in memo.items()
    )
