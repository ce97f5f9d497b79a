"""Packed Section 6 against the ``serial`` reference.

On a lane-packed kernel the demotion check steps each realization
element by element through the confirm verifier's transition table,
once per verifying read with the element's other reads demoted, and
decides on words (``simulator/coverage.py``).  The ``serial`` kernel
keeps one scalar run per (realization, behavioural variant).  Both must
name the same demotable blocks, on catalog tests and generated outputs,
redundant and unverified tests, and lists mixing in a fault type with no
packed encoding, whose cases keep the scalar runs.
"""

from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from repro.faults.faultlist import FaultList
from repro.faults.instances import case
from repro.faults.library import MODEL_REGISTRY
from repro.kernel import SimulationKernel
from repro.kernel.kernel import PackedVerifier
from repro.march.catalog import CATALOG
from repro.march.test import parse_march
from repro.memory.array import NullFaultInstance
from repro.simulator.coverage import demotion_redundant_blocks, is_non_redundant

MODELS = tuple(sorted(MODEL_REGISTRY))

#: Generated outputs: the six Table 3 tests, then outputs of other
#: lists -- two with a redundant read (DRDF, ADF+SOF) and CFIN+SOF's,
#: whose second-element ``r0`` only the descending realizations need.
GENERATED = (
    "{⇕(w0,r0,w1,r1)}",
    "{⇕(w1,w0,r0,w1,r1)}",
    "{⇕(w1); ⇓(r1,w0); ⇑(r0,w1,r1)}",
    "{⇑(w1,w0); ⇓(r0,w1); ⇑(r1,w0)}",
    "{⇕(w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇑(r0,w1); ⇕(r1)}",
    "{⇕(w1); ⇕(r1,w0,w1); ⇕(r1)}",
    "{⇕(w1,r1,r1,w0,r0,r0)}",
    "{⇕(w1); ⇑(r1,w0); ⇓(r0,w1,r1)}",
    "{⇕(w1); ⇕(r1,w0,r0,w1); ⇕(r1)}",
)

tests = st.one_of(
    st.sampled_from(sorted(
        (test for test in CATALOG.values() if test.complexity < 20), key=str
    )),
    st.sampled_from(GENERATED).map(parse_march),
)


@lru_cache(maxsize=None)
def covered_models(test, size):
    """The models ``test`` detects completely at ``size``."""
    kernel = SimulationKernel(backend="bitparallel")
    return tuple(
        model for model in MODELS
        if kernel.simulate(
            test, FaultList.from_names(model).instances(size), size
        ).complete
    )


@st.composite
def checks(draw):
    """A test, a 1-3 model list (mostly of models the test covers, so
    the runs decide blocks rather than stop at a miss), a size and
    whether custom unpackable cases join the list."""
    test = draw(tests)
    size = draw(st.sampled_from((3, 4)))
    covered = covered_models(test, size)
    pool = covered if covered and draw(st.integers(0, 3)) else MODELS
    models = draw(st.lists(
        st.sampled_from(pool), min_size=1, max_size=3, unique=True
    ))
    return test, tuple(models), size, draw(st.booleans())


class StuckReadInstance(NullFaultInstance):
    """A user fault type with no packed encoding: reads of ``cell``
    always report ``value``."""

    def __init__(self, cell: int, value: int) -> None:
        self.cell = cell
        self.value = value

    def on_read(self, memory, address):
        if address == self.cell:
            return self.value
        return memory.raw[address]


@lru_cache(maxsize=None)
def fault_cases(models, size, custom):
    cases = tuple(FaultList.from_names(*models).instances(size))
    if custom:
        cases += (
            case("custom read0@0", lambda: StuckReadInstance(0, 0)),
            case(f"custom read1@{size - 1}",
                 lambda: StuckReadInstance(size - 1, 1)),
        )
    return cases


def assert_packed_matches_serial(test, cases, size):
    expected = demotion_redundant_blocks(
        test, cases, size, SimulationKernel(backend="serial")
    )
    kernel = SimulationKernel(backend="bitparallel")
    verify = kernel.verifier(list(cases), size)
    assert isinstance(verify, PackedVerifier)
    verify(test)  # the generator confirms before Section 6
    assert demotion_redundant_blocks(
        test, cases, size, kernel, verifier=verify
    ) == expected, str(test)
    # Without a packed verifier, Section 6 builds its own.
    fresh = SimulationKernel(backend="bitparallel")
    assert demotion_redundant_blocks(test, cases, size, fresh) == expected
    assert is_non_redundant(test, cases, size, kernel, verify) == (
        not expected
    )
    return expected


@given(check=checks())
@example(check=(parse_march(GENERATED[6]), ("DRDF",), 3, False))
@example(check=(parse_march(GENERATED[7]), ("ADF", "SOF"), 3, False))
@example(check=(parse_march(GENERATED[8]), ("CFIN", "SOF"), 4, True))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_packed_section6_matches_serial(check):
    test, models, size, custom = check
    assert_packed_matches_serial(
        test, fault_cases(models, size, custom), size
    )


def test_redundant_reads_are_named_on_both_engines():
    drdf = parse_march(GENERATED[6])
    blocks = assert_packed_matches_serial(
        drdf, fault_cases(("DRDF",), 3, False), 3
    )
    assert [block.key for block in blocks] == [(0, 1), (0, 4)]
    adf_sof = parse_march(GENERATED[7])
    blocks = assert_packed_matches_serial(
        adf_sof, fault_cases(("ADF", "SOF"), 3, False), 3
    )
    assert [block.key for block in blocks] == [(2, 2)]


def test_an_unverified_test_has_no_demotable_block():
    mats = CATALOG["MATS"]
    for custom in (False, True):
        cases = fault_cases(("SAF", "TF"), 3, custom)
        assert assert_packed_matches_serial(mats, cases, 3) == []


def test_unpackable_cases_keep_the_scalar_runs(monkeypatch):
    kernel = SimulationKernel(backend="bitparallel")
    runs = []
    original = kernel.read_detections

    def counting(test, factories, size):
        runs.append(len(factories))
        return original(test, factories, size)

    monkeypatch.setattr(kernel, "read_detections", counting)
    test = parse_march(GENERATED[2])
    demotion_redundant_blocks(test, fault_cases(("SAF",), 3, False), 3, kernel)
    assert runs == []
    mixed = fault_cases(("SAF",), 3, True)
    assert demotion_redundant_blocks(test, mixed, 3, kernel) == (
        demotion_redundant_blocks(
            test, mixed, 3, SimulationKernel(backend="serial")
        )
    )
    # Only the two custom cases, one variant each, run on the scalar
    # engine.
    assert runs == [1, 1]


def test_section6_steps_are_counted_apart_from_verification():
    cases = fault_cases(("SAF", "TF", "ADF"), 3, False)
    test = parse_march(GENERATED[2])
    kernel = SimulationKernel(backend="bitparallel")
    verify = kernel.verifier(list(cases), 3)
    assert verify(test)
    stats = kernel.verify_stats
    before = (stats.table_hits.value, stats.table_misses.value)
    assert is_non_redundant(test, cases, 3, kernel, verify)
    assert (stats.table_hits.value, stats.table_misses.value) == before
    # The plain steps the confirmation ran are hits; the last element's
    # two demotions are new.
    assert stats.section6_hits.value > 0
    assert stats.section6_misses.value > 0
    assert "; section 6: " in dict(kernel.stats_segments())["verify"]
