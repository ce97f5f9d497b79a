"""The benchmark's per-layer tracer still finds what it patches.

``perfbench/spans.py`` wraps functions of the program by name, from
outside it.  A renamed or bypassed function would leave its per-layer
counts at zero, so one traced ``generate()`` and one packed sweep must
count engine runs, plan builds and backend batches, and uninstalling
must put every original object back.
"""

from pathlib import Path

import pytest

from repro.core import MarchTestGenerator
from repro.faults import FaultList
from repro.kernel import SimulationKernel
from repro.march.catalog import MARCH_C_MINUS, MATS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_tracer_counts_the_packed_engine_and_restores_it(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        for owner, attribute, original in patched:
            assert owner.__dict__[attribute] is not original, attribute
        MarchTestGenerator().generate(FaultList.from_names("SAF"))
        generated = tracer.take_counts()
        kernel = SimulationKernel(backend="bitparallel")
        cases = FaultList.from_names("SAF", "TF").instances(3)
        kernel.simulate_many([MATS, MARCH_C_MINUS], cases, 3)
        swept = tracer.take_counts()
    finally:
        tracer.uninstall()
    # The verifier's transition table runs the engine through the
    # class attribute; the sweep runs it through the backend.
    for name in ("simulator.realizations", "simulator.plan_builds"):
        assert generated[name] > 0, name
        assert swept[name] > 0, name
    assert swept["kernel.detect_batch_calls"] > 0
    for owner, attribute, original in patched:
        assert owner.__dict__[attribute] is original, attribute
