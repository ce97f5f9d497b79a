"""Section 2's contrast: pipeline vs bounded exhaustive search.

Earlier generators ([2][3][4]) enumerate a transition tree of candidate
March tests -- exhaustive and increasingly slow as the target length
grows.  The paper's pipeline avoids that search.  These benches measure
both strategies on the same fault lists; the pipeline must produce an
equally short test, and the exhaustive baseline's candidate counter
documents the search-space blow-up.  The blow-up shows in the
candidates counted, not in the element steps: on the packed verifier
``exhaustive_search`` steps each prefix once and counts a subtree it
already walked dead from a memo (these benches verify on the default
serial kernel, which the search calls once per candidate).
"""

import pytest

from repro.core import MarchTestGenerator
from repro.core.exhaustive import SearchStats, exhaustive_search
from repro.core.optimize import make_verifier
from repro.faults import FaultList


@pytest.mark.parametrize(
    "names, optimum",
    [(("SAF",), 4), (("SAF", "TF"), 5)],
    ids=["SAF", "SAF+TF"],
)
def test_pipeline(benchmark, names, optimum):
    faults = FaultList.from_names(*names)
    report = benchmark.pedantic(
        MarchTestGenerator().generate, args=(faults,),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert report.complexity == optimum


@pytest.mark.parametrize(
    "names, optimum",
    [(("SAF",), 4), (("SAF", "TF"), 5)],
    ids=["SAF", "SAF+TF"],
)
def test_exhaustive_baseline(benchmark, names, optimum):
    faults = FaultList.from_names(*names)
    verify = make_verifier(faults.instances(2), 2)
    stats = SearchStats()

    found = benchmark.pedantic(
        exhaustive_search, args=(verify,),
        kwargs={"max_complexity": optimum, "stats": stats},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert found is not None and found.complexity == optimum
    # The baseline tests orders of magnitude more candidates than the
    # pipeline explores selections.
    assert stats.candidates_tested > 10


def test_exhaustive_blowup_on_8n_target(benchmark):
    """The transition-tree pathology: deeper targets explode."""
    from repro.faults import CouplingIdempotentFault

    faults = FaultList(
        [CouplingIdempotentFault(primitives=("up",), values=(0, 1))]
    )
    verify = make_verifier(faults.instances(2), 2)
    stats = SearchStats()

    found = benchmark.pedantic(
        exhaustive_search, args=(verify,),
        kwargs={"max_complexity": 8, "stats": stats},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert found is not None and found.complexity == 8
    assert stats.candidates_tested > 1000
