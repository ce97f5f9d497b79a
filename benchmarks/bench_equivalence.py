"""Section 5: the effect of BFE-equivalence-class enumeration.

The paper enumerates E = prod |Ci| TP selections and keeps the best
GTS.  This bench compares generation with the enumeration on (the
default) against the single greedy selection, on the CFin fault list
whose classes each hold two alternatives.
"""

from repro.core import GeneratorConfig, MarchTestGenerator
from repro.core.selection import selection_space_size
from repro.faults import FaultList


def test_selection_space_formula():
    faults = FaultList.from_names("CFIN")
    assert selection_space_size(faults.classes()) == 2 ** 4  # E = prod |Ci|


def _generate(**config):
    generator = MarchTestGenerator(GeneratorConfig(**config))
    return generator.generate(FaultList.from_names("CFIN"))


def test_with_enumeration(benchmark):
    report = benchmark.pedantic(
        _generate, rounds=1, iterations=1, warmup_rounds=0
    )
    assert report.verified
    assert report.complexity == 5
    assert report.selections_explored > 1


def test_without_enumeration(benchmark):
    # One selection: the single greedy one.
    report = benchmark.pedantic(
        _generate, kwargs={"selection_limit": 1}, rounds=1, iterations=1,
        warmup_rounds=0,
    )
    assert report.verified
    assert report.selections_explored == 1
    # The greedy selection may or may not reach 5n before polishing;
    # with the full pipeline it must never beat the enumerated result.
    assert report.complexity >= 5
