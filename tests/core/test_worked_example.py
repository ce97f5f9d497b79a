"""The paper's Section 4 worked example, end to end.

Fault list {<up,1>, <up,0>} (idempotent coupling, up transitions):
four test patterns, a 12-operation GTS along the optimal tour, and a
non-redundant 8n March test.
"""

import pytest

from repro.core import GeneratorConfig, MarchTestGenerator
from repro.faults import CouplingIdempotentFault, FaultList
from repro.kernel import SimulationKernel
from repro.march.test import parse_march
from repro.simulator.coverage import is_non_redundant

KERNEL = SimulationKernel()


@pytest.fixture(scope="module")
def faults():
    return FaultList(
        [CouplingIdempotentFault(primitives=("up",), values=(0, 1))]
    )


@pytest.fixture(scope="module")
def report(faults):
    return MarchTestGenerator().generate(faults)


class TestWorkedExample:
    def test_complexity_matches_paper(self, report):
        assert report.complexity == 8  # the paper's 8n result

    def test_verified_and_non_redundant(self, report):
        assert report.verified
        assert report.non_redundant

    def test_tpg_has_four_patterns(self, report):
        assert report.tpg_size == 4

    def test_gts_is_twelve_operations(self, report):
        assert report.gts is not None
        assert report.gts.length == 12

    def test_detects_all_instances_on_larger_memory(self, report, faults):
        assert KERNEL.simulate_fault_list(report.test, faults, 4).complete

    def test_papers_own_test_also_passes_our_simulator(self, faults):
        paper = parse_march(
            "{up(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1)}",
            "paper-8n",
        )
        assert KERNEL.simulate_fault_list(paper, faults, 3).complete
        assert is_non_redundant(paper, faults.instances(3), 3)

    def test_paper_test_and_ours_are_equally_long(self, report, faults):
        paper = parse_march(
            "{up(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1)}"
        )
        assert report.complexity == paper.complexity
