"""Section 6 validation instruments: fault simulation, coverage matrix
and the set-covering non-redundancy check.

The paper validates every generated test with an ad-hoc fault simulator
and checks non-redundancy via Set Covering over the Coverage Matrix;
these benches time both instruments on the Table 3 row-5 workload.
"""

from repro.faults import FaultList
from repro.kernel import get_default_kernel
from repro.march.catalog import MARCH_C, MARCH_C_MINUS
from repro.simulator.coverage import coverage_matrix, is_non_redundant


def row5_faults():
    return FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")


def test_fault_simulation_throughput(benchmark):
    faults = row5_faults()
    report = benchmark(
        get_default_kernel().simulate_fault_list, MARCH_C_MINUS, faults, 3
    )
    assert report.complete


def test_coverage_matrix_construction(benchmark):
    faults = row5_faults()
    cases = faults.instances(3)
    cm = benchmark.pedantic(
        coverage_matrix, args=(MARCH_C_MINUS, cases, 3),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert cm.covers_all
    assert cm.is_non_redundant()


def test_set_covering_flags_march_c_redundancy(benchmark):
    """March C's extra read is the canonical redundant block."""
    faults = row5_faults()
    cases = faults.instances(3)

    def analyze():
        cm = coverage_matrix(MARCH_C, cases, 3)
        return cm.covers_all, cm.is_non_redundant()

    covers, non_redundant = benchmark.pedantic(
        analyze, rounds=1, iterations=1, warmup_rounds=0
    )
    assert covers
    assert not non_redundant  # March C- removes exactly this redundancy


def test_demotion_necessity_check(benchmark):
    faults = row5_faults()
    cases = faults.instances(3)
    verdict = benchmark.pedantic(
        is_non_redundant, args=(MARCH_C_MINUS, cases, 3),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert verdict
