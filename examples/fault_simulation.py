"""Fault-simulate the classic March tests against the fault library.

Reproduces the qualitative coverage table of the literature (which
faults MATS, MATS++, March X, March Y and March C- do or do not
detect), using the Section 6 simulator as ground truth.

Run:  python examples/fault_simulation.py
"""

from repro.faults import FaultList
from repro.kernel import SimulationKernel
from repro.march.catalog import (
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS,
    MATS_PLUS_PLUS,
    MSCAN,
)

TESTS = [MSCAN, MATS, MATS_PLUS_PLUS, MARCH_X, MARCH_Y, MARCH_C_MINUS]
MODELS = ["SAF", "TF", "ADF", "CFIN", "CFID", "RDF", "WDF"]


def main():
    kernel = SimulationKernel()
    header = f"{'test':10} {'cplx':>5} " + " ".join(
        f"{m:>5}" for m in MODELS
    )
    print(header)
    print("-" * len(header))
    for test in TESTS:
        cells = []
        for model in MODELS:
            faults = FaultList.from_names(model)
            report = kernel.simulate_fault_list(test, faults, size=3)
            if report.complete:
                cells.append(f"{'yes':>5}")
            elif report.coverage > 0:
                cells.append(f"{report.coverage * 100:4.0f}%")
            else:
                cells.append(f"{'no':>5}")
        print(f"{test.name:10} {test.complexity_label:>5} " + " ".join(cells))
    print()
    print("'yes' = every fault case of the model detected (worst case),")
    print("a percentage = partial coverage, 'no' = nothing detected.")


if __name__ == "__main__":
    main()
