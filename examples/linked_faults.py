"""Linked faults: why March C- is not the end of the story.

Two coupling faults sharing a victim can mask each other: the second
excitation overwrites (CFid pairs) or cancels (CFin pairs) the first
before any read samples the victim.  This example measures the classic
hierarchy on our simulator: March C- loses a third of the linked CFid
placements; March A / March B / March LR recover them at higher
complexity.

Run:  python examples/linked_faults.py
"""

from repro.faults.linked import (
    linked_idempotent_cases,
    linked_inversion_cases,
)
from repro.kernel import SimulationKernel
from repro.march.catalog import CATALOG

TESTS = ["MATS++", "MarchX", "MarchC-", "MarchA", "MarchB", "MarchLR"]


def main():
    size = 4
    kernel = SimulationKernel()
    idem = linked_idempotent_cases(size)
    inv = linked_inversion_cases(size)

    print(f"{'test':8} {'cplx':>5} {'linked CFid':>12} {'linked CFin':>12}")
    print("-" * 42)
    for name in TESTS:
        march = CATALOG[name]
        idem_hit = sum(kernel.detects(march, c, size) for c in idem)
        inv_hit = sum(kernel.detects(march, c, size) for c in inv)
        print(
            f"{name:8} {march.complexity_label:>5}"
            f" {idem_hit:>6}/{len(idem):<5} {inv_hit:>6}/{len(inv):<5}"
        )
    print()
    print("Linked CFid pairs separate March C- (10n) from March A (15n);")
    print("linked CFin pairs cancel pairwise and stay mostly invisible to")
    print("all March tests -- the motivation for the paper's reference [5]")
    print("handling linked faults with richer models.")


if __name__ == "__main__":
    main()
