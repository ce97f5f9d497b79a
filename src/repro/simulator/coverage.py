"""Coverage Matrix and non-redundancy analysis (paper, Section 6).

A March test is split into *elementary blocks*; we operationalize a
block as one verifying read per cell position (the observation point of
an excite/observe pair -- the excitation context is whatever precedes
the read).  The Coverage Matrix CM has one row per block and one column
per target fault case; ``CM[block][case] = 1`` when the block alone
(all other reads demoted to non-verifying) detects the case.

The test detects everything iff each column has a 1; it is
non-redundant iff the minimum set cover of the columns needs **all**
rows.

Why one plain run per (realization, behavioural variant) is exact: a
demoted read still executes -- it may still disturb the memory -- and
only its mismatch stops counting, so the machine's states never depend
on which reads verify.  A run with only the blocks ``A`` verifying
therefore detects iff ``A`` meets the set ``D`` of reads that
mismatched in the plain run
(:meth:`~repro.kernel.SimulationKernel.read_detections`), and both
analyses are set algebra over those sets:

* ``CM[block][column]`` is ``block in D`` on the ascending realization;
* block ``b`` can be demoted iff every ``D`` keeps a member other than
  ``b``.

On a lane-packed backend the demotion check reads the same sets as
words, one run per lane: per realization, the lanes ``W_k`` that read
``k`` detects, stepped through the confirm verifier's transition table
(:meth:`~repro.kernel.kernel.PackedVerifier.read_detections`).  With
``ones`` the lanes some read detects and ``twos`` the lanes two reads
detect, a fault lane outside ``ones`` has an empty ``D``, and read
``k`` is the only member of some ``D`` iff ``W_k`` meets
``ones & ~twos``.  Cases with no packed encoding keep the scalar runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..faults.instances import FaultCase
from ..kernel import (
    DEFAULT_SIZE,
    SimulationKernel,
    concrete_realization,
    get_default_kernel,
)
from ..kernel.kernel import PackedVerifier, Verifier
from ..march.element import MarchElement
from ..march.test import MarchTest
from .setcover import is_exact_cover_needed, minimum_cover


@dataclass(frozen=True)
class ElementaryBlock:
    """One observation point: the k-th verifying read (per cell) of the
    test, identified by element and in-element op index."""

    index: int
    element_index: int
    op_index: int

    @property
    def key(self) -> Tuple[int, int]:
        """The ``(element_index, op_index)`` of the read, as a run's
        detecting set names it."""
        return (self.element_index, self.op_index)

    def describe(self, test: MarchTest) -> str:
        element = test.elements[self.element_index]
        assert isinstance(element, MarchElement)
        return (
            f"block{self.index}"
            f"[elem{self.element_index}:{element.order.symbol}"
            f" op{self.op_index}:{element.ops[self.op_index]}]"
        )


def elementary_blocks(test: MarchTest) -> Tuple[ElementaryBlock, ...]:
    """Enumerate the verifying reads of a test, in execution order."""
    blocks: List[ElementaryBlock] = []
    for element_index, element in enumerate(test.elements):
        if not isinstance(element, MarchElement):
            continue
        for op_index, op in enumerate(element.ops):
            if op.is_read and op.value is not None:
                blocks.append(
                    ElementaryBlock(len(blocks), element_index, op_index)
                )
    return tuple(blocks)


@dataclass
class CoverageMatrix:
    """The CM of Section 6 plus the derived redundancy verdicts."""

    test: MarchTest
    blocks: Tuple[ElementaryBlock, ...]
    case_names: Tuple[str, ...]
    matrix: Tuple[Tuple[bool, ...], ...]  # [block][case]

    @property
    def covered_columns(self) -> Set[int]:
        return {
            c
            for c in range(len(self.case_names))
            if any(row[c] for row in self.matrix)
        }

    @property
    def covers_all(self) -> bool:
        return len(self.covered_columns) == len(self.case_names)

    def rows_as_sets(self) -> List[FrozenSet[int]]:
        return [
            frozenset(c for c, hit in enumerate(row) if hit)
            for row in self.matrix
        ]

    def minimum_blocks(self) -> List[int]:
        """Indices of a minimum block subset covering every case."""
        return minimum_cover(self.rows_as_sets(), self.covered_columns)

    def is_non_redundant(self) -> bool:
        """True when every elementary block is necessary (Section 6)."""
        if not self.covers_all:
            return False
        return is_exact_cover_needed(self.rows_as_sets(), self.covered_columns)

    def redundant_blocks(self) -> List[int]:
        """Blocks outside some minimum cover (empty iff non-redundant)."""
        if not self.covers_all:
            return []
        needed = set(self.minimum_blocks())
        return [b.index for b in self.blocks if b.index not in needed]


def _variant_columns(cases: Sequence[FaultCase]):
    """One CM column per behavioural variant.

    Different variants of one worst-case fault (e.g. the two float
    values of a dead cell) may be observed by *different* elementary
    blocks, so the paper's per-BFE columns correspond to per-variant
    columns here.
    """
    columns = []
    for fault_case in cases:
        many = len(fault_case.variants) > 1
        for index, factory in enumerate(fault_case.variants):
            name = f"{fault_case.name}#{index}" if many else fault_case.name
            columns.append((name, factory))
    return columns


def coverage_matrix(
    test: MarchTest,
    cases: Sequence[FaultCase],
    size: int = DEFAULT_SIZE,
    kernel: Optional[SimulationKernel] = None,
) -> CoverageMatrix:
    """Build the Coverage Matrix of a test against fault cases.

    ANY orders are fixed to UP first (:func:`concrete_realization`):
    an ANY element detects under either order, so a per-block row is
    only meaningful once an order is fixed.
    """
    kernel = kernel or get_default_kernel()
    test = concrete_realization(test)
    blocks = elementary_blocks(test)
    columns = _variant_columns(cases)
    detections = list(
        kernel.read_detections(
            test, [factory for _, factory in columns], size
        )
    )
    return CoverageMatrix(
        test,
        blocks,
        tuple(name for name, _ in columns),
        tuple(
            tuple(block.key in detected for detected in detections)
            for block in blocks
        ),
    )


def demotion_redundant_blocks(
    test: MarchTest,
    cases: Sequence[FaultCase],
    size: int = DEFAULT_SIZE,
    kernel: Optional[SimulationKernel] = None,
    verifier: Optional[Verifier] = None,
) -> List[ElementaryBlock]:
    """Blocks whose verification can be dropped without losing coverage.

    The robust necessity criterion (well-defined for ANY orders): block
    ``b`` is redundant when demoting *only* ``b`` to a plain read still
    detects every case in the worst case, i.e. when every run's
    detecting set keeps a read other than ``b``.  The runs stream until
    no block is left undecided.  An empty result means every
    observation is load-bearing, or that some run detects nothing.

    On a lane-packed kernel the packed cases are decided as words
    through ``verifier``, the kernel's verifier over the same ``cases``
    and ``size`` (the generator passes its confirmation predicate);
    without a :class:`~repro.kernel.kernel.PackedVerifier` one is built.
    """
    kernel = kernel or get_default_kernel()
    blocks = elementary_blocks(test)
    undecided = {block.key for block in blocks}
    if kernel.backend.lane_packed:
        if not isinstance(verifier, PackedVerifier) or verifier.size != size:
            verifier = PackedVerifier(kernel, list(cases), size)
        fault_lanes = verifier.fault_lanes
        for detections in verifier.read_detections(test):
            ones = twos = 0
            for _, lanes in detections:
                twos |= ones & lanes
                ones |= lanes
            if not undecided or ones != fault_lanes:
                return []
            once = ones & ~twos
            undecided -= {key for key, lanes in detections if lanes & once}
        cases = verifier.scalar
    for fault_case in cases:
        for detected in kernel.read_detections(
            test, fault_case.variants, size
        ):
            # A run no read detects needs every block, and a run one
            # read detects needs that read.
            if not (undecided and detected):
                return []
            if len(detected) == 1:
                undecided -= detected
    return [block for block in blocks if block.key in undecided]


def is_non_redundant(
    test: MarchTest,
    cases: Sequence[FaultCase],
    size: int = DEFAULT_SIZE,
    kernel: Optional[SimulationKernel] = None,
    verifier: Optional[Verifier] = None,
) -> bool:
    """True when no single observation can be demoted (Section 6)."""
    return not demotion_redundant_blocks(test, cases, size, kernel, verifier)
