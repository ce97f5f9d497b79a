"""The Test Pattern Graph (paper, Section 4, Figure 4).

The TPG is a strongly connected weighted digraph with one node per test
pattern.  The weight of edge (u, v) is the number of memory operations
needed to reach v's initialization state from u's observation state
(f.4.1: the Hamming distance between S_S and S_T, extended to
don't-care cells which cost nothing).

The number of possible Global Test Sequences over a TPG with V nodes is
V! (f.4.2); :func:`TestPatternGraph.gts_count` reproduces the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..memory.state import MemoryState
from .test_pattern import TestPattern


def edge_weight(
    source: TestPattern, target: TestPattern, weight_mode: str = "hamming"
) -> int:
    """The f.4.1 weight of the edge ``source -> target`` (see
    :class:`TestPatternGraph` for the modes)."""
    cost = target.setup_cost(source.observation_state)
    if weight_mode == "uniform":
        return 1 if cost else 0
    if weight_mode != "hamming":
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    return cost


def start_weight(pattern: TestPattern) -> int:
    """Setup cost of ``pattern`` from the power-up (all don't-care)
    state, whatever the weight mode."""
    return pattern.setup_cost(MemoryState.unknown(pattern.cells))


@dataclass
class TPGNode:
    """A TPG node: one test pattern plus the classes it covers."""

    index: int
    pattern: TestPattern
    covers: Set[str] = field(default_factory=set)

    def __str__(self) -> str:
        return f"TP{self.index + 1}{self.pattern}"


@dataclass
class TestPatternGraph:
    """Complete weighted digraph over de-duplicated test patterns.

    ``weight_mode`` selects the edge cost function: ``"hamming"`` is
    the paper's f.4.1 (setup writes needed between patterns);
    ``"uniform"`` charges 1 for any state change (the ablation showing
    why the Hamming weights matter).
    """

    __test__ = False  # not a pytest class, despite the Test* name

    nodes: List[TPGNode] = field(default_factory=list)
    _index_by_key: Dict[Tuple, int] = field(default_factory=dict)
    weight_mode: str = "hamming"

    @classmethod
    def from_patterns(
        cls,
        patterns: Iterable[TestPattern],
        covers: Optional[Sequence[str]] = None,
    ) -> "TestPatternGraph":
        """Build a TPG, de-duplicating structurally identical patterns.

        ``covers`` optionally gives the class name covered by each
        pattern (aligned with ``patterns``).
        """
        graph = cls()
        covers_list = list(covers) if covers is not None else None
        for position, pattern in enumerate(patterns):
            name = covers_list[position] if covers_list else pattern.label
            graph.add(pattern, name)
        return graph

    def add(self, pattern: TestPattern, covered_class: str = "") -> TPGNode:
        """Insert a pattern (or merge into an existing identical node)."""
        key = pattern.key()
        if key in self._index_by_key:
            node = self.nodes[self._index_by_key[key]]
            if covered_class:
                node.covers.add(covered_class)
            return node
        node = TPGNode(len(self.nodes), pattern)
        if covered_class:
            node.covers.add(covered_class)
        self.nodes.append(node)
        self._index_by_key[key] = node.index
        return node

    # -- weights ---------------------------------------------------------------

    def weight(self, source: int, target: int) -> int:
        """Edge weight (f.4.1): operations to set up the target pattern."""
        return edge_weight(
            self.nodes[source].pattern,
            self.nodes[target].pattern,
            self.weight_mode,
        )

    def start_weight(self, target: int, power_up: Optional[MemoryState] = None) -> int:
        """Setup cost from the power-up (all don't-care) state."""
        if power_up is None:
            return start_weight(self.nodes[target].pattern)
        return self.nodes[target].pattern.setup_cost(power_up)

    def weight_matrix(self) -> List[List[int]]:
        """Full V x V matrix of f.4.1 weights (diagonal is 0)."""
        size = len(self.nodes)
        return [
            [0 if r == c else self.weight(r, c) for c in range(size)]
            for r in range(size)
        ]

    def path_matrix(self) -> Tuple[List[List[int]], int, int]:
        """Weight matrix augmented with the two dummy nodes of Section 4.

        The paper closes the open GTS path into an ATSP cycle with two
        dummy nodes.  We use the standard equivalent construction with a
        single combined depot node: ``depot -> v`` costs the power-up
        setup of v, ``v -> depot`` costs 0, giving exactly the open-path
        optimum.  Returns ``(matrix, depot_index, size)``.
        """
        size = len(self.nodes)
        matrix = self.weight_matrix()
        depot = size
        for row_index, row in enumerate(matrix):
            row.append(0)  # v -> depot closes the path for free
        start_row = [self.start_weight(t) for t in range(size)]
        start_row.append(0)
        matrix.append(start_row)
        return matrix, depot, size + 1

    # -- bookkeeping -------------------------------------------------------------

    def gts_count(self) -> int:
        """Number of possible GTSs: V! (paper, f.4.2)."""
        return math.factorial(len(self.nodes))

    def classes_covered(self) -> Set[str]:
        out: Set[str] = set()
        for node in self.nodes:
            out |= node.covers
        return out

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)
