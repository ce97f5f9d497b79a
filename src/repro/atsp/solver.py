"""ATSP facade: exact/heuristic cycle and open-path solving.

The GTS search is an open-path ATSP: the paper closes the path with two
dummy nodes (Section 4); :func:`solve_path` realizes the equivalent
single-depot construction and also supports the start-state constraint
of f.4.4 (only tours beginning at selected nodes are admissible).

Up to :data:`HELD_KARP_LIMIT` nodes, ``method="auto"`` solves the path
directly with :func:`~repro.atsp.held_karp.held_karp_path`, the one-shot
use of the shared subset memo.  The generator reaches that memo
without this facade: it keeps one memo per ``generate()`` call and
returns the same order and total as :func:`solve_path` would on each
selection's own matrix, ties broken in the selection's node order.
Other methods and larger instances go through this facade.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Set, Tuple

from .branch_bound import branch_and_bound_cycle
from .held_karp import HELD_KARP_LIMIT, held_karp_cycle, held_karp_path
from .heuristics import nearest_neighbor_with_or_opt, tour_cost
from .hungarian import FORBIDDEN

#: Instance size past which the facade degrades to heuristics in "auto".
EXACT_LIMIT = 60


def brute_force_cycle(
    cost: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Reference oracle: enumerate all (n-1)! tours.  Tests only."""
    n = len(cost)
    if n == 0:
        return [], 0.0
    if n == 1:
        return [0], 0.0
    best_tour: List[int] = []
    best = float("inf")
    for perm in itertools.permutations(range(1, n)):
        tour = [0] + list(perm)
        total = tour_cost(cost, tour)
        if total < best:
            best = total
            best_tour = tour
    return best_tour, best


def solve_cycle(
    cost: Sequence[Sequence[float]], method: str = "auto"
) -> Tuple[List[int], float]:
    """Minimum-cost Hamiltonian cycle.

    ``method`` is one of ``auto``, ``held_karp``, ``branch_bound``,
    ``brute``, ``heuristic``.  ``auto`` picks Held-Karp for small
    instances, branch and bound up to :data:`EXACT_LIMIT`, then the
    nearest-neighbour + or-opt heuristic.
    """
    n = len(cost)
    if method == "auto":
        if n <= HELD_KARP_LIMIT:
            method = "held_karp"
        elif n <= EXACT_LIMIT:
            method = "branch_bound"
        else:
            method = "heuristic"
    if method == "held_karp":
        return held_karp_cycle(cost)
    if method == "branch_bound":
        return branch_and_bound_cycle(cost)
    if method == "brute":
        return brute_force_cycle(cost)
    if method == "heuristic":
        return nearest_neighbor_with_or_opt(cost)
    raise ValueError(f"unknown ATSP method {method!r}")


def solve_path(
    cost: Sequence[Sequence[float]],
    start_costs: Optional[Sequence[float]] = None,
    allowed_starts: Optional[Set[int]] = None,
    method: str = "auto",
) -> Tuple[List[int], float]:
    """Minimum-cost open path visiting every node once.

    Parameters
    ----------
    cost:
        V x V inter-node weights (the TPG weight matrix, f.4.1).
    start_costs:
        Cost of *starting* at each node (power-up setup writes);
        defaults to 0 everywhere.
    allowed_starts:
        Optional restriction of the first node (the f.4.4 optimization:
        prefer GTSs whose first TP initializes from 00/11).  When no
        admissible tour exists the restriction is infeasible and a
        ``ValueError`` is raised -- callers fall back to unrestricted.

    Returns ``(order, total)`` where ``order`` lists node indices and
    ``total`` includes the chosen node's start cost.
    """
    n = len(cost)
    if n == 0:
        return [], 0.0
    starts = (
        [0.0] * n if start_costs is None else [float(s) for s in start_costs]
    )
    if allowed_starts is not None:
        starts = [
            starts[v] if v in allowed_starts else float(FORBIDDEN)
            for v in range(n)
        ]

    if n == 1:
        if starts[0] >= FORBIDDEN:
            raise ValueError("start restriction is infeasible")
        return [0], starts[0]

    if method == "auto" and n <= HELD_KARP_LIMIT:
        order, total = held_karp_path(cost, starts)
    else:
        # Depot-augmented cycle: depot -> v costs starts[v], v -> depot
        # is free; a minimum cycle through the depot is a minimum path.
        depot = n
        matrix: List[List[float]] = [
            [float(cost[r][c]) for c in range(n)] + [0.0] for r in range(n)
        ]
        matrix.append(starts + [float(FORBIDDEN)])
        tour, total = solve_cycle(matrix, method=method)
        at = tour.index(depot)
        order = tour[at + 1:] + tour[:at]
    if total >= FORBIDDEN:
        raise ValueError("start restriction is infeasible")
    return order, total
