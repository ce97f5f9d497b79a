"""Exact ATSP by Held--Karp dynamic programming.

O(n^2 * 2^n): practical up to ~15 nodes, which comfortably covers the
instances of the paper's evaluation (the TPGs of Table 3 after test
pattern de-duplication).  :func:`held_karp_cycle` is the exact cycle
method and the cross-check oracle for the branch-and-bound solver.

The open path (the GTS search, Section 4) has one implementation,
:class:`PathMemo`: a subset memo over a universe of nodes that many
solves share.  The generator keeps one per start rule per
``generate()`` call, so the equivalence-class selections of Section 5
-- all subsets of one small pattern universe -- share their DP subsets
instead of each solving from scratch; :func:`held_karp_path` is the
one-shot use of it.  Tie order follows each solve's own node
numbering, so a shared solve returns exactly the tour a solve from
scratch would.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Instance size up to which Held-Karp DP is the default exact method.
HELD_KARP_LIMIT = 13
#: Masks a :class:`PathMemo` may hold between solves: room for two
#: solves of :data:`HELD_KARP_LIMIT` nodes (one needs ``2**13 - 1``).
PATH_MEMO_LIMIT = 2 ** (HELD_KARP_LIMIT + 1)

_INF = float("inf")


def held_karp_cycle(
    cost: Sequence[Sequence[float]], start: int = 0
) -> Tuple[List[int], float]:
    """Minimum-cost Hamiltonian cycle through all nodes.

    Returns ``(tour, total)`` where ``tour`` starts at ``start`` and
    lists every node exactly once (the closing arc back to ``start`` is
    included in ``total``).
    """
    n = len(cost)
    if n == 0:
        return [], 0.0
    if n == 1:
        return [start], 0.0

    others = [node for node in range(n) if node != start]
    index_of = {node: k for k, node in enumerate(others)}
    m = len(others)
    inf = float("inf")

    # best[mask][k]: cheapest path start -> ... -> others[k] visiting
    # exactly the subset ``mask`` of ``others``.
    best: List[List[float]] = [[inf] * m for _ in range(1 << m)]
    parent: List[List[int]] = [[-1] * m for _ in range(1 << m)]
    for k, node in enumerate(others):
        best[1 << k][k] = float(cost[start][node])

    for mask in range(1, 1 << m):
        row = best[mask]
        for k in range(m):
            if not mask & (1 << k):
                continue
            base = row[k]
            if base == inf:
                continue
            node_k = others[k]
            for nxt in range(m):
                if mask & (1 << nxt):
                    continue
                new_mask = mask | (1 << nxt)
                candidate = base + float(cost[node_k][others[nxt]])
                if candidate < best[new_mask][nxt]:
                    best[new_mask][nxt] = candidate
                    parent[new_mask][nxt] = k

    full = (1 << m) - 1
    closing_best = inf
    last = -1
    for k in range(m):
        candidate = best[full][k] + float(cost[others[k]][start])
        if candidate < closing_best:
            closing_best = candidate
            last = k

    tour_tail: List[int] = []
    mask = full
    k = last
    while k != -1:
        tour_tail.append(others[k])
        prev = parent[mask][k]
        mask ^= 1 << k
        k = prev
    tour_tail.reverse()
    return [start] + tour_tail, closing_best


def held_karp_path(
    cost: Sequence[Sequence[float]],
    start_cost: Optional[Sequence[float]] = None,
) -> Tuple[List[int], float]:
    """Minimum-cost open Hamiltonian path (free endpoint).

    ``start_cost[v]`` is the cost of starting the path at node ``v``
    (e.g. the power-up setup cost of a test pattern); it defaults to 0.
    This is the dummy-node construction of the paper solved directly,
    as a one-shot :class:`PathMemo`.
    """
    n = len(cost)
    starts = [0.0] * n if start_cost is None else [float(s) for s in start_cost]
    into = [[float(cost[k][e]) for k in range(n)] for e in range(n)]
    return PathMemo(into, starts).solve(range(n))


class PathMemo:
    """The open-path Held--Karp DP, shared by every solve over one
    universe of nodes.

    ``into[e][k]`` is the cost of the arc ``k -> e`` and ``starts[e]``
    the cost of starting the path at ``e``, both indexed by universe
    id.  The memo only reads them, so the caller may grow both (new
    universe ids) and fill ``into`` lazily, as long as every arc
    between the nodes of a solve is set before that solve.

    ``best(mask, end)`` -- the cheapest path through exactly the
    universe nodes of ``mask`` that ends at ``end`` -- does not depend
    on how a solve numbers its nodes, so one entry serves every solve
    whose nodes include ``mask``.  A solve builds only the subsets of
    its nodes the memo does not hold yet.  Tie-breaking *does* depend
    on the numbering: the solve's tour keeps, at each step, the first
    minimizing predecessor in the solve's own node order.  So each
    entry stores its value and the bitmask of tied predecessors, and
    the tour is rebuilt from them per solve.

    Storage is flat: ``_offsets`` maps a mask to the position of its
    row in ``_values``/``_ties``; a row holds one entry per member of
    the mask, in ascending universe id, and a tie mask numbers the
    members of ``mask`` minus ``end`` the same way.  Every stored mask
    has all its subsets stored too.  Between solves the memo starts
    over empty when the next solve could push it past
    :data:`PATH_MEMO_LIMIT` masks; it is never cleared during one.
    """

    def __init__(
        self, into: Sequence[Sequence[float]], starts: Sequence[float]
    ) -> None:
        self.into = into
        self.starts = starts
        self._offsets: Dict[int, int] = {}
        self._values = array("d")
        self._ties = array("I")
        #: Masks built (rows computed) over the memo's lifetime.
        self.masks_built = 0

    def __len__(self) -> int:
        return len(self._offsets)

    def clear(self) -> None:
        """Drop every stored mask (the owner's tables stay)."""
        self._offsets = {}
        self._values = array("d")
        self._ties = array("I")

    def solve(self, nodes: Iterable[int]) -> Tuple[List[int], float]:
        """Minimum open path through the distinct universe ids ``nodes``.

        Returns ``(order, total)`` like :func:`held_karp_path`: ``order``
        lists positions in ``nodes``, and among equal-cost tours it is
        the one the textbook DP over ``nodes``' own numbering keeps
        (the first minimum at every step).  ``total`` includes the start
        cost of the first node.
        """
        nodes = list(nodes)
        n = len(nodes)
        if n == 0:
            return [], 0.0
        held = len(self._offsets)
        if held and held + (1 << n) - 1 > PATH_MEMO_LIMIT:
            self.clear()
        full = 0
        for node in nodes:
            full |= 1 << node
        if full not in self._offsets:
            self._build(nodes)

        values, ties, offsets = self._values, self._ties, self._offsets
        position = {node: p for p, node in enumerate(nodes)}
        members = _members(full)
        row = offsets[full]
        end, total = -1, _INF
        for node in nodes:
            value = values[row + members.index(node)]
            if value < total:
                end, total = node, value
        path = [end]
        mask = full
        while True:
            at = members.index(end)
            tie = ties[offsets[mask] + at]
            if not tie:
                break
            mask ^= 1 << end
            del members[at]
            end = min(
                (members[r] for r in _members(tie)), key=position.__getitem__
            )
            path.append(end)
        path.reverse()
        return [position[node] for node in path], total

    def _build(self, nodes: List[int]) -> None:
        """Build the missing subsets of ``nodes``, by ascending local mask."""
        offsets, values, ties = self._offsets, self._values, self._ties
        bits = {1 << local: 1 << node for local, node in enumerate(nodes)}
        masks = [0] * (1 << len(nodes))
        for local in range(1, len(masks)):
            low = local & -local
            mask = masks[local] = masks[local ^ low] | bits[low]
            if mask in offsets:
                continue
            offsets[mask] = len(values)
            members = _members(mask)
            if len(members) == 1:
                values.append(self.starts[members[0]])
                ties.append(0)
            else:
                for at, end in enumerate(members):
                    others = members[:at] + members[at + 1:]
                    start = offsets[mask ^ (1 << end)]
                    arcs = self.into[end]
                    prev = values[start:start + len(others)]
                    best, tie, bit = _INF, 0, 1
                    for value, node in zip(prev, others):
                        candidate = value + arcs[node]
                        if candidate < best:
                            best, tie = candidate, bit
                        elif candidate == best:
                            tie |= bit
                        bit <<= 1
                    values.append(best)
                    ties.append(tie)
            self.masks_built += 1


def _members(mask: int) -> List[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
