"""The shared Held--Karp memo against the textbook push-style DP.

``push_held_karp_path`` is the open-path DP the memo replaced, kept
here as the tie-order oracle: it numbers the nodes of one instance,
pushes each subset's paths forward in index order and keeps the first
minimum.  Run inside ``solve_path(..., method="auto")`` it fixes the
exact ``(order, total)`` -- and the ``ValueError`` of an infeasible
start restriction -- that a solve through one shared memo must
reproduce for every selection, whatever order the selection numbers
its nodes in.  Weights are drawn in 0-2 so that ties are the rule.
"""

from typing import List, Optional, Sequence, Tuple
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.atsp import held_karp as held_karp_module, solver
from repro.atsp.held_karp import (
    HELD_KARP_LIMIT,
    PATH_MEMO_LIMIT,
    PathMemo,
    held_karp_path,
)
from repro.atsp.hungarian import FORBIDDEN


def push_held_karp_path(
    cost: Sequence[Sequence[float]],
    start_cost: Optional[Sequence[float]] = None,
) -> Tuple[List[int], float]:
    """The pre-memo open-path Held--Karp, verbatim."""
    n = len(cost)
    if n == 0:
        return [], 0.0
    starts = [0.0] * n if start_cost is None else [float(s) for s in start_cost]
    if n == 1:
        return [0], starts[0]

    inf = float("inf")
    best: List[List[float]] = [[inf] * n for _ in range(1 << n)]
    parent: List[List[int]] = [[-1] * n for _ in range(1 << n)]
    for v in range(n):
        best[1 << v][v] = starts[v]

    for mask in range(1, 1 << n):
        row = best[mask]
        for k in range(n):
            if not mask & (1 << k):
                continue
            base = row[k]
            if base == inf:
                continue
            for nxt in range(n):
                if mask & (1 << nxt):
                    continue
                new_mask = mask | (1 << nxt)
                candidate = base + float(cost[k][nxt])
                if candidate < best[new_mask][nxt]:
                    best[new_mask][nxt] = candidate
                    parent[new_mask][nxt] = k

    full = (1 << n) - 1
    end = min(range(n), key=lambda k: best[full][k])
    total = best[full][end]
    path: List[int] = []
    mask = full
    k = end
    while k != -1:
        path.append(k)
        prev = parent[mask][k]
        mask ^= 1 << k
        k = prev
    path.reverse()
    return path, total


def oracle_solve_path(cost, starts, allowed=None):
    """``solve_path(..., method="auto")`` on the old DP; ``None`` when
    it raises the infeasible-restriction ``ValueError``."""
    with patch.object(solver, "held_karp_path", push_held_karp_path):
        try:
            return solver.solve_path(cost, starts, allowed_starts=allowed)
        except ValueError:
            return None


def memo_result(memo, nodes):
    """The memo's answer in the facade's terms (``None`` = infeasible)."""
    order, total = memo.solve(nodes)
    return None if total >= FORBIDDEN else (order, total)


@st.composite
def universes(draw, max_nodes=9):
    """A tie-heavy universe: arc weights 0-2, some forbidden starts."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    weight = st.integers(min_value=0, max_value=2)
    cost = [
        [0 if k == e else draw(weight) for e in range(size)]
        for k in range(size)
    ]
    starts = [
        float(draw(st.sampled_from([0, 1, 2, FORBIDDEN])))
        for _ in range(size)
    ]
    return cost, starts


def into_table(cost):
    """The memo's arc table: ``into[e][k]`` is the arc ``k -> e``."""
    size = len(cost)
    return [[float(cost[k][e]) for k in range(size)] for e in range(size)]


def selections_of(size):
    """Selections of a universe: distinct ids in a drawn index order."""
    return st.lists(
        st.integers(min_value=0, max_value=size - 1),
        min_size=1, max_size=min(size, 7), unique=True,
    )


def sub_instance(cost, starts, nodes):
    return (
        [[cost[k][e] for e in nodes] for k in nodes],
        [starts[k] for k in nodes],
    )


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_shared_memo_matches_the_push_dp_on_every_selection(data):
    cost, starts = data.draw(universes())
    memo = PathMemo(into_table(cost), starts)
    for nodes in data.draw(st.lists(selections_of(len(cost)), max_size=25)):
        sub_cost, sub_starts = sub_instance(cost, starts, nodes)
        assert memo_result(memo, nodes) == oracle_solve_path(
            sub_cost, sub_starts
        ), nodes


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_shared_memo_matches_the_f44_restriction(data):
    """The generator's f.4.4 rule: forbidden starts for ineligible
    nodes, against ``solve_path(allowed_starts=...)``."""
    cost, starts = data.draw(universes())
    eligible = data.draw(st.lists(
        st.booleans(), min_size=len(cost), max_size=len(cost)
    ))
    restricted = [
        start if ok else float(FORBIDDEN)
        for start, ok in zip(starts, eligible)
    ]
    memo = PathMemo(into_table(cost), restricted)
    for nodes in data.draw(st.lists(selections_of(len(cost)), max_size=25)):
        sub_cost, sub_starts = sub_instance(cost, starts, nodes)
        allowed = {p for p, node in enumerate(nodes) if eligible[node]}
        assert memo_result(memo, nodes) == oracle_solve_path(
            sub_cost, sub_starts, allowed
        ), nodes


@given(st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_memo_past_its_limit_still_matches(data):
    """A memo far below the selections' demand starts over between
    solves and answers exactly as before; it never exceeds its limit
    after a solve that fits."""
    cost, starts = data.draw(universes(max_nodes=8))
    limit = 2 ** 5
    memo = PathMemo(into_table(cost), starts)
    selections = data.draw(st.lists(
        st.lists(
            st.integers(min_value=0, max_value=len(cost) - 1),
            min_size=1, max_size=min(len(cost), 5), unique=True,
        ),
        min_size=1, max_size=25,
    ))
    with patch.object(held_karp_module, "PATH_MEMO_LIMIT", limit):
        for nodes in selections:
            sub_cost, sub_starts = sub_instance(cost, starts, nodes)
            assert memo_result(memo, nodes) == oracle_solve_path(
                sub_cost, sub_starts
            ), nodes
            assert len(memo) <= limit


def test_limit_clears_between_solves(monkeypatch):
    monkeypatch.setattr(held_karp_module, "PATH_MEMO_LIMIT", 2 ** 5)
    cost = [[(k * 7 + e * 3) % 3 for e in range(8)] for k in range(8)]
    starts = [float(k % 3) for k in range(8)]
    memo = PathMemo(into_table(cost), starts)
    for nodes in ([0, 1, 2, 3, 4], [3, 4, 5, 6, 7], [7, 0, 1, 2, 6]):
        sub_cost, sub_starts = sub_instance(cost, starts, nodes)
        assert memo_result(memo, nodes) == oracle_solve_path(
            sub_cost, sub_starts
        )
        assert len(memo) == 2 ** 5 - 1  # each solve started over
    assert memo.masks_built == 3 * (2 ** 5 - 1)


def test_memo_limit_holds_a_largest_solve():
    assert PATH_MEMO_LIMIT >= 2 ** HELD_KARP_LIMIT


def test_shared_solves_build_each_subset_once():
    cost = [[1] * 6 for _ in range(6)]
    memo = PathMemo(into_table(cost), [0.0] * 6)
    memo.solve([0, 1, 2, 3, 4, 5])
    assert memo.masks_built == 2 ** 6 - 1
    memo.solve([5, 3, 1])  # every subset is already held
    assert memo.masks_built == 2 ** 6 - 1


@given(universes(max_nodes=8))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_one_shot_held_karp_path_matches_the_push_dp(universe):
    cost, starts = universe
    assert held_karp_path(cost, starts) == push_held_karp_path(cost, starts)
    assert held_karp_path(cost) == push_held_karp_path(cost)


def test_empty_path():
    assert held_karp_path([]) == ([], 0.0)
    assert PathMemo([], []).solve([]) == ([], 0.0)


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
def test_tie_order_follows_the_selection(order):
    """All-zero weights tie everything: the tour is the first node of
    the selection's order, then the rest in that order."""
    cost = [[0] * 3 for _ in range(3)]
    memo = PathMemo(into_table(cost), [0.0] * 3)
    memo.solve([0, 1, 2])
    assert memo.solve(order) == push_held_karp_path(
        sub_instance(cost, [0.0] * 3, order)[0]
    )
