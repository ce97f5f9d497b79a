"""Section 5: enumeration of BFE equivalence-class selections.

Each :class:`BFEClass` may be covered by any one of its member BFEs,
and each member BFE by any one of its alternative observation TPs.
The paper enumerates the ``E = prod |Ci|`` combinations, solving one
ATSP per combination and keeping the best GTS.  For large user fault
lists the raw product explodes, so candidates are ranked (shared TPs
first -- selections that reuse a pattern shrink the TPG) and the
product is truncated to a configurable budget.

All selections of one fault list draw from one small pattern universe,
so the generator solves their ATSPs through one shared front end
(:class:`~repro.core.generator.SelectionTours`): patterns and pair
weights are computed once, and the Held-Karp subsets two selections
share are built once.  The result per selection is unchanged: its tour
is exactly the one a solve on its own TPG returns, and among tied
tours the choice follows the selection's own node order (its pattern
order, :attr:`Selection.patterns`), not the shared universe's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from ..faults.faultlist import BFEClass
from ..patterns.test_pattern import TestPattern, patterns_for_bfe


@dataclass(frozen=True)
class ClassCandidates:
    """All alternative TPs able to cover one class, ranked."""

    cls: BFEClass
    patterns: Tuple[TestPattern, ...]


@dataclass(frozen=True)
class Selection:
    """One TP choice per class."""

    choices: Tuple[Tuple[str, TestPattern], ...]  # (class name, pattern)

    @property
    def patterns(self) -> Tuple[TestPattern, ...]:
        """Unique patterns of the selection, in class order."""
        seen = {}
        for _, pattern in self.choices:
            seen.setdefault(pattern.key(), pattern)
        return tuple(seen.values())

    @property
    def unique_count(self) -> int:
        return len({p.key() for _, p in self.choices})


def class_candidates(cls: BFEClass) -> ClassCandidates:
    """Collect and de-duplicate the TPs of all class members."""
    seen: Dict[Tuple, TestPattern] = {}
    for member in cls.members:
        for pattern in patterns_for_bfe(member):
            seen.setdefault(pattern.key(), pattern)
    return ClassCandidates(cls, tuple(seen.values()))


def _rank_candidates(
    candidates: Sequence[ClassCandidates],
) -> List[ClassCandidates]:
    """Rank each class's TPs: shared across classes first, then less
    constrained initializations, then uniform-init friendliness."""
    counts: Dict[Tuple, int] = {}
    for cand in candidates:
        for pattern in cand.patterns:
            counts[pattern.key()] = counts.get(pattern.key(), 0) + 1

    def score(pattern: TestPattern) -> Tuple:
        concrete = [v for _, v in pattern.init if v != "-"]
        uniform = len(set(concrete)) <= 1
        return (
            -counts[pattern.key()],          # shared with other classes
            -pattern.init.dash_count,        # fewer constraints
            0 if uniform else 1,             # f.4.4 friendliness
            str(pattern),                    # determinism
        )

    return [
        ClassCandidates(c.cls, tuple(sorted(c.patterns, key=score)))
        for c in candidates
    ]


def _truncate_to_budget(
    ranked: List[ClassCandidates], limit: int
) -> List[ClassCandidates]:
    """Shrink per-class candidate lists until the product fits."""
    sizes = [len(c.patterns) for c in ranked]

    def product() -> int:
        total = 1
        for s in sizes:
            total *= s
            if total > limit:
                return total
        return total

    while product() > limit:
        largest = max(range(len(sizes)), key=lambda k: sizes[k])
        if sizes[largest] <= 1:
            break
        sizes[largest] -= 1
    return [
        ClassCandidates(c.cls, c.patterns[: sizes[k]])
        for k, c in enumerate(ranked)
    ]


def enumerate_selections(
    classes: Sequence[BFEClass], limit: int = 128
) -> Iterator[Selection]:
    """Yield TP selections, most promising first, within the budget.

    With ``limit == 1`` this degrades to the greedy single selection
    (the ablation's "no equivalence enumeration" mode).
    """
    candidates = _rank_candidates([class_candidates(c) for c in classes])
    if limit <= 1:
        yield Selection(
            tuple((c.cls.name, c.patterns[0]) for c in candidates)
        )
        return
    truncated = _truncate_to_budget(candidates, limit)
    names = [c.cls.name for c in truncated]
    pools = [c.patterns for c in truncated]
    emitted = 0
    for combo in itertools.product(*pools):
        yield Selection(tuple(zip(names, combo)))
        emitted += 1
        if emitted >= limit:
            return


def selection_space_size(classes: Sequence[BFEClass]) -> int:
    """The paper's E = prod |Ci| (Section 5), at TP granularity."""
    total = 1
    for cls in classes:
        total *= len(class_candidates(cls).patterns)
    return total
