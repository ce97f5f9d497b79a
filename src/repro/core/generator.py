"""The end-to-end March test generator (paper, Section 4).

Pipeline, per equivalence-class selection (Section 5):

1. model the target faults as BFEs and derive their test patterns;
2. build the Test Pattern Graph with f.4.1 weights;
3. find a minimum open path (ATSP with dummy/depot closure), preferring
   tours that start from a uniform 00/11 initialization (f.4.4); every
   selection of one call solves through one :class:`SelectionTours`
   front end, so patterns, pair weights and Held-Karp subsets shared
   between selections are computed once;
4. concatenate the tour into a Global Test Sequence;
5. reorder + minimize + segment the GTS into a March test (rewrite
   rules of Sections 4.1-4.3, reconstructed in
   :mod:`repro.sequence.rewrite`);
6. validate by fault simulation and, if the reconstructed rules fall
   short, repair with the direct per-pattern realization;
7. shrink the four best attempts (the finalists) with the
   simulation-checked optimizer, through one memo of climbs per call,
   and keep the best result; a budgeted search below it (the polish)
   may replace it, once its witness passes at the confirm size.

The generated test is finally re-verified on a larger memory and
checked non-redundant through the Coverage Matrix / Set Covering
procedure of Section 6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..atsp.held_karp import PathMemo
from ..atsp.hungarian import FORBIDDEN
from ..atsp.solver import HELD_KARP_LIMIT, solve_path
from ..faults.faultlist import BFEClass, FaultList
from ..faults.instances import FaultCase
from ..kernel import DEFAULT_BACKEND, SimulationKernel
from ..march.builder import build_march, sequential_march
from ..march.catalog import CATALOG
from ..march.test import MarchTest
from ..patterns.test_pattern import TestPattern
from ..patterns.tpg import TestPatternGraph, edge_weight, start_weight
from ..sequence.gts import GTSStep, GTSStepKey, GlobalTestSequence, build_gts
from ..sequence.rewrite import reorder_and_minimize
from ..simulator.coverage import is_non_redundant
from .config import GeneratorConfig
from .optimize import Verifier, optimize
from .report import GenerationReport
from .selection import Selection, enumerate_selections, selection_space_size


#: Element-count cap of the polish search grammar.
POLISH_MAX_ELEMENTS = 7

#: Candidates the polish search may simulate.
POLISH_BUDGET = 30000

#: Memory size of candidate verification in the search loop (2 cells
#: exercise both aggressor/victim orders).
VERIFY_SIZE = 2

#: Memory size of the final confirmation (3 adds a bystander cell in
#: every position).
CONFIRM_SIZE = 3


class GenerationError(RuntimeError):
    """Raised when no verified March test could be produced."""


@dataclass
class _Attempt:
    test: MarchTest
    gts: Optional[GlobalTestSequence]
    tour: Tuple[int, ...]
    tpg_size: int
    used_repair: bool

    @property
    def metric(self) -> Tuple[int, int]:
        return (self.test.complexity, len(self.test.elements))


class MarchTestGenerator:
    """Generates an optimal March test for an unconstrained fault list.

    >>> from repro.faults import FaultList
    >>> generator = MarchTestGenerator()
    >>> report = generator.generate(FaultList.from_names("SAF"))
    >>> report.complexity
    4
    """

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        kernel: Optional[SimulationKernel] = None,
    ) -> None:
        self.config = config or GeneratorConfig()
        #: All fault simulation -- search-loop verification, final
        #: confirmation, non-redundancy analysis -- goes through this
        #: kernel, so verdicts are memoized across pipeline stages.
        self.kernel = kernel or SimulationKernel(backend=DEFAULT_BACKEND)

    # -- public API -------------------------------------------------------------

    def generate(self, faults: FaultList) -> GenerationReport:
        """Generate, validate and optimize a March test for ``faults``."""
        config = self.config
        started = time.perf_counter()

        classes = faults.classes()
        if not classes:
            raise GenerationError("the fault list produced no BFE classes")
        cases = faults.instances(VERIFY_SIZE)
        if not cases:
            raise GenerationError(
                "the fault list has no behavioural instances to verify against"
            )
        verify = self.kernel.verifier(cases, VERIFY_SIZE)

        space = selection_space_size(classes)
        attempts, explored = self._explore(classes, verify)
        if not attempts:
            raise GenerationError(
                "no selection produced a simulator-verified March test"
            )

        attempts.sort(key=lambda a: a.metric)
        # The finalists share their climbs: a distinct test is optimized
        # once, and a climb stops at a test an earlier climb passed
        # through (exact, as a climb is a pure function of its test).
        climbs: Dict[MarchTest, MarchTest] = {}
        optimized: Dict[MarchTest, MarchTest] = {}
        best: Optional[_Attempt] = None
        for attempt in attempts[:4]:
            improved = optimized.get(attempt.test)
            if improved is None:
                improved = optimized[attempt.test] = optimize(
                    attempt.test, verify, do_tighten=config.tighten,
                    memo=climbs,
                )
            candidate = _Attempt(
                improved, attempt.gts, attempt.tour, attempt.tpg_size,
                attempt.used_repair,
            )
            if best is None or candidate.metric < best.metric:
                best = candidate
        assert best is not None

        # The GTS half-length only gates the polish: it is no true lower
        # bound (ROADMAP item 2), so the polish searches from the floor.
        lower_bound = min(
            -(-a.gts.length // 2) for a in attempts if a.gts is not None
        ) if any(a.gts is not None for a in attempts) else 2
        confirm_cases = faults.instances(CONFIRM_SIZE)
        confirm_verify = self.kernel.verifier(confirm_cases, CONFIRM_SIZE)
        notes: List[str] = []
        if config.polish and best.test.complexity > lower_bound:
            polished = self._polish(best, verify, confirm_verify, notes)
            if polished is not None:
                best = polished

        report = self._finalize(
            best, faults, confirm_cases, confirm_verify, explored, space,
            started,
        )
        report.notes.extend(notes)
        return report

    def _polish(
        self, best: _Attempt, verify: Verifier, confirm_verify: Verifier,
        notes: List[str],
    ) -> Optional[_Attempt]:
        """Budgeted global search strictly below the incumbent, from the
        grammar's smallest bound up, so a witness is minimal within the
        grammar and budget.

        When it finds nothing, ``notes`` says whether the search
        covered the whole grammar or stopped at its budget.  The search
        runs at :data:`VERIFY_SIZE`; a witness that fails
        ``confirm_verify`` (a size-2 witness can miss a fault at size 3)
        is not adopted.  ``notes`` names the witness either way.
        """
        from .exhaustive import SearchStats, exhaustive_search

        stats = SearchStats()
        found = exhaustive_search(
            verify,
            max_complexity=best.test.complexity - 1,
            max_elements=POLISH_MAX_ELEMENTS,
            budget=POLISH_BUDGET,
            stats=stats,
        )
        if found is None:
            notes.append(
                f"polish budget exhausted at {POLISH_BUDGET} candidates"
                if stats.budget_exhausted
                else "no shorter test within the grammar (search completed)"
            )
            return None
        improved = optimize(
            found.renamed("generated"), verify, do_tighten=False
        )
        if not confirm_verify(improved):
            notes.append(
                f"polish witness {improved} failed confirmation at size"
                f" {CONFIRM_SIZE}; kept {best.test}"
            )
            return None
        notes.append(
            f"polish witness {improved} replaced the"
            f" {best.test.complexity_label} incumbent"
        )
        return _Attempt(improved, best.gts, best.tour, best.tpg_size, False)

    # -- pipeline ----------------------------------------------------------------

    def _explore(
        self, classes: Sequence[BFEClass], verify: Verifier
    ) -> Tuple[List[_Attempt], int]:
        """One attempt per distinct pattern set of the enumerated
        selections; returns ``(attempts, selections explored)``.

        The selections share one :class:`SelectionTours`, which lives
        exactly as long as this loop.
        """
        config = self.config
        tours = SelectionTours(
            config.weight_mode, config.prefer_uniform_start, config.atsp_method
        )
        attempts: List[_Attempt] = []
        seen_pattern_sets: Set[frozenset] = set()
        explored = 0
        for selection in enumerate_selections(classes, config.selection_limit):
            explored += 1
            pattern_set = frozenset(p.key() for p in selection.patterns)
            if pattern_set in seen_pattern_sets:
                continue
            seen_pattern_sets.add(pattern_set)
            attempt = self._attempt(selection, verify, tours)
            if attempt is not None:
                attempts.append(attempt)
        return attempts, explored

    def _attempt(
        self, selection: Selection, verify: Verifier, tours: SelectionTours
    ) -> Optional[_Attempt]:
        config = self.config
        tpg = TestPatternGraph(weight_mode=config.weight_mode)
        for class_name, pattern in selection.choices:
            tpg.add(pattern, class_name)

        order = tours.solve([node.pattern for node in tpg.nodes])
        gts = build_gts(tpg, order, memo=tours.gts_steps)
        minimized = reorder_and_minimize(gts)
        candidate = build_march(minimized, name="generated")

        if candidate is not None and verify(candidate):
            return _Attempt(candidate, gts, tuple(order), len(tpg), False)

        ordered_patterns = [tpg.nodes[k].pattern for k in order]
        fallback = sequential_march(ordered_patterns, name="generated")
        if fallback is not None and verify(fallback):
            return _Attempt(fallback, gts, tuple(order), len(tpg), True)
        return None

    # -- finalization -------------------------------------------------------------

    def _finalize(
        self,
        best: _Attempt,
        faults: FaultList,
        confirm_cases: Sequence[FaultCase],
        confirm_verify: Verifier,
        explored: int,
        space: int,
        started: float,
    ) -> GenerationReport:
        config = self.config
        verified = confirm_verify(best.test)

        non_redundant: Optional[bool] = None
        if config.check_redundancy and verified:
            non_redundant = is_non_redundant(
                best.test, confirm_cases, CONFIRM_SIZE,
                kernel=self.kernel, verifier=confirm_verify,
            )

        equivalent = _known_equivalent(
            best.test, confirm_verify
        )

        report = GenerationReport(
            test=best.test,
            fault_names=faults.names,
            # Stamped after confirmation, redundancy and the catalog
            # match: the whole generate() call, as the paper times it.
            elapsed_seconds=time.perf_counter() - started,
            verified=verified,
            non_redundant=non_redundant,
            equivalent_known=equivalent,
            gts=best.gts,
            tour=best.tour,
            tpg_size=best.tpg_size,
            selections_explored=explored,
            selection_space=space,
            used_repair=best.used_repair,
        )
        if not verified:
            report.notes.append(
                f"confirmation at size {CONFIRM_SIZE} failed"
            )
        return report


class SelectionTours:
    """The ATSP front end of one ``generate()`` call (Sections 4-5).

    Every selection is a subset of one small pattern universe, and the
    start cost and f.4.4 start eligibility of a pattern do not depend
    on the selection.  So each distinct pattern is interned once
    (universe id, start cost, eligibility), each pair weight is
    computed once when a selection first needs it, and every selection
    solves through one :class:`~repro.atsp.held_karp.PathMemo` per
    start rule: f.4.4 (ineligible starts forbidden) and the
    unrestricted fallback.  :meth:`solve` returns exactly the order
    ``solve_path(..., method="auto")`` returns on the selection's own
    ``weight_matrix()`` -- ties follow the selection's node order.
    A non-default ``atsp_method``, or a selection past
    :data:`~repro.atsp.solver.HELD_KARP_LIMIT` nodes, is solved by
    ``solve_path`` on the selection's sub-matrix of the same tables.

    The front end also keeps the call's :func:`~repro.sequence.gts.
    build_gts` steps (``gts_steps``), which the selections' tours repeat.

    Nothing in the memos points back here, so the front end and its
    memos are freed as soon as the selection loop drops it.
    """

    def __init__(
        self,
        weight_mode: str = "hamming",
        prefer_uniform_start: bool = True,
        atsp_method: str = "auto",
    ) -> None:
        self.weight_mode = weight_mode
        self.prefer_uniform_start = prefer_uniform_start
        self.atsp_method = atsp_method
        self._ids: Dict[Tuple, int] = {}
        self._patterns: List[TestPattern] = []
        self._eligible: List[bool] = []
        #: ``_into[e][k]``: the weight of ``k -> e`` (None until needed).
        self._into: List[List[Optional[float]]] = []
        self._starts: List[float] = []
        self._uniform_starts: List[float] = []
        self.free = PathMemo(self._into, self._starts)
        self.uniform = PathMemo(self._into, self._uniform_starts)
        self.gts_steps: Dict[GTSStepKey, GTSStep] = {}
        #: Pair weights computed, over the front end's lifetime.
        self.weight_computations = 0

    def solve(self, patterns: Sequence[TestPattern]) -> List[int]:
        """The tour over ``patterns`` (positions in ``patterns``),
        starting from a uniform initialization when one is admissible
        (f.4.4) and unrestricted otherwise."""
        nodes = [self._intern(pattern) for pattern in patterns]
        self._fill_weights(nodes)
        if self.prefer_uniform_start and any(
            self._eligible[node] for node in nodes
        ):
            try:
                return self._solve(nodes, uniform=True)
            except ValueError:
                pass  # constraint infeasible: fall back (paper f.4.4)
        return self._solve(nodes, uniform=False)

    def _solve(self, nodes: Sequence[int], uniform: bool) -> List[int]:
        """One start rule; raises ValueError when it admits no tour."""
        if self.atsp_method == "auto" and len(nodes) <= HELD_KARP_LIMIT:
            memo = self.uniform if uniform else self.free
            order, total = memo.solve(nodes)
            if total >= FORBIDDEN:
                raise ValueError("start restriction is infeasible")
            return order
        into = self._into
        matrix = [
            [0.0 if source == target else into[target][source]
             for target in nodes]
            for source in nodes
        ]
        allowed = (
            {p for p, node in enumerate(nodes) if self._eligible[node]}
            if uniform else None
        )
        order, _ = solve_path(
            matrix,
            [self._starts[node] for node in nodes],
            allowed_starts=allowed,
            method=self.atsp_method,
        )
        return order

    def _intern(self, pattern: TestPattern) -> int:
        key = pattern.key()
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self._patterns)
            self._patterns.append(pattern)
            eligible = _uniform_init(pattern.init)
            self._eligible.append(eligible)
            start = float(start_weight(pattern))
            self._starts.append(start)
            self._uniform_starts.append(start if eligible else float(FORBIDDEN))
            for row in self._into:
                row.append(None)
            self._into.append([None] * (node + 1))
        return node

    def _fill_weights(self, nodes: Sequence[int]) -> None:
        patterns, mode = self._patterns, self.weight_mode
        for target in nodes:
            row = self._into[target]
            for source in nodes:
                if source != target and row[source] is None:
                    row[source] = float(
                        edge_weight(patterns[source], patterns[target], mode)
                    )
                    self.weight_computations += 1


def _uniform_init(init) -> bool:
    """True when the initialization is compatible with 00..0 or 11..1
    (the f.4.4 start-state preference; don't-cares are compatible with
    both)."""
    concrete = [v for _, v in init if v != "-"]
    return len(set(concrete)) <= 1


def _known_equivalent(test: MarchTest, verify: Verifier) -> Optional[str]:
    """A literature test with the same complexity covering the same
    fault list, as reported in Table 3's last column."""
    for name, known in sorted(CATALOG.items()):
        if known.complexity == test.complexity and verify(known):
            return f"{name} ({known.complexity_label})"
    return None


def generate_march_test(
    *fault_names: str, config: Optional[GeneratorConfig] = None
) -> GenerationReport:
    """One-call convenience API.

    >>> report = generate_march_test("SAF", "TF")
    >>> report.complexity <= 5
    True
    """
    faults = FaultList.from_names(*fault_names)
    return MarchTestGenerator(config).generate(faults)
