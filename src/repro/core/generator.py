"""The end-to-end March test generator (paper, Section 4).

Pipeline, per equivalence-class selection (Section 5):

1. model the target faults as BFEs and derive their test patterns;
2. build the Test Pattern Graph with f.4.1 weights;
3. find a minimum open path (ATSP with dummy/depot closure), preferring
   tours that start from a uniform 00/11 initialization (f.4.4);
4. concatenate the tour into a Global Test Sequence;
5. reorder + minimize + segment the GTS into a March test (rewrite
   rules of Sections 4.1-4.3, reconstructed -- see DESIGN.md);
6. validate by fault simulation and, if the reconstructed rules fall
   short, repair with the direct per-pattern realization;
7. shrink with the simulation-checked optimizer and keep the best
   result across selections.

The generated test is finally re-verified on a larger memory and
checked non-redundant through the Coverage Matrix / Set Covering
procedure of Section 6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..atsp.solver import solve_path
from ..faults.faultlist import FaultList
from ..kernel import SimulationKernel
from ..march.builder import build_march, sequential_march
from ..march.catalog import CATALOG
from ..march.test import MarchTest
from ..patterns.tpg import TestPatternGraph
from ..sequence.gts import GlobalTestSequence, build_gts
from ..sequence.rewrite import reorder_and_minimize
from ..simulator.coverage import is_non_redundant
from .config import GeneratorConfig
from .optimize import Verifier, optimize
from .report import GenerationReport
from .selection import Selection, enumerate_selections, selection_space_size


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
        self.kernel = kernel or SimulationKernel.from_config(self.config)

    # -- public API -------------------------------------------------------------

    def generate(self, faults: FaultList) -> GenerationReport:
        """Generate, validate and optimize a March test for ``faults``."""
        config = self.config
        started = time.perf_counter()

        classes = faults.classes(config.cells)
        if not classes:
            raise GenerationError("the fault list produced no BFE classes")
        cases = faults.instances(config.verify_size)
        if not cases:
            raise GenerationError(
                "the fault list has no behavioural instances to verify against"
            )
        verify = self.kernel.verifier(cases, config.verify_size)

        space = selection_space_size(classes)
        limit = config.selection_limit if config.equivalence_enumeration else 1

        attempts: List[_Attempt] = []
        seen_pattern_sets: Set[frozenset] = set()
        explored = 0
        for selection in enumerate_selections(classes, limit):
            explored += 1
            pattern_set = frozenset(p.key() for p in selection.patterns)
            if pattern_set in seen_pattern_sets:
                continue
            seen_pattern_sets.add(pattern_set)
            attempt = self._attempt(selection, verify)
            if attempt is not None:
                attempts.append(attempt)
        if not attempts:
            raise GenerationError(
                "no selection produced a simulator-verified March test"
            )

        attempts.sort(key=lambda a: a.metric)
        finalists = attempts[:4]
        best: Optional[_Attempt] = None
        for attempt in finalists:
            improved = optimize(
                attempt.test,
                verify,
                do_tighten=config.tighten,
                do_canonicalize=config.canonicalize_orders,
            )
            candidate = _Attempt(
                improved, attempt.gts, attempt.tour, attempt.tpg_size,
                attempt.used_repair,
            )
            if best is None or candidate.metric < best.metric:
                best = candidate
        assert best is not None

        lower_bound = min(
            -(-a.gts.length // 2) for a in attempts if a.gts is not None
        ) if any(a.gts is not None for a in attempts) else 2
        notes: List[str] = []
        if config.polish and best.test.complexity > lower_bound:
            polished = self._polish(best, verify, lower_bound, notes)
            if polished is not None:
                best = polished
        if best.test.complexity <= lower_bound:
            notes.append(
                f"complexity matches the GTS lower bound ({lower_bound}n):"
                " provably minimal for the selected patterns"
            )

        report = self._finalize(best, faults, explored, space, started)
        report.notes.extend(notes)
        return report

    def _polish(
        self, best: _Attempt, verify: Verifier, lower_bound: int,
        notes: List[str],
    ) -> Optional[_Attempt]:
        """Budgeted global search strictly below the incumbent.

        When it finds nothing, ``notes`` says whether the search
        covered the whole grammar or stopped at its budget.
        """
        from .exhaustive import SearchStats, exhaustive_search

        config = self.config
        stats = SearchStats()
        found = exhaustive_search(
            verify,
            max_complexity=best.test.complexity - 1,
            max_elements=config.polish_max_elements,
            min_complexity=lower_bound,
            budget=config.polish_budget,
            stats=stats,
        )
        if found is None:
            notes.append(
                f"polish budget exhausted at {config.polish_budget}"
                " candidates"
                if stats.budget_exhausted
                else "no shorter test within the grammar (search completed)"
            )
            return None
        improved = optimize(
            found.renamed("generated"),
            verify,
            do_tighten=False,
            do_canonicalize=config.canonicalize_orders,
        )
        return _Attempt(improved, best.gts, best.tour, best.tpg_size, True)

    # -- pipeline ----------------------------------------------------------------

    def _attempt(
        self, selection: Selection, verify: Verifier
    ) -> Optional[_Attempt]:
        config = self.config
        patterns = selection.patterns
        tpg = TestPatternGraph(weight_mode=config.weight_mode)
        for class_name, pattern in selection.choices:
            tpg.add(pattern, class_name)

        matrix = tpg.weight_matrix()
        start_costs = [tpg.start_weight(k) for k in range(len(tpg))]
        order = self._solve_tour(tpg, matrix, start_costs)
        gts = build_gts(tpg, order)
        minimized = reorder_and_minimize(gts)
        candidate = build_march(minimized, name="generated")

        if candidate is not None and verify(candidate):
            return _Attempt(candidate, gts, tuple(order), len(tpg), False)

        if not config.repair:
            return None
        ordered_patterns = [tpg.nodes[k].pattern for k in order]
        fallback = sequential_march(ordered_patterns, name="generated")
        if fallback is not None and verify(fallback):
            return _Attempt(fallback, gts, tuple(order), len(tpg), True)
        return None

    def _solve_tour(
        self,
        tpg: TestPatternGraph,
        matrix: Sequence[Sequence[float]],
        start_costs: Sequence[float],
    ) -> List[int]:
        config = self.config
        if config.prefer_uniform_start:
            allowed = {
                k
                for k, node in enumerate(tpg.nodes)
                if _uniform_init(node.pattern.init)
            }
            if allowed:
                try:
                    order, _ = solve_path(
                        matrix,
                        start_costs,
                        allowed_starts=allowed,
                        method=config.atsp_method,
                    )
                    return order
                except ValueError:
                    pass  # constraint infeasible: fall back (paper f.4.4)
        order, _ = solve_path(matrix, start_costs, method=config.atsp_method)
        return order

    # -- finalization -------------------------------------------------------------

    def _finalize(
        self,
        best: _Attempt,
        faults: FaultList,
        explored: int,
        space: int,
        started: float,
    ) -> GenerationReport:
        config = self.config
        confirm_cases = faults.instances(config.confirm_size)
        confirm_verify = self.kernel.verifier(
            confirm_cases, config.confirm_size
        )
        verified = confirm_verify(best.test)

        non_redundant: Optional[bool] = None
        if config.check_redundancy and verified:
            non_redundant = is_non_redundant(
                best.test, confirm_cases, config.confirm_size,
                kernel=self.kernel,
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
                f"confirmation at size {config.confirm_size} failed"
            )
        return report


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
