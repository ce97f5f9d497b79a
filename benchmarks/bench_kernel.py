"""SimulationKernel vs. the legacy per-call simulation path.

Workload: the full ``detection_matrix`` of eight catalog March tests
against the paper's Table 3 fault list (SAF+TF+ADF+CFin+CFid), at the
historical size 3 and at size 8 where bit-parallel lane packing pays.

Compared paths:

* **legacy**       -- the pre-refactor loop: variants re-enumerated and
  a fresh ``MemoryArray`` allocated per (order-variant, fault-variant);
* **cold**         -- a fresh kernel (serial backend): per-test variant
  hoisting, batched evaluation;
* **warm**         -- the same kernel again: pure fault-dictionary
  lookups;
* **bitparallel**  -- a fresh kernel with the word-packed backend: all
  lane-packable fault instances advance in one machine word per march
  operation;
* **store warm start** -- two *separate processes* running the same
  workload against one persistent fault-dictionary store
  (``--store``): the first simulates and writes through, the second
  answers every verdict from disk without touching a backend;
* **service warm read** -- the same two-client warm start through a
  live verdict-service daemon (``repro serve``) over its Unix socket:
  no client opens SQLite, the second client answers every verdict
  from the service (``table3_size3_service`` in the JSON record);
* **service async warm read** -- the event-loop daemon measured
  against its own SQLite data path: the hot-LRU warm read vs the same
  daemon with the hot tier disabled (``--hot-lru-size 0``, which is
  the threaded daemon's warm-read throughput), plus one pipelined
  burst vs chunked blocking round trips
  (``table3_size3_service_async``);
* **ANY-order tree** -- engine level, k = 0..8 ⇕ elements of one
  nine-element test at size 2: the ``2**k`` realization enumeration
  vs the shared-prefix walk stepped through a fresh transition table
  (realizations, leaves, segment runs, element steps, engine runs,
  seconds; ``any_order_k0_8``);
* **certify step table** -- the minimality search below MarchC-'s
  complexity against its fault list at sizes 2/3/4/6: candidates,
  engine runs behind the verifier's transition table, table hits and
  distinct transitions, dead subtrees the search's memo answered,
  seconds and the engine's share of them (``certify_step_table``);
* **Table 3 front end** -- per Table 3 row, the generator's ATSP
  front end alone (TPG, weights, tours, no verification): each
  selection solved on its own matrix vs every selection through one
  shared ``SelectionTours`` -- selections, Held-Karp masks and pair
  weights computed, seconds (``table3_front_end``);
* **coverage sweep** -- one cold bitparallel ``simulate_many`` of
  every catalog test against the twelve base fault models at size 16:
  seconds, verdicts, lanes, the lane plan's address-decoder entries,
  and the element steps, engine runs and table hits/misses of the one
  transition table its tests share (``coverage_size16_sweep``);
* **Table 3 optimize** -- per Table 3 row, the optimize phase of one
  ``generate()``: climbs, steps, shrink moves listed, candidates built,
  malformed and verified, seconds (``table3_optimize``).

``python benchmarks/bench_kernel.py`` prints the comparison table and
writes the machine-readable ``BENCH_kernel.json`` next to the repo
root (per-backend wall-clock, speedup ratios, workload metadata) so
the performance trajectory is tracked across PRs instead of living in
print-only output.  The ``test_*_guard`` checks double as the CI smoke
benchmark: they fail when the warm-cache path stops being >= 3x faster
than legacy, when the bit-parallel cold path stops being >= 3x faster
than the serial cold path at size 8, when the second cold-process
store run stops being >= 3x faster than the first, or when the cold
path regresses past a generous wall-clock ceiling.
"""

import contextlib
import dataclasses
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import queue as queue_module
import statistics
import sys
import tempfile
import time

from repro.faults import FaultList
from repro.kernel import SimKey, SimulationKernel, canonical_signature
from repro.store.campaign import CampaignSpec, normalized_manifest, \
    run_campaign
from repro.store.service import (
    PROTOCOL_VERSION,
    ServiceStore,
    VerdictService,
    batch_frame,
)
from repro.store.store import decode_verdict, pair_groups
from repro.march.test import march
from repro.march.catalog import (
    MARCH_A,
    MARCH_B,
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS,
    MATS_PLUS_PLUS,
    MSCAN,
)

# The frozen legacy baseline is shared with the equivalence suite so
# the speedup guard and the byte-identity properties can never compare
# against two diverging "legacy" definitions.
sys.path.insert(
    0,
    str(pathlib.Path(__file__).resolve().parent.parent / "tests" / "kernel"),
)
from legacy_reference import legacy_detection_matrix  # noqa: E402

TESTS = [
    MATS,
    MATS_PLUS_PLUS,
    MARCH_X,
    MARCH_Y,
    MARCH_C_MINUS,
    MARCH_A,
    MARCH_B,
    MSCAN,
]
SIZE = 3
#: The bit-parallel acceptance workload: lane packing pays off once the
#: coupling-fault population grows quadratically with the memory size.
SIZE_LARGE = 8

#: Acceptance floor: warm-cache detection_matrix vs. the legacy path.
REQUIRED_WARM_SPEEDUP = 3.0
#: Acceptance floor: second cold-process run of the Table 3 workload
#: with ``--store`` vs. the first (the PR's measured ratio is ~8-15x;
#: 3x is the regression guard so slow shared CI disks do not flake).
REQUIRED_STORE_WARM_SPEEDUP = 3.0
#: Acceptance floor: the event-loop daemon's hot-LRU warm read vs the
#: same daemon with the hot tier disabled (``--hot-lru-size 0``: every
#: read answered from SQLite, which is the threaded daemon's warm-read
#: data path).  1.0x is the contract -- the async rework must never be
#: slower than what it replaced -- and the measured ratio, recorded as
#: ``hot_lru_speedup``, is the trajectory number.
REQUIRED_HOT_LRU_SPEEDUP = 1.0
#: Acceptance floor: bit-parallel cold vs. serial cold at SIZE_LARGE
#: (the PR's target is >= 10x; 3x is the regression guard so slow
#: shared CI runners do not flake).
REQUIRED_BITPARALLEL_SPEEDUP = 3.0
#: CI wall-clock ceiling for one cold kernel matrix (seconds); the
#: measured value is ~0.1 s on a laptop, so 10 s only catches gross
#: regressions on slow shared runners.
COLD_WALL_CLOCK_CEILING = 10.0

#: Acceptance ceiling of the telemetry layer: the instrumented serial
#: Table 3 matrix (live registry + tracer) must stay within 5% of the
#: uninstrumented run.  Both sides run on the same machine in
#: alternating pairs on a frozen heap, and the ratio is the median of
#: the pair ratios (:func:`telemetry_overhead`), so it does not flake
#: with runner speed, with a slow spell hitting one side only, or with
#: the heap that earlier tests left behind.
TELEMETRY_OVERHEAD_CEILING = 1.05
TELEMETRY_OVERHEAD_PAIRS = 15

#: Acceptance floor: ``repro campaign --jobs 4`` vs the sequential run
#: of the same spec.  Only meaningful with real cores to fan out to,
#: so the guard skips below FANOUT_MIN_CPUS (CI's ubuntu runners have
#: 4); the determinism half of the contract is checked regardless.
REQUIRED_FANOUT_SPEEDUP = 2.0
FANOUT_JOBS = 4
FANOUT_MIN_CPUS = 4

#: The ANY-order tree record: a march test whose first k of nine
#: elements are ⇕, for k = 0..ANY_ORDER_MAX_K, against SAF+TF+ADF+CFin
#: at the generator's verify size.
ANY_ORDER_BODIES = (
    ("w0",), ("r0", "w1"), ("r1", "w0"), ("r0", "w1"), ("r1", "w0"),
    ("r0", "w1"), ("r1", "w0"), ("r0", "w1"), ("r1",),
)
ANY_ORDER_MAX_K = 8
ANY_ORDER_SIZE = 2
ANY_ORDER_FAULTS = FaultList.from_names("SAF", "TF", "ADF", "CFIN")

#: The certify record: the budgeted minimality search strictly below
#: MarchC-'s 10n against its Table 3 fault list, as perfbench's
#: ``certify`` workload runs it, at several memory sizes.
CERTIFY_FAULTS = ("SAF", "TF", "ADF", "CFIN", "CFID")
CERTIFY_BOUND = 9
CERTIFY_BUDGET = 30000
CERTIFY_MAX_ELEMENTS = 7
CERTIFY_SIZES = (2, 3, 4, 6)
#: Guard: the table must answer at least this share of the engine runs
#: a per-candidate verifier makes (one per candidate here).
CERTIFY_RUN_COLLAPSE = 10
#: Guard: the search steps each tree edge once and no dead subtree
#: twice, so it makes under this many element steps per candidate (a
#: candidate replayed from power-up costs ~4.5 on the MarchC- row, a
#: tree walk stepping each prefix once ~1.28, the walk with its memo of
#: dead subtrees ~0.22).
CERTIFY_STEPS_PER_CANDIDATE = 1 / 3

#: The coverage sweep record: every catalog test against the twelve
#: base fault models at size 16, as perfbench's ``coverage`` workload
#: runs it (40,512 verdicts over 4,129 lanes).
COVERAGE_MODELS = (
    "SAF", "TF", "ADF", "CFIN", "CFID", "CFST", "RDF", "DRDF", "IRF",
    "WDF", "DRF", "SOF",
)
COVERAGE_SIZE = 16
#: The sweep's two-cell lanes (ADF-B/C/D, CFin, CFid, CFst): 240 + 960
#: + 240 + 480 + 960 + 960 of its 4,128 fault lanes.
TWO_CELL_LANES = 3840

#: The six Table 3 rows, in ``repro table3`` order.
TABLE3_ROWS = (
    ("SAF",),
    ("SAF", "TF"),
    ("SAF", "TF", "ADF"),
    ("SAF", "TF", "ADF", "CFIN"),
    ("SAF", "TF", "ADF", "CFIN", "CFID"),
    ("CFIN",),
)
#: The shared front end must build at most 1/FRONT_END_MASK_SHARE of
#: the Held-Karp masks the per-selection solves build on the two ADF
#: rows with many distinct selections.  (The five-fault row also has
#: ADF, but one distinct selection: nothing to share.)
FRONT_END_MASK_SHARE = 4
FRONT_END_GUARDED_ROWS = ("SAF+TF+ADF", "SAF+TF+ADF+CFIN")

#: Machine-readable benchmark record, tracked across PRs.
BENCH_JSON_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
)


def table3_faults():
    return FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")


# -- measured scenarios --------------------------------------------------------


def run_legacy(faults):
    return legacy_detection_matrix(TESTS, faults, SIZE)


def run_kernel_cold(faults, backend="serial", size=SIZE):
    return SimulationKernel(backend=backend).detection_matrix(
        TESTS, faults, size
    )


def any_order_test(k):
    """A nine-element march test whose first ``k`` elements are ⇕."""
    orders = ["any"] * k + ["up"] * (len(ANY_ORDER_BODIES) - k)
    return march(*[
        (order, *body) for order, body in zip(orders, ANY_ORDER_BODIES)
    ], name=f"any{k}")


def measure_any_order_tree(repeats=3):
    """Realizations of k = 0..8 ⇕ elements: enumeration vs the walk.

    The enumeration runs all ``2**k`` realizations from an empty
    memory on the bare engine; :func:`~repro.simulator.ordertree.
    walk_realizations` steps each segment once per tree node, element
    by element, through a fresh
    :class:`~repro.simulator.bitengine.TransitionTable` (as a cold
    verifier does), and merges equal states.  Both take the AND over
    every leaf (no early exit), so the masks must agree.  The walk's
    seconds include its engine runs, one per distinct (state, element)
    pair.  Engine-level and informational: the counts are exact, the
    seconds are trajectory data without a floor.
    """
    from repro.simulator.bitengine import PackedSimulation, TransitionTable
    from repro.simulator.ordertree import walk_realizations

    cases = ANY_ORDER_FAULTS.instances(ANY_ORDER_SIZE)
    simulation = PackedSimulation(cases, ANY_ORDER_SIZE)

    def enumerate_all(test):
        agreed = simulation.full
        for variant in test.concrete_order_variants():
            agreed &= simulation.run_variant(variant)[1]
        return agreed

    def walk_all(test):
        table = TransitionTable(simulation)
        leaves = []
        walk = walk_realizations(table, test, leaves.append)
        agreed = simulation.full
        for detected in leaves:
            agreed &= detected
        return agreed, walk, table

    rows = []
    for k in range(ANY_ORDER_MAX_K + 1):
        test = any_order_test(k)
        # The enumeration's memo is built outside the timing.
        realizations = len(test.concrete_order_variants())
        enum_seconds, enum_mask = _best_of(repeats, enumerate_all, test)
        walk_seconds, (walk_mask, walk, table) = _best_of(
            repeats, walk_all, test
        )
        assert walk_mask == enum_mask, f"k={k}: walk diverged"
        rows.append({
            "k": k,
            "realizations": realizations,
            "enumeration": {
                "segment_runs": realizations,
                "elements": realizations * len(test),
                "seconds": enum_seconds,
            },
            "walk": {
                "leaves": walk.leaves,
                "segment_runs": walk.segments,
                "element_steps": table.hits.value + table.misses.value,
                "engine_runs": table.misses.value,
                "seconds": walk_seconds,
            },
        })
    return {
        "faults": "+".join(ANY_ORDER_FAULTS.names),
        "fault_cases": len(cases),
        "lanes": simulation.lanes,
        "size": ANY_ORDER_SIZE,
        "elements": len(ANY_ORDER_BODIES),
        "by_k": rows,
        "guard_enforced": False,
        "skipped_reason": (
            "informational record: mask identity is asserted, the"
            " counts and seconds are trajectory data without a floor"
        ),
    }


class CountingRuns:
    """Counts ``PackedSimulation.run_variant`` calls while active, by
    wrapping the class attribute the transition table calls, and keeps
    each call's arguments for :meth:`engine_seconds`."""

    def __enter__(self):
        from repro.simulator.bitengine import PackedSimulation

        self.runs = 0
        self.calls = []
        self._original = original = PackedSimulation.run_variant

        def counted(simulation, *args, **kwargs):
            self.runs += 1
            self.calls.append((simulation, args, kwargs))
            return original(simulation, *args, **kwargs)

        PackedSimulation.run_variant = counted
        return self

    def __exit__(self, *exc_info):
        from repro.simulator.bitengine import PackedSimulation

        PackedSimulation.run_variant = self._original

    def engine_seconds(self, repeats=3):
        """The engine alone: the recorded runs -- one per (state,
        element) miss of a transition table -- replayed back to back,
        best of ``repeats``."""
        run = self._original

        def replay():
            for simulation, args, kwargs in self.calls:
                run(simulation, *args, **kwargs)

        return _best_of(repeats, replay)[0]


def certify_search(size, per_candidate=False, budget=CERTIFY_BUDGET):
    """One cold MarchC- row minimality search; returns the row record.

    With ``per_candidate`` the search sees the verifier as a plain
    predicate, which it calls once per candidate from power-up: the
    reference the stepped search must match in everything but steps.
    ``budget=None`` searches the whole grammar below the bound.
    """
    from repro.core.exhaustive import SearchStats, exhaustive_search

    kernel = SimulationKernel(backend="bitparallel")
    stats = SearchStats()
    cases = FaultList.from_names(*CERTIFY_FAULTS).instances(size)
    verifier = kernel.verifier(cases, size)
    predicate = (lambda test: verifier(test)) if per_candidate else verifier
    with CountingRuns() as counter:
        started = time.perf_counter()
        found = exhaustive_search(
            predicate,
            max_complexity=CERTIFY_BOUND,
            max_elements=CERTIFY_MAX_ELEMENTS,
            budget=budget,
            stats=stats,
        )
        seconds = time.perf_counter() - started
    verify = kernel.verify_stats
    assert found is None, f"size {size}: {found} beats MarchC-"
    assert counter.runs == verify.table_misses.value
    engine_seconds = counter.engine_seconds()
    return {
        "size": size,
        "fault_cases": len(cases),
        "seconds": seconds,
        "engine_seconds": engine_seconds,
        "engine_share": engine_seconds / seconds,
        "candidates": stats.candidates_tested,
        "nodes_expanded": stats.nodes_expanded,
        "subtrees_reused": stats.subtrees_reused,
        "verify_calls": verify.calls,
        "engine_runs": counter.runs,
        "table_hits": verify.table_hits.value,
        "element_steps": (
            verify.table_hits.value + verify.table_misses.value
        ),
        "budget_exhausted": stats.budget_exhausted,
        "table_limit": verifier.table.limit,
        "table_entries": len(verifier.table.transitions),
    }


def measure_certify_step_table(sizes=CERTIFY_SIZES):
    """The certify record: per size, what the transition table saves.

    Without the table the verifier runs the engine once per candidate
    (no candidate has a ⇕ element).  With it the engine runs once per
    distinct (state, element) pair, and those stay below the table
    limit, so no clear happened and ``engine_runs`` is also the table
    size (``table_entries``).  The search steps each prefix once down its grammar tree and
    counts a subtree it already walked dead from its memo
    (``subtrees_reused``) without stepping it, so ``element_steps``
    (table hits + engine runs) is about one per five candidates.  At
    sizes up to 4 the table is bound by its entry count
    (``table_limit``), at size 6 by its state bits.  ``engine_seconds`` is the engine alone: the
    search's engine runs replayed from their recorded (state, element)
    misses; ``engine_share`` is its share of ``seconds``.
    Informational: the counts are exact, the seconds are trajectory
    data without a floor.
    """
    from repro.simulator.bitengine import TRANSITION_TABLE_LIMIT

    rows = [certify_search(size) for size in sizes]
    for row in rows:
        assert row["engine_runs"] == row["table_entries"] < row["table_limit"]
    return {
        "faults": "+".join(CERTIFY_FAULTS),
        "max_complexity": CERTIFY_BOUND,
        "max_elements": CERTIFY_MAX_ELEMENTS,
        "budget": CERTIFY_BUDGET,
        "table_limit": TRANSITION_TABLE_LIMIT,
        "by_size": rows,
        "guard_enforced": False,
        "skipped_reason": (
            "informational record: CI guards only the count ratios"
            " (test_certify_engine_runs_collapse); the seconds are"
            " trajectory data without a floor"
        ),
    }


def measure_coverage_sweep(repeats=3):
    """The coverage sweep record: one cold bitparallel
    ``simulate_many`` of every catalog test against the base models at
    size 16 (best of ``repeats``), plus the shape of its lane plan and
    the steps of its transition table.

    The plan holds one mask per role of each cell; ``plan`` records
    what one write and one read work through: the merged single-cell
    rules (the most over every cell and value) and the role masks
    (fan-out and CFst hold; read source and CFrd), which stay the same
    however many neighbours a cell has, plus the two-cell lanes the
    engine carries in its victim lane words.  The tests share one
    table: ``steps`` records the element steps they make, the engine
    runs behind them (counted untimed, on one more sweep), the table
    hits and misses, and the distinct transitions the table holds at
    the end.  ``engine_seconds`` is the engine alone: those engine
    runs replayed from their recorded (state, element) misses.
    """
    from repro.march.catalog import CATALOG

    tests = list(CATALOG.values())
    cases = FaultList.from_names(*COVERAGE_MODELS).instances(COVERAGE_SIZE)

    def sweep():
        kernel = SimulationKernel(backend="bitparallel")
        return kernel.simulate_many(tests, cases, COVERAGE_SIZE), kernel

    seconds, _ = _best_of(repeats, sweep)
    with CountingRuns() as counter:
        reports, kernel = sweep()
    backend = kernel.backend
    ((_, table),) = backend._plans.values()
    hits, misses = backend.table_hits.value, backend.table_misses.value
    steps = {
        "element_steps": hits + misses,
        "engine_runs": counter.runs,
        "table_hits": hits,
        "table_misses": misses,
        "distinct_transitions": len(table.transitions),
        "table_limit": table.limit,
    }
    plan = table.simulation.plan
    cells = range(COVERAGE_SIZE)
    shape = {
        "write_rules": max(
            len(plan.write_rules[value][cell])
            for cell in cells for value in (0, 1)
        ),
        "write_role_masks": max(
            len(plan.fanout[value][cell]) + len(plan.hold[cell])
            for cell in cells for value in (0, 1)
        ),
        "read_rules": max(len(plan.read_rules[cell]) for cell in cells),
        "read_role_masks": max(
            len(plan.read_source[cell]) + len(plan.read_force[cell])
            for cell in cells
        ),
        "two_cell_lanes": sum(
            bin(lanes).count("1") for lanes in plan.aggressor
        ),
    }
    return {
        "tests": len(tests),
        "models": "+".join(COVERAGE_MODELS),
        "fault_cases": len(cases),
        "size": COVERAGE_SIZE,
        "backend": "bitparallel",
        "lanes": plan.lanes,
        "verdicts": sum(
            len(report.detected) + len(report.missed) for report in reports
        ),
        "detected": sum(len(report.detected) for report in reports),
        "seconds": seconds,
        "engine_seconds": counter.engine_seconds(repeats),
        "plan": shape,
        "steps": steps,
        "guard_enforced": False,
        "skipped_reason": (
            "informational record: the counts are exact, the seconds"
            " are trajectory data without a floor (perfbench's"
            " coverage workload tracks the end-to-end time)"
        ),
    }


def front_end_selections(names, generator):
    """The TPGs of the selections ``generator.generate()`` attempts for
    ``names`` (its own selection loop, with nothing attempted), and
    the number of selections explored."""
    from repro.patterns.tpg import TestPatternGraph

    graphs = []

    def record(selection, verify, tours):
        graph = TestPatternGraph(weight_mode=generator.config.weight_mode)
        for class_name, pattern in selection.choices:
            graph.add(pattern, class_name)
        graphs.append(graph)

    generator._attempt = record
    try:
        classes = FaultList.from_names(*names).classes()
        _, explored = generator._explore(classes, verify=None)
    finally:
        del generator._attempt
    return graphs, explored


def facade_tour(graph):
    """The tour of one selection solved on its own: ``solve_path`` on
    ``graph.weight_matrix()``, from a uniform start when one is
    admissible (f.4.4) and unrestricted otherwise."""
    from repro.atsp.solver import solve_path
    from repro.core.generator import _uniform_init

    matrix = graph.weight_matrix()
    starts = [graph.start_weight(k) for k in range(len(graph))]
    allowed = {
        k for k, node in enumerate(graph.nodes)
        if _uniform_init(node.pattern.init)
    }
    if allowed:
        try:
            return solve_path(matrix, starts, allowed_starts=allowed)[0]
        except ValueError:
            pass
    return solve_path(matrix, starts)[0]


def front_end_row(names, repeats=5):
    """One row of the ``table3_front_end`` record: every attempted
    selection solved on its own weight matrix through ``solve_path``
    (``facade_tour``) vs through one shared ``SelectionTours``."""
    from repro.atsp import solver
    from repro.core import GeneratorConfig, MarchTestGenerator
    from repro.core.generator import SelectionTours

    generator = MarchTestGenerator(GeneratorConfig())
    graphs, explored = front_end_selections(names, generator)
    per_selection_masks = 0
    held_karp_path = solver.held_karp_path

    def counted(cost, starts=None):
        nonlocal per_selection_masks
        per_selection_masks += 2 ** len(cost) - 1
        return held_karp_path(cost, starts)

    solver.held_karp_path = counted
    try:
        alone = [facade_tour(graph) for graph in graphs]
    finally:
        solver.held_karp_path = held_karp_path

    def per_selection():
        return [facade_tour(graph) for graph in graphs]

    def shared():
        tours = SelectionTours()
        orders = [
            tours.solve([node.pattern for node in graph.nodes])
            for graph in graphs
        ]
        return tours, orders

    alone_seconds, _ = _best_of(repeats, per_selection)
    shared_seconds, (tours, orders) = _best_of(repeats, shared)
    assert orders == alone, f"{names}: shared tours differ"
    return {
        "faults": "+".join(names),
        "selections": explored,
        "solves": len(graphs),
        "max_nodes": max(len(graph) for graph in graphs),
        "per_selection_masks": per_selection_masks,
        "shared_masks": tours.uniform.masks_built + tours.free.masks_built,
        "per_selection_weights": sum(
            len(graph) * (len(graph) - 1) for graph in graphs
        ),
        "shared_weights": tours.weight_computations,
        "seconds": {"per_selection": alone_seconds, "shared": shared_seconds},
    }


def measure_table3_front_end(repeats=5):
    """The ``table3_front_end`` record.  Informational: the counts are
    exact (CI guards the mask share on the ADF rows), the seconds are
    the front end alone, trajectory data without a floor."""
    return {
        "rows": [front_end_row(names, repeats) for names in TABLE3_ROWS],
        "guard_enforced": False,
        "skipped_reason": (
            "informational record: CI guards only the mask share"
            " (test_front_end_shares_held_karp_masks); the seconds are"
            " trajectory data without a floor"
        ),
    }


class CountingOptimize:
    """Counts the optimize phase's work while active: ``tighten``
    climbs, climb steps, shrink moves listed, candidates built (and
    malformed ones), candidates verified by the climbs, and the seconds
    of ``optimize``.  It wraps the module attributes that ``generate``
    and ``optimize`` call through."""

    COUNTS = ("climbs", "steps", "moves", "built", "malformed", "verified")

    def __enter__(self):
        import repro.core.generator as generator_module

        module = sys.modules["repro.core.optimize"]
        normalize = module.normalize_expectations
        shrink_moves = module._shrink_moves
        tighten = module.tighten
        optimize = generator_module.optimize
        counts = self.counts = dict.fromkeys(self.COUNTS, 0)
        self.seconds = 0.0

        def counted_normalize(test):
            out = normalize(test)
            counts["built" if out is not None else "malformed"] += 1
            return out

        def counted_moves(test):
            moves = shrink_moves(test)
            counts["steps"] += 1
            counts["moves"] += len(moves)
            return moves

        def counted_tighten(test, verify, memo=None):
            def counted_verify(candidate):
                counts["verified"] += 1
                return verify(candidate)

            counts["climbs"] += 1
            return tighten(test, counted_verify, memo)

        def timed_optimize(*args, **kwargs):
            started = time.perf_counter()
            try:
                return optimize(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started

        self._patches = [
            (module, "normalize_expectations", counted_normalize, normalize),
            (module, "_shrink_moves", counted_moves, shrink_moves),
            (module, "tighten", counted_tighten, tighten),
            (generator_module, "optimize", timed_optimize, optimize),
        ]
        for owner, name, wrapper, _ in self._patches:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc_info):
        for owner, name, _, original in self._patches:
            setattr(owner, name, original)


def measure_table3_optimize():
    """The ``table3_optimize`` record: per Table 3 row, one default
    ``generate()`` (cold kernel) and the optimize phase's work in it.

    The climbs list their shrink moves sorted by metric and build a
    candidate only when the walk reaches it, so ``built`` equals
    ``verified`` (the malformed candidates are built and skipped);
    ``moves`` is what building every one-step shrink would build.  The
    finalists share their climbs, so ``climbs`` counts one per
    distinct finalist.  Informational: the counts are exact, the
    seconds are trajectory data without a floor.
    """
    from repro.core import MarchTestGenerator

    rows = []
    for names in TABLE3_ROWS:
        with CountingOptimize() as counter:
            report = MarchTestGenerator().generate(
                FaultList.from_names(*names)
            )
        rows.append({
            "faults": "+".join(names),
            "test": str(report.test),
            **counter.counts,
            "seconds": counter.seconds,
        })
    per_pass = {
        name: sum(row[name] for row in rows)
        for name in CountingOptimize.COUNTS
    }
    per_pass["seconds"] = sum(row["seconds"] for row in rows)
    return {
        "rows": rows,
        "per_pass": per_pass,
        "guard_enforced": False,
        "skipped_reason": (
            "informational record: CI guards only built == verified"
            " (test_table3_optimize_builds_what_it_verifies); the seconds"
            " are trajectory data without a floor"
        ),
    }


def run_kernel_cold_instrumented(faults, size=SIZE):
    """The cold serial matrix with a live metrics registry + tracer."""
    from repro.telemetry import Telemetry

    return SimulationKernel(
        backend="serial", telemetry=Telemetry()
    ).detection_matrix(TESTS, faults, size)


def make_warm_kernel(faults):
    kernel = SimulationKernel()
    kernel.detection_matrix(TESTS, faults, SIZE)
    return kernel


def run_kernel_warm(kernel, faults):
    return kernel.detection_matrix(TESTS, faults, SIZE)


# -- cross-process store warm start --------------------------------------------
#
# The acceptance workload of the persistence subsystem: the Table 3
# matrix, serial backend, one process at a time against one shared
# ``--store`` file.  Each run happens in a forked child so its LRU and
# module state are genuinely cold -- exactly what a repeated CLI
# invocation sees; only the store file carries state across runs.


def _store_run_worker(store_path, channel):
    kernel = SimulationKernel(backend="serial", store=store_path)
    try:
        started = time.perf_counter()
        matrix = kernel.detection_matrix(TESTS, table3_faults(), SIZE)
        seconds = time.perf_counter() - started
    finally:
        kernel.close()
    channel.put((seconds, json.dumps(matrix, sort_keys=True)))


def measure_store_warm_start(store_path):
    """Run the workload twice in fresh processes; [(seconds, matrix)]."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        context = None
    runs = []
    for _ in range(2):
        if context is None:  # pragma: no cover - in-process approximation
            class _Inline:
                def put(self, item):
                    self.item = item

            channel = _Inline()
            _store_run_worker(store_path, channel)
            runs.append(channel.item)
            continue
        channel = context.Queue()
        process = context.Process(
            target=_store_run_worker, args=(store_path, channel)
        )
        process.start()
        try:
            # Bounded get: a child that dies before putting (store
            # error, OOM kill) must fail the benchmark, not hang it.
            result = channel.get(timeout=300)
        except queue_module.Empty:
            # A *stuck* child must be killed, or multiprocessing's
            # atexit join would hang the interpreter anyway.
            process.terminate()
            process.join(timeout=10)
            raise RuntimeError(
                "store benchmark child produced no result"
                f" (exitcode {process.exitcode})"
            ) from None
        process.join()
        if process.exitcode != 0:
            raise RuntimeError(
                f"store benchmark child exited {process.exitcode}"
            )
        runs.append(result)
    return runs


# -- campaign fan-out ----------------------------------------------------------
#
# The parallelism acceptance workload: the Table 3 sweep fanned out as
# one (test, backend, size) job per worker.  Serial backend at sizes
# where per-job work dwarfs pool startup, no store -- every job
# simulates its own cell, so jobs=1 vs jobs=N compares pure scheduling,
# not cache luck.


def fanout_spec():
    return CampaignSpec.from_dict({
        "name": "fanout-bench",
        "tests": [
            "MATS", "MATS++", "MarchX", "MarchY",
            "MarchC-", "MarchA", "MarchB", "MSCAN",
        ],
        "faults": ["SAF", "TF", "ADF", "CFIN", "CFID"],
        "sizes": [7, 8],
        "backends": ["serial"],
    })


def measure_campaign_fanout(jobs):
    """(seconds, normalized manifest) of one fan-out run."""
    started = time.perf_counter()
    manifest = run_campaign(fanout_spec(), jobs=jobs)
    seconds = time.perf_counter() - started
    assert manifest["totals"]["failed"] == 0, manifest["totals"]
    return seconds, normalized_manifest(manifest)


def fanout_guard_fields(cpus):
    """The honesty fields of the ``campaign_fanout`` bench record.

    Below FANOUT_MIN_CPUS the >= 2x wall-clock guard is *skipped*, so
    the recorded ratio (often sub-1x on a 1-CPU runner) is an
    unenforced measurement, not a regression.  The record must say so,
    or trajectory readers ingest it as one.
    """
    if cpus >= FANOUT_MIN_CPUS:
        return {"guard_enforced": True, "skipped_reason": None}
    return {
        "guard_enforced": False,
        "skipped_reason": (
            f"{cpus} CPU(s) < {FANOUT_MIN_CPUS} (FANOUT_MIN_CPUS): the"
            f" >= {REQUIRED_FANOUT_SPEEDUP}x wall-clock guard was not"
            " enforced; fanout_speedup is informational only"
        ),
    }


# -- verdict-service warm read -------------------------------------------------
#
# The acceptance workload of the service subsystem: the Table 3 matrix
# through a live verdict-service daemon over its Unix socket.  The
# first client simulates and writes through the socket; the second
# must answer every verdict from the service without touching a
# backend -- the cross-process --store warm start, minus any
# client-side SQLite open.


def measure_service_warm_read():
    """((first_s, second_s), matrices) through one verdict service."""
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        service = VerdictService(
            root / "service-store.sqlite", root / "verdict.sock"
        )
        service.start()
        try:
            runs = []
            for _ in range(2):
                kernel = SimulationKernel(
                    backend="serial", store=service.url
                )
                try:
                    started = time.perf_counter()
                    matrix = kernel.detection_matrix(
                        TESTS, table3_faults(), SIZE
                    )
                    seconds = time.perf_counter() - started
                finally:
                    kernel.close()
                runs.append(
                    (seconds, json.dumps(matrix, sort_keys=True))
                )
        finally:
            service.stop()
    return runs


def measure_service_async_read():
    """Warm Table 3 reads through the event-loop daemon, three ways.

    The two warm reads go to two daemons running side by side, each
    over its own store, and are timed in alternating pairs.  Returns
    ``(no_lru, hot_lru, pipeline)``:

    * ``no_lru`` -- ``(seconds, matrix_json)`` with the hot tier
      disabled (``hot_lru_size=0``): every read answered from SQLite,
      which is the threaded daemon's warm-read data path and therefore
      the throughput the async rework must not regress;
    * ``hot_lru`` -- the same warm read with the default hot LRU and
      the working set faulted in: every read a dictionary hit inside
      the daemon, SQLite untouched;
    * ``pipeline`` -- ``(round_trips_s, pipelined_s, frames)`` for the
      same verdict population fetched as chunked blocking round trips
      vs one pipelined burst of the identical ``get_many`` frames.
    """
    faults = table3_faults()

    def warm_read(service):
        kernel = SimulationKernel(backend="serial", store=service.url)
        try:
            return kernel.detection_matrix(TESTS, faults, SIZE)
        finally:
            kernel.close()

    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        no_lru = VerdictService(
            root / "no-lru.sqlite", root / "no-lru.sock", hot_lru_size=0
        )
        hot = VerdictService(root / "hot.sqlite", root / "hot.sock")
        with contextlib.ExitStack() as running:
            for service in (no_lru, hot):
                service.start()
                running.callback(service.stop)
                # Populate: simulate once and write through, which also
                # faults the working set into the hot tier.
                warm_read(service)
            (no_lru_runs, no_lru_matrix), (hot_runs, hot_matrix) = (
                _paired_runs(
                    5, lambda: warm_read(no_lru), lambda: warm_read(hot)
                )
            )
            pipeline_record = measure_pipelined_reads(hot, faults)
    return (
        (min(no_lru_runs), json.dumps(no_lru_matrix, sort_keys=True)),
        (min(hot_runs), json.dumps(hot_matrix, sort_keys=True)),
        pipeline_record,
    )


def measure_pipelined_reads(service, faults, chunk=16):
    """Chunked blocking round trips vs one pipelined burst.

    The key population is every (test, case) pair of an in-memory
    kernel run of the same workload (byte-identical to the served
    verdicts by the service guards), then fetched twice through one
    client: a ``get_many`` per chunk waiting each round trip out, and
    the identical frames down :meth:`ServiceStore.pipeline`
    back-to-back.
    Returns ``(round_trips_s, pipelined_s, frames)`` after asserting
    both reads returned the same verdicts.
    """
    matrix = SimulationKernel().detection_matrix(TESTS, faults, SIZE)
    keys = sorted(
        (
            SimKey(canonical_signature(test), case, SIZE)
            for test in TESTS
            for case in matrix[test.name]
        ),
        key=dataclasses.astuple,
    )
    chunks = [keys[i:i + chunk] for i in range(0, len(keys), chunk)]
    # Per chunk, its groups; each group's fifth field holds its keys.
    groups = [pair_groups((key, key) for key in batch) for batch in chunks]
    frames = [
        batch_frame("get_many", [group[:4] for group in members])
        for members in groups
    ]

    def round_trips(client):
        found = {}
        for batch in chunks:
            found.update(client.get_many(batch))
        return found

    def pipelined(client):
        found = {}
        for response, members in zip(client.pipeline(frames), groups):
            assert response.get("ok"), f"pipelined read refused: {response}"
            for group, answer in zip(members, response["found"]):
                for key, text in zip(group[4], answer):
                    if text is not None:
                        found[key] = decode_verdict(text)
        return found

    client = ServiceStore(service.url)
    try:
        round_trip_seconds, sequential = _best_of(3, round_trips, client)
        pipelined_seconds, piped = _best_of(3, pipelined, client)
    finally:
        client.close()
    assert len(sequential) == len(keys), "round-trip read lost verdicts"
    assert piped == sequential, (
        "pipelined read diverged from blocking round trips"
    )
    return round_trip_seconds, pipelined_seconds, len(frames)


# -- pytest-benchmark entry points --------------------------------------------


def test_legacy_path(bench_once):
    bench_once(run_legacy, table3_faults())


def test_kernel_cold_serial(bench_once):
    bench_once(run_kernel_cold, table3_faults())


def test_kernel_cold_bitparallel(bench_once):
    bench_once(run_kernel_cold, table3_faults(), backend="bitparallel")


def test_kernel_cold_bitparallel_large(bench_once):
    bench_once(
        run_kernel_cold, table3_faults(), backend="bitparallel",
        size=SIZE_LARGE,
    )


def test_kernel_warm(bench_once):
    faults = table3_faults()
    kernel = make_warm_kernel(faults)
    bench_once(run_kernel_warm, kernel, faults)


# -- CI smoke guards -----------------------------------------------------------


def _best_of(repeats, fn, *args, **kwargs):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - started)
    return best, result


@contextlib.contextmanager
def _frozen_heap():
    """Collect, then move every live object out of the collector's
    generations for the block: a collection inside it scans only what
    the block allocates, not the heap that earlier tests left behind.
    With 1.5M live lists as ballast on a 2-vCPU host, the telemetry
    overhead ratio read 0.91-1.19x without this and 1.00-1.02x with it
    (six measurements each)."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _paired_runs(pairs, first, second):
    """Run ``first()`` and ``second()`` in ``pairs`` alternating pairs
    on a frozen heap, so a slow spell of a shared host hits both sides
    alike instead of one sequential block.  Returns, per side,
    ``(seconds of each run, last result)``."""
    sides = [[[], None], [[], None]]
    with _frozen_heap():
        for _ in range(pairs):
            for side, fn in zip(sides, (first, second)):
                started = time.perf_counter()
                side[1] = fn()
                side[0].append(time.perf_counter() - started)
    return tuple(map(tuple, sides))


def telemetry_overhead(pairs):
    """The serial Table 3 matrix, plain vs instrumented, in alternating
    pairs: ``(overhead ratio, plain seconds, instrumented seconds,
    plain matrix, instrumented matrix)``.

    The ratio is the median over the pairs of instrumented / plain, and
    the seconds are the best run of each side.  On a shared 2-vCPU host
    single runs of this matrix spread from 78 to 138 ms: over 40 pairs,
    the ratio of the two sides' best runs crossed 1.05x in 7 of the 26
    windows of 15 consecutive pairs, while the median of the pair
    ratios stayed within 0.96-1.01x.
    """
    faults = table3_faults()
    (plain, plain_matrix), (instrumented, instrumented_matrix) = (
        _paired_runs(
            pairs,
            lambda: run_kernel_cold(faults),
            lambda: run_kernel_cold_instrumented(faults),
        )
    )
    ratio = statistics.median(
        traced / bare for bare, traced in zip(plain, instrumented)
    )
    return (
        ratio, min(plain), min(instrumented), plain_matrix,
        instrumented_matrix,
    )


def test_warm_cache_speedup_guard():
    """Acceptance criterion: warm kernel >= 3x faster than legacy."""
    faults = table3_faults()
    legacy_seconds, legacy_matrix = _best_of(3, run_legacy, faults)
    kernel = make_warm_kernel(faults)
    warm_seconds, warm_matrix = _best_of(3, run_kernel_warm, kernel, faults)
    assert warm_matrix == legacy_matrix
    speedup = legacy_seconds / warm_seconds
    assert speedup >= REQUIRED_WARM_SPEEDUP, (
        f"warm kernel only {speedup:.1f}x faster than legacy"
        f" ({warm_seconds * 1e3:.2f} ms vs {legacy_seconds * 1e3:.2f} ms)"
    )


def test_bitparallel_cold_speedup_guard():
    """Acceptance criterion: bit-parallel cold >= 3x serial cold at size 8.

    Verdicts must stay byte-identical; the speedup floor is the
    regression guard below the PR's measured ~15-20x.
    """
    faults = table3_faults()
    serial_seconds, serial_matrix = _best_of(
        1, run_kernel_cold, faults, size=SIZE_LARGE
    )
    packed_seconds, packed_matrix = _best_of(
        2, run_kernel_cold, faults, backend="bitparallel", size=SIZE_LARGE
    )
    assert packed_matrix == serial_matrix
    speedup = serial_seconds / packed_seconds
    assert speedup >= REQUIRED_BITPARALLEL_SPEEDUP, (
        f"bitparallel cold only {speedup:.1f}x faster than serial cold"
        f" at size {SIZE_LARGE} ({packed_seconds * 1e3:.2f} ms vs"
        f" {serial_seconds * 1e3:.2f} ms)"
    )


def test_store_warm_start_speedup_guard():
    """Acceptance criterion of the persistence subsystem: the second
    cold-process run of the Table 3 workload with ``--store`` is >= 3x
    faster than the first, with byte-identical verdicts."""
    with tempfile.TemporaryDirectory() as scratch:
        store_path = str(pathlib.Path(scratch) / "bench-store.sqlite")
        (first_seconds, first_matrix), (second_seconds, second_matrix) = (
            measure_store_warm_start(store_path)
        )
    assert first_matrix == second_matrix, "store-served verdicts diverged"
    in_memory = json.dumps(
        SimulationKernel().detection_matrix(TESTS, table3_faults(), SIZE),
        sort_keys=True,
    )
    assert second_matrix == in_memory, "store diverged from in-memory"
    speedup = first_seconds / second_seconds
    assert speedup >= REQUIRED_STORE_WARM_SPEEDUP, (
        f"store-backed second process only {speedup:.1f}x faster than the"
        f" first ({second_seconds * 1e3:.2f} ms vs"
        f" {first_seconds * 1e3:.2f} ms)"
    )


def test_campaign_fanout_deterministic_and_fast():
    """Acceptance criterion of the fan-out subsystem: ``--jobs 4``
    produces the same normalized manifest as the sequential run, and
    (given real cores) is >= 2x faster wall-clock."""
    import pytest

    sequential_seconds, sequential_manifest = measure_campaign_fanout(1)
    fanned_seconds, fanned_manifest = measure_campaign_fanout(FANOUT_JOBS)
    assert json.dumps(fanned_manifest, sort_keys=True) == json.dumps(
        sequential_manifest, sort_keys=True
    ), "fan-out changed the campaign's content, not just its wall-clock"
    cpus = os.cpu_count() or 1
    if cpus < FANOUT_MIN_CPUS:
        pytest.skip(
            f"{cpus} CPU(s): no cores to fan out to"
            " (determinism half of the contract verified above)"
        )
    speedup = sequential_seconds / fanned_seconds
    assert speedup >= REQUIRED_FANOUT_SPEEDUP, (
        f"campaign --jobs {FANOUT_JOBS} only {speedup:.1f}x faster than"
        f" sequential ({fanned_seconds * 1e3:.0f} ms vs"
        f" {sequential_seconds * 1e3:.0f} ms)"
    )


def test_service_warm_read_guard():
    """Acceptance criterion of the verdict service: socket-served
    verdicts are byte-identical to in-memory simulation, and the two
    clients of one daemon agree with each other."""
    (first_seconds, first_matrix), (second_seconds, second_matrix) = (
        measure_service_warm_read()
    )
    assert first_matrix == second_matrix, "service-served verdicts diverged"
    in_memory = json.dumps(
        SimulationKernel().detection_matrix(TESTS, table3_faults(), SIZE),
        sort_keys=True,
    )
    assert second_matrix == in_memory, "service diverged from in-memory"


def test_service_async_read_guard():
    """Acceptance criterion of the event-loop daemon: with the hot LRU
    on, the warm Table 3 read is at least as fast as a daemon with the
    tier off answering from SQLite (the threaded daemon's warm-read
    data path), and byte-identical to in-memory simulation either
    way."""
    (no_lru_seconds, no_lru_matrix), (hot_seconds, hot_matrix), piped = (
        measure_service_async_read()
    )
    assert hot_matrix == no_lru_matrix, "hot-LRU verdicts diverged"
    in_memory = json.dumps(
        SimulationKernel().detection_matrix(TESTS, table3_faults(), SIZE),
        sort_keys=True,
    )
    assert hot_matrix == in_memory, "service diverged from in-memory"
    speedup = no_lru_seconds / hot_seconds
    assert speedup >= REQUIRED_HOT_LRU_SPEEDUP, (
        f"hot-LRU warm read only {speedup:.2f}x the SQLite data path"
        f" ({hot_seconds * 1e3:.2f} ms vs {no_lru_seconds * 1e3:.2f} ms)"
    )
    round_trip_seconds, pipelined_seconds, frames = piped
    assert frames >= 2, "pipelining measured on a single frame"
    assert pipelined_seconds > 0 and round_trip_seconds > 0


def test_fanout_record_marks_unenforced_guard():
    """The bench record must flag a skipped fan-out guard: a sub-1x
    ratio measured on a 1-CPU runner is a skipped check, not a
    regression, and trajectory readers need the marker to tell them
    apart."""
    enforced = fanout_guard_fields(FANOUT_MIN_CPUS)
    assert enforced == {"guard_enforced": True, "skipped_reason": None}
    skipped = fanout_guard_fields(FANOUT_MIN_CPUS - 1)
    assert skipped["guard_enforced"] is False
    assert "not" in skipped["skipped_reason"]


def test_any_order_tree_stops_doubling():
    """The walk's leaf AND equals the enumeration's (asserted while
    measuring) and its segment runs stop doubling once states merge."""
    record = measure_any_order_tree(repeats=1)
    rows = record["by_k"]
    assert [row["realizations"] for row in rows] == [
        2 ** k for k in range(ANY_ORDER_MAX_K + 1)
    ]
    deepest = rows[-1]["walk"]
    assert deepest["leaves"] < rows[-1]["realizations"]
    assert deepest["segment_runs"] < rows[-1]["realizations"]
    assert record["guard_enforced"] is False


def test_certify_engine_runs_collapse():
    """The verifier's transition table and the search's memo: the
    MarchC- row search runs the engine at most once per ten candidates,
    exactly as often as the per-candidate search, and steps under a
    third of an element per candidate, at the generator's verify size
    and at the confirm size."""
    for row in measure_certify_step_table(sizes=(2, 3))["by_size"]:
        assert row["candidates"] == CERTIFY_BUDGET + 1
        assert row["budget_exhausted"]
        assert (
            row["engine_runs"] <= row["candidates"] / CERTIFY_RUN_COLLAPSE
        ), row
        reference = certify_search(row["size"], per_candidate=True)
        assert reference["subtrees_reused"] == 0
        for field in ("candidates", "nodes_expanded", "verify_calls",
                      "engine_runs"):
            assert row[field] == reference[field], (field, row)
        assert (
            row["element_steps"]
            < row["candidates"] * CERTIFY_STEPS_PER_CANDIDATE
        ), row
    # The whole search below 10n (255,762 candidates at size 2) needs
    # 5,316 distinct transitions: the table holds them all, so the
    # engine runs once per distinct transition.
    whole = certify_search(2, budget=None)
    assert not whole["budget_exhausted"]
    assert whole["engine_runs"] == whole["table_entries"], whole


def test_front_end_shares_held_karp_masks():
    """The shared front end: on the two many-selection ADF rows of
    Table 3 it builds at most a quarter of the Held-Karp masks that
    solving each selection on its own builds; no row computes more
    pair weights or masks than before."""
    rows = measure_table3_front_end(repeats=1)["rows"]
    assert set(FRONT_END_GUARDED_ROWS) <= {row["faults"] for row in rows}
    for row in rows:
        assert row["shared_weights"] <= row["per_selection_weights"], row
        assert row["shared_masks"] <= row["per_selection_masks"], row
        if row["faults"] in FRONT_END_GUARDED_ROWS:
            assert (
                row["shared_masks"]
                <= row["per_selection_masks"] / FRONT_END_MASK_SHARE
            ), row


def test_table3_optimize_builds_what_it_verifies():
    """The climbs build no candidate they do not verify, except the
    malformed ones they skip, and build fewer than they list."""
    record = measure_table3_optimize()
    for row in record["rows"] + [record["per_pass"]]:
        assert row["built"] == row["verified"], row
        assert row["built"] + row["malformed"] <= row["moves"], row
    assert record["guard_enforced"] is False


def test_coverage_sweep_record():
    """The coverage record counts the sweep's verdicts and lanes, and
    what one write and one read of its lane plan work through."""
    record = measure_coverage_sweep(repeats=1)
    assert record["verdicts"] == 40512
    assert record["lanes"] == 4129
    # A write works through 2 merged write rules and 5 fan-out plus 4
    # CFst hold masks; a read through 6 merged read rules and 4 source
    # plus 2 CFrd masks, whatever the 15 neighbours of its cell.
    assert record["plan"] == {
        "write_rules": 2,
        "write_role_masks": 9,
        "read_rules": 6,
        "read_role_masks": 6,
        "two_cell_lanes": TWO_CELL_LANES,
    }
    assert record["engine_seconds"] <= record["seconds"]
    assert record["guard_enforced"] is False


def test_coverage_sweep_runs_each_transition_once():
    """The twelve tests of the coverage sweep share one transition
    table: the engine runs once per distinct (state, element) pair,
    not once per element step, and the table never started over."""
    steps = measure_coverage_sweep(repeats=1)["steps"]
    assert steps["engine_runs"] == steps["table_misses"]
    assert steps["engine_runs"] == steps["distinct_transitions"]
    assert steps["distinct_transitions"] < steps["table_limit"]
    assert steps["element_steps"] == 98
    assert steps["engine_runs"] == 44


def test_telemetry_overhead_guard():
    """Acceptance criterion of the telemetry layer: instrumenting the
    serial Table 3 matrix costs at most 5% wall-clock, and the
    verdicts stay byte-identical."""
    (
        overhead, plain_seconds, instrumented_seconds, plain_matrix,
        instrumented_matrix,
    ) = telemetry_overhead(TELEMETRY_OVERHEAD_PAIRS)
    assert instrumented_matrix == plain_matrix, (
        "telemetry changed the verdicts"
    )
    assert overhead <= TELEMETRY_OVERHEAD_CEILING, (
        f"instrumented serial cold run is {overhead:.3f}x the"
        f" uninstrumented one (median of {TELEMETRY_OVERHEAD_PAIRS}"
        f" pairs; best runs {instrumented_seconds * 1e3:.2f} ms vs"
        f" {plain_seconds * 1e3:.2f} ms; ceiling"
        f" {TELEMETRY_OVERHEAD_CEILING}x)"
    )


def test_cold_wall_clock_guard():
    """Wall-clock regression guard for the uncached kernel path."""
    seconds, _ = _best_of(2, run_kernel_cold, table3_faults())
    assert seconds < COLD_WALL_CLOCK_CEILING, (
        f"cold kernel detection_matrix took {seconds:.2f}s"
        f" (ceiling {COLD_WALL_CLOCK_CEILING}s)"
    )


# -- machine-readable record ---------------------------------------------------


def collect_benchmarks():
    """Measure every scenario once; return the BENCH_kernel payload."""
    faults = table3_faults()
    legacy_seconds, _ = _best_of(3, run_legacy, faults)
    cold_seconds, _ = _best_of(3, run_kernel_cold, faults)
    packed_seconds, _ = _best_of(3, run_kernel_cold, faults, "bitparallel")
    kernel = make_warm_kernel(faults)
    warm_seconds, _ = _best_of(3, run_kernel_warm, kernel, faults)
    telemetry_ratio, plain_seconds, instrumented_seconds, _, _ = (
        telemetry_overhead(TELEMETRY_OVERHEAD_PAIRS)
    )
    serial_large_seconds, _ = _best_of(
        1, run_kernel_cold, faults, size=SIZE_LARGE
    )
    packed_large_seconds, _ = _best_of(
        2, run_kernel_cold, faults, backend="bitparallel", size=SIZE_LARGE
    )
    with tempfile.TemporaryDirectory() as scratch:
        store_runs = measure_store_warm_start(
            str(pathlib.Path(scratch) / "bench-store.sqlite")
        )
    store_first_seconds = store_runs[0][0]
    store_second_seconds = store_runs[1][0]
    service_runs = measure_service_warm_read()
    service_first_seconds = service_runs[0][0]
    service_second_seconds = service_runs[1][0]
    (
        (async_no_lru_seconds, _),
        (async_hot_seconds, _),
        (async_round_trip_seconds, async_pipelined_seconds, async_frames),
    ) = measure_service_async_read()
    any_order_record = measure_any_order_tree()
    certify_record = measure_certify_step_table()
    front_end_record = measure_table3_front_end()
    coverage_record = measure_coverage_sweep()
    optimize_record = measure_table3_optimize()
    fanout_sequential_seconds, _ = measure_campaign_fanout(1)
    fanout_parallel_seconds, _ = measure_campaign_fanout(FANOUT_JOBS)
    cpus = os.cpu_count() or 1
    payload = {
        "schema": 1,
        "benchmark": "bench_kernel",
        # repro-lint: disable=injectable-clock -- benchmark report stamp
        "generated_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "guards": {
            "required_warm_speedup": REQUIRED_WARM_SPEEDUP,
            "required_bitparallel_cold_speedup": (
                REQUIRED_BITPARALLEL_SPEEDUP
            ),
            "required_store_warm_speedup": REQUIRED_STORE_WARM_SPEEDUP,
            "required_hot_lru_speedup": REQUIRED_HOT_LRU_SPEEDUP,
            "required_campaign_fanout_speedup": REQUIRED_FANOUT_SPEEDUP,
            "campaign_fanout_min_cpus": FANOUT_MIN_CPUS,
            "cold_wall_clock_ceiling_seconds": COLD_WALL_CLOCK_CEILING,
            "telemetry_overhead_ceiling": TELEMETRY_OVERHEAD_CEILING,
        },
        "workloads": {
            "table3_size3": {
                "tests": len(TESTS),
                "fault_cases": len(faults.instances(SIZE)),
                "size": SIZE,
                "seconds": {
                    "legacy": legacy_seconds,
                    "cold_serial": cold_seconds,
                    "cold_bitparallel": packed_seconds,
                    "warm_cache": warm_seconds,
                },
                "speedup_vs_legacy": {
                    "cold_serial": legacy_seconds / cold_seconds,
                    "cold_bitparallel": legacy_seconds / packed_seconds,
                    "warm_cache": legacy_seconds / warm_seconds,
                },
            },
            "table3_size3_telemetry": {
                "tests": len(TESTS),
                "fault_cases": len(faults.instances(SIZE)),
                "size": SIZE,
                "backend": "serial",
                "seconds": {
                    "cold_serial": plain_seconds,
                    "cold_serial_instrumented": instrumented_seconds,
                },
                "telemetry_overhead_ratio": telemetry_ratio,
                "pairs": TELEMETRY_OVERHEAD_PAIRS,
                "guard_enforced": True,
            },
            "table3_size8": {
                "tests": len(TESTS),
                "fault_cases": len(faults.instances(SIZE_LARGE)),
                "size": SIZE_LARGE,
                "seconds": {
                    "cold_serial": serial_large_seconds,
                    "cold_bitparallel": packed_large_seconds,
                },
                "speedup_vs_cold_serial": {
                    "cold_bitparallel": (
                        serial_large_seconds / packed_large_seconds
                    ),
                },
            },
            "table3_size3_store": {
                "tests": len(TESTS),
                "fault_cases": len(faults.instances(SIZE)),
                "size": SIZE,
                "backend": "serial",
                "seconds": {
                    "first_cold_process": store_first_seconds,
                    "second_cold_process": store_second_seconds,
                },
                "cross_process_warm_speedup": (
                    store_first_seconds / store_second_seconds
                ),
            },
            "table3_size3_service": {
                "tests": len(TESTS),
                "fault_cases": len(faults.instances(SIZE)),
                "size": SIZE,
                "backend": "serial",
                "transport": "unix-socket",
                "protocol": PROTOCOL_VERSION,
                "seconds": {
                    "first_cold_client": service_first_seconds,
                    "second_warm_client": service_second_seconds,
                },
                "service_warm_speedup": (
                    service_first_seconds / service_second_seconds
                ),
            },
            "table3_size3_service_async": {
                "tests": len(TESTS),
                "fault_cases": len(faults.instances(SIZE)),
                "size": SIZE,
                "backend": "serial",
                "transport": "unix-socket",
                "protocol": PROTOCOL_VERSION,
                "daemon": "event-loop",
                "pipeline_frames": async_frames,
                "seconds": {
                    "warm_read_sqlite_path": async_no_lru_seconds,
                    "warm_read_hot_lru": async_hot_seconds,
                    "chunked_round_trips": async_round_trip_seconds,
                    "pipelined_burst": async_pipelined_seconds,
                },
                "hot_lru_speedup": (
                    async_no_lru_seconds / async_hot_seconds
                ),
                "pipelining_speedup": (
                    async_round_trip_seconds / async_pipelined_seconds
                ),
                "guard_enforced": True,
            },
            "any_order_k0_8": any_order_record,
            "certify_step_table": certify_record,
            "table3_front_end": front_end_record,
            "coverage_size16_sweep": coverage_record,
            "table3_optimize": optimize_record,
            "campaign_fanout": {
                "jobs": len(fanout_spec().jobs()),
                "workers": FANOUT_JOBS,
                "cpus": cpus,
                "backend": "serial",
                "sizes": [7, 8],
                "seconds": {
                    "sequential": fanout_sequential_seconds,
                    "parallel": fanout_parallel_seconds,
                },
                "fanout_speedup": (
                    fanout_sequential_seconds / fanout_parallel_seconds
                ),
                **fanout_guard_fields(cpus),
            },
        },
    }
    return payload


def write_bench_json(payload, path=BENCH_JSON_PATH):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main():
    payload = collect_benchmarks()
    small = payload["workloads"]["table3_size3"]
    large = payload["workloads"]["table3_size8"]
    print(
        f"detection_matrix: {small['tests']} tests x"
        f" {small['fault_cases']} fault cases at size {small['size']}"
    )
    for label, key in [
        ("legacy per-call", "legacy"),
        ("kernel cold (serial)", "cold_serial"),
        ("kernel cold (bitparallel)", "cold_bitparallel"),
        ("kernel warm cache", "warm_cache"),
    ]:
        seconds = small["seconds"][key]
        speedup = small["speedup_vs_legacy"].get(key, 1.0) if key != "legacy" \
            else 1.0
        print(f"  {label:26s} {seconds * 1e3:9.2f} ms   {speedup:7.1f}x")
    print(
        f"detection_matrix: {large['tests']} tests x"
        f" {large['fault_cases']} fault cases at size {large['size']}"
    )
    for label, key in [
        ("kernel cold (serial)", "cold_serial"),
        ("kernel cold (bitparallel)", "cold_bitparallel"),
    ]:
        seconds = large["seconds"][key]
        speedup = large["speedup_vs_cold_serial"].get(key, 1.0)
        print(f"  {label:28s} {seconds * 1e3:9.2f} ms   {speedup:7.1f}x")
    telemetry = payload["workloads"]["table3_size3_telemetry"]
    print(
        f"telemetry overhead (serial cold, live registry + tracer):"
        f" {telemetry['telemetry_overhead_ratio']:.3f}x"
        f" (ceiling {TELEMETRY_OVERHEAD_CEILING}x)"
    )
    store = payload["workloads"]["table3_size3_store"]
    print(
        f"cross-process --store warm start ({store['tests']} tests x"
        f" {store['fault_cases']} cases, {store['backend']} backend)"
    )
    print(
        f"  {'first process (simulates)':26s}"
        f" {store['seconds']['first_cold_process'] * 1e3:9.2f} ms"
    )
    print(
        f"  {'second process (store)':26s}"
        f" {store['seconds']['second_cold_process'] * 1e3:9.2f} ms"
        f"   {store['cross_process_warm_speedup']:7.1f}x"
    )
    service = payload["workloads"]["table3_size3_service"]
    print(
        f"verdict-service warm read ({service['tests']} tests x"
        f" {service['fault_cases']} cases, {service['backend']} backend,"
        " unix socket)"
    )
    print(
        f"  {'first client (simulates)':26s}"
        f" {service['seconds']['first_cold_client'] * 1e3:9.2f} ms"
    )
    print(
        f"  {'second client (service)':26s}"
        f" {service['seconds']['second_warm_client'] * 1e3:9.2f} ms"
        f"   {service['service_warm_speedup']:7.1f}x"
    )
    async_record = payload["workloads"]["table3_size3_service_async"]
    print(
        f"verdict-service async warm read ({async_record['tests']} tests x"
        f" {async_record['fault_cases']} cases, event-loop daemon,"
        f" {async_record['pipeline_frames']} pipelined frames)"
    )
    print(
        f"  {'warm read (SQLite path)':26s}"
        f" {async_record['seconds']['warm_read_sqlite_path'] * 1e3:9.2f} ms"
    )
    print(
        f"  {'warm read (hot LRU)':26s}"
        f" {async_record['seconds']['warm_read_hot_lru'] * 1e3:9.2f} ms"
        f"   {async_record['hot_lru_speedup']:7.1f}x"
    )
    print(
        f"  {'chunked round trips':26s}"
        f" {async_record['seconds']['chunked_round_trips'] * 1e3:9.2f} ms"
    )
    print(
        f"  {'pipelined burst':26s}"
        f" {async_record['seconds']['pipelined_burst'] * 1e3:9.2f} ms"
        f"   {async_record['pipelining_speedup']:7.1f}x"
    )
    tree = payload["workloads"]["any_order_k0_8"]
    print(
        f"ANY-order realizations ({tree['faults']}, {tree['lanes']} lanes,"
        f" size {tree['size']}): enumeration vs shared-prefix walk"
    )
    for row in tree["by_k"]:
        enum, walk = row["enumeration"], row["walk"]
        print(
            f"  k={row['k']} {row['realizations']:4d} realizations"
            f" {enum['seconds'] * 1e3:8.2f} ms"
            f" | {walk['leaves']:3d} leaves {walk['segment_runs']:3d} runs"
            f" {walk['element_steps']:4d} steps"
            f" {walk['engine_runs']:3d} engine runs"
            f" {walk['seconds'] * 1e3:8.2f} ms"
        )
    certify = payload["workloads"]["certify_step_table"]
    print(
        f"minimality search below MarchC- ({certify['faults']}, budget"
        f" {certify['budget']}): engine runs behind the transition table"
    )
    for row in certify["by_size"]:
        print(
            f"  size {row['size']} {row['candidates']:6d} candidates"
            f" {row['element_steps']:6d} element steps"
            f" {row['subtrees_reused']:5d} subtrees reused"
            f" {row['engine_runs']:5d} engine runs"
            f" {row['seconds'] * 1e3:9.2f} ms"
            f" (engine alone {row['engine_seconds'] * 1e3:7.2f} ms,"
            f" {row['engine_share']:.0%})"
        )
    front_end = payload["workloads"]["table3_front_end"]
    print(
        "Table 3 ATSP front end: each selection alone vs one shared"
        " memo (masks, pair weights, seconds)"
    )
    for row in front_end["rows"]:
        seconds = row["seconds"]
        print(
            f"  {row['faults']:22s} {row['solves']:3d} solves"
            f" masks {row['per_selection_masks']:6d} -> {row['shared_masks']:5d}"
            f" weights {row['per_selection_weights']:5d} ->"
            f" {row['shared_weights']:4d}"
            f" {seconds['per_selection'] * 1e3:8.2f} ->"
            f" {seconds['shared'] * 1e3:7.2f} ms"
        )
    coverage = payload["workloads"]["coverage_size16_sweep"]
    plan = coverage["plan"]
    print(
        f"coverage sweep: {coverage['tests']} tests x"
        f" {coverage['fault_cases']} fault cases at size {coverage['size']}"
        f" ({coverage['verdicts']} verdicts, {coverage['lanes']} lanes)"
        f" {coverage['seconds'] * 1e3:9.2f} ms"
    )
    print(
        f"  lane plan per write: {plan['write_rules']} rules,"
        f" {plan['write_role_masks']} role masks; per read:"
        f" {plan['read_rules']} rules, {plan['read_role_masks']} role"
        f" masks ({plan['two_cell_lanes']} two-cell lanes);"
        f" engine alone {coverage['engine_seconds'] * 1e3:.2f} ms"
    )
    steps = coverage["steps"]
    print(
        f"  {steps['element_steps']} element steps,"
        f" {steps['engine_runs']} engine runs"
        f" ({steps['table_hits']} table hits /"
        f" {steps['table_misses']} misses)"
    )
    fanout = payload["workloads"]["campaign_fanout"]
    print(
        f"campaign fan-out ({fanout['jobs']} jobs, serial backend,"
        f" sizes {fanout['sizes']}, {fanout['cpus']} CPU(s))"
    )
    print(
        f"  {'sequential (--jobs 1)':26s}"
        f" {fanout['seconds']['sequential'] * 1e3:9.2f} ms"
    )
    fanned_label = f"fanned out (--jobs {fanout['workers']})"
    print(
        f"  {fanned_label:26s}"
        f" {fanout['seconds']['parallel'] * 1e3:9.2f} ms"
        f"   {fanout['fanout_speedup']:7.1f}x"
    )
    if not fanout["guard_enforced"]:
        print(f"  (guard skipped: {fanout['skipped_reason']})")
    path = write_bench_json(payload)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
