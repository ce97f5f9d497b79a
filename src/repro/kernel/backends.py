"""Pluggable execution backends for the simulation kernel.

A backend executes a batch of *detection tasks* -- ``(test, fault
case, size)`` triples whose verdicts are not yet in the kernel's fault
dictionary -- and returns one worst-case boolean per task.  The kernel
never cares how: serially in-process (the scalar reference), or
word-packed so every fault lane of a test advances in one bitwise
operation per march step (``bitparallel``, and its NumPy-tiled twin
``bitparallel-np``).

Every backend counts the tasks it served per execution strategy in
``served`` (e.g. the bitparallel backend splits between ``bitparallel``
and its scalar ``serial`` fallback), which the CLI's ``--sim-stats``
reports so routing decisions stay observable.

Adding a backend
----------------
Subclass :class:`ExecutionBackend`, implement ``detect_batch``, and
register the class in :data:`BACKENDS` under its ``name`` (the
factory is called with the kernel's shared ``pool=``); it is then
selectable through ``GeneratorConfig(backend=...)`` and the CLI's
``--backend`` flag.  ``detect_batch`` must preserve task order and must
compute exactly the worst-case semantics of
:func:`worst_case_detects` (every order variant x every behavioural
variant must be caught).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.instances import FaultCase
from ..march.test import MarchTest
from ..simulator.bitengine import PackedSimulation, lane_packable_case
from ..simulator.engine import run_march
from ..simulator.tilengine import (
    NumpyUnavailableError,
    TiledSimulation,
    chunk_cases,
    numpy_available,
    require_numpy,
)
from ..telemetry import TELEMETRY_OFF
from .pool import MemoryPool


@dataclass(frozen=True)
class DetectTask:
    """One unit of kernel work: does ``test`` detect ``case`` at ``size``?"""

    test: MarchTest
    case: FaultCase
    size: int


def worst_case_detects(
    variants: Sequence[MarchTest],
    factories: Sequence[Callable[[], object]],
    size: int,
    pool: MemoryPool,
    active_reads: Optional[set] = None,
) -> bool:
    """The kernel's single source of truth for worst-case detection.

    ``variants`` are the concrete order realizations of one test (the
    caller hoists ``concrete_order_variants()`` out of its loops);
    ``factories`` the behavioural variants of one fault case.  Evaluation
    short-circuits on the first missed combination.
    """
    for variant in variants:
        for make_instance in factories:
            memory = pool.acquire(size, make_instance())
            detected = run_march(
                variant, memory, active_reads=active_reads
            ).detected
            pool.release(memory)
            if not detected:
                return False
    return True


class ExecutionBackend:
    """Strategy interface: evaluate a batch of detection tasks."""

    #: Registry key; also what ``--backend`` matches against.
    name = "abstract"

    #: True when the backend simulates on the word-packed lane engine;
    #: ``SimulationKernel.verifier`` then checks each candidate against
    #: the whole fault list in one packed run.
    lane_packed = False

    def __init__(self) -> None:
        #: Tasks served per execution strategy, e.g. ``{"serial": 12}``
        #: or ``{"bitparallel": 60, "serial": 9}`` when a backend
        #: routes part of a batch to a fallback.  ``--sim-stats`` prints
        #: this so routing decisions are observable.
        self.served: Dict[str, int] = {}
        #: Telemetry handle, no-op by default; the owning kernel swaps
        #: in its live handle and samples ``served`` as the
        #: ``repro.backend.served`` route/fallback counters, so this
        #: slot only carries instruments ``served`` cannot express
        #: (fork chunk counts, per-batch timings).
        self.telemetry = TELEMETRY_OFF

    def count_served(self, strategy: str, tasks: int) -> None:
        if tasks:
            self.served[strategy] = self.served.get(strategy, 0) + tasks

    def detect_batch(self, tasks: Sequence[DetectTask]) -> List[bool]:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process evaluation with pooled memories (the default)."""

    name = "serial"

    def __init__(self, pool: Optional[MemoryPool] = None) -> None:
        super().__init__()
        self.pool = pool or MemoryPool()

    def detect_batch(self, tasks: Sequence[DetectTask]) -> List[bool]:
        self.count_served("serial", len(tasks))
        return [
            worst_case_detects(
                task.test.concrete_order_variants(),
                task.case.variants,
                task.size,
                self.pool,
            )
            for task in tasks
        ]


class BitParallelBackend(ExecutionBackend):
    """Word-packed evaluation: one machine word per march operation.

    Tasks whose fault case is lane-packable (see
    :mod:`repro.simulator.bitengine`) are grouped by (test, size) and
    evaluated in one packed pass over the test's order realizations,
    walked as a shared-prefix tree (:mod:`repro.simulator.ordertree`)
    -- every fault lane advances with O(1) bitwise operations per march
    step instead of O(n) scalar steps per fault instance.  Unpackable
    cases (unknown user-defined instance types, composite multi-defect
    injections) fall back to the scalar serial backend; ``served``
    records how many tasks each side handled.

    Packed simulations are cached per (case names, size) -- case names
    are the repository-wide canonical fault identity -- so every test
    of a batched sweep, and the single-case probes of ``dominates``,
    reuse one lane plan.  The generator's verifier does not come
    through here: with ``lane_packed`` set,
    ``SimulationKernel.verifier`` builds its own whole-list simulation.

    This routing is shared with :class:`BitParallelNumpyBackend`, which
    overrides only :meth:`_build` and :meth:`_verdicts`.
    """

    name = "bitparallel"
    lane_packed = True

    #: Bound of the lane-plan cache (LRU beyond it).
    PLAN_CACHE_SIZE = 128

    def __init__(self, pool: Optional[MemoryPool] = None) -> None:
        super().__init__()
        self._serial = SerialBackend(pool)
        self._simulations: "OrderedDict[Tuple, Any]" = OrderedDict()
        # Packability memo keyed by case name (the canonical fault
        # identity): single-case probes repeat the same few cases
        # against many tests.
        self._packable: Dict[str, bool] = {}

    def _is_packable(self, case: FaultCase) -> bool:
        verdict = self._packable.get(case.name)
        if verdict is None:
            verdict = lane_packable_case(case)
            self._packable[case.name] = verdict
        return verdict

    def _build(self, cases: Sequence[FaultCase], size: int) -> Any:
        """The packed simulation of one case set."""
        return PackedSimulation(cases, size)

    def _simulation(self, cases: Sequence[FaultCase], size: int) -> Any:
        key = (tuple(case.name for case in cases), size)
        simulation = self._simulations.get(key)
        if simulation is None:
            simulation = self._build(cases, size)
            self._simulations[key] = simulation
            while len(self._simulations) > self.PLAN_CACHE_SIZE:
                self._simulations.popitem(last=False)
        else:
            self._simulations.move_to_end(key)
        return simulation

    def _verdicts(
        self, simulation: Any, test: MarchTest
    ) -> Tuple[List[bool], str]:
        """Worst-case verdicts of one packed group, and the strategy
        ``served`` counts them under."""
        return simulation.worst_case_verdicts(test), self.name

    def detect_batch(self, tasks: Sequence[DetectTask]) -> List[bool]:
        results: List[Optional[bool]] = [None] * len(tasks)
        packed_groups: "OrderedDict[Tuple[MarchTest, int], List[int]]" = (
            OrderedDict()
        )
        fallback_indices: List[int] = []
        for index, task in enumerate(tasks):
            if self._is_packable(task.case):
                packed_groups.setdefault((task.test, task.size), []).append(
                    index
                )
            else:
                fallback_indices.append(index)
        for (test, size), indices in packed_groups.items():
            cases = [tasks[i].case for i in indices]
            verdicts, strategy = self._verdicts(
                self._simulation(cases, size), test
            )
            self.count_served(strategy, len(indices))
            for i, verdict in zip(indices, verdicts):
                results[i] = verdict
        if fallback_indices:
            self.count_served("serial", len(fallback_indices))
            fallback = self._serial.detect_batch(
                [tasks[i] for i in fallback_indices]
            )
            for i, verdict in zip(fallback_indices, fallback):
                results[i] = verdict
        return results  # type: ignore[return-value]


# -- NumPy lane-tiled backend --------------------------------------------------
#
# Chunk simulations are built in the parent (so the one-time lane-plan
# compilation is shared) and handed to fork()ed workers through this
# module-level slot -- closures in the fault library do not pickle --
# which return plain verdict lists.  The lock keeps concurrent batches
# from forking workers that inherit each other's slot.

_TILE_FORK: Tuple = ()
_TILE_LOCK = threading.Lock()


def _tile_worker(index: int) -> List[bool]:
    simulations, test = _TILE_FORK
    return simulations[index].worst_case_verdicts(test)


class BitParallelNumpyBackend(BitParallelBackend):
    """Lane-tiled evaluation on fixed-width uint64 NumPy tiles.

    Routing is inherited from :class:`BitParallelBackend` -- packable
    cases ride the packed path, the rest fall back to the scalar serial
    backend -- but the packed path runs on
    :class:`~repro.simulator.tilengine.TiledSimulation`: per-op cost is
    a constant number of vectorized kernels over ``ceil(lanes/64)``
    uint64 words instead of interpreter-level bignum arithmetic, which
    is what makes the size-64/size-256 fault populations tractable.

    Above :data:`MIN_FANOUT_LANES` total lanes the case set is split
    into one contiguous tile range per worker process (``processes``,
    default: CPU count), each run in a fork()ed worker; each worker
    owns its chunk simulation (own fault-free reference lane) and the
    concatenated verdict lists are byte-identical to the
    single-simulation run.  Requires NumPy (the ``[fast]`` extra):
    construction raises
    :class:`~repro.simulator.tilengine.NumpyUnavailableError` without
    it, and :func:`resolve_backend` degrades to ``bitparallel`` with a
    one-line warning.
    """

    name = "bitparallel-np"

    #: Below this many total lanes one process wins: fork + IPC costs
    #: more than the whole vectorized run.
    MIN_FANOUT_LANES = 4096

    def __init__(
        self,
        pool: Optional[MemoryPool] = None,
        processes: Optional[int] = None,
    ) -> None:
        require_numpy(f"the {self.name!r} execution backend")
        super().__init__(pool)
        self.processes = processes or os.cpu_count() or 1

    def _fanout(self, cases: Sequence[FaultCase]) -> int:
        """How many chunk simulations to build for this case set."""
        if self.processes < 2:
            return 1
        lanes = 1 + sum(len(case.variants) for case in cases)
        if lanes < self.MIN_FANOUT_LANES:
            return 1
        try:
            multiprocessing.get_context("fork")
        except ValueError:
            return 1
        return self.processes

    def _build(
        self, cases: Sequence[FaultCase], size: int
    ) -> List[TiledSimulation]:
        return [
            TiledSimulation(chunk, size)
            for chunk in chunk_cases(cases, self._fanout(cases))
        ]

    def _verdicts(
        self, simulations: List[TiledSimulation], test: MarchTest
    ) -> Tuple[List[bool], str]:
        if len(simulations) == 1:
            return simulations[0].worst_case_verdicts(test), self.name
        if self.telemetry.enabled:
            self.telemetry.counter(
                "repro.backend.chunks", backend=self.name
            ).inc(len(simulations))
        global _TILE_FORK
        context = multiprocessing.get_context("fork")
        with _TILE_LOCK:
            _TILE_FORK = (simulations, test)
            try:
                with context.Pool(len(simulations)) as workers:
                    chunks = workers.map(
                        _tile_worker, range(len(simulations))
                    )
            finally:
                _TILE_FORK = ()
        verdicts: List[bool] = []
        for chunk in chunks:
            verdicts.extend(chunk)
        return verdicts, f"{self.name}-fork"


BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    BitParallelBackend.name: BitParallelBackend,
    BitParallelNumpyBackend.name: BitParallelNumpyBackend,
}


def available_backends() -> Dict[str, bool]:
    """Backend name -> whether it can be constructed right now.

    Only ``bitparallel-np`` has an environment prerequisite (NumPy, the
    ``[fast]`` extra); every other registered backend is always
    available.
    """
    return {
        name: name != BitParallelNumpyBackend.name or numpy_available()
        for name in BACKENDS
    }


def backend_choices_text() -> str:
    """The valid ``--backend`` choices with availability annotations."""
    parts = []
    for name, available in sorted(available_backends().items()):
        parts.append(
            name if available
            else f"{name} (unavailable: NumPy is not installed)"
        )
    return ", ".join(parts)


def validate_backend_name(backend: str) -> str:
    """Fail fast on an unknown backend name with the full choice list.

    Called by ``GeneratorConfig``, the CLI and campaign-spec parsing so
    a typo'd backend surfaces as one clear error at configuration time
    instead of deep inside kernel construction.  An *available* name is
    returned unchanged; ``bitparallel-np`` without NumPy is still a
    valid name (the kernel degrades to ``bitparallel`` with a warning
    when it is actually resolved).
    """
    if backend in BACKENDS:
        return backend
    raise ValueError(
        f"unknown simulation backend {backend!r};"
        f" valid choices: {backend_choices_text()}"
    )


def resolve_backend(
    backend: "str | ExecutionBackend | None",
    pool: Optional[MemoryPool] = None,
) -> ExecutionBackend:
    """Turn a backend name (or ready instance) into an instance.

    The kernel's memory pool is shared with every backend, so serial
    evaluation and cache-miss fills recycle the same arrays.
    Requesting ``bitparallel-np`` without NumPy installed degrades to
    the pure-Python ``bitparallel`` engine with a one-line warning --
    same results, just without the vectorized tiles.
    """
    if backend is None:
        return SerialBackend(pool)
    if isinstance(backend, ExecutionBackend):
        return backend
    factory = BACKENDS[validate_backend_name(backend)]
    try:
        return factory(pool=pool)
    except NumpyUnavailableError as error:
        warnings.warn(
            f"{error}; falling back to the pure-Python"
            f" {BitParallelBackend.name!r} backend",
            RuntimeWarning,
        )
        return BitParallelBackend(pool)
