"""Pluggable execution backends for the simulation kernel.

A backend answers one test's cache misses: ``detect_batch(cases, test,
size)`` returns one worst-case boolean per fault case, in case order.
The kernel makes one call per test of a batched sweep, over just the
cases whose verdicts are not yet in its fault dictionary.  It never
cares how the backend evaluates them: serially in-process (the scalar
reference), or word-packed so every fault lane advances in one bitwise
operation per march step (``bitparallel``).

Every backend counts the cases it served per execution strategy in
``served`` (e.g. the bitparallel backend splits between ``bitparallel``
and its scalar ``serial`` fallback), which the CLI's ``--sim-stats``
reports so routing decisions stay observable.

Adding a backend
----------------
Subclass :class:`ExecutionBackend`, implement ``detect_batch``, and
register the class in :data:`BACKENDS` under its ``name``; it is then
selectable through ``SimulationKernel(backend=...)`` and the CLI's
``--backend`` flag.  ``detect_batch`` must return the verdicts in case
order and must compute exactly the worst-case semantics of
:func:`worst_case_detects` (every order variant x every behavioural
variant must be caught).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.instances import FaultCase
from ..march.test import MarchTest
from ..memory.array import MemoryArray
from ..simulator.bitengine import TransitionTable, pack_cases
from ..simulator.engine import run_march
from ..telemetry.metrics import Counter

#: A routed case list: each case's route (``True``: packed) and the
#: transition table over the simulation of the packable cases, if any.
_Plan = Tuple[Tuple[bool, ...], Optional[TransitionTable]]


def worst_case_detects(
    variants: Sequence[MarchTest],
    factories: Sequence[Callable[[], object]],
    size: int,
) -> bool:
    """The kernel's single source of truth for worst-case detection.

    ``variants`` are the concrete order realizations of one test (the
    caller hoists ``concrete_order_variants()`` out of its loops);
    ``factories`` the behavioural variants of one fault case.  Evaluation
    short-circuits on the first missed combination.
    """
    return all(
        run_march(variant, MemoryArray(size, fault=make_instance())).detected
        for variant in variants
        for make_instance in factories
    )


class ExecutionBackend:
    """Strategy interface: evaluate one test against many fault cases."""

    #: Registry key; also what ``--backend`` matches against.
    name = "abstract"

    #: True when the backend simulates on the word-packed lane engine;
    #: ``SimulationKernel.verifier`` then checks each candidate against
    #: the whole fault list in one packed run.
    lane_packed = False

    def __init__(self) -> None:
        #: Cases served per execution strategy, e.g. ``{"serial": 12}``
        #: or ``{"bitparallel": 60, "serial": 9}`` when a backend
        #: routes part of a batch to a fallback.  ``--sim-stats`` prints
        #: this so routing decisions are observable.
        #: The owning kernel samples it as the ``repro.backend.served``
        #: route/fallback counters.
        self.served: Dict[str, int] = {}

    def count_served(self, strategy: str, cases: int) -> None:
        if cases:
            self.served[strategy] = self.served.get(strategy, 0) + cases

    def detect_batch(
        self, cases: Sequence[FaultCase], test: MarchTest, size: int
    ) -> List[bool]:
        """Does ``test`` detect each of ``cases`` at ``size``?"""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process scalar evaluation (the default)."""

    name = "serial"

    def detect_batch(
        self, cases: Sequence[FaultCase], test: MarchTest, size: int
    ) -> List[bool]:
        self.count_served("serial", len(cases))
        variants = test.concrete_order_variants()
        return [
            worst_case_detects(variants, case.variants, size)
            for case in cases
        ]


class BitParallelBackend(SerialBackend):
    """Word-packed evaluation: one machine word per march operation.

    The lane-packable cases of a call (see
    :mod:`repro.simulator.bitengine`) are evaluated in one packed pass
    over the test's order realizations, walked as a shared-prefix tree
    (:mod:`repro.simulator.ordertree`) -- every fault lane advances
    with O(1) bitwise operations per march step instead of O(n) scalar
    steps per fault instance.  Unpackable cases (unknown user-defined
    instance types, composite multi-defect injections) fall back to the
    inherited scalar serial evaluation; ``served`` records how many
    cases each side handled.

    Each (case names, size) pair -- case names are the repository-wide
    canonical fault identity -- is routed and packed once, by one
    :func:`~repro.simulator.bitengine.pack_cases` call, so every test
    of a batched sweep, and the single-case probes of ``dominates``,
    reuse one lane plan.  Each plan keeps one
    :class:`~repro.simulator.bitengine.TransitionTable`, so the tests
    of a sweep, and later calls on the same plan, run each distinct
    (state, element) step once: a test whose steps are all in the
    table runs no engine.  A batch with no packable case builds no
    simulation.  The generator's verifier does not come through here:
    with ``lane_packed`` set, ``SimulationKernel.verifier`` builds its
    own whole-list table.
    """

    name = "bitparallel"
    lane_packed = True

    #: Bound of the lane-plan cache (LRU beyond it).
    PLAN_CACHE_SIZE = 128

    def __init__(self) -> None:
        super().__init__()
        #: (case names, size) -> (each case's route, the transition
        #: table over the packable cases or ``None`` when there are none).
        self._plans: "OrderedDict[Tuple, _Plan]" = OrderedDict()
        #: Element steps of every plan's table: answered from the table,
        #: and run on the engine (``--sim-stats``).
        self.table_hits = Counter()
        self.table_misses = Counter()

    def _plan(self, cases: Sequence[FaultCase], size: int) -> _Plan:
        key = (tuple([case.name for case in cases]), size)
        plans = self._plans
        plan = plans.get(key)
        if plan is None:
            simulation, _, routes = pack_cases(cases, size)
            plan = plans[key] = (routes, None if simulation is None else (
                TransitionTable(simulation, self.table_hits, self.table_misses)
            ))
            if len(plans) > self.PLAN_CACHE_SIZE:
                plans.popitem(last=False)
        else:
            plans.move_to_end(key)
        return plan

    def detect_batch(
        self, cases: Sequence[FaultCase], test: MarchTest, size: int
    ) -> List[bool]:
        routes, table = self._plan(cases, size)
        packed = table.worst_case_verdicts(test) if table else []
        self.count_served(self.name, len(packed))
        if len(packed) == len(cases):
            return packed
        scalar = [case for case, packs in zip(cases, routes) if not packs]
        fallback = iter(super().detect_batch(scalar, test, size))
        packed = iter(packed)
        return [next(packed if packs else fallback) for packs in routes]


BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    BitParallelBackend.name: BitParallelBackend,
}

#: The backend of the generator's own kernel and of the CLI when
#: ``--backend`` is not given.  The word-packed engine packs the whole
#: standard fault library, so the generator verifies each candidate in
#: one packed shared-prefix walk of its order realizations; ``serial``
#: stays selectable as the scalar reference.
DEFAULT_BACKEND = "bitparallel"


def backend_choices_text() -> str:
    """The valid ``--backend`` choices, sorted."""
    return ", ".join(sorted(BACKENDS))


def validate_backend_name(backend: str) -> str:
    """Fail fast on an unknown backend name with the full choice list.

    Called by :func:`resolve_backend` (so by ``SimulationKernel``) and
    campaign-spec parsing, so a typo'd backend surfaces as one clear
    error when the kernel or the spec is built.  A registered name is
    returned unchanged.
    """
    if backend in BACKENDS:
        return backend
    raise ValueError(
        f"unknown simulation backend {backend!r};"
        f" valid choices: {backend_choices_text()}"
    )


def resolve_backend(
    backend: "str | ExecutionBackend | None",
) -> ExecutionBackend:
    """Turn a backend name (or ready instance) into an instance."""
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    return BACKENDS[validate_backend_name(backend)]()
