"""The unified simulation kernel.

:class:`SimulationKernel` is the single entry point for all fault
simulation in the repository.  Every consumer layer -- the generator's
verifier, coverage/non-redundancy analysis, comparative analysis,
diagnosis dictionaries, the two-port search and the benchmark harness
-- routes its (test, fault case) detection questions through one
kernel, which

* memoizes worst-case verdicts in a bounded fault-dictionary cache
  keyed by :class:`~repro.kernel.cache.SimKey` (canonical test
  signature, case name, memory size, domain) and held per
  ``(signature, size, domain)`` group, with hit/miss stats;
* hoists ``concrete_order_variants()`` out of all inner loops (each
  scalar run allocates a fresh :class:`~repro.memory.array.MemoryArray`);
* answers the Section 6 analysis with the lanes each verifying read
  detects: on ``bitparallel``, one step per element and read through
  the packed verifier's transition table
  (:meth:`PackedVerifier.read_detections`); for the unpackable cases
  and on ``serial``, one plain scalar run per (realization,
  behavioural variant), reporting the set of reads that mismatched
  (:meth:`SimulationKernel.read_detections`);
* resolves every verdict on one path (:meth:`SimulationKernel._verdicts`,
  which single probes share): one cache lookup for all the pairs, then
  one call per test over that test's misses to a pluggable
  :class:`~repro.kernel.backends.ExecutionBackend` (the scalar
  ``serial`` reference, or the word-packed ``bitparallel``), selectable via
  ``SimulationKernel(backend=...)`` or the CLI ``--backend`` flag, then
  one cache write of the fresh verdicts;
* optionally layers the persistent fault-dictionary store
  (:mod:`repro.store`) under the LRU as a write-through/read-through
  second tier of the same cache (``store=``/``--store``), so repeated
  CLI invocations and concurrent processes share verdicts across
  process boundaries.

Results are bit-identical to the legacy per-call paths; see
``tests/kernel/`` and ``tests/store/`` for the equivalence properties.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..faults.faultlist import FaultList
from ..faults.instances import FaultCase
from ..march.element import AddressOrder, MarchElement, MarchOp
from ..march.test import MarchTest
from ..memory.array import MemoryArray
from ..simulator.bitengine import (
    PackedSimulation,
    TransitionTable,
    pack_cases,
)
from ..simulator.engine import MarchRun, is_well_formed, run_march
from ..simulator.ordertree import walk_realizations
from ..store import FaultDictionaryStore, resolve_store
from ..telemetry import TELEMETRY_OFF, Counter, Telemetry
from .backends import ExecutionBackend, resolve_backend
from .cache import FaultDictionaryCache, KernelStats, SimKey
from .report import SimulationReport, warn_if_empty

#: Memory size used for validation.  Three cells exercise every
#: aggressor/victim ordering with a bystander cell in all positions.
DEFAULT_SIZE = 3

Verifier = Callable[[MarchTest], bool]

#: Case-name tuples of recent :meth:`SimulationKernel.simulate_many`
#: calls, each mapped to itself: the reports of sweeps over an equal
#: case list share one tuple across calls and kernels.  At most
#: :data:`CASE_NAMES_INTERNED` are kept; the intern starts over when
#: full.
_CASE_NAMES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
CASE_NAMES_INTERNED = 8

#: One failing observation: (element, op, address, observed value).
Failure = Tuple[int, int, int, object]
Syndrome = FrozenSet[Failure]


class VerifyStats:
    """Counters of the packed whole-list verifier (``--sim-stats``).

    Telemetry :class:`Counter` instruments, adopted by a live registry
    as the ``repro.kernel.verify.*`` series like :class:`KernelStats`.
    """

    __slots__ = ("accepted", "rejected", "realizations", "segments",
                 "table_hits", "table_misses", "section6_hits",
                 "section6_misses")

    def __init__(self) -> None:
        self.accepted = Counter()
        self.rejected = Counter()
        #: Realization leaves evaluated by the shared-prefix walk.
        self.realizations = Counter()
        #: ``run_variant`` segment runs behind those leaves.
        self.segments = Counter()
        #: Element steps of those segments answered by the transition
        #: table, and steps that ran the engine.
        self.table_hits = Counter()
        self.table_misses = Counter()
        #: The same for the Section 6 check's element steps
        #: (:meth:`PackedVerifier.read_detections`), which share the
        #: table but not these counts.
        self.section6_hits = Counter()
        self.section6_misses = Counter()

    @property
    def calls(self) -> int:
        return self.accepted.value + self.rejected.value

    @property
    def section6_steps(self) -> int:
        return self.section6_hits.value + self.section6_misses.value

    def reset(self) -> None:
        for counter in (self.accepted, self.rejected, self.realizations,
                        self.segments, self.table_hits, self.table_misses,
                        self.section6_hits, self.section6_misses):
            counter.value = 0

    def __str__(self) -> str:
        text = (
            f"verify: {self.calls} packed calls"
            f" ({self.accepted.value} accepted),"
            f" {self.realizations.value} realizations"
            f" in {self.segments.value} segment runs,"
            f" {self.table_hits.value} table hits"
            f" / {self.table_misses.value} misses"
        )
        if self.section6_steps:
            text += (
                f"; section 6: {self.section6_hits.value} table hits"
                f" / {self.section6_misses.value} misses"
            )
        return text


def canonical_signature(test: Union[MarchTest, object]) -> str:
    """The cache identity of a test: its notation, not its name.

    ``str`` of a March test renders orders and operations only, so two
    differently-named but operationally identical tests share cached
    verdicts.  Works for any test type whose ``__str__`` is canonical
    (single-port :class:`MarchTest` and the two-port ``March2PTest``).
    """
    return str(test)


class SimulationKernel:
    """Cached, batched, backend-pluggable fault simulation.

    Parameters
    ----------
    backend:
        Backend name (``"serial"``/``"bitparallel"``), a ready
        :class:`ExecutionBackend`, or ``None`` for serial (the reference
        oracle; the generator and the CLI default to
        :data:`~repro.kernel.backends.DEFAULT_BACKEND`).  An unknown
        name raises ``ValueError`` listing the valid choices.
    cache_size:
        Bound of the fault-dictionary cache (LRU beyond it).
    store:
        Path to the persistent fault-dictionary store, a
        ``repro+unix:///path/to.sock`` verdict-service URL (the
        daemon owns the SQLite file; this kernel becomes a socket
        client), or a ready store instance -- layered under the LRU
        as a write-through/read-through second tier; ``None``
        (default) keeps the dictionary purely in-memory.
    store_readonly:
        Open the store for lookups only: fresh verdicts stay
        in-process, nothing is written to disk.
    telemetry:
        A live :class:`~repro.telemetry.Telemetry` handle, or ``None``
        (default) for the zero-cost no-op.  With a live handle the
        kernel adopts its cache counters into the registry as
        ``repro.kernel.cache.*``, samples backend routing and store
        counters as collectors, and records one ``kernel.detect_batch``
        span plus one ``repro.backend.detect.seconds`` observation per
        backend call, and one ``kernel.verify`` span per packed
        verifier call.  Stats attributes (``kernel.stats`` etc.) behave
        identically either way.

    >>> from repro.march.catalog import MATS
    >>> from repro.faults import FaultList
    >>> kernel = SimulationKernel()
    >>> kernel.simulate_fault_list(MATS, FaultList.from_names("SAF")).complete
    True
    >>> kernel.stats.misses > 0
    True
    """

    def __init__(
        self,
        backend: Union[str, ExecutionBackend, None] = None,
        cache_size: int = 1_000_000,
        store: Union[str, FaultDictionaryStore, None] = None,
        store_readonly: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else TELEMETRY_OFF
        self.backend = resolve_backend(backend)
        # A store the kernel opened from a path or service URL is the
        # kernel's to close; a caller-provided instance may be shared
        # with other kernels, so close() must leave it alone.
        self._owns_store = isinstance(store, (str, Path)) or store is None
        self.store = resolve_store(store, readonly=store_readonly)
        self.cache = FaultDictionaryCache(
            cache_size, store=self.store, telemetry=self.telemetry
        )
        self.verify_stats = VerifyStats()
        if self.telemetry.enabled:
            self._attach_telemetry()

    def _attach_telemetry(self) -> None:
        """Wire every tier's counters into the live metrics registry.

        Cache counters are *adopted* (the registry reads the same
        Counter objects ``kernel.stats`` mutates -- one set of numbers,
        no double accounting); backend routing and store counters are
        *collectors* sampled at snapshot time, because their label sets
        (strategies) only appear as the run unfolds.
        """
        registry = self.telemetry.registry
        for field, counter in self.stats.counters().items():
            registry.adopt(
                f"repro.kernel.cache.{field}", counter, tier="memory"
            )
        verify = self.verify_stats
        registry.adopt(
            "repro.kernel.verify.calls", verify.accepted, accepted="true"
        )
        registry.adopt(
            "repro.kernel.verify.calls", verify.rejected, accepted="false"
        )
        registry.adopt(
            "repro.kernel.verify.realizations", verify.realizations
        )
        registry.adopt("repro.kernel.verify.segments", verify.segments)
        registry.adopt("repro.kernel.verify.table_hits", verify.table_hits)
        registry.adopt(
            "repro.kernel.verify.table_misses", verify.table_misses
        )
        registry.adopt(
            "repro.kernel.verify.section6_steps", verify.section6_hits,
            table="hit",
        )
        registry.adopt(
            "repro.kernel.verify.section6_steps", verify.section6_misses,
            table="miss",
        )
        backend = self.backend
        hits = getattr(backend, "table_hits", None)
        if hits is not None:
            registry.adopt("repro.backend.table_steps", hits, table="hit")
            registry.adopt(
                "repro.backend.table_steps", backend.table_misses,
                table="miss",
            )
        registry.collector(
            "repro.backend.served",
            lambda: [
                ({"backend": backend.name, "strategy": strategy}, count)
                for strategy, count in sorted(backend.served.items())
            ],
        )
        if self.store is not None:
            stats = self.store.stats
            for field in ("hits", "misses", "writes", "skipped_writes"):
                registry.collector(
                    f"repro.store.{field}",
                    lambda field=field: [
                        ({"tier": "store"}, getattr(stats, field))
                    ],
                )

    # -- introspection ----------------------------------------------------------

    @property
    def stats(self) -> KernelStats:
        """Hit/miss/eviction counters of the fault dictionary."""
        return self.cache.stats

    #: Canonical tier order of :meth:`describe_stats`: memory cache
    #: first, then the persistent store, the packed verifier, then
    #: backend routing -- the same sequence whether or not a store is
    #: attached, so ``--sim-stats`` output from any two kernels diffs
    #: segment-by-segment.
    STATS_TIER_ORDER = ("cache", "store", "verify", "backend")

    def stats_segments(self) -> List[Tuple[str, str]]:
        """``(tier, text)`` stat segments in canonical tier order.

        Tiers that do not apply (no store attached, no packed verifier
        call) are simply absent; present tiers always appear in
        :data:`STATS_TIER_ORDER`.
        """
        segments: Dict[str, str] = {"cache": str(self.stats)}
        if self.store is not None:
            segments["store"] = self.store.describe()
        if self.verify_stats.calls or self.verify_stats.section6_steps:
            segments["verify"] = str(self.verify_stats)
        served = getattr(self.backend, "served", None) or {}
        routing = ", ".join(
            f"{name}: {count}" for name, count in sorted(served.items())
        )
        segments["backend"] = (
            f"backend [{self.backend.name}]"
            f" served {routing if routing else 'no tasks'}"
        )
        hits = getattr(self.backend, "table_hits", None)
        if hits is not None and hits.value + self.backend.table_misses.value:
            segments["backend"] += (
                f", {hits.value} table hits"
                f" / {self.backend.table_misses.value} misses"
            )
        return [
            (tier, segments[tier])
            for tier in self.STATS_TIER_ORDER
            if tier in segments
        ]

    def describe_stats(self) -> str:
        """Cache counters, store counters, backend routing breakdown.

        The routing part reports how many cache-miss tasks each
        execution strategy actually served (e.g. ``bitparallel`` vs its
        scalar ``serial`` fallback); with a persistent store attached,
        its second-tier hit/miss/write counters appear too, so
        ``--sim-stats`` makes every dictionary tier and every dispatch
        decision observable rather than a black box.  Segments follow
        :data:`STATS_TIER_ORDER` so the output is stably diffable.
        """
        return "; ".join(text for _, text in self.stats_segments())

    def clear(self) -> None:
        """Drop every in-memory verdict and reset ALL the stats.

        Also resets the backend's routing counters and the persistent
        store's hit/miss/write counters so :meth:`describe_stats` never
        mixes numbers from two runs.  The store's on-disk *rows* are
        deliberately kept: dropping the persistent dictionary is an
        operator action (delete the file), not a cache side effect.
        """
        self.cache.clear()
        self.stats.reset()
        self.verify_stats.reset()
        served = getattr(self.backend, "served", None)
        if served is not None:
            served.clear()
        hits = getattr(self.backend, "table_hits", None)
        if hits is not None:
            hits.value = self.backend.table_misses.value = 0
        if self.store is not None:
            self.store.stats.reset()

    def close(self) -> None:
        """Close the store connection when the kernel opened it itself
        (constructed from a path or service URL).  Caller-provided
        store instances stay open: they may be shared with other
        kernels and are the caller's to close."""
        if self.store is not None and self._owns_store:
            self.store.close()

    # -- single-detection API ---------------------------------------------------

    def detects(
        self, test: MarchTest, case: FaultCase, size: int = DEFAULT_SIZE
    ) -> bool:
        """Worst-case detection of one fault case (cached).

        A one-pair :meth:`_verdicts`: a miss reaches the configured
        backend as a call with one case, so custom execution strategies
        see every probe.
        """
        (row,) = self._verdicts((test,), (case,), size).values()
        return row[case.name]

    def read_detections(
        self,
        test: MarchTest,
        factories: Sequence[Callable[[], object]],
        size: int = DEFAULT_SIZE,
    ) -> Iterator[FrozenSet[Tuple[int, int]]]:
        """The verifying reads that mismatched, one set per run.

        Yields, lazily and realization by realization, the
        ``(element_index, op_index)`` keys of the reads that detected
        one behavioural variant of ``factories`` in one plain scalar
        run of a concrete realization of ``test``.  The Section 6
        analysis (:mod:`repro.simulator.coverage`) is set algebra over
        these sets.  Uncached: the consumer stops as soon as it can.
        """
        for variant in test.concrete_order_variants():
            for make_instance in factories:
                run = run_march(
                    variant, MemoryArray(size, fault=make_instance())
                )
                yield frozenset(
                    (r.element_index, r.op_index)
                    for r in run.reads
                    if r.mismatch
                )

    # -- batched APIs -----------------------------------------------------------

    def simulate(
        self,
        test: MarchTest,
        cases: Sequence[FaultCase],
        size: int = DEFAULT_SIZE,
    ) -> SimulationReport:
        """Simulate every fault case against one test."""
        return self.simulate_many([test], cases, size)[0]

    def simulate_many(
        self,
        tests: Sequence[MarchTest],
        cases: Sequence[FaultCase],
        size: int = DEFAULT_SIZE,
    ) -> List[SimulationReport]:
        """Batched simulation: one report per test, in input order.

        Cache hits are answered from the fault dictionary; each test's
        misses are evaluated in one backend call and stored.  The
        reports share one tuple of the case names, and so do those of
        a recent call over an equal case list.
        """
        warn_if_empty(cases)
        verdicts = self._verdicts(tests, cases, size)
        names = tuple([case.name for case in cases])
        shared = _CASE_NAMES.get(names)
        if shared is None:
            if len(_CASE_NAMES) >= CASE_NAMES_INTERNED:
                _CASE_NAMES.clear()
            shared = _CASE_NAMES.setdefault(names, names)
        names = shared
        high_first = names[::-1]
        reports = []
        for test in tests:
            row = verdicts[canonical_signature(test)]
            # Bit i of the flags is case i, so the last case's digit
            # comes first.
            flags = int(
                "".join(["1" if row[name] else "0" for name in high_first])
                or "0",
                2,
            )
            reports.append(
                SimulationReport.from_flags(test, size, names, flags)
            )
        return reports

    def simulate_fault_list(
        self,
        test: MarchTest,
        faults: FaultList,
        size: int = DEFAULT_SIZE,
    ) -> SimulationReport:
        """Simulate all behavioural instances of a fault list."""
        return self.simulate(test, faults.instances(size), size)

    def detection_matrix(
        self,
        tests: Sequence[MarchTest],
        faults: Union[FaultList, Sequence[FaultCase]],
        size: int = DEFAULT_SIZE,
    ) -> Dict[str, Dict[str, bool]]:
        """Cross table: test name -> fault case name -> detected?

        Accepts a :class:`FaultList` (instances are derived at ``size``)
        or an explicit fault-case sequence.
        """
        cases = (
            faults.instances(size)
            if isinstance(faults, FaultList)
            else tuple(faults)
        )
        warn_if_empty(cases)
        verdicts = self._verdicts(tests, cases, size)
        return {
            test.name or str(test): dict(verdicts[canonical_signature(test)])
            for test in tests
        }

    def _verdicts(
        self,
        tests: Sequence[MarchTest],
        cases: Sequence[FaultCase],
        size: int,
    ) -> Dict[str, Dict[str, bool]]:
        """Resolve every (test, case) pair: signature -> case name ->
        verdict, each row in first-appearance case order.

        The one path every verdict takes, and it builds no per-pair
        key.  One ``cache.get_groups`` looks up one group per test
        signature (a store tier answers the in-memory misses in one
        pass), one backend call per test evaluates that test's missing
        cases, and one ``cache.put_groups`` stores the fresh verdicts
        (one store transaction).  A test or case given twice is
        resolved once.
        """
        by_name: Dict[str, FaultCase] = {}
        for case in cases:
            by_name.setdefault(case.name, case)
        names = list(by_name)
        by_signature: Dict[str, MarchTest] = {}
        for test in tests:
            by_signature.setdefault(canonical_signature(test), test)
        cached = self.cache.get_groups(
            [(signature, size, "sp", names) for signature in by_signature]
        )
        verdicts: Dict[str, Dict[str, bool]] = {}
        fresh = []
        for (signature, test), row in zip(by_signature.items(), cached):
            missing = [name for name in names if name not in row]
            if missing:
                results = self._detect_batch(
                    [by_name[name] for name in missing], test, size
                )
                fresh.append((signature, size, "sp", missing, results))
                row.update(zip(missing, results))
            verdicts[signature] = (
                row if len(missing) == len(names)
                else {name: row[name] for name in names}
            )
        if fresh:
            self.cache.put_groups(fresh)
        return verdicts

    def _detect_batch(
        self, cases: List[FaultCase], test: MarchTest, size: int
    ) -> List[bool]:
        """One backend call, traced as a ``kernel.detect_batch`` span
        observed into the ``repro.backend.detect.seconds`` histogram."""
        self.stats._batches.inc()
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self.backend.detect_batch(cases, test, size)
        backend = self.backend.name
        with telemetry.span(
            "kernel.detect_batch", backend=backend,
            tasks=len(cases), size=size,
        ) as span:
            results = self.backend.detect_batch(cases, test, size)
        telemetry.histogram(
            "repro.backend.detect.seconds", backend=backend
        ).observe(getattr(span, "seconds", None) or 0.0)
        return results

    # -- generator-facing verification -----------------------------------------

    def verifier(
        self, cases: Sequence[FaultCase], size: int
    ) -> Verifier:
        """A predicate: well-formed and detects every fault case.

        On the lane-packed ``bitparallel`` backend the predicate builds
        one bignum
        :class:`~repro.simulator.bitengine.PackedSimulation` over
        the lane-packable cases and walks a candidate's order
        realizations as one shared-prefix tree
        (:func:`~repro.simulator.ordertree.walk_realizations`): it
        rejects at the first leaf that sets lane 0 (the fault-free
        reference mismatched, so the test is malformed) or misses any
        fault lane.  Every candidate the predicate sees steps through
        one shared :class:`~repro.simulator.bitengine.TransitionTable`,
        so each (packed state, element) pair is simulated once per
        predicate.  Unpackable user fault types then go through
        :meth:`detects` case by case.  The packed pass writes no
        fault-dictionary entries.  The predicate is a
        :class:`PackedVerifier`, whose node protocol lets the
        minimality search step shared prefixes once; under a live
        telemetry each call is one ``kernel.verify`` span.

        Every other backend keeps the scalar reference predicate: an
        ``is_well_formed`` good-machine run per realization, then one
        cached :meth:`detects` per case.  Both per-case passes are
        fail-fast: the case that most recently rejected a candidate is
        tried first on the next call.
        """
        ordered: List[FaultCase] = list(cases)
        if self.backend.lane_packed:
            if self.telemetry.enabled:
                return _TracedPackedVerifier(self, ordered, size)
            return PackedVerifier(self, ordered, size)

        def verify(test: MarchTest) -> bool:
            return is_well_formed(test, size) and self._detects_all(
                test, ordered, size
            )

        return verify

    def _detects_all(
        self, test: MarchTest, ordered: List[FaultCase], size: int
    ) -> bool:
        """Fail-fast :meth:`detects` over ``ordered``, moving the case
        that rejects ``test`` to the front for the next candidate."""
        for position, fault_case in enumerate(ordered):
            if not self.detects(test, fault_case, size):
                if position:
                    ordered.insert(0, ordered.pop(position))
                return False
        return True

    # -- diagnosis --------------------------------------------------------------

    def syndrome(
        self, test: MarchTest, case: FaultCase, size: int
    ) -> Syndrome:
        """The failing-read signature of a fault case (cached).

        Diagnosis semantics: one concrete realization (ANY resolved
        ascending, :func:`concrete_realization`) and the case's first
        behavioural variant -- a fault dictionary describes a
        deterministic program on real hardware.
        """
        key = SimKey(canonical_signature(test), case.name, size, domain="syn")
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        syndrome = self.syndrome_of(test, case.variants[0], size)
        self.cache.put(key, syndrome)
        return syndrome

    def syndrome_of(
        self, test: MarchTest, make_instance: Callable[[], object], size: int
    ) -> Syndrome:
        """Uncached syndrome of one fault instance factory."""
        memory = MemoryArray(size, fault=make_instance())
        run = run_march(concrete_realization(test), memory)
        return frozenset(
            (r.element_index, r.op_index, r.address, r.actual)
            for r in run.reads
            if r.mismatch
        )

    def run_concrete(self, test: MarchTest, memory: MemoryArray) -> MarchRun:
        """Run the ascending realization of ``test`` on a given memory
        (diagnosing actual hardware state, so never cached)."""
        return run_march(concrete_realization(test), memory)

    # -- two-port domain --------------------------------------------------------

    def detects_2p(self, test, case, size: int = DEFAULT_SIZE) -> bool:
        """Worst-case two-port differential detection (cached).

        ``test`` is a :class:`~repro.multiport.march2p.March2PTest`;
        evaluation delegates to the differential simulator but verdicts
        share this kernel's fault dictionary under the ``"2p"`` domain.
        """
        from ..multiport.march2p import detects_weak_case

        key = SimKey(canonical_signature(test), case.name, size, domain="2p")
        verdict = self.cache.get(key)
        if verdict is None:
            verdict = detects_weak_case(test, case, size)
            self.cache.put(key, verdict)
        return verdict


#: A search node of :class:`PackedVerifier`: the packed state words
#: after a prefix of elements, and the lanes the prefix detected.
Node = Tuple[Tuple[int, ...], int]


class PackedVerifier:
    """The packed predicate of :meth:`SimulationKernel.verifier`.

    One :class:`~repro.simulator.bitengine.PackedSimulation` and one
    :class:`~repro.simulator.bitengine.TransitionTable` over it serve
    every call.  The walk runs each segment through the table, which is
    exact because a run is a pure function of the packed state and the
    element.  This is not a verdict memo: nothing is keyed by
    candidate, so candidates that share prefixes and collapse into a
    few hundred states reuse each other's element steps.

    The minimality search (:func:`~repro.core.exhaustive.
    exhaustive_search`) does not call the predicate per candidate.  It
    carries a :data:`Node` down its grammar tree through the prefix
    protocol: :meth:`root` is power-up, :meth:`extend` is one table
    step, :meth:`accepts` decides a complete candidate from its node,
    and :meth:`count` adds the search's candidates to
    :class:`VerifyStats`, each as the one call, realization and segment
    the predicate would have counted (no candidate has a ``⇕``
    element).  Nodes are hashable, and when :attr:`node_decides` holds
    (no unpackable case, no telemetry span per candidate) the search
    keys a memo of dead subtrees by them: a candidate the search counts
    from that memo is counted, but neither stepped nor passed to
    :meth:`accepts`.

    The Section 6 check (:mod:`repro.simulator.coverage`) steps the
    test it confirmed through the same transitions, in
    :meth:`read_detections`.
    """

    __slots__ = ("kernel", "stats", "scalar", "size", "table",
                 "fault_lanes", "section6")

    def __init__(
        self, kernel: SimulationKernel, cases: List[FaultCase], size: int
    ) -> None:
        simulation, self.scalar, _ = pack_cases(cases, size)
        if simulation is None:
            # No packable case: lane 0 alone still checks that the
            # candidate is well formed.
            simulation = PackedSimulation((), size)
        self.kernel = kernel
        self.stats = stats = kernel.verify_stats
        self.size = size
        self.table = TransitionTable(
            simulation, stats.table_hits, stats.table_misses
        )
        self.section6 = self.table.view(
            stats.section6_hits, stats.section6_misses
        )
        # Every realization must detect every fault lane and leave the
        # fault-free reference lane 0 clear.
        self.fault_lanes = simulation.full & ~1

    def __call__(self, test: MarchTest) -> bool:
        # The walk stops at the first leaf that differs, so a skipped
        # (merged) subtree only ever repeats leaves that passed.
        walk = walk_realizations(self.table, test, self.fault_lanes.__ne__)
        accepted = not walk.stopped and self.kernel._detects_all(
            test, self.scalar, self.size
        )
        stats = self.stats
        stats.realizations.inc(walk.leaves)
        stats.segments.inc(walk.segments)
        (stats.accepted if accepted else stats.rejected).inc()
        return accepted

    def root(self) -> Node:
        """The power-up node a search starts from."""
        return self.table.power_up, 0

    def extend(self, node: Node, element: MarchElement) -> Node:
        """``node`` followed by one fixed-order ``element``."""
        words, found = self.table.step(node[0], element)
        return words, node[1] | found

    def accepts(
        self, node: Node, elements: Tuple[MarchElement, ...]
    ) -> bool:
        """Whether the candidate ``elements``, which reached ``node``,
        passes: what :meth:`__call__` answers for it."""
        return node[1] == self.fault_lanes and (
            not self.scalar or self.kernel._detects_all(
                MarchTest(elements), self.scalar, self.size
            )
        )

    @property
    def node_decides(self) -> bool:
        """Whether :meth:`accepts` depends on the node alone, so a search
        may count a subtree it already found dead without stepping it
        again: true unless an unpackable case is checked per candidate."""
        return not self.scalar

    def count(self, candidates: int, accepted: bool) -> None:
        """Add a search's ``candidates`` decided by :meth:`accepts`."""
        stats = self.stats
        stats.realizations.inc(candidates)
        stats.segments.inc(candidates)
        stats.accepted.inc(accepted)
        stats.rejected.inc(candidates - accepted)

    def read_detections(
        self, test: MarchTest
    ) -> Iterator[List[Tuple[Tuple[int, int], int]]]:
        """The fault lanes each verifying read detects, one list of
        ``((element_index, op_index), lanes)`` per order realization of
        ``test``, for the packed cases.

        Each element is stepped once per verifying read, from the same
        state words, with every other read of the element demoted to a
        plain read; an element with one verifying read is its own
        demotion.  A demoted read still executes, so every step lands
        in the same next state.
        """
        step = self.section6.step
        fault_lanes = self.fault_lanes
        demotions: Dict[object, List[Tuple[int, object]]] = {}
        for realization in test.concrete_order_variants():
            words = self.table.power_up
            detections = []
            for element_index, element in enumerate(realization.elements):
                reads = demotions.get(element)
                if reads is None:
                    reads = demotions[element] = _demotions(element)
                if not reads:
                    words, _ = step(words, element)
                    continue
                before = words
                for op_index, demoted in reads:
                    words, found = step(before, demoted)
                    detections.append(
                        ((element_index, op_index), found & fault_lanes)
                    )
            yield detections


class _TracedPackedVerifier(PackedVerifier):
    """:class:`PackedVerifier` under a live telemetry: each call, and
    each candidate a search decides, is one ``kernel.verify`` span.  A
    candidate's span holds the table steps since the previous one, so
    the spans of a search add up to its steps."""

    __slots__ = ("attrs", "mark")

    #: Each candidate is one span, so a search walks every subtree.
    node_decides = False

    def __init__(
        self, kernel: SimulationKernel, cases: List[FaultCase], size: int
    ) -> None:
        super().__init__(kernel, cases, size)
        self.attrs = {
            "backend": kernel.backend.name, "cases": len(cases),
            "lanes": self.table.simulation.lanes, "size": size,
        }
        self.mark = (0, 0)

    def _span(self) -> Any:
        return self.kernel.telemetry.span("kernel.verify", **self.attrs)

    def __call__(self, test: MarchTest) -> bool:
        stats = self.stats
        leaves = stats.realizations.value
        segments = stats.segments.value
        hits = stats.table_hits.value
        misses = stats.table_misses.value
        with self._span() as span:
            accepted = super().__call__(test)
            span.annotate(
                realizations=stats.realizations.value - leaves,
                segments=stats.segments.value - segments,
                table_hits=stats.table_hits.value - hits,
                table_misses=stats.table_misses.value - misses,
                accepted=accepted,
            )
        return accepted

    def root(self) -> Node:
        self.mark = self._steps()
        return super().root()

    def accepts(
        self, node: Node, elements: Tuple[MarchElement, ...]
    ) -> bool:
        with self._span() as span:
            accepted = super().accepts(node, elements)
            hits, misses = self.mark
            self.mark = self._steps()
            span.annotate(
                realizations=1, segments=1,
                table_hits=self.mark[0] - hits,
                table_misses=self.mark[1] - misses,
                accepted=accepted,
            )
        return accepted

    def _steps(self) -> Tuple[int, int]:
        return self.stats.table_hits.value, self.stats.table_misses.value


def _demotions(element: object) -> List[Tuple[int, object]]:
    """Each verifying read of ``element`` (its op index) with the
    element that keeps only that read verifying."""
    if not isinstance(element, MarchElement):
        return []
    ops = element.ops
    reads = [
        k for k, op in enumerate(ops) if op.is_read and op.value is not None
    ]
    if len(reads) == 1:
        return [(reads[0], element)]
    plain = MarchOp("r", None)
    return [
        (k, MarchElement(element.order, tuple(
            plain if j in reads and j != k else op for j, op in enumerate(ops)
        )))
        for k in reads
    ]


def concrete_realization(test: MarchTest) -> MarchTest:
    """Resolve every ANY order to UP (the ascending realization).

    The single definition shared by the diagnosis semantics above and
    the Coverage Matrix construction (:mod:`repro.simulator.coverage`):
    an ``ANY`` element detects under *either* order, so per-block
    coverage and syndrome signatures are only meaningful once an order
    is fixed.
    """
    elements = tuple(
        e.with_order(AddressOrder.UP)
        if isinstance(e, MarchElement) and e.order is AddressOrder.ANY
        else e
        for e in test.elements
    )
    return MarchTest(elements, test.name)


# -- module-level default kernel ------------------------------------------------

_DEFAULT_KERNEL: Optional[SimulationKernel] = None


def get_default_kernel() -> SimulationKernel:
    """The process-wide kernel shared by callers that supply none.

    Consumers that want isolation (their own cache/backend) construct a
    :class:`SimulationKernel` directly; the analysis, coverage and
    diagnosis helpers called without a ``kernel=`` share this one.
    """
    global _DEFAULT_KERNEL
    if _DEFAULT_KERNEL is None:
        _DEFAULT_KERNEL = SimulationKernel()
    return _DEFAULT_KERNEL


def set_default_kernel(kernel: Optional[SimulationKernel]) -> None:
    """Replace (or with ``None``, reset) the process-wide kernel."""
    global _DEFAULT_KERNEL
    _DEFAULT_KERNEL = kernel
