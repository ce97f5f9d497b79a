"""The kernel's fault-dictionary cache.

Worst-case detection of a fault case by a March test is a pure function
of (what the test does, which physical fault is injected, how many
cells the memory has).  The cache memoizes those verdicts under a
:class:`SimKey` identity, held per ``(signature, size, domain)`` group,
so that every consumer layer -- generator verification, coverage
analysis, comparative analysis, diagnosis, benchmarks -- shares one
fault dictionary instead of re-simulating from scratch.

The cache is a bounded LRU: the exhaustive-search paths probe hundreds
of thousands of throwaway candidates, and an unbounded dictionary would
grow without limit over a long-lived kernel.  Under the LRU it can
layer the persistent store (:mod:`repro.store`) as a read-through /
write-through second tier, so a second process starts warm.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..telemetry import TELEMETRY_OFF, Counter, Telemetry


@dataclass(frozen=True)
class SimKey:
    """Identity of one memoized simulation verdict.

    Attributes
    ----------
    signature:
        Canonical test signature: the March notation of the test
        (orders + operations), independent of the test's display name.
    case:
        The fault case name, e.g. ``"SA0@2"``.  Case names are the
        canonical identity of a fault throughout the repository
        (detection-matrix columns, simulation reports and syndrome
        dictionaries are all keyed by them), so two cases sharing a
        name are treated as the same fault and share verdicts; fault
        libraries must keep names unique per (model, size).
    size:
        Memory size (number of cells) the simulation ran on.
    domain:
        Simulation domain discriminator: ``"sp"`` single-port detection,
        ``"2p"`` two-port differential detection, ``"syn"`` diagnosis
        syndromes.  Keeps verdicts from unrelated semantics apart even
        when signatures collide textually.
    """

    signature: str
    case: str
    size: int
    domain: str = "sp"


#: A lookup group, ``(signature, size, domain, cases)``, and a write
#: group, which adds one verdict per case.
LookupGroup = Tuple[str, int, str, Sequence[str]]
WriteGroup = Tuple[str, int, str, Sequence[str], Sequence[Any]]


def _reading(slot: str) -> property:
    return property(lambda self: getattr(self, slot).value)


class KernelStats:
    """Hit/miss counters of a kernel's fault-dictionary cache.

    ``stats.hits`` and friends read plain integers, but the storage
    underneath is telemetry :class:`Counter` instruments so a kernel
    with a metrics registry attached can adopt the live counters as its
    ``repro.kernel.cache.*`` series -- one set of numbers, two views,
    no double accounting.  The cache and the kernel bump the
    instruments directly.
    """

    _FIELDS = ("hits", "misses", "evictions", "batches", "stores")

    __slots__ = ("_hits", "_misses", "_evictions", "_batches", "_stores")

    def __init__(self) -> None:
        for name in self._FIELDS:
            setattr(self, f"_{name}", Counter())

    hits = _reading("_hits")
    misses = _reading("_misses")
    evictions = _reading("_evictions")
    #: Backend calls the kernel made to fill misses.
    batches = _reading("_batches")
    stores = _reading("_stores")

    def counters(self) -> Dict[str, Counter]:
        """The live instruments, keyed by field name, for registry
        adoption (:meth:`MetricsRegistry.adopt`)."""
        return {name: getattr(self, f"_{name}") for name in self._FIELDS}

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        for counter in self.counters().values():
            counter.value = 0

    def __str__(self) -> str:
        return (
            f"cache: {self.hits} hits / {self.misses} misses"
            f" ({self.hit_rate * 100:.1f}% hit rate,"
            f" {self.evictions} evictions)"
        )


class FaultDictionaryCache:
    """A bounded LRU of verdicts kept per group, optionally over a
    persistent store.

    A *group* is the cases sharing one ``(signature, size, domain)``.
    The LRU is an ``OrderedDict`` from group to ``{case: verdict}``
    with a running verdict count, and :meth:`get_groups`/
    :meth:`put_groups` take the stores' group tuples, so a sweep costs
    per group here, not per verdict.  Recency is per group; the bound
    counts verdicts, and eviction drops the least recently used
    group's oldest-inserted cases first.  Hits and misses count per
    case asked.  The single-key :meth:`get`/:meth:`put` (``syndrome``,
    ``detects_2p``) are one-group calls.

    With a ``store`` (a :class:`~repro.store.store.FaultDictionaryStore`,
    a :class:`~repro.store.service.ServiceStore`, or a
    :class:`~repro.store.resilience.DegradingStore` wrapping either --
    anything with their ``get_groups``/``put_groups`` surface) the LRU
    is the first tier and the store the second:

    * **read-through** -- the LRU misses of one lookup go to the store
      in one call; what it finds is promoted into the LRU (without
      writing back), so the next lookup is pure in-process;
    * **write-through** -- every fresh batch lands in both tiers in the
      same call, so a killed process never loses completed work.

    The store is written before the LRU, so a batch the store refused
    is never served from memory.  Over a store, a ``max_entries`` of
    ``0`` holds nothing: every lookup misses to the store and nothing
    is inserted or evicted (the verdict daemon's ``--hot-lru-size 0``).

    LRU hits never touch the store.  A live ``telemetry`` handle times
    each store pass into the ``repro.store.read_through.seconds`` and
    ``repro.store.write_through.seconds`` histograms, one observation
    per pass: single-key :meth:`get`/:meth:`put` calls (``syndrome``,
    ``detects_2p``) are one-key passes and are observed too.  The LRU
    tier stays untimed, since its counters are already in :attr:`stats`.
    :meth:`clear` drops the LRU only: the store's rows survive.
    """

    def __init__(
        self,
        max_entries: int = 1_000_000,
        store: Any = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if max_entries < 0 or (max_entries == 0 and store is None):
            raise ValueError("cache needs room for at least one entry")
        self._max_entries = max_entries
        self.store = store
        self.telemetry = telemetry if telemetry is not None else TELEMETRY_OFF
        self.stats = KernelStats()
        self._groups: "OrderedDict[Tuple[str, int, str], Dict[str, Any]]" = (
            OrderedDict()
        )
        self._count = 0

    def get(self, key: SimKey) -> Any:
        """Look up one key through both tiers; ``None`` when absent."""
        (found,) = self.get_groups(
            [(key.signature, key.size, key.domain, (key.case,))]
        )
        return found.get(key.case)

    def get_groups(self, groups: Iterable[LookupGroup]) -> List[Dict[str, Any]]:
        """Look up ``(signature, size, domain, cases)`` groups: one
        ``{case: verdict}`` dict per group with the cases found.  The
        LRU's misses go to the store in one ``get_groups`` call."""
        entries = self._groups
        answers: List[Dict[str, Any]] = []
        missing: List[Tuple[str, int, str, List[str]]] = []
        unfilled: List[Dict[str, Any]] = []
        asked = hits = 0
        for signature, size, domain, cases in groups:
            group = (signature, size, domain)
            row = entries.get(group)
            found: Dict[str, Any] = {}
            if row is not None:
                entries.move_to_end(group)
                found = {case: row[case] for case in cases if case in row}
            gaps = [case for case in cases if case not in found]
            asked += len(cases)
            hits += len(cases) - len(gaps)
            answers.append(found)
            if gaps:
                missing.append((signature, size, domain, gaps))
                unfilled.append(found)
        self.stats._hits.inc(hits)
        self.stats._misses.inc(asked - hits)
        if missing and self.store is not None:
            promoted = self._timed_store(
                "repro.store.read_through.seconds",
                self.store.get_groups, missing,
            )
            self._insert([
                (signature, size, domain, list(got), list(got.values()))
                for (signature, size, domain, _), got in zip(
                    missing, promoted
                )
                if got
            ])
            for found, got in zip(unfilled, promoted):
                found.update(got)
        return answers

    def put(self, key: SimKey, value: Any) -> None:
        """Store one verdict in both tiers."""
        self.put_groups(
            [(key.signature, key.size, key.domain, (key.case,), (value,))]
        )

    def put_groups(self, groups: Sequence[WriteGroup]) -> None:
        """Write ``(signature, size, domain, cases, verdicts)`` groups
        through to the store in one call (one transaction on a file
        store), then store them in the LRU.  A store that raises leaves
        the LRU as it was."""
        if self.store is not None:
            self._timed_store(
                "repro.store.write_through.seconds",
                self.store.put_groups, groups,
            )
        self._insert(groups)

    def _insert(self, groups: Sequence[WriteGroup]) -> None:
        """Fill the LRU, then evict the least recently used groups'
        oldest cases until the verdict count fits the bound."""
        if not self._max_entries:
            return
        entries = self._groups
        count = self._count
        stored = 0
        for signature, size, domain, cases, verdicts in groups:
            group = (signature, size, domain)
            row = entries.get(group)
            if row is None:
                row = entries[group] = {}
            else:
                entries.move_to_end(group)
            held = len(row)
            row.update(zip(cases, verdicts))
            count += len(row) - held
            stored += len(cases)
        overflow = max(count - self._max_entries, 0)
        while count > self._max_entries:
            row = next(iter(entries.values()))
            for case in list(islice(row, count - self._max_entries)):
                del row[case]
                count -= 1
            if not row:
                entries.popitem(last=False)
        self._count = count
        self.stats._stores.inc(stored)
        self.stats._evictions.inc(overflow)

    def _timed_store(
        self, histogram: str, call: Callable[[Any], Any], argument: Any
    ) -> Any:
        """One store pass, observed into ``histogram`` when traced."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            return call(argument)
        started = telemetry.clock()
        result = call(argument)
        telemetry.histogram(histogram, tier="store").observe(
            telemetry.clock() - started
        )
        return result

    def clear(self) -> None:
        """Drop the in-memory tier; persistent rows survive."""
        self._groups.clear()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: SimKey) -> bool:
        row = self._groups.get((key.signature, key.size, key.domain))
        return row is not None and key.case in row
