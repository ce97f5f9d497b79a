"""Resilience primitives for store clients: retry, backoff, spill.

A long campaign only pays off if it survives the infrastructure
faulting underneath it: a verdict-service daemon restarting, a socket
reset by a dying peer, a read that times out.  PR 5's client handled
exactly one such event per request (reconnect once, then fail); this
module generalizes that into an explicit, injectable policy plus a
degraded execution mode, shared by every store-shaped client:

* :class:`TransientStoreError` -- the marker type for failures that
  are worth retrying (nothing answered, the connection died, the read
  timed out).  Permanent errors (protocol mismatch, foreign listener,
  a refused request) deliberately do **not** carry it, so they keep
  failing fast no matter how generous the retry budget is.
* :class:`RetryPolicy` -- max attempts, exponential backoff with
  deterministic seeded jitter, a per-request wall-clock deadline, and
  injectable ``clock``/``sleep`` so tests never actually wait.  The
  policy object is immutable and picklable (campaign workers receive
  it across the process boundary).
* :class:`DegradingStore` -- graceful degradation for campaign
  workers: wraps a primary (service) store and, the moment a request
  exhausts its retries, demotes to a private local SQLite *spill
  shard* so the job keeps simulating with full write capture instead
  of failing.  The campaign runner merges surviving spills back into
  the main dictionary at the end -- zero verdicts lost, the job
  records ``degraded`` instead of an error.

Place in the store stack
------------------------
This module is the **policy layer**: it owns the transient/permanent
failure split the wire protocol commits to (``docs/PROTOCOL.md`` §5)
and the degraded mode the runbook's recovery procedure builds on
(``docs/OPERATIONS.md`` §6).  It sits below
:mod:`repro.store.service` (which subclasses
:class:`TransientStoreError` into its error taxonomy) and imports only
:mod:`repro.store.store` -- no import cycles.
"""

from __future__ import annotations

import random
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from .store import FaultDictionaryStore, StoreError, StoreStats

#: Default retry budget: 5 attempts with 50 ms -> 2 s exponential
#: backoff rides out a daemon restart of a second or two without
#: stalling a genuinely dead socket for more than ~1 s of backoff.
DEFAULT_MAX_ATTEMPTS = 5
DEFAULT_BASE_DELAY = 0.05
DEFAULT_MAX_DELAY = 2.0
DEFAULT_MULTIPLIER = 2.0
DEFAULT_JITTER = 0.25
DEFAULT_DEADLINE = 60.0


class TransientStoreError(StoreError):
    """A store failure worth retrying (and, past the retry budget,
    worth degrading over): nothing answered, the peer went away, the
    request timed out.  Permanent failures raise plain
    :class:`StoreError` (or a subclass) *without* this marker."""


class RetryExhaustedError(StoreError):
    """Every attempt a :class:`RetryPolicy` allowed has failed.

    Carries the bookkeeping a caller needs to degrade or report:
    ``attempts`` tried, ``elapsed`` wall-clock seconds, and the
    ``last_error`` (also chained as ``__cause__``).
    """

    def __init__(
        self,
        message: str,
        attempts: int = 0,
        elapsed: float = 0.0,
        last_error: Optional[BaseException] = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.elapsed = elapsed
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how long) to retry transient store failures.

    ``call(fn)`` runs ``fn`` up to ``max_attempts`` times, sleeping an
    exponentially growing, jittered delay between attempts::

        delay(n) = min(max_delay, base_delay * multiplier**(n-1))
                   +- uniform(jitter * delay)

    The jitter stream is seeded (``seed``), so a policy's backoff
    schedule is fully deterministic -- :meth:`preview` returns it.
    ``deadline`` bounds one request's total wall clock: when the next
    sleep would cross it, the policy gives up early.  ``clock`` and
    ``sleep`` are injectable (default :func:`time.monotonic` /
    :func:`time.sleep`) so tests exercise every schedule without
    actually waiting; leave them ``None`` to keep the policy picklable
    for campaign workers.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    base_delay: float = DEFAULT_BASE_DELAY
    max_delay: float = DEFAULT_MAX_DELAY
    multiplier: float = DEFAULT_MULTIPLIER
    jitter: float = DEFAULT_JITTER
    deadline: Optional[float] = DEFAULT_DEADLINE
    seed: Optional[int] = None
    clock: Optional[Callable[[], float]] = None
    sleep: Optional[Callable[[float], None]] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0 seconds")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be a fraction in [0, 1]")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    @classmethod
    def no_retry(cls, **overrides: Any) -> "RetryPolicy":
        """A policy that fails on the first transient error."""
        overrides.setdefault("max_attempts", 1)
        return cls(**overrides)

    def knobs(self) -> Dict[str, Any]:
        """The policy's scalar configuration (manifest/JSON echo)."""
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "multiplier": self.multiplier,
            "jitter": self.jitter,
            "deadline": self.deadline,
            "seed": self.seed,
        }

    # -- backoff schedule --------------------------------------------------------

    def _delay(self, attempt: int, rng: random.Random) -> float:
        delay = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (attempt - 1),
        )
        if self.jitter > 0 and delay > 0:
            span = delay * self.jitter
            delay += rng.uniform(-span, span)
        return max(0.0, delay)

    def preview(self, attempts: Optional[int] = None) -> List[float]:
        """The deterministic sleep schedule between attempts.

        ``attempts`` defaults to ``max_attempts``; a schedule for N
        attempts has N-1 sleeps.  Two policies with equal knobs and
        ``seed`` preview (and execute) identical schedules.
        """
        count = self.max_attempts if attempts is None else attempts
        rng = random.Random(self.seed)
        return [self._delay(attempt, rng) for attempt in range(1, count)]

    # -- execution ---------------------------------------------------------------

    def call(
        self,
        fn: Callable[[], Any],
        transient: Tuple[type, ...] = (TransientStoreError,),
        on_retry: Optional[
            Callable[[int, float, BaseException], None]
        ] = None,
    ) -> Any:
        """Run ``fn``, retrying ``transient`` failures with backoff.

        Anything else ``fn`` raises propagates untouched on the first
        attempt (permanent errors fail fast).  ``on_retry(attempt,
        delay, error)`` fires before each backoff sleep.  Raises
        :class:`RetryExhaustedError` when the budget (attempts or
        deadline) runs out, chaining the last transient error.
        """
        clock = self.clock or time.monotonic
        sleep = self.sleep or time.sleep
        rng = random.Random(self.seed)
        started = clock()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except transient as error:
                elapsed = clock() - started
                delay = self._delay(attempt, rng)
                out_of_attempts = attempt >= self.max_attempts
                out_of_time = (
                    self.deadline is not None
                    and elapsed + delay > self.deadline
                )
                if out_of_attempts or out_of_time:
                    budget = (
                        f"{attempt} attempt(s)" if out_of_attempts
                        else f"the {self.deadline:.1f}s deadline"
                    )
                    raise RetryExhaustedError(
                        f"retries exhausted after {budget}"
                        f" ({elapsed:.2f}s elapsed): {error}",
                        attempts=attempt,
                        elapsed=elapsed,
                        last_error=error,
                    ) from error
                if on_retry is not None:
                    on_retry(attempt, delay, error)
                sleep(delay)


# -- graceful degradation --------------------------------------------------------


class DegradingStore:
    """A store client that spills locally when its primary dies.

    Wraps a primary store (in practice a retrying
    :class:`~repro.store.service.ServiceStore`) behind the usual
    lookup/write surface.  While the primary answers, every call is a
    pass-through.  The first call whose retries are exhausted (any
    :class:`TransientStoreError`) *demotes* this store: a private
    local :class:`FaultDictionaryStore` opens at ``spill_path`` and
    serves all further traffic.  The failed call is replayed against
    the spill, so not even the triggering batch is lost.

    Demotion trades cross-worker deduplication for survival: spill
    reads miss whatever the dead service knew, so the worker
    re-simulates -- correctly, just redundantly -- and captures every
    verdict in the spill.  The campaign runner folds surviving spills
    back into the main dictionary afterwards
    (:meth:`FaultDictionaryStore.merge_from`), which is why a degraded
    job reports ``degraded`` instead of an error and loses nothing.

    Deliberately one-way: a daemon that comes back mid-job is picked
    up by the *next* job's fresh client; flapping between tiers inside
    one job would split its writes across two stores for no benefit.
    """

    def __init__(
        self,
        primary: Any,
        spill_path: Union[str, Path],
    ) -> None:
        self.primary = primary
        self.spill_path = Path(spill_path)
        self.degraded = False
        self.readonly = bool(getattr(primary, "readonly", False))
        self._spill: Optional[FaultDictionaryStore] = None
        self._lock = threading.Lock()

    # -- demotion ----------------------------------------------------------------

    def _demote(self, error: BaseException) -> FaultDictionaryStore:
        with self._lock:
            if self._spill is None:
                self._spill = FaultDictionaryStore(
                    self.spill_path, readonly=self.readonly
                )
                self.degraded = True
                warnings.warn(
                    f"store unreachable ({error}); degrading to local"
                    f" spill shard {self.spill_path} -- simulation"
                    " continues, verdicts will be merged back",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return self._spill

    def _call(self, op: str, *args: Any) -> Any:
        # repro-lint: disable-scope=lock-discipline -- `degraded` is a
        # one-way latch set under _lock in _demote and never reverted; a
        # stale False here just retries the primary once more, and
        # _demote re-checks under the lock before creating the spill.
        if not self.degraded:
            try:
                return getattr(self.primary, op)(*args)
            except TransientStoreError as error:
                self._demote(error)
        return getattr(self._spill, op)(*args)

    # -- store surface -----------------------------------------------------------

    def get_groups(self, groups: Iterable[Any]) -> List[Dict[str, Any]]:
        return self._call("get_groups", list(groups))

    def put_groups(self, groups: Iterable[Any]) -> None:
        self._call("put_groups", list(groups))

    @property
    def stats(self) -> StoreStats:
        """Combined counters of both tiers (reads are snapshots)."""
        merged = StoreStats()
        # A racing demotion only means the spill's zero counters show
        # up one call later.
        # repro-lint: disable=lock-discipline -- snapshot read of latch
        for tier in (self.primary, self._spill):
            tier_stats = getattr(tier, "stats", None)
            if tier_stats is None:
                continue
            merged.hits += tier_stats.hits
            merged.misses += tier_stats.misses
            merged.writes += tier_stats.writes
            merged.skipped_writes += tier_stats.skipped_writes
        return merged

    # -- introspection -----------------------------------------------------------

    def resilience(self) -> Dict[str, Any]:
        """What the campaign manifest records per job."""
        # repro-lint: disable-scope=lock-discipline -- manifest snapshot
        # of the one-way `degraded` latch, taken after the job finished;
        # no demotion can race it
        return {
            "attempts": int(getattr(self.primary, "retries", 0)),
            "degraded": self.degraded,
            "spill": str(self.spill_path) if self.degraded else None,
        }

    def describe(self) -> str:
        # repro-lint: disable=lock-discipline -- display-only latch read
        if self.degraded:
            return (
                f"spill [{self.spill_path.name} DEGRADED]:"
                f" {self.stats}"
            )
        return self.primary.describe()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close both tiers; the spill checkpoint must run even when
        dropping the dead primary's socket fails."""
        try:
            self.primary.close()
        finally:
            with self._lock:
                spill, self._spill = self._spill, None
            if spill is not None:
                spill.close()

    def __enter__(self) -> "DegradingStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
