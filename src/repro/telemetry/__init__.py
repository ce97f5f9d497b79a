"""Unified telemetry layer: metrics registry + span tracing (PR 8).

One :class:`Telemetry` object bundles the two observability surfaces
-- a :class:`~repro.telemetry.metrics.MetricsRegistry` and a
:class:`~repro.telemetry.tracer.SpanTracer` -- behind the small facade
the rest of the stack threads around: the kernel and its cache, the
store, verdict daemon and campaign runner all accept one ``telemetry``
handle and never touch globals.

Zero cost when off
------------------
The default everywhere is :data:`TELEMETRY_OFF`, a shared
:class:`NullTelemetry` whose spans and instruments are no-ops and
whose ``enabled`` flag is ``False`` -- hot paths guard their timing
code with ``if telemetry.enabled:`` so the uninstrumented run pays
one attribute check per *batch*, not per fault.  The bench suite
pins this down: instrumented serial Table 3 must stay within 5% of
the seed (``test_telemetry_overhead_guard``).

This package must stay dependency-free and must never import from
:mod:`repro.kernel` / :mod:`repro.store` at module level -- they
import us, and a cycle here would deadlock the package graph
(``repro.telemetry.report`` uses function-level imports for exactly
this reason).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

from .metrics import (
    DEFAULT_BOUNDS,
    MAX_SERIES_PER_METRIC,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_total,
    merge_snapshots,
)
from .tracer import NULL_SPAN, Span, SpanTracer, flatten_span_trees, write_span_log

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTelemetry",
    "Span",
    "SpanTracer",
    "TELEMETRY_OFF",
    "Telemetry",
    "DEFAULT_BOUNDS",
    "MAX_SERIES_PER_METRIC",
    "SNAPSHOT_SCHEMA",
    "counter_total",
    "flatten_span_trees",
    "merge_snapshots",
    "write_snapshot",
    "write_span_log",
]


class Telemetry:
    """Live telemetry: a real registry plus a real tracer.

    ``clock`` (default :func:`time.monotonic`) feeds both span
    timings and the hot-path duration measurements, so a fake clock
    injected here makes every recorded timing exact in tests.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer(clock=self.clock)

    # Registry pass-throughs ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, bounds: Any = None, **labels: Any) -> Histogram:
        return self.registry.histogram(name, bounds=bounds, **labels)

    def adopt(self, name: str, instrument: Any, **labels: Any) -> Any:
        return self.registry.adopt(name, instrument, **labels)

    def collector(self, name: str, sample: Callable[[], Any],
                  kind: str = "counter") -> None:
        self.registry.collector(name, sample, kind=kind)

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    # Tracer pass-throughs -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Any:
        return self.tracer.span(name, **attrs)

    def span_trees(self) -> List[Dict[str, Any]]:
        return self.tracer.span_trees()


class NullTelemetry:
    """The zero-cost default: every operation is a cheap no-op.

    Hot paths check ``telemetry.enabled`` before doing any timing
    work; everything else (``span``, ``counter``...) still *works* so
    call sites never need two code paths -- they just feed shared
    instruments that nobody reads.
    """

    enabled = False

    def __init__(self) -> None:
        self.clock = time.monotonic
        self._counter = Counter()
        self._gauge = Gauge()
        self._histogram = Histogram()

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._gauge

    def histogram(self, name: str, bounds: Any = None, **labels: Any) -> Histogram:
        return self._histogram

    def adopt(self, name: str, instrument: Any, **labels: Any) -> Any:
        return instrument

    def collector(self, name: str, sample: Callable[[], Any],
                  kind: str = "counter") -> None:
        pass

    def span(self, name: str, **attrs: Any) -> Any:
        return NULL_SPAN

    def span_trees(self) -> List[Dict[str, Any]]:
        return []

    def snapshot(self) -> Dict[str, Any]:
        return {"schema": SNAPSHOT_SCHEMA, "metrics": {}}


#: Shared process-wide null telemetry; the default handle everywhere.
TELEMETRY_OFF = NullTelemetry()


def write_snapshot(snapshot: Dict[str, Any], path: str) -> None:
    """Write one metrics snapshot as deterministic, diffable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
