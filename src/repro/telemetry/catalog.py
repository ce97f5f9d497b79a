"""Catalog of every ``repro.*`` telemetry series name (PR 10).

One declaration per series the stack may ever register.  The catalog
exists so that a typo'd metric name -- ``repro.sevice.requests`` --
cannot silently create a parallel series nobody reads: the
``metric-catalog`` lint rule (:mod:`repro.devtools.lint.rules.metric_names`)
checks that every metric-name literal in ``src/`` resolves against
this mapping, and a runtime cross-check test asserts that every series
a fully instrumented Table 3 campaign registers is declared here.

Keep this file boring on purpose: a flat mapping from series name to a
one-line description, no imports from the rest of the package.  Adding
a new instrument means adding a line here first -- the lint fails the
build otherwise, which is exactly the point.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: Every series name the stack registers, with a one-line description.
CATALOG: Dict[str, str] = {
    # -- kernel LRU tier (adopted KernelStats counters) ----------------------
    "repro.kernel.cache.hits": "in-memory LRU lookups answered locally",
    "repro.kernel.cache.misses": "in-memory LRU lookups that fell through",
    "repro.kernel.cache.evictions": "entries dropped by the LRU bound",
    "repro.kernel.cache.batches": "detect_batch calls that reached a backend",
    "repro.kernel.cache.stores": "verdicts written into the LRU tier",
    # -- packed whole-list verifier (adopted VerifyStats counters) -----------
    "repro.kernel.verify.calls": "packed verifier calls, by accepted",
    "repro.kernel.verify.realizations": "order realization leaves it evaluated",
    "repro.kernel.verify.segments": "run_variant segment runs behind them",
    "repro.kernel.verify.table_hits": "element steps the transition table answered",
    "repro.kernel.verify.table_misses": "element steps that ran the packed engine",
    "repro.kernel.verify.section6_steps":
        "Section 6 element steps through the same table, by hit or miss",
    # -- simulation backends --------------------------------------------------
    "repro.backend.served": "verdicts computed, by backend and strategy",
    "repro.backend.table_steps":
        "packed sweep element steps through the plan tables, by hit or miss",
    "repro.backend.detect.seconds": "backend batch latency histogram",
    # -- persistent store (file or service tier) ------------------------------
    "repro.store.hits": "store lookups answered from SQLite/service",
    "repro.store.misses": "store lookups that missed",
    "repro.store.writes": "verdict rows written through to the store",
    "repro.store.skipped_writes": "writes skipped (readonly/degraded store)",
    "repro.store.read_through.seconds":
        "kernel cache read-through latency, one per store pass"
        " (batch or single-key lookup)",
    "repro.store.write_through.seconds":
        "kernel cache write-through latency, one per store pass"
        " (batch or single-key write)",
    "repro.store.checkpoint.seconds": "WAL checkpoint latency, by mode",
    # -- verdict-service daemon ----------------------------------------------
    "repro.service.requests": "requests dispatched, by op",
    "repro.service.request.seconds": "request service-time histogram, by op",
    "repro.service.rejected": "connections refused, by reason",
    "repro.service.reaped_idle": "connections closed by the idle reaper",
    "repro.service.checkpoints": "daemon-triggered WAL checkpoints",
    "repro.service.errors": "loop/dispatch failures survived",
    "repro.service.rejected_full": "accepts refused at max_clients",
    "repro.service.connections": "currently connected clients (gauge)",
    "repro.service.hot_lru.hits": "daemon hot-LRU lookups answered",
    "repro.service.hot_lru.misses": "daemon hot-LRU lookups that missed",
    "repro.service.hot_lru.evictions": "daemon hot-LRU entries evicted",
    "repro.service.hot_lru.entries": "daemon hot-LRU population (gauge)",
}

#: The declared names as a set -- what the lint rule and the runtime
#: cross-check test actually consult.
METRIC_SERIES: FrozenSet[str] = frozenset(CATALOG)


def is_declared(name: str) -> bool:
    """True when ``name`` is a catalogued series name."""
    return name in METRIC_SERIES
