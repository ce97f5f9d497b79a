"""The traced run: spans and counts recorded around each layer's public
functions, from outside the program.

:meth:`Tracer.install` replaces each function where its caller looks it
up -- a module attribute the caller imported by name, or a class
attribute -- with a wrapper that records a span (name, start, end,
parent span, request id) and the counts that go with it;
:meth:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` changes.  Spans stay in memory until :meth:`Tracer.write`.

Only the thread that installed the tracer records: the verdict daemon's
loop thread runs through the same code untraced.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.core.exhaustive as exhaustive_module
import repro.core.generator as generator_module
import repro.kernel.kernel as kernel_module
from repro.core.generator import MarchTestGenerator
from repro.faults.faultlist import FaultList
from repro.kernel import SimulationKernel
from repro.kernel.backends import BitParallelBackend
from repro.patterns.tpg import TestPatternGraph
from repro.simulator.bitengine import PackedSimulation
from repro.store.service import ServiceStore

#: One span: (name, start, end, parent index or None, request id).
Span = Tuple[str, float, float, Optional[int], str]

#: Span name -> the per-layer metric its self time feeds.
SELF_TIME_METRICS = {
    "core.optimize": "core.optimize_s",
    "core.exhaustive": "core.exhaustive_s",
    "patterns.tpg": "patterns.tpg_s",
    "atsp.solve_path": "atsp.solve_path_s",
    "sequence.gts": "sequence.gts_s",
    "march.build": "march.build_s",
    "kernel.verify": "kernel.verify_s",
    "kernel.detect_batch": "kernel.detect_batch_s",
    "simulator.well_formed": "simulator.well_formed_s",
    "simulator.plan_build": "simulator.plan_build_s",
    "simulator.run_variant": "simulator.run_variant_s",
    "simulator.redundancy": "simulator.redundancy_s",
    "faults.instances": "faults.instances_s",
    "store.get_many": "store.get_many_s",
    "store.put_many": "store.put_many_s",
}

#: Counts recorded at the wrappers, reported as they are.
COUNT_METRICS = (
    "core.selections", "core.attempts", "core.exhaustive_candidates",
    "core.exhaustive_budget_hits", "patterns.tpg_nodes",
    "atsp.solve_path_calls", "march.repairs", "kernel.verify_calls",
    "kernel.detect_batch_calls", "kernel.detect_tasks",
    "simulator.well_formed_calls", "simulator.plan_builds",
    "simulator.realizations", "simulator.lane_realizations",
    "store.get_many_calls", "store.keys_read", "store.put_many_calls",
    "store.rows_written",
)

#: Ratios derived from counts: name -> (numerator, denominator).
RATIO_METRICS = {
    "kernel.verify_accept_ratio": ("kernel.verify_accepts", "kernel.verify_calls"),
    "kernel.detects_per_verify": ("kernel.detects", "kernel.verify_calls"),
    "kernel.cache_hit_ratio": ("kernel.cache_hits", "kernel.cache_lookups"),
}


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.request = "setup"
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._saved: List[Tuple[Any, str, Any]] = []
        self._kernels: List[SimulationKernel] = []

    # -- recording --------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[Counter, tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` (``None``: no span) and
        calling ``count(counts, args, kwargs, result)`` after it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                tracer.spans.append(None)  # type: ignore[arg-type]
                parent = tracer._stack[-1] if tracer._stack else None
                tracer._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[index] = (
                        name, start, end, parent, tracer.request
                    )
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def request_span(self, request: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark request under a root span."""
        self.request = request
        return self.wrap("request", fn)()

    # -- installation -----------------------------------------------------

    def _patch(self, owner: Any, attribute: str, name: Optional[str],
               count: Optional[Callable] = None,
               replace: Optional[Callable[[Callable], Callable]] = None) -> None:
        original = owner.__dict__[attribute]
        self._saved.append((owner, attribute, original))
        inner = replace(original) if replace is not None else original
        setattr(owner, attribute, self.wrap(name, inner, count))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        patch = self._patch
        g = generator_module
        # core
        patch(MarchTestGenerator, "generate", "core.generate",
              lambda c, a, k, r: c.update({"core.selections": r.selections_explored}))
        patch(MarchTestGenerator, "_attempt", None,
              lambda c, a, k, r: c.update({"core.attempts": 1}))
        patch(g, "optimize", "core.optimize")
        patch(exhaustive_module, "exhaustive_search", "core.exhaustive",
              replace=self._counted_search)
        # patterns
        patch(TestPatternGraph, "add", "patterns.tpg",
              lambda c, a, k, r: c.update({"patterns.tpg_nodes": 1}))
        patch(TestPatternGraph, "weight_matrix", "patterns.tpg")
        patch(TestPatternGraph, "start_weight", "patterns.tpg")
        # atsp
        patch(g, "solve_path", "atsp.solve_path",
              lambda c, a, k, r: c.update({"atsp.solve_path_calls": 1}))
        # sequence
        patch(g, "build_gts", "sequence.gts")
        patch(g, "reorder_and_minimize", "sequence.gts")
        # march
        patch(g, "build_march", "march.build")
        patch(g, "sequential_march", "march.build",
              lambda c, a, k, r: c.update({"march.repairs": 1}))
        # kernel
        patch(SimulationKernel, "__init__", None,
              lambda c, a, k, r: self._kernels.append(a[0]))
        patch(SimulationKernel, "verifier", None, replace=self._traced_verifier)
        patch(SimulationKernel, "detects", None,
              lambda c, a, k, r: c.update({"kernel.detects": 1}))
        patch(BitParallelBackend, "detect_batch", "kernel.detect_batch",
              lambda c, a, k, r: c.update({"kernel.detect_batch_calls": 1,
                                           "kernel.detect_tasks": len(a[1])}))
        # simulator
        patch(kernel_module, "is_well_formed", "simulator.well_formed",
              lambda c, a, k, r: c.update({"simulator.well_formed_calls": 1}))
        patch(PackedSimulation, "__init__", "simulator.plan_build",
              lambda c, a, k, r: c.update({"simulator.plan_builds": 1}))
        patch(PackedSimulation, "run_variant", "simulator.run_variant",
              lambda c, a, k, r: c.update({"simulator.realizations": 1,
                                           "simulator.lane_realizations": a[0].lanes}))
        patch(g, "is_non_redundant", "simulator.redundancy")
        # faults
        patch(FaultList, "instances", "faults.instances")
        # store
        patch(ServiceStore, "get_many", "store.get_many",
              lambda c, a, k, r: c.update({"store.get_many_calls": 1,
                                           "store.keys_read": len(a[1])}))
        patch(ServiceStore, "put_many", "store.put_many",
              lambda c, a, k, r: c.update({"store.put_many_calls": 1,
                                           "store.rows_written": len(a[1])}))

    def _traced_verifier(self, verifier: Callable) -> Callable:
        """``SimulationKernel.verifier`` whose predicates record a
        ``kernel.verify`` span, calls and accepts."""

        def count(counts: Counter, args: tuple, kwargs: dict, accepted: bool) -> None:
            counts["kernel.verify_calls"] += 1
            counts["kernel.verify_accepts"] += bool(accepted)

        @functools.wraps(verifier)
        def traced(kernel: SimulationKernel, *args: Any, **kwargs: Any) -> Callable:
            return self.wrap("kernel.verify", verifier(kernel, *args, **kwargs), count)

        return traced

    def _counted_search(self, search: Callable) -> Callable:
        """``exhaustive_search`` recording candidates and budget hits."""

        @functools.wraps(search)
        def counted(verify: Any, *args: Any, stats: Any = None, **kwargs: Any) -> Any:
            stats = stats if stats is not None else exhaustive_module.SearchStats()
            before = stats.candidates_tested
            found = search(verify, *args, stats=stats, **kwargs)
            self.counts["core.exhaustive_candidates"] += (
                stats.candidates_tested - before
            )
            budget = kwargs.get("budget")
            if found is None and budget is not None and stats.candidates_tested > budget:
                self.counts["core.exhaustive_budget_hits"] += 1
            return found

        return counted

    def uninstall(self) -> None:
        """Restore every original and fold kernel cache stats into counts."""
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
        for kernel in self._kernels:
            stats = kernel.stats
            self.counts["kernel.cache_hits"] += stats.hits
            self.counts["kernel.cache_lookups"] += stats.hits + stats.misses
        self._kernels.clear()

    # -- results ----------------------------------------------------------

    def take_counts(self) -> Counter:
        """The counts recorded since the last call, then reset."""
        counts, self.counts = self.counts, Counter()
        return counts

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Request id -> per-layer metric -> summed self time."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        metric = SELF_TIME_METRICS.get(span[0])
        if metric is not None:
            layer = totals.setdefault(span[4], {})
            layer[metric] = layer.get(metric, 0.0) + own
    return totals


def count_metrics(counts: Counter) -> Dict[str, float]:
    """The reported count and ratio metrics of one pass."""
    metrics: Dict[str, float] = {name: counts[name] for name in COUNT_METRICS}
    for name, (numerator, denominator) in RATIO_METRICS.items():
        base = counts[denominator]
        metrics[name] = counts[numerator] / base if base else 0.0
    return metrics
