"""Lightweight span tracer: nested, monotonic-clock timed scopes.

Where the metrics registry answers "how many / how long in
aggregate", spans answer "what happened, in what order, inside what".
A :class:`Span` is a context manager; entering pushes it onto the
tracer's stack (so spans opened inside it become its children) and
exiting records its duration.  A campaign job traced this way yields
one tree per job -- ``simulate`` wrapping one ``detect_batch`` span
per backend call, i.e. per test with cache misses -- which
``run_campaign`` serializes into the manifest and ``--trace`` renders
as a JSONL log.

The clock is injectable (``SpanTracer(clock=...)``) so tests drive a
fake monotonic clock and assert *exact* start/duration schedules; the
default is :func:`time.monotonic`.  Span content is deterministic in
shape: names, attribute key sets and nesting are stable between runs,
only the timing values vary (and ``normalized_manifest`` strips the
whole block).

The stack is thread-local: concurrent threads (daemon workers, fork
pools) each build their own trees instead of corrupting a shared
parent pointer.  A ``max_spans`` cap bounds memory on runaway loops;
drops are counted, never silent.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "SpanTracer", "flatten_span_trees", "write_span_log"]


class Span:
    """One timed scope.  Use via ``with tracer.span(name, **attrs):``."""

    __slots__ = ("name", "attrs", "start", "seconds", "children", "_tracer")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        tracer: Optional["SpanTracer"] = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.start: Optional[float] = None
        self.seconds: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = tracer

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-scope (batch sizes etc.)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._enter(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._tracer is not None:
            self._tracer._exit(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native tree form (stable key set; values vary)."""
        node: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
        }
        if self.attrs:
            node["attrs"] = {str(k): self.attrs[k] for k in sorted(self.attrs)}
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, start={self.start},"
            f" seconds={self.seconds}, children={len(self.children)})"
        )


class _NullSpan:
    """Shared no-op span handed out when tracing is off or saturated."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class SpanTracer:
    """Builds span trees against an injectable monotonic clock."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 100_000,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self.max_spans = max_spans
        self.roots: List[Span] = []
        self.recorded = 0
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> Any:
        """A context manager timing the enclosed scope.

        Beyond ``max_spans`` recorded spans the tracer hands out the
        shared null span (and counts the drop) so a runaway loop
        cannot grow the trace without bound.
        """
        with self._lock:
            if self.recorded >= self.max_spans:
                self.dropped += 1
                return NULL_SPAN
            self.recorded += 1
        return Span(name, dict(attrs), tracer=self)

    def _enter(self, span: Span) -> None:
        span.start = self.clock()
        self._stack().append(span)

    def _exit(self, span: Span) -> None:
        span.seconds = self.clock() - (span.start or 0.0)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    def span_trees(self) -> List[Dict[str, Any]]:
        """Completed root spans as JSON-native trees."""
        with self._lock:
            return [span.to_dict() for span in self.roots]

    def clear(self) -> None:
        with self._lock:
            self.roots = []
            self.recorded = 0
            self.dropped = 0
        self._local = threading.local()


def flatten_span_trees(
    trees: List[Dict[str, Any]]
) -> Iterator[Dict[str, Any]]:
    """Depth-first flattening of span trees into log lines.

    Each yielded dict carries the span's ``name``, timing, sorted
    ``attrs``, its ``depth`` and its ``parent`` span name -- the shape
    ``--trace`` writes one-JSON-object-per-line.
    """

    def walk(
        node: Dict[str, Any], depth: int, parent: Optional[str]
    ) -> Iterator[Dict[str, Any]]:
        line: Dict[str, Any] = {
            "name": node.get("name"),
            "depth": depth,
            "parent": parent,
            "start": node.get("start"),
            "seconds": node.get("seconds"),
        }
        if node.get("attrs"):
            line["attrs"] = node["attrs"]
        yield line
        for child in node.get("children", ()):  # pre-order: parents first
            for grandchild in walk(child, depth + 1, node.get("name")):
                yield grandchild

    for tree in trees:
        for line in walk(tree, 0, None):
            yield line


def write_span_log(trees: List[Dict[str, Any]], path: str) -> int:
    """Write flattened span trees as JSONL; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in flatten_span_trees(trees):
            handle.write(json.dumps(line, sort_keys=True))
            handle.write("\n")
            count += 1
    return count
