"""lock-discipline: lock-guarded attributes stay lock-guarded.

The store stack (``service.py``, ``store.py``) and the telemetry
layer (``metrics.py``, ``tracer.py``) protect shared mutable state with
``with self._lock:`` blocks (any ``self`` attribute whose name ends in
``lock`` counts -- the service uses ``_state_lock`` and
``_teardown_lock`` too).  The invariant this rule enforces: **an
attribute ever written inside a lock block of a class must never be
read or written outside one** elsewhere in that class.

Two deliberate exemptions, both about happens-before edges that make
lock-free access safe by construction:

* ``__init__`` bodies -- the object is not yet published to other
  threads while it is being constructed;
* the lock attributes themselves.

Accesses inside nested ``def``/``lambda`` bodies are treated as
*unlocked* even when the definition site sits in a ``with self._lock``
block: the closure runs later, when the lock is long released (the
metrics-collector lambdas are exactly this trap).

Genuinely safe lock-free reads (single-writer loop threads, monotonic
int sampling) exist; waive them line by line with
``# repro-lint: disable=lock-discipline -- <why the race is benign>``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from ..findings import Finding
from ..project import Project, SourceFile, attribute_chain
from ..registry import Rule, register


def _is_lock_attr(name: str) -> bool:
    return name.endswith("lock")


@dataclass
class _Access:
    attr: str
    line: int
    locked: bool
    write: bool
    method: str


class _ClassAuditor(ast.NodeVisitor):
    """Collect every ``self.X`` access in one class body, tagged with
    whether it happened under a ``with self.<...lock>`` block."""

    def __init__(self) -> None:
        self.accesses: List[_Access] = []
        self._lock_depth = 0
        self._method = ""
        self._self_name = "self"

    # -- structure --------------------------------------------------------------

    def visit_method(self, node: ast.FunctionDef) -> None:
        self._method = node.name
        args = node.args.posonlyargs + node.args.args
        self._self_name = args[0].arg if args else "self"
        for statement in node.body:
            self.visit(statement)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._deferred_body(node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._deferred_body(node.body)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._deferred_body([node.body])

    def _deferred_body(self, body: List[ast.AST]) -> None:
        # A nested function/lambda executes after the enclosing with
        # block exits: whatever lock is held *now* proves nothing then.
        saved = self._lock_depth
        self._lock_depth = 0
        for statement in body:
            self.visit(statement)
        self._lock_depth = saved

    def visit_With(self, node: ast.With) -> None:
        holds_lock = False
        for item in node.items:
            chain = attribute_chain(item.context_expr)
            if (
                len(chain) == 2
                and chain[0] == self._self_name
                and _is_lock_attr(chain[1])
            ):
                holds_lock = True
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if holds_lock:
            self._lock_depth += 1
        for statement in node.body:
            self.visit(statement)
        if holds_lock:
            self._lock_depth -= 1

    # -- accesses ---------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and \
                node.value.id == self._self_name:
            self.accesses.append(_Access(
                attr=node.attr,
                line=node.lineno,
                locked=self._lock_depth > 0,
                write=isinstance(node.ctx, (ast.Store, ast.Del)),
                method=self._method,
            ))
        self.generic_visit(node)


@register
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    summary = (
        "attributes written under `with self.*lock` must never be "
        "touched outside one (outside __init__)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.files:
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node)

    def _check_class(
        self, source: SourceFile, node: ast.ClassDef
    ) -> Iterator[Finding]:
        auditor = _ClassAuditor()
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef):
                auditor.visit_method(statement)
        guarded: Set[str] = {
            access.attr
            for access in auditor.accesses
            if access.write and access.locked
            and not _is_lock_attr(access.attr)
        }
        if not guarded:
            return
        seen: Set[Tuple[int, str]] = set()
        for access in auditor.accesses:
            if (
                access.attr in guarded
                and not access.locked
                and access.method != "__init__"
            ):
                key = (access.line, access.attr)
                if key in seen:
                    continue
                seen.add(key)
                verb = "written" if access.write else "read"
                yield Finding(
                    rule=self.id,
                    path=source.relpath,
                    line=access.line,
                    message=(
                        f"{node.name}.{access.attr} is guarded by a lock "
                        f"elsewhere but {verb} here without one "
                        f"(in {access.method})"
                    ),
                )
