"""wire-contract: SERVICE_OPS, ``_dispatch`` and docs/PROTOCOL.md agree.

The verdict-service wire protocol is specified three times: the
``SERVICE_OPS`` registry tuple in ``service.py``, the ``op == "..."``
comparisons in :meth:`VerdictService._dispatch`, and the op table in
``docs/PROTOCOL.md`` §4.  This rule extracts all three sets and
requires pairwise agreement **in both directions** -- an op added to
the code without a doc row fails, and so does a documented op the
daemon no longer dispatches.

The rule activates only when a scanned file ends with
``repro/store/service.py``; the protocol doc is located relative to
that file (``<repo>/docs/PROTOCOL.md``), so a doctored tree under
``tmp/src/repro/store/`` lints hermetically.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import FrozenSet, Iterator, Optional, Tuple

from ..findings import Finding
from ..project import Project, SourceFile
from ..registry import Rule, register

#: The registry tuple to extract from service.py.
_REGISTRY_NAME = "SERVICE_OPS"

#: `op == "<name>"` comparisons inside the _dispatch body.
_DISPATCH_BODY = re.compile(r"def _dispatch\(.*?\n(.*?)\n    def ", re.DOTALL)
_DISPATCH_OP = re.compile(r'op == "([a-z_]+)"')

#: `| `op` | ...` rows of the PROTOCOL.md op table.
_DOC_ROW = re.compile(r"\|\s*`([a-z_]+)`\s*\|")


def registry_ops(source: SourceFile) -> Tuple[Optional[int], FrozenSet[str]]:
    """(line, ops) of the SERVICE_OPS tuple, parsed from the AST."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id == _REGISTRY_NAME:
                    if isinstance(node.value, (ast.Tuple, ast.List)):
                        ops = frozenset(
                            el.value for el in node.value.elts
                            if isinstance(el, ast.Constant)
                            and isinstance(el.value, str)
                        )
                        return node.lineno, ops
    return None, frozenset()


def dispatched_ops(source: SourceFile) -> Tuple[int, FrozenSet[str]]:
    """(line, ops) compared against in the ``_dispatch`` body."""
    line = 1
    match = re.search(r"def _dispatch\(", source.text)
    if match is not None:
        line = source.text.count("\n", 0, match.start()) + 1
    body = _DISPATCH_BODY.search(source.text)
    if body is None:
        return line, frozenset()
    return line, frozenset(_DISPATCH_OP.findall(body.group(1)))


def documented_ops(doc_text: str) -> FrozenSet[str]:
    """Ops with a backticked row in the PROTOCOL.md op table."""
    return frozenset(
        match.group(1)
        for line in doc_text.splitlines()
        if (match := _DOC_ROW.search(line)) is not None
    )


def protocol_doc_path(service_file: Path) -> Path:
    """``docs/PROTOCOL.md`` relative to ``src/repro/store/service.py``."""
    return service_file.parents[3] / "docs" / "PROTOCOL.md"


@register
class WireContractRule(Rule):
    id = "wire-contract"
    summary = (
        "SERVICE_OPS, _dispatch and docs/PROTOCOL.md must list the same "
        "ops, in both directions"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        source = project.find("repro/store/service.py")
        if source is None:
            return
        reg_line, registry = registry_ops(source)
        if reg_line is None:
            yield Finding(
                rule=self.id, path=source.relpath, line=1,
                message=f"{_REGISTRY_NAME} tuple not found in service.py",
            )
            return
        disp_line, dispatched = dispatched_ops(source)
        doc_path = protocol_doc_path(source.path)
        if not doc_path.exists():
            yield Finding(
                rule=self.id, path=source.relpath, line=reg_line,
                message=f"protocol doc missing: {doc_path}",
            )
            return
        documented = documented_ops(doc_path.read_text(encoding="utf-8"))
        doc_rel = _relative_to_root(doc_path, project.root)

        yield from self._diff(
            source.relpath, disp_line, "dispatched by _dispatch",
            dispatched, "registered in SERVICE_OPS", registry,
        )
        yield from self._diff(
            source.relpath, reg_line, "registered in SERVICE_OPS",
            registry, "dispatched by _dispatch", dispatched,
        )
        yield from self._diff(
            source.relpath, reg_line, "registered in SERVICE_OPS",
            registry, "documented in PROTOCOL.md", documented,
        )
        yield from self._diff(
            doc_rel, 1, "documented in PROTOCOL.md",
            documented, "registered in SERVICE_OPS", registry,
        )

    def _diff(
        self,
        path: str,
        line: int,
        have_label: str,
        have: FrozenSet[str],
        want_label: str,
        want: FrozenSet[str],
    ) -> Iterator[Finding]:
        missing = sorted(have - want)
        if missing:
            ops = ", ".join(missing)
            yield Finding(
                rule=self.id, path=path, line=line,
                message=f"op(s) {have_label} but not {want_label}: {ops}",
            )


def _relative_to_root(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()
