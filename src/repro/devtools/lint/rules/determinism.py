"""injectable-clock: wall clocks and unseeded RNGs are injectable, not
ambient.

Byte-identical manifests and exact-timing tests depend on every time
source and RNG being injectable: :class:`SpanTracer` and
:class:`Telemetry` take ``clock``, and ``run_campaign`` takes
``clock``.  This rule forbids *calling* ``time.time()``,
``time.monotonic()`` or ``random.Random()`` (no seed) anywhere in
``src/`` outside a small declared allowlist.  Referencing
``time.monotonic`` as a default (``clock or time.monotonic``) is fine
-- the caller can still override it; calling it inline is not.

Allowlist (file suffix -> permitted calls), each entry with its reason:

* ``repro/store/store.py`` / ``time.time()`` -- row timestamps
  (``created_unix``/``last_used_unix``) and the compaction ``now``
  default are *operational* wall-clock metadata, stripped from every
  deterministic artifact and overridable via ``compact(now=...)``;
* ``repro/store/service.py`` / ``time.monotonic()`` -- daemon uptime
  and loop timers (checkpoint cadence, idle reaping) are single-process
  operational timing that never lands in a verdict or manifest.

Anything else needs a line-level waiver with a justification:
``# repro-lint: disable=injectable-clock -- <why wall-clock is right>``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator

from ..findings import Finding
from ..project import Project, attribute_chain
from ..registry import Rule, register

#: file-suffix -> calls that file may make inline (reasons above).
ALLOWLIST: Dict[str, FrozenSet[str]] = {
    "repro/store/store.py": frozenset({"time.time"}),
    "repro/store/service.py": frozenset({"time.monotonic"}),
}


@register
class InjectableClockRule(Rule):
    id = "injectable-clock"
    summary = (
        "no inline time.time()/time.monotonic()/unseeded random.Random() "
        "outside the declared allowlist"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.files:
            allowed: FrozenSet[str] = frozenset()
            for suffix, calls in ALLOWLIST.items():
                if source.relpath.endswith(suffix):
                    allowed = calls
                    break
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                chain = attribute_chain(node.func)
                if chain in (("time", "time"), ("time", "monotonic")):
                    name = ".".join(chain)
                    if name in allowed:
                        continue
                    yield Finding(
                        rule=self.id, path=source.relpath, line=node.lineno,
                        message=(
                            f"inline {name}() call -- accept an injectable "
                            "`clock` (see SpanTracer/run_campaign(clock=)) "
                            "or waive with a justification"
                        ),
                    )
                elif chain == ("random", "Random") and not node.args \
                        and not node.keywords:
                    yield Finding(
                        rule=self.id, path=source.relpath, line=node.lineno,
                        message=(
                            "random.Random() without a seed -- thread an "
                            "explicit seed through"
                        ),
                    )
