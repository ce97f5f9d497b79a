"""Generation reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..march.test import MarchTest
from ..sequence.gts import GlobalTestSequence


@dataclass
class GenerationReport:
    """Everything the paper reports per generated March test (Table 3):
    the test, its complexity, the generation wall time (the whole
    ``generate()`` call, validation included), plus the validation
    verdicts of Section 6."""

    test: MarchTest
    fault_names: Tuple[str, ...]
    elapsed_seconds: float
    verified: bool
    non_redundant: Optional[bool] = None
    equivalent_known: Optional[str] = None
    gts: Optional[GlobalTestSequence] = None
    tour: Tuple[int, ...] = ()
    tpg_size: int = 0
    selections_explored: int = 0
    selection_space: int = 0
    used_repair: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def complexity(self) -> int:
        return self.test.complexity

    @property
    def complexity_label(self) -> str:
        return self.test.complexity_label

    def summary(self) -> str:
        lines = [
            f"fault list : {', '.join(self.fault_names)}",
            f"march test : {self.test}",
            f"complexity : {self.complexity_label}",
            f"wall time  : {self.elapsed_seconds:.3f}s",
            f"verified   : {self.verified}",
        ]
        if self.non_redundant is not None:
            lines.append(f"non-redundant : {self.non_redundant}")
        if self.equivalent_known:
            lines.append(f"known equivalent : {self.equivalent_known}")
        if self.tpg_size:
            lines.append(
                f"tpg nodes  : {self.tpg_size}"
                f" (selections {self.selections_explored}"
                f"/{self.selection_space})"
            )
        if self.used_repair:
            lines.append("note       : repair fallback used")
        lines.extend(f"note       : {n}" for n in self.notes)
        return "\n".join(lines)
