"""Fault lists and BFE equivalence classes.

Section 5 of the paper observes that a fault may be covered by any one
of several BFEs (e.g. the inversion coupling fault ``<up, inv>`` yields
two test patterns of which only one is necessary).  We therefore group
BFEs into :class:`BFEClass` equivalence classes: **every class must be
covered, and covering any one member covers the class.**

A :class:`FaultList` aggregates fault models and exposes the merged,
de-duplicated class collection the generator works on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .bfe import BasicFaultEffect


@dataclass(frozen=True)
class BFEClass:
    """An equivalence class of BFEs (Section 5, classes ``Ci``).

    Attributes
    ----------
    name:
        Diagnostic label, e.g. ``"CFin<up,inv> i->j"``.
    members:
        Alternative BFEs; covering any single member covers the class.
    cell_symmetric:
        True for single-cell faults lifted onto one symbolic cell: the
        per-cell operation stream of a March test is identical for every
        cell, so one representative cell suffices.
    """

    name: str
    members: Tuple[BasicFaultEffect, ...]
    cell_symmetric: bool = False

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"BFE class {self.name!r} has no members")

    @property
    def cardinality(self) -> int:
        """|Ci| -- the number of alternatives (paper, Section 5)."""
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class FaultModel:
    """Base class for fault models.

    Concrete models implement :meth:`classes` returning the BFE
    equivalence classes over the symbolic cells of the k-cell machine,
    and :meth:`instances` (see :mod:`repro.faults.instances`) returning
    concrete injectable instances for an n-cell memory.
    """

    #: Short name used in fault-list notation, e.g. "SAF".
    name: str = "fault"

    def classes(self, cells: Sequence[str] = ("i", "j")) -> Tuple[BFEClass, ...]:
        raise NotImplementedError

    def instances(self, size: int) -> Tuple[object, ...]:
        """Concrete fault instances for an n-cell simulated memory."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@dataclass
class FaultList:
    """An unconstrained list of target fault models (paper, Section 4).

    >>> from repro.faults.library import StuckAtFault, TransitionFault
    >>> fl = FaultList([StuckAtFault(), TransitionFault()])
    >>> sorted(m.name for m in fl.models)
    ['SAF', 'TF']
    """

    models: List[FaultModel] = field(default_factory=list)

    @classmethod
    def from_names(cls, *names: str) -> "FaultList":
        """Build a list from model names, e.g. ``FaultList.from_names("SAF", "TF")``."""
        from . import library

        registry = library.MODEL_REGISTRY
        models = []
        for name in names:
            key = name.strip().upper()
            if key not in registry:
                raise KeyError(
                    f"unknown fault model {name!r}; known: {sorted(registry)}"
                )
            models.append(registry[key]())
        return cls(models)

    def add(self, model: FaultModel) -> "FaultList":
        self.models.append(model)
        return self

    def classes(self, cells: Sequence[str] = ("i", "j")) -> Tuple[BFEClass, ...]:
        """Merged, de-duplicated BFE classes of all models.

        Two classes with identical member sets are merged (e.g. the
        up-transition fault and the delta-BFE of the stuck-at-0 fault
        share a deviation).  A class whose members are a *superset* of
        another retained class is kept as-is -- subsumption between
        overlapping classes is resolved later, during test-pattern
        selection (the generator prefers selections that share nodes).
        """
        merged: List[BFEClass] = []
        seen: Dict[Tuple, str] = {}
        for model in self.models:
            for cls_ in model.classes(cells):
                key = _class_key(cls_)
                if key in seen:
                    continue
                seen[key] = cls_.name
                merged.append(cls_)
        return tuple(merged)

    def instances(self, size: int) -> Tuple[object, ...]:
        """All concrete fault instances of all models for an n-cell memory."""
        out: List[object] = []
        for model in self.models:
            out.extend(model.instances(size))
        return tuple(out)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.models)

    def __iter__(self):
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)


def _bfe_key(bfe: BasicFaultEffect) -> Tuple:
    return (
        bfe.kind.value,
        str(bfe.state),
        str(bfe.op),
        str(bfe.faulty_next) if bfe.faulty_next is not None else None,
        bfe.faulty_output,
    )


def _class_key(cls_: BFEClass) -> Tuple:
    return (
        cls_.cell_symmetric,
        tuple(sorted(_bfe_key(b) for b in cls_.members)),
    )
