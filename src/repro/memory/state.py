"""k-cell memory states with don't-care support.

A state assigns each symbolic cell a value in ``{0, 1, '-'}`` where
``'-'`` is the value of a non-initialized cell (paper, f.2.1).  States
double as *initialization requirements* of test patterns, where ``'-'``
means "any value is acceptable"; the Hamming distance of f.4.1 treats a
don't-care as distance 0 to anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional, Tuple

from .operations import SYMBOLIC_CELLS, Operation, cell_order

#: The unknown / don't-care cell value.
DASH = "-"

CellValue = object  # 0 | 1 | "-"


def _normalize_value(value: object) -> object:
    if value in (0, 1):
        return int(value)  # type: ignore[arg-type]
    if value in (DASH, None):
        return DASH
    if value in ("0", "1"):
        return int(value)  # type: ignore[arg-type]
    raise ValueError(f"invalid cell value {value!r}; expected 0, 1 or '-'")


@dataclass(frozen=True)
class MemoryState:
    """An immutable assignment of values to the cells of a k-cell machine.

    Cells are kept in address order (``i`` before ``j`` ...).

    >>> s = MemoryState.parse("01")
    >>> s["i"], s["j"]
    (0, 1)
    >>> str(s)
    '01'
    """

    cells: Tuple[str, ...]
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.values):
            raise ValueError("cells and values must have equal length")
        if tuple(sorted(self.cells, key=cell_order)) != self.cells:
            raise ValueError("cells must be listed in address order")
        object.__setattr__(
            self, "values", tuple(_normalize_value(v) for v in self.values)
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, **assignments: object) -> "MemoryState":
        """Build a state from keyword cell assignments.

        >>> str(MemoryState.of(i=0, j=1))
        '01'
        """
        cells = tuple(sorted(assignments, key=cell_order))
        return cls(cells, tuple(assignments[c] for c in cells))

    @classmethod
    def parse(cls, text: str, cells: Optional[Iterable[str]] = None) -> "MemoryState":
        """Parse a compact state string such as ``"01"`` or ``"1-"``.

        Cells default to the symbolic names ``i, j, ...`` in order.
        """
        text = text.strip()
        if cells is None:
            cells = SYMBOLIC_CELLS[: len(text)]
        cells = tuple(cells)
        if len(cells) != len(text):
            raise ValueError("state string length must match cell count")
        return cls(cells, tuple(text))

    @classmethod
    def uniform(cls, cells: Iterable[str], value: object) -> "MemoryState":
        """A state assigning the same value to every cell."""
        cells = tuple(sorted(cells, key=cell_order))
        return cls(cells, tuple(value for _ in cells))

    @classmethod
    def unknown(cls, cells: Iterable[str]) -> "MemoryState":
        """The fully non-initialized state (all cells ``'-'``)."""
        return cls.uniform(cells, DASH)

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, cell: str) -> object:
        try:
            return self.values[self.cells.index(cell)]
        except ValueError:
            raise KeyError(cell) from None

    def __contains__(self, cell: str) -> bool:
        return cell in self.cells

    def __iter__(self) -> Iterator[Tuple[str, object]]:
        return iter(zip(self.cells, self.values))

    @property
    def is_concrete(self) -> bool:
        """True when no cell holds a don't-care."""
        return DASH not in self.values

    @property
    def dash_count(self) -> int:
        return sum(1 for v in self.values if v is DASH or v == DASH)

    # -- algebra -------------------------------------------------------------

    def set(self, cell: str, value: object) -> "MemoryState":
        """Return a copy with one cell changed."""
        if cell not in self.cells:
            raise KeyError(cell)
        values = tuple(
            _normalize_value(value) if c == cell else v for c, v in self
        )
        return MemoryState(self.cells, values)

    def apply(self, op: Operation) -> "MemoryState":
        """State after a *good-machine* operation (reads/waits are identity)."""
        if op.is_write:
            return self.set(op.cell, op.value)
        return self

    def matches(self, other: "MemoryState") -> bool:
        """True when *other* satisfies this state as a requirement.

        A don't-care in ``self`` matches any value of ``other``.  A
        concrete value only matches itself (a don't-care in *other* does
        not satisfy a concrete requirement).
        """
        self._check_compatible(other)
        for (_, mine), (_, theirs) in zip(self, other):
            if mine == DASH:
                continue
            if mine != theirs:
                return False
        return True

    def hamming(self, other: "MemoryState") -> int:
        """Hamming distance with don't-care semantics (paper, f.4.1).

        A don't-care on either side contributes 0: it represents a cell
        whose value the target pattern does not constrain, hence no write
        operation is needed to fix it.
        """
        self._check_compatible(other)
        distance = 0
        for (_, mine), (_, theirs) in zip(self, other):
            if mine == DASH or theirs == DASH:
                continue
            if mine != theirs:
                distance += 1
        return distance

    def merge(self, other: "MemoryState") -> "MemoryState":
        """Refine don't-cares of ``self`` with values from ``other``.

        Concrete values of ``self`` win over *other*'s.
        """
        self._check_compatible(other)
        values = tuple(
            theirs if mine == DASH else mine
            for (_, mine), (_, theirs) in zip(self, other)
        )
        return MemoryState(self.cells, values)

    def completions(self) -> Iterator["MemoryState"]:
        """Yield every concrete state obtained by filling don't-cares."""
        option_sets = [(v,) if v != DASH else (0, 1) for v in self.values]
        for combo in product(*option_sets):
            yield MemoryState(self.cells, combo)

    def fill_operations(self, target: "MemoryState") -> Tuple[Operation, ...]:
        """Writes needed to take ``self`` to satisfy ``target``.

        One write per cell where the target is concrete and differs (or
        where ``self`` is unknown).  This realizes the edge weight of the
        TPG: ``len(fill_operations) == weight`` whenever ``self`` is
        concrete.
        """
        from .operations import write as _write

        self._check_compatible(target)
        ops = []
        for (cell, mine), (_, wanted) in zip(self, target):
            if wanted == DASH:
                continue
            if mine != wanted:
                ops.append(_write(cell, wanted))
        return tuple(ops)

    def _check_compatible(self, other: "MemoryState") -> None:
        if self.cells != other.cells:
            raise ValueError(
                f"states over different cells: {self.cells} vs {other.cells}"
            )

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        return "".join(str(v) for v in self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryState({self})"


def all_states(cells: Iterable[str]) -> Tuple[MemoryState, ...]:
    """All concrete states of a k-cell machine, in binary order."""
    cells = tuple(sorted(cells, key=cell_order))
    return tuple(
        MemoryState(cells, combo) for combo in product((0, 1), repeat=len(cells))
    )
