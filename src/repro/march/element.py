"""March elements.

A March element is a sequence of operations applied to every memory
cell, in ascending (``up``), descending (``down``) or arbitrary
(``any``) address order, before moving to the next cell [1].  Element
operations are *cell-relative*: ``w0`` writes 0 to the current cell,
``r1`` reads the current cell and verifies the value is 1.

A :class:`DelayElement` models the retention pause ``T`` used by data
retention faults; it is applied once (not per cell).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class AddressOrder(enum.Enum):
    """Addressing order of a March element."""

    UP = "up"
    DOWN = "down"
    ANY = "any"

    @property
    def symbol(self) -> str:
        return {"up": "⇑", "down": "⇓", "any": "⇕"}[self.value]

    def addresses(self, size: int) -> range:
        """Concrete address sequence for an n-cell memory.

        ``ANY`` is realized ascending; callers validating a test must
        check both realizations (see the simulator).
        """
        if self is AddressOrder.DOWN:
            return range(size - 1, -1, -1)
        return range(size)


_ORDER_ALIASES = {
    "⇑": AddressOrder.UP,
    "up": AddressOrder.UP,
    "^": AddressOrder.UP,
    "⇓": AddressOrder.DOWN,
    "down": AddressOrder.DOWN,
    "⇕": AddressOrder.ANY,
    "any": AddressOrder.ANY,
    "c": AddressOrder.ANY,  # the paper's symbol for either order
}


@dataclass(frozen=True)
class MarchOp:
    """One cell-relative March operation: ``w0``, ``w1``, ``r0``, ``r1``
    or a plain ``r`` (read without verification)."""

    kind: str  # "r" or "w"
    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("r", "w"):
            raise ValueError("march op kind must be 'r' or 'w'")
        if self.kind == "w" and self.value not in (0, 1):
            raise ValueError("march write needs a value in {0, 1}")
        if self.kind == "r" and self.value not in (None, 0, 1):
            raise ValueError("march read value must be None, 0 or 1")

    @property
    def is_read(self) -> bool:
        return self.kind == "r"

    @property
    def is_write(self) -> bool:
        return self.kind == "w"

    def __str__(self) -> str:
        if self.value is None:
            return self.kind
        return f"{self.kind}{self.value}"


def r0() -> MarchOp:
    return MarchOp("r", 0)


def r1() -> MarchOp:
    return MarchOp("r", 1)


def w0() -> MarchOp:
    return MarchOp("w", 0)


def w1() -> MarchOp:
    return MarchOp("w", 1)


def parse_march_op(text: str) -> MarchOp:
    """Parse ``"w0"``, ``"r1"``, ``"r"`` ...

    >>> parse_march_op("w1")
    MarchOp(kind='w', value=1)
    """
    text = text.strip()
    if not text or text[0] not in "rw":
        raise ValueError(f"malformed march operation {text!r}")
    if len(text) == 1:
        if text == "r":
            return MarchOp("r", None)
        raise ValueError("march write needs a value")
    return MarchOp(text[0], int(text[1:]))


@dataclass(frozen=True)
class MarchElement:
    """An address order plus a non-empty operation sequence."""

    order: AddressOrder
    ops: Tuple[MarchOp, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("march element needs at least one operation")

    def __hash__(self) -> int:
        # Frozen, so the hash is computed once: the packed verifier's
        # transition table hashes an element on every step.  The memo
        # lives in __dict__ like MarchTest's, and __getstate__ drops it,
        # because str and enum hashes differ between processes.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.order, self.ops))
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def complexity(self) -> int:
        """Number of operations applied per cell."""
        return len(self.ops)

    def with_order(self, order: AddressOrder) -> "MarchElement":
        return MarchElement(order, self.ops)

    def __str__(self) -> str:
        body = ",".join(str(op) for op in self.ops)
        return f"{self.order.symbol}({body})"

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class DelayElement:
    """A retention pause (the ``T`` input), applied once."""

    @property
    def complexity(self) -> int:
        return 0

    def __str__(self) -> str:
        return "Del"


def element(order_text: str, *ops_text: str) -> MarchElement:
    """Convenience constructor: ``element("up", "r0", "w1")``."""
    key = order_text.strip().lower()
    if key not in _ORDER_ALIASES:
        raise ValueError(f"unknown address order {order_text!r}")
    return MarchElement(
        _ORDER_ALIASES[key], tuple(parse_march_op(t) for t in ops_text)
    )
