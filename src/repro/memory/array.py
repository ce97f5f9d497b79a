"""A simulated n-cell RAM with fault-instance injection.

This is the substrate the paper's "ad hoc memory fault simulator"
(Section 6) runs on: a word of ``n`` one-bit cells supporting read,
write and wait operations addressed by integer cell index, with hooks
that let an injected fault instance intercept the good behaviour.

The array intentionally knows nothing about fault *models*; it only
exposes the mechanics (pre/post write hooks, read interception).  Fault
instances live in :mod:`repro.faults.instances`.

An array is cheap to build, and every scalar run builds a fresh one:
a run starts with all cells non-initialized, the fault instance
installed and an empty trace log, so no state carries over between
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Protocol

from .state import DASH


class FaultInstance(Protocol):
    """Behavioural hooks a fault instance may implement.

    Every hook is optional in spirit; the provided base class
    :class:`NullFaultInstance` implements the identity behaviour, and
    concrete instances override what they need.
    """

    def on_write(self, memory: "MemoryArray", address: int, value: int) -> None:
        """Perform the write (possibly faultily) on ``memory.raw``."""

    def on_read(self, memory: "MemoryArray", address: int) -> object:
        """Return the value produced by reading ``address``."""

    def on_wait(self, memory: "MemoryArray") -> None:
        """React to a wait/retention period."""


class NullFaultInstance:
    """The fault-free behaviour; also a convenient base class."""

    def on_write(self, memory: "MemoryArray", address: int, value: int) -> None:
        memory.raw[address] = value

    def on_read(self, memory: "MemoryArray", address: int) -> object:
        return memory.raw[address]

    def on_wait(self, memory: "MemoryArray") -> None:
        return None


@dataclass
class MemoryArray:
    """An n-cell one-bit-per-cell memory with a pluggable fault instance.

    Attributes
    ----------
    size:
        Number of cells.
    raw:
        Backing store; each cell holds 0, 1 or ``'-'`` (non-initialized).
    fault:
        The active fault instance (``NullFaultInstance`` when fault-free).
    log:
        When enabled, a trace of ``(op, address, value)`` records.
    """

    size: int
    raw: List[object] = field(default_factory=list)
    fault: FaultInstance = field(default_factory=NullFaultInstance)
    trace: bool = False
    log: List[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("memory size must be positive")
        if not self.raw:
            self.raw = [DASH] * self.size
        elif len(self.raw) != self.size:
            raise ValueError("raw contents must match the declared size")

    # -- operations -----------------------------------------------------------

    def write(self, address: int, value: int) -> None:
        """Write ``value`` to ``address`` through the fault instance."""
        self._check_address(address)
        if value not in (0, 1):
            raise ValueError("written value must be 0 or 1")
        self.fault.on_write(self, address, value)
        if self.trace:
            self.log.append(("w", address, value))

    def read(self, address: int) -> object:
        """Read ``address`` through the fault instance."""
        self._check_address(address)
        value = self.fault.on_read(self, address)
        if self.trace:
            self.log.append(("r", address, value))
        return value

    def wait(self) -> None:
        """Let a retention period elapse."""
        self.fault.on_wait(self)
        if self.trace:
            self.log.append(("T", None, None))

    def fill(self, value: int) -> None:
        """Write ``value`` to every cell in ascending order."""
        for address in range(self.size):
            self.write(address, value)

    def snapshot(self) -> tuple:
        """An immutable copy of the raw contents."""
        return tuple(self.raw)

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.size:
            raise IndexError(f"address {address} out of range [0, {self.size})")

    def __len__(self) -> int:
        return self.size
