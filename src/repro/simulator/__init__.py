"""Memory fault simulator and coverage analysis (paper, Section 6).

The execution engine and set-cover helpers are eager imports; the
:mod:`~repro.simulator.coverage` re-exports resolve lazily (PEP 562)
because that module sits *above* :mod:`repro.kernel` -- the kernel
imports the engine from this package, and an eager import here would
close an import cycle.  Fault simulation itself is
:class:`repro.kernel.SimulationKernel`.
"""

from .engine import (
    MarchRun,
    ReadRecord,
    count_verifying_reads,
    good_run,
    is_well_formed,
    run_march,
)
from .setcover import greedy_cover, is_exact_cover_needed, minimum_cover

_COVERAGE_NAMES = frozenset(
    {
        "CoverageMatrix",
        "ElementaryBlock",
        "coverage_matrix",
        "elementary_blocks",
    }
)

__all__ = [
    "MarchRun",
    "ReadRecord",
    "count_verifying_reads",
    "good_run",
    "is_well_formed",
    "run_march",
    "CoverageMatrix",
    "ElementaryBlock",
    "coverage_matrix",
    "elementary_blocks",
    "greedy_cover",
    "is_exact_cover_needed",
    "minimum_cover",
]


def __getattr__(name):
    if name in _COVERAGE_NAMES:
        from . import coverage

        return getattr(coverage, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
