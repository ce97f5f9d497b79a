"""Unified simulation kernel: cached, batched, backend-pluggable.

See :mod:`repro.kernel.kernel` for the architecture overview and the
repository README for the cache-key and backend-extension guides.
"""

from .backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    BitParallelBackend,
    ExecutionBackend,
    SerialBackend,
    backend_choices_text,
    resolve_backend,
    validate_backend_name,
    worst_case_detects,
)
from .cache import FaultDictionaryCache, KernelStats, SimKey
from .kernel import (
    DEFAULT_SIZE,
    SimulationKernel,
    canonical_signature,
    concrete_realization,
    get_default_kernel,
    set_default_kernel,
)
from .report import EmptyFaultListWarning, SimulationReport

__all__ = [
    "BACKENDS",
    "BitParallelBackend",
    "DEFAULT_BACKEND",
    "DEFAULT_SIZE",
    "EmptyFaultListWarning",
    "ExecutionBackend",
    "FaultDictionaryCache",
    "KernelStats",
    "SerialBackend",
    "SimKey",
    "SimulationKernel",
    "SimulationReport",
    "backend_choices_text",
    "canonical_signature",
    "concrete_realization",
    "get_default_kernel",
    "resolve_backend",
    "set_default_kernel",
    "validate_backend_name",
    "worst_case_detects",
]
