"""repro: automatic generation of March tests for RAM testing.

A from-scratch reproduction of *"An Optimal Algorithm for the Automatic
Generation of March Tests"* (Benso, Di Carlo, Di Natale, Prinetto --
DATE 2002): memory fault modelling with Mealy automata, Basic Fault
Effects, Test Pattern Graphs, exact ATSP tour search, GTS rewrite rules
and simulator-validated March test synthesis.

Quickstart::

    from repro import generate_march_test
    report = generate_march_test("SAF", "TF")
    print(report.test, report.complexity_label)
"""

from .core.config import GeneratorConfig
from .core.generator import (
    GenerationError,
    MarchTestGenerator,
    generate_march_test,
)
from .core.report import GenerationReport
from .faults.faultlist import BFEClass, FaultList, FaultModel
from .kernel import (
    SimulationKernel,
    SimulationReport,
    get_default_kernel,
)
from .march.catalog import CATALOG, by_name
from .march.test import MarchTest, march, parse_march

__version__ = "2.0.0"

__all__ = [
    "GeneratorConfig",
    "GenerationError",
    "MarchTestGenerator",
    "generate_march_test",
    "GenerationReport",
    "BFEClass",
    "FaultList",
    "FaultModel",
    "CATALOG",
    "by_name",
    "MarchTest",
    "march",
    "parse_march",
    "SimulationKernel",
    "SimulationReport",
    "get_default_kernel",
    "__version__",
]
