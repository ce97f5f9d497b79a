"""The benchmark's workloads: fixed request sets, their set-up, and the
output checks whose failures the benchmark counts.

Every workload is closed loop: one client in one process sends each
request after the previous reply.  The seed permutes the request order
within a pass and, for ``coverage`` and the service workloads, the order
of the fault cases; it never changes what is computed, so per-layer
counts repeat exactly at any seed.

Layer calls go through module and class attributes (``exhaustive.
exhaustive_search``, ``SimulationKernel.simulate_many``) so the traced
run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import MarchTestGenerator
from repro.core import exhaustive
from repro.faults import FaultList
from repro.kernel import SimulationKernel
from repro.march.catalog import CATALOG
from repro.store.service import ServiceStore, VerdictService

Request = Tuple[str, Callable[[], Any]]


def verdict_digest(reports: Sequence[Any]) -> str:
    """SHA-256 over the sorted ``test|case|verdict`` lines of a sweep.

    Sorting makes the digest independent of the seed's case order.
    """
    lines = []
    for report in reports:
        name = report.test.name
        lines.extend(f"{name}|{case}|1" for case in report.detected)
        lines.extend(f"{name}|{case}|0" for case in report.missed)
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sweep_errors(reports: Sequence[Any], reference: Dict[str, Any]) -> List[str]:
    """Differences between a coverage sweep and the committed reference."""
    errors = []
    verdicts = sum(len(r.detected) + len(r.missed) for r in reports)
    if verdicts != reference["verdicts"]:
        errors.append(f"{verdicts} verdicts, reference {reference['verdicts']}")
    digest = verdict_digest(reports)
    if digest != reference["digest"]:
        errors.append(
            f"verdict digest {digest[:12]} differs from the serial-engine"
            f" reference {reference['digest'][:12]}"
        )
    return errors


class Workload:
    """One fixed request set.  Subclasses fill in the hooks."""

    def requests(self, rng: random.Random) -> List[Request]:
        raise NotImplementedError

    def check(self, label: str, result: Any) -> List[str]:
        """Errors of one request's output (empty when correct)."""
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Untimed per-pass set-up."""

    def end_pass(self) -> List[str]:
        """Untimed per-pass tear-down; returns pass-level errors."""
        return []

    def summary(self, results: Sequence[tuple]) -> List[str]:
        """Extra report lines for one pass: ``(label, raw seconds, scaled
        seconds, output)`` per request."""
        return []

    def close(self) -> None:
        """Release what set-up acquired."""


class _Row:
    def __init__(self, spec: Dict[str, Any]) -> None:
        self.names = tuple(spec["faults"])
        self.label = "+".join(self.names)
        self.complexity = spec["complexity"]
        self.candidates = spec["certify_candidates"]
        self.faults = FaultList.from_names(*self.names)


class Table3(Workload):
    """The paper's six Table 3 rows, each generated by a fresh generator
    (cold kernel) with the default config, as ``repro table3`` runs them.

    The check re-verifies each generated test at size 3 on a separate
    ``serial`` kernel, the scalar reference engine.
    """

    def __init__(self, reference: Dict[str, Any], seed: int) -> None:
        self.rows = {row.label: row for row in map(_Row, reference["table3"])}
        self.confirm_cases = {
            label: row.faults.instances(3) for label, row in self.rows.items()
        }
        self._reverified: Dict[Tuple[str, str], bool] = {}

    def requests(self, rng: random.Random) -> List[Request]:
        rows = list(self.rows.values())
        rng.shuffle(rows)
        return [
            (row.label, lambda row=row: MarchTestGenerator().generate(row.faults))
            for row in rows
        ]

    def check(self, label: str, report: Any) -> List[str]:
        row = self.rows[label]
        errors = []
        if report.complexity != row.complexity:
            errors.append(
                f"{label}: complexity {report.complexity}n,"
                f" paper {row.complexity}n"
            )
        if not report.verified:
            errors.append(f"{label}: report says not verified")
        if not report.non_redundant:
            errors.append(f"{label}: report says redundant")
        key = (label, str(report.test))
        if key not in self._reverified:
            serial = SimulationKernel(backend="serial")
            verify = serial.verifier(self.confirm_cases[label], 3)
            self._reverified[key] = verify(report.test)
        if not self._reverified[key]:
            errors.append(
                f"{label}: {report.test} fails the serial size-3 re-verify"
            )
        return errors

    def summary(self, results: Sequence[tuple]) -> List[str]:
        # Raw seconds on both sides: elapsed_seconds is the generator's
        # own clock, which stops before _finalize runs.
        lines = []
        for label, seconds, _, report in sorted(results, key=lambda r: r[0]):
            lines.append(
                f"  {label:24s} {report.complexity_label:>4s}"
                f"  generate() {seconds:.4f} s"
                f"  elapsed_seconds {report.elapsed_seconds:.4f} s"
                f"  gap {seconds - report.elapsed_seconds:+.4f} s"
            )
        total = sum(result[3].complexity for result in results)
        paper = sum(row.complexity for row in self.rows.values())
        lines.append(f"  complexity_sum {total} n (paper {paper} n)")
        return lines


class Certify(Workload):
    """Minimality certificates: for each Table 3 row, a budgeted
    exhaustive search strictly below the paper's complexity must come
    back empty, with a fresh kernel per request."""

    BUDGET = 30000
    MAX_ELEMENTS = 7

    def __init__(self, reference: Dict[str, Any], seed: int) -> None:
        self.rows = {row.label: row for row in map(_Row, reference["table3"])}
        self.cases = {
            label: row.faults.instances(2) for label, row in self.rows.items()
        }

    def _search(self, row: _Row) -> Tuple[Any, int]:
        kernel = SimulationKernel(backend="bitparallel")
        stats = exhaustive.SearchStats()
        found = exhaustive.exhaustive_search(
            kernel.verifier(self.cases[row.label], 2),
            max_complexity=row.complexity - 1,
            max_elements=self.MAX_ELEMENTS,
            budget=self.BUDGET,
            stats=stats,
        )
        return found, stats.candidates_tested

    def requests(self, rng: random.Random) -> List[Request]:
        rows = list(self.rows.values())
        rng.shuffle(rows)
        return [(row.label, lambda row=row: self._search(row)) for row in rows]

    def check(self, label: str, result: Any) -> List[str]:
        found, candidates = result
        row = self.rows[label]
        errors = []
        if found is not None:
            errors.append(
                f"{label}: found {found} below the paper's {row.complexity}n"
            )
        if candidates != row.candidates:
            errors.append(
                f"{label}: {candidates} candidates tested,"
                f" recorded grammar count {row.candidates}"
            )
        return errors


class _Sweep(Workload):
    """The catalog x fault-model sweep shared by coverage and service."""

    def __init__(self, reference: Dict[str, Any], seed: int) -> None:
        spec = reference["coverage"]
        self.reference = spec
        self.size = spec["size"]
        self.tests = [CATALOG[name] for name in spec["tests"]]
        cases = list(FaultList.from_names(*spec["models"]).instances(self.size))
        lanes = 1 + sum(len(case.variants) for case in cases)
        if len(cases) != spec["cases"] or lanes != spec["lanes"]:
            raise RuntimeError(
                f"sweep has {len(cases)} cases over {lanes} lanes,"
                f" reference {spec['cases']} over {spec['lanes']}"
            )
        random.Random(seed).shuffle(cases)
        self.cases = cases

    def _simulate(self, kernel: SimulationKernel) -> List[Any]:
        try:
            return kernel.simulate_many(self.tests, self.cases, self.size)
        finally:
            kernel.close()


class Coverage(_Sweep):
    """One cold bitparallel ``simulate_many`` over the sweep per pass:
    the simulate/analyze/campaign path, with no generator, verifier or
    ATSP involved."""

    def requests(self, rng: random.Random) -> List[Request]:
        return [
            ("sweep", lambda: self._simulate(
                SimulationKernel(backend="bitparallel")
            ))
        ]

    def check(self, label: str, reports: Any) -> List[str]:
        return sweep_errors(reports, self.reference)


class _ServiceSweep(_Sweep):
    """The sweep through a ``VerdictService`` daemon running as a thread
    of this process over a Unix socket; set-up starts the daemon."""

    def __init__(self, reference: Dict[str, Any], seed: int,
                 workdir: Path) -> None:
        super().__init__(reference, seed)
        # Relative to the working directory: a Unix socket path is
        # limited to ~107 bytes and the checkout path may be long.
        self.workdir = Path(os.path.relpath(workdir))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.store_path = self.workdir / "verdicts.sqlite"
        self.daemon: Optional[VerdictService] = None
        self._start()

    def _start(self) -> None:
        self.daemon = VerdictService(
            self.store_path, socket_path=self.workdir / "verdict.sock"
        ).start()

    def _kernel(self) -> SimulationKernel:
        assert self.daemon is not None
        return SimulationKernel(backend="bitparallel", store=self.daemon.url)

    def _write(self) -> List[Any]:
        return self._simulate(self._kernel())

    def _row_errors(self) -> List[str]:
        """The store must hold one row per verdict of the sweep."""
        assert self.daemon is not None
        with ServiceStore(self.daemon.url) as client:
            rows = len(client)
        if rows != self.reference["verdicts"]:
            return [f"store holds {rows} rows after the write pass,"
                    f" expected {self.reference['verdicts']}"]
        return []

    def _stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def close(self) -> None:
        self._stop()
        shutil.rmtree(self.workdir, ignore_errors=True)


class Service(_ServiceSweep):
    """Each pass starts a daemon on an empty store (untimed) and sends a
    write-through pass: a fresh client kernel simulates the sweep and
    stores every verdict."""

    def begin_pass(self) -> None:
        if self.daemon is None:
            self._start()

    def requests(self, rng: random.Random) -> List[Request]:
        return [("write", self._write)]

    def check(self, label: str, reports: Any) -> List[str]:
        return sweep_errors(reports, self.reference)

    def end_pass(self) -> List[str]:
        errors = self._row_errors()
        self._stop()
        for path in self.workdir.glob(self.store_path.name + "*"):
            path.unlink()
        return errors


class ServiceRead(_ServiceSweep):
    """Each pass a fresh client kernel reads the whole sweep back warm
    from one daemon, whose store the first pass fills (untimed) with a
    write-through pass.  Writes go through the daemon's hot in-memory
    tier, so this is the path a read right after a write takes."""

    def __init__(self, reference: Dict[str, Any], seed: int,
                 workdir: Path) -> None:
        super().__init__(reference, seed, workdir)
        self._fill_errors: Optional[List[str]] = None

    def begin_pass(self) -> None:
        if self._fill_errors is None:
            self._fill_errors = (sweep_errors(self._write(), self.reference)
                                 + self._row_errors())

    def _read(self) -> Tuple[List[Any], Dict[str, int], int]:
        kernel = self._kernel()
        served = kernel.backend.served
        store_stats = kernel.store.stats
        reports = self._simulate(kernel)
        return reports, dict(served), store_stats.hits

    def requests(self, rng: random.Random) -> List[Request]:
        return [("read", self._read)]

    def check(self, label: str, result: Any) -> List[str]:
        reports, served, hits = result
        errors = sweep_errors(reports, self.reference)
        if served:
            errors.append(f"warm read simulated tasks: {served}")
        if hits != self.reference["verdicts"]:
            errors.append(
                f"warm read took {hits} store hits,"
                f" expected {self.reference['verdicts']}"
            )
        return errors

    def end_pass(self) -> List[str]:
        errors, self._fill_errors = self._fill_errors or [], []
        return errors


WORKLOADS = ("table3", "certify", "coverage", "service", "service-read")


def build(name: str, reference: Dict[str, Any], seed: int, workdir: Path) -> Workload:
    """Set up the named workload (the part ``setup_s`` times)."""
    if name == "table3":
        return Table3(reference, seed)
    if name == "certify":
        return Certify(reference, seed)
    if name == "coverage":
        return Coverage(reference, seed)
    if name == "service":
        return Service(reference, seed, workdir)
    if name == "service-read":
        return ServiceRead(reference, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
