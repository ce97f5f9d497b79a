"""Generator configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass
class GeneratorConfig:
    """Tunable knobs of the March test generator.

    Attributes
    ----------
    cells:
        Symbolic cells of the fault machine (the paper's two-cell model).
    verify_size:
        Memory size used for candidate verification inside the search
        loop (2 cells exercise both aggressor/victim orders).
    confirm_size:
        Memory size of the final confirmation run (3 adds a bystander
        cell in every position).
    prefer_uniform_start:
        Apply the f.4.4 optimization: restrict tours to start at test
        patterns whose initialization is compatible with the all-0 /
        all-1 state.  Falls back to unrestricted when infeasible.
    selection_limit:
        Maximum number of Section 5 equivalence-class selections
        explored; 1 keeps the single greedy selection.
    atsp_method:
        Method forwarded to :func:`repro.atsp.solve_path`.
    tighten:
        Run the simulation-checked local optimizer on the built test.
    repair:
        On pipeline verification failure, fall back to the direct
        per-pattern realization and re-optimize.
    canonicalize_orders:
        Replace element orders by ``ANY`` when both realizations verify
        (stronger, more conventional notation).
    check_redundancy:
        Build the Section 6 Coverage Matrix and report non-redundancy.
    polish:
        After local optimization, run a budgeted iterative-deepening
        search strictly below the incumbent complexity, starting at the
        GTS-derived lower bound; finds the global optimum whenever the
        budget allows.
    polish_budget:
        Maximum candidates the polish phase may simulate.
    weight_mode:
        TPG edge cost: ``"hamming"`` (f.4.1) or ``"uniform"`` (ablation).
    backend:
        Execution backend of the simulation kernel: ``"bitparallel"``
        (default -- word-packed simulation: every standard fault
        instance advances in one machine word per march operation,
        with scalar fallback for unknown user types) or ``"serial"``
        (scalar in-process evaluation, the reference oracle).  On the
        lane-packed backend the generator's verifier checks each
        candidate against the whole fault list in one packed walk of
        its order realizations as a shared-prefix tree; ``serial``
        keeps the scalar per-case reference verifier.  Unknown names
        raise ``ValueError`` at construction time.  See
        :mod:`repro.kernel.backends` and the README section "Choosing
        a backend".
    store_path:
        Path of the persistent fault-dictionary store
        (:mod:`repro.store`), layered under the in-memory cache so
        repeated invocations share verdicts across processes; ``None``
        disables persistence.
    store_readonly:
        Open the store for lookups only (no verdict writes).
    telemetry:
        A live :class:`repro.telemetry.Telemetry` handle threaded into
        the kernel (metrics registry + span tracer, what the CLI's
        ``--metrics``/``--trace`` flags create); ``None`` (default)
        keeps the zero-cost no-op telemetry.
    """

    cells: Tuple[str, ...] = ("i", "j")
    verify_size: int = 2
    confirm_size: int = 3
    prefer_uniform_start: bool = True
    selection_limit: int = 128
    atsp_method: str = "auto"
    tighten: bool = True
    repair: bool = True
    canonicalize_orders: bool = True
    check_redundancy: bool = True
    polish: bool = True
    polish_budget: int = 30000
    weight_mode: str = "hamming"
    backend: str = "bitparallel"
    store_path: Optional[str] = None
    store_readonly: bool = False
    # Typed loosely (Any-ish via Optional[object]) on purpose: core
    # must stay importable without pulling repro.telemetry in here.
    telemetry: Optional[object] = None

    def __post_init__(self) -> None:
        # Imported lazily: core must stay importable without pulling
        # the kernel package in at module-import time.
        from ..kernel.backends import validate_backend_name

        validate_backend_name(self.backend)
