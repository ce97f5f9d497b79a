"""Generator configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GeneratorConfig:
    """The generator's choices (paper, Sections 4-6).

    The simulation kernel is configured on its own: pass a
    :class:`~repro.kernel.SimulationKernel` to
    :class:`~repro.core.generator.MarchTestGenerator`.

    Attributes
    ----------
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
    check_redundancy:
        Build the Section 6 Coverage Matrix and report non-redundancy.
    polish:
        After local optimization, run a budgeted iterative-deepening
        search strictly below the incumbent complexity, starting at the
        GTS-derived lower bound; finds the global optimum whenever the
        budget allows.
    weight_mode:
        TPG edge cost: ``"hamming"`` (f.4.1) or ``"uniform"`` (ablation).
    """

    prefer_uniform_start: bool = True
    selection_limit: int = 128
    atsp_method: str = "auto"
    tighten: bool = True
    check_redundancy: bool = True
    polish: bool = True
    weight_mode: str = "hamming"
