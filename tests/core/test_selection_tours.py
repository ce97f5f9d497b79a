"""The generator's shared ATSP front end against per-selection solves.

``SelectionTours`` solves every selection of one ``generate()`` call
through one Held--Karp subset memo.  These tests replay each selection
the generator tries through the ``solve_path`` facade on that
selection's own ``weight_matrix()`` -- the path every selection took
before the memo -- and pin the Table 3 tours.
"""

import gc
import sys
import weakref

import pytest

from repro.core import GeneratorConfig, MarchTestGenerator
from repro.core import generator as generator_module
from repro.atsp.solver import solve_path
from repro.core.generator import SelectionTours, _uniform_init
from repro.faults import FaultList
from repro.patterns.tpg import TestPatternGraph
from repro.sequence.gts import build_gts

TABLE3 = [
    (("SAF",), (1, 0)),
    (("SAF", "TF"), (1, 0)),
    (("SAF", "TF", "ADF"), (3, 2, 1, 0)),
    (("SAF", "TF", "ADF", "CFIN"), (0, 5, 3, 6, 2, 4, 1)),
    (("SAF", "TF", "ADF", "CFIN", "CFID"), (5, 7, 4, 9, 2, 8, 3, 6, 1, 0)),
    (("CFIN",), (3, 2, 1, 0)),
]


def facade_tour(tpg, prefer_uniform_start, method):
    """``solve_path`` on the selection's own ``weight_matrix()``, from
    a uniform start when one is admissible (f.4.4)."""
    matrix = tpg.weight_matrix()
    starts = [tpg.start_weight(k) for k in range(len(tpg))]
    allowed = {
        k for k, node in enumerate(tpg.nodes)
        if _uniform_init(node.pattern.init)
    }
    if prefer_uniform_start and allowed:
        try:
            return solve_path(
                matrix, starts, allowed_starts=allowed, method=method
            )[0]
        except ValueError:
            pass
    return solve_path(matrix, starts, method=method)[0]


class FacadeChecking(MarchTestGenerator):
    """Checks every memo tour against ``solve_path`` on the selection's
    own TPG before attempting the selection as usual."""

    def __init__(self, config=None):
        super().__init__(config)
        self.checked = 0

    def _attempt(self, selection, verify, tours):
        tpg = TestPatternGraph(weight_mode=self.config.weight_mode)
        for class_name, pattern in selection.choices:
            tpg.add(pattern, class_name)
        shared = tours.solve([node.pattern for node in tpg.nodes])
        config = self.config
        expected = facade_tour(
            tpg, config.prefer_uniform_start, config.atsp_method
        )
        assert shared == expected, selection
        self.checked += 1
        return super()._attempt(selection, verify, tours)


@pytest.mark.parametrize(
    "names,tour", TABLE3, ids=["+".join(names) for names, _ in TABLE3]
)
def test_every_selection_matches_the_facade_and_tours_are_pinned(names, tour):
    generator = FacadeChecking()
    report = generator.generate(FaultList.from_names(*names))
    assert generator.checked >= 1
    assert report.tour == tour


@pytest.mark.parametrize("config", [
    GeneratorConfig(weight_mode="uniform"),
    GeneratorConfig(prefer_uniform_start=False),
    GeneratorConfig(atsp_method="branch_bound"),
], ids=["uniform-weights", "unrestricted-start", "branch-bound"])
def test_ablation_configs_match_the_facade(config):
    generator = FacadeChecking(config)
    generator.generate(FaultList.from_names("SAF", "TF", "ADF", "CFIN"))
    assert generator.checked >= 1


class GTSChecking(MarchTestGenerator):
    """Checks every selection's GTS built through the call's shared
    step memo against a build with no memo."""

    def __init__(self, config=None):
        super().__init__(config)
        self.checked = 0

    def _attempt(self, selection, verify, tours):
        tpg = TestPatternGraph(weight_mode=self.config.weight_mode)
        for class_name, pattern in selection.choices:
            tpg.add(pattern, class_name)
        order = tours.solve([node.pattern for node in tpg.nodes])
        shared = build_gts(tpg, order, memo=tours.gts_steps)
        alone = build_gts(tpg, order)
        assert shared.symbols == alone.symbols, selection
        assert shared.tour == alone.tour
        self.checked += 1
        return super()._attempt(selection, verify, tours)


@pytest.mark.parametrize(
    "names", [names for names, _ in TABLE3],
    ids=["+".join(names) for names, _ in TABLE3],
)
def test_every_selection_gts_matches_a_memo_less_build(names):
    generator = GTSChecking()
    generator.generate(FaultList.from_names(*names))
    assert generator.checked >= 1


def test_generate_keeps_no_gts_memo(monkeypatch):
    """Every selection of one call shares one step memo, and only the
    caller's own reference to it outlives ``generate()``."""
    memos = []
    original = generator_module.build_gts

    def recording(tpg, order, memo=None):
        if not any(memo is seen for seen in memos):
            memos.append(memo)
        return original(tpg, order, memo=memo)

    monkeypatch.setattr(generator_module, "build_gts", recording)
    MarchTestGenerator().generate(FaultList.from_names("SAF", "TF", "ADF"))
    # Counted before any assert: a rewritten assert keeps its operands.
    references = sys.getrefcount(memos[0])
    assert len(memos) == 1 and len(memos[0]) > 0
    # One reference from ``memos``, one from getrefcount's argument.
    assert references == 2


def test_finished_selection_loop_leaves_no_live_memo(monkeypatch):
    """The front end and both memos die by reference counting (no
    cycle) as soon as the selection loop ends, before ``optimize``."""
    refs = []
    init = SelectionTours.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.extend(weakref.ref(obj) for obj in (self, self.free, self.uniform))

    live_at_optimize = []
    optimize = generator_module.optimize

    def checking_optimize(*args, **kwargs):
        live_at_optimize.append(sum(ref() is not None for ref in refs))
        return optimize(*args, **kwargs)

    monkeypatch.setattr(SelectionTours, "__init__", tracking)
    monkeypatch.setattr(generator_module, "optimize", checking_optimize)
    gc.collect()
    gc.disable()
    try:
        MarchTestGenerator().generate(FaultList.from_names("SAF", "TF", "ADF"))
        assert len(refs) == 3
        assert live_at_optimize and set(live_at_optimize) == {0}
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_front_end_shares_patterns_weights_and_subsets():
    faults = FaultList.from_names("SAF", "TF", "ADF")
    tours = SelectionTours()
    generator = MarchTestGenerator()
    original = generator._attempt
    solved = []

    def attempt(selection, verify, _tours):
        solved.append(len(selection.patterns))
        return original(selection, verify, tours)

    generator._attempt = attempt
    generator.generate(faults)
    pairs = sum(n * (n - 1) for n in solved)
    subsets = sum(2 ** n - 1 for n in solved)
    assert len(solved) > 1
    assert tours.weight_computations < pairs
    assert tours.uniform.masks_built + tours.free.masks_built < subsets


def test_non_default_atsp_method_keeps_the_facade(monkeypatch):
    calls = []
    solve_path = generator_module.solve_path

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_path(*args, **kwargs)

    monkeypatch.setattr(generator_module, "solve_path", counting)
    MarchTestGenerator().generate(FaultList.from_names("SAF"))
    assert calls == []
    report = MarchTestGenerator(
        GeneratorConfig(atsp_method="branch_bound")
    ).generate(FaultList.from_names("SAF"))
    assert calls and report.complexity == 4
