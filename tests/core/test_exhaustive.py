"""Tests for the bounded exhaustive baseline (Section 2)."""

import gc
import time
import weakref

import pytest

import repro.core.generator as generator_module
from repro.core.config import GeneratorConfig
from repro.core.exhaustive import SearchStats, exhaustive_search
from repro.core.generator import MarchTestGenerator
from repro.core.optimize import make_verifier
from repro.faults import FaultList
from repro.kernel import SimulationKernel
from repro.telemetry import Telemetry, flatten_span_trees


@pytest.fixture(scope="module")
def saf_verifier():
    faults = FaultList.from_names("SAF")
    return make_verifier(faults.instances(2), 2)


class TestSearch:
    def test_finds_minimal_saf_test(self, saf_verifier):
        stats = SearchStats()
        found = exhaustive_search(saf_verifier, max_complexity=5, stats=stats)
        assert found is not None
        assert found.complexity == 4  # MATS-equivalent is minimal
        assert stats.candidates_tested > 0

    def test_respects_max_complexity(self, saf_verifier):
        found = exhaustive_search(saf_verifier, max_complexity=3)
        assert found is None

    def test_bounds_below_two_search_nothing(self):
        stats = SearchStats()
        assert exhaustive_search(lambda test: True, 1, stats=stats) is None
        assert stats.candidates_tested == 0

    def test_min_complexity_skips_small_bounds(self, saf_verifier):
        stats = SearchStats()
        found = exhaustive_search(
            saf_verifier, max_complexity=5, min_complexity=4, stats=stats
        )
        assert found is not None and found.complexity == 4

    def test_budget_cuts_off(self, saf_verifier):
        stats = SearchStats()
        found = exhaustive_search(
            saf_verifier, max_complexity=8, budget=3, stats=stats
        )
        assert found is None
        assert stats.candidates_tested == 4  # budget + the overflow probe
        assert stats.budget_exhausted

    def test_completed_search_is_not_budget_exhausted(self, saf_verifier):
        stats = SearchStats()
        found = exhaustive_search(
            saf_verifier, max_complexity=3, budget=30, stats=stats
        )
        assert found is None
        assert stats.candidates_tested == 30  # the whole grammar, 6 + 24
        assert not stats.budget_exhausted

    @pytest.mark.parametrize("min_complexity", [2, 17])
    def test_high_bound_with_small_budget_stays_cheap(self, min_complexity):
        # A 23n certificate (March G) or a polish above ~14n must not
        # enumerate element bodies its budget never reaches: there are
        # ~2.6e5 bodies of 16 ops and ~1.6e7 of 21.
        stats = SearchStats()
        start = time.perf_counter()
        found = exhaustive_search(
            lambda test: False, max_complexity=23, max_elements=7,
            min_complexity=min_complexity, budget=2000, stats=stats,
        )
        assert found is None and stats.budget_exhausted
        assert time.perf_counter() - start < 5.0

    def test_saf_tf_needs_five(self):
        faults = FaultList.from_names("SAF", "TF")
        verify = make_verifier(faults.instances(2), 2)
        found = exhaustive_search(verify, max_complexity=5)
        assert found is not None
        assert found.complexity == 5

    def test_found_tests_are_verified(self, saf_verifier):
        found = exhaustive_search(saf_verifier, max_complexity=5)
        assert saf_verifier(found)


class TestGrammar:
    """The candidate grammar, pinned: the search needs no dedup set."""

    #: Candidates per bound 1..8 at ``max_elements`` 6 and 7.  The
    #: search starts at bound 2, so the two single writes of bound 1
    #: are never candidates.
    COUNTS = {
        6: (2, 6, 24, 108, 488, 2208, 9856, 42464),
        7: (2, 6, 24, 108, 488, 2208, 9984, 44896),
    }

    @pytest.mark.parametrize("max_elements", sorted(COUNTS))
    def test_marches_are_exact_bound_and_distinct(self, max_elements):
        counts = []
        for bound in range(2, 9):
            candidates = []
            exhaustive_search(
                lambda test: candidates.append(test) and False,
                max_complexity=bound,
                max_elements=max_elements,
                min_complexity=bound,
            )
            assert {c.complexity for c in candidates} == {bound}
            assert len({str(c) for c in candidates}) == len(candidates)
            assert all(len(c) <= max_elements for c in candidates)
            counts.append(len(candidates))
        assert tuple(counts) == self.COUNTS[max_elements][1:]

    def test_table3_minimality_searches_test_the_grammar_counts(self):
        # Below each Table 3 complexity at size 2 with budget 30000: the
        # SAF+TF+ADF+CFin+CFid row (10n) stops at its budget.
        rows = [
            (("SAF",), 4, 30),
            (("SAF", "TF"), 5, 138),
            (("SAF", "TF", "ADF"), 6, 626),
            (("SAF", "TF", "ADF", "CFIN"), 6, 626),
            (("SAF", "TF", "ADF", "CFIN", "CFID"), 10, 30001),
            (("CFIN",), 5, 138),
        ]
        for names, complexity, tested in rows:
            kernel = SimulationKernel(backend="bitparallel")
            stats = SearchStats()
            found = exhaustive_search(
                kernel.verifier(FaultList.from_names(*names).instances(2), 2),
                max_complexity=complexity - 1,
                max_elements=7,
                budget=30000,
                stats=stats,
            )
            assert found is None, names
            assert stats.candidates_tested == tested, names
            assert stats.budget_exhausted == (tested > 30000), names


class TestSteppedSearch:
    """The search steps the packed verifier's node down the tree."""

    def test_each_prefix_is_stepped_once(self):
        # The MarchC- row below 10n: 30,000 candidates from 6,573
        # element steps.  A tree walk steps each candidate once below
        # its parent node (38,499 steps, not ~4.5 per candidate from
        # power-up); the memo steps no subtree it already found dead.
        kernel = SimulationKernel(backend="bitparallel")
        cases = FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")
        stats = SearchStats()
        exhaustive_search(
            kernel.verifier(cases.instances(2), 2), max_complexity=9,
            max_elements=7, budget=30000, stats=stats,
        )
        verify = kernel.verify_stats
        assert stats.candidates_tested == 30001
        assert verify.calls == verify.realizations.value == 30000
        assert verify.table_misses.value == 1384
        assert verify.table_hits.value + verify.table_misses.value == 6573
        assert stats.nodes_expanded == 19270
        assert stats.subtrees_reused == 1655

    @pytest.mark.parametrize("budget", [50, None])
    def test_a_finished_search_frees_its_kernel_by_refcount(self, budget):
        kernel = SimulationKernel(backend="bitparallel")
        verify = kernel.verifier(
            FaultList.from_names("SAF", "TF").instances(2), 2
        )
        dead_kernel = weakref.ref(kernel)
        dead_table = weakref.ref(verify.table)
        gc.disable()
        try:
            stats = SearchStats()
            found = exhaustive_search(
                verify, max_complexity=9, budget=budget, stats=stats
            )
            assert (found is None) == stats.budget_exhausted
            del kernel, verify
            assert dead_kernel() is None and dead_table() is None
        finally:
            gc.enable()

    def test_traced_search_spans_each_candidate(self):
        telemetry = Telemetry()
        kernel = SimulationKernel(backend="bitparallel", telemetry=telemetry)
        verify = kernel.verifier(
            FaultList.from_names("SAF", "TF").instances(2), 2
        )
        stats = SearchStats()
        assert exhaustive_search(
            verify, max_complexity=9, budget=100, stats=stats
        ) is None
        spans = [
            line["attrs"]
            for line in flatten_span_trees(telemetry.span_trees())
            if line["name"] == "kernel.verify"
        ]
        counters = kernel.verify_stats
        assert len(spans) == counters.calls == 100
        assert all(span["realizations"] == span["segments"] == 1
                   for span in spans)
        for series in ("table_hits", "table_misses"):
            assert sum(span[series] for span in spans) == getattr(
                counters, series
            ).value


class TestPolishOutcome:
    def test_completed_polish_is_noted(self):
        report = MarchTestGenerator().generate(FaultList.from_names("SAF"))
        assert (
            "no shorter test within the grammar (search completed)"
            in report.notes
        )

    def test_exhausted_polish_budget_is_noted(self, monkeypatch):
        monkeypatch.setattr(generator_module, "POLISH_BUDGET", 3)
        report = MarchTestGenerator().generate(FaultList.from_names("SAF"))
        assert "polish budget exhausted at 3 candidates" in report.notes
        assert report.complexity == 4

    def test_adopted_witness_is_not_a_repair(self):
        # Without tightening the pipeline's 13n attempt needs no repair;
        # the polish, searching from the grammar's smallest bound,
        # replaces it by a 6n witness (MarchX), which is no repair
        # either and has no redundant op, and the notes say what it
        # replaced.
        faults = FaultList.from_names("SAF", "TF", "ADF", "CFIN")
        incumbent = MarchTestGenerator(
            GeneratorConfig(tighten=False, polish=False)
        ).generate(faults)
        assert incumbent.complexity == 13
        assert not incumbent.used_repair
        report = MarchTestGenerator(GeneratorConfig(tighten=False)).generate(
            faults
        )
        assert report.verified
        assert report.complexity == 6
        assert report.non_redundant
        assert not report.used_repair
        assert "repair fallback used" not in report.summary()
        assert (
            f"polish witness {report.test} replaced the 13n incumbent"
            in report.notes
        ), report.notes

    def test_witness_failing_confirmation_is_not_adopted(self, monkeypatch):
        # At size 2 this 6n test detects ADF+SOF; at the confirm size 3
        # it misses SOF.  Without tightening the incumbent is above 6n,
        # so the polish runs.
        import repro.core.exhaustive as exhaustive_module
        from repro.march.test import parse_march

        witness = parse_march("{up(w0); up(r0,w1); down(r1,w0); up(r0)}")
        faults = FaultList.from_names("ADF", "SOF")
        incumbent = MarchTestGenerator(
            GeneratorConfig(tighten=False, polish=False)
        ).generate(faults)
        monkeypatch.setattr(
            exhaustive_module, "exhaustive_search", lambda *a, **k: witness
        )
        report = MarchTestGenerator(GeneratorConfig(tighten=False)).generate(
            faults
        )
        assert report.verified
        assert report.test == incumbent.test
        assert any(
            note.startswith("polish witness {⇕(w0); ⇑(r0,w1)")
            and "failed confirmation at size 3" in note
            for note in report.notes
        ), report.notes
