"""Ablations of the generator's design choices.

* the f.4.4 start-state constraint on vs off;
* the local optimizer (tighten) on vs off;
* exact ATSP vs the nearest-neighbour heuristic.
"""

import pytest

from repro.core import GeneratorConfig, MarchTestGenerator
from repro.faults import FaultList

ROW2 = ("SAF", "TF")
ROW4 = ("SAF", "TF", "ADF", "CFIN")


def _generate(names, **kwargs):
    config = GeneratorConfig(**kwargs)
    return MarchTestGenerator(config).generate(FaultList.from_names(*names))


class TestStartConstraint:
    """f.4.4: restricting tours to uniform 00/11 starts."""

    def test_with_constraint(self, benchmark):
        report = benchmark.pedantic(
            _generate, args=(ROW2,), kwargs={"prefer_uniform_start": True},
            rounds=1, iterations=1, warmup_rounds=0,
        )
        assert report.complexity == 5

    def test_without_constraint(self, benchmark):
        report = benchmark.pedantic(
            _generate, args=(ROW2,), kwargs={"prefer_uniform_start": False},
            rounds=1, iterations=1, warmup_rounds=0,
        )
        # Correctness is preserved; optimality is recovered by the
        # later phases even without the paper's shortcut.
        assert report.verified
        assert report.complexity >= 5


class TestTighten:
    def test_with_tighten(self, benchmark):
        report = benchmark.pedantic(
            _generate, args=(ROW4,), kwargs={"tighten": True},
            rounds=1, iterations=1, warmup_rounds=0,
        )
        assert report.complexity == 6

    def test_without_tighten_or_polish(self, benchmark):
        report = benchmark.pedantic(
            _generate, args=(ROW4,),
            kwargs={"tighten": False, "polish": False},
            rounds=1, iterations=1, warmup_rounds=0,
        )
        assert report.verified
        # Raw pipeline output is never shorter than the optimized one.
        assert report.complexity >= 6


class TestAtspMethod:
    @pytest.mark.parametrize("method", ["held_karp", "branch_bound", "heuristic"])
    def test_method(self, benchmark, method):
        report = benchmark.pedantic(
            _generate, args=(ROW2,), kwargs={"atsp_method": method},
            rounds=1, iterations=1, warmup_rounds=0,
        )
        assert report.verified
        assert report.complexity == 5


class TestWeightMode:
    """f.4.1 ablation: Hamming setup-cost weights vs uniform weights."""

    def test_hamming_weights(self, benchmark):
        report = benchmark.pedantic(
            _generate, args=(ROW2,), kwargs={"weight_mode": "hamming"},
            rounds=1, iterations=1, warmup_rounds=0,
        )
        assert report.complexity == 5

    def test_uniform_weights(self, benchmark):
        report = benchmark.pedantic(
            _generate, args=(ROW2,), kwargs={"weight_mode": "uniform"},
            rounds=1, iterations=1, warmup_rounds=0,
        )
        # Correctness survives; the tour loses the setup-cost signal,
        # so the raw GTS may be longer before optimization recovers it.
        assert report.verified
        assert report.complexity >= 5
