"""End-to-end generator tests: the paper's Table 3."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import (
    GenerationError,
    GeneratorConfig,
    MarchTestGenerator,
    generate_march_test,
)
from repro.core.optimize import make_verifier
from repro.faults import FaultList, UserDefinedFault
from repro.kernel import SimulationKernel

KERNEL = SimulationKernel()


def generate(*names, **config_kwargs):
    config = GeneratorConfig(**config_kwargs) if config_kwargs else None
    return generate_march_test(*names, config=config)


class TestTable3:
    """Every row of the paper's Table 3, complexity-exact."""

    def test_row1_saf(self):
        report = generate("SAF")
        assert report.complexity == 4
        assert report.verified
        assert report.equivalent_known.startswith("MATS")

    def test_row2_saf_tf(self):
        report = generate("SAF", "TF")
        assert report.complexity == 5
        assert report.verified

    def test_row3_saf_tf_adf(self):
        report = generate("SAF", "TF", "ADF")
        assert report.complexity == 6
        assert report.verified
        assert "MATS++" in (report.equivalent_known or "")

    def test_row4_march_x_class(self):
        report = generate("SAF", "TF", "ADF", "CFIN")
        assert report.complexity == 6
        assert report.verified
        assert "MarchX" in (report.equivalent_known or "")

    def test_row5_march_c_minus_class(self):
        report = generate("SAF", "TF", "ADF", "CFIN", "CFID")
        assert report.complexity == 10
        assert report.verified
        assert "MarchC-" in (report.equivalent_known or "")

    def test_row6_cfin_only(self):
        report = generate("CFIN")
        assert report.complexity == 5  # the paper's "Not Found" row
        assert report.verified


NO_SHORTER = "no shorter test within the grammar (search completed)"

#: Each Table 3 row's whole output at the generator's defaults: the
#: test, its GTS, the notes and the catalog match (every row is
#: verified and non-redundant).
TABLE3_OUTPUTS = [
    (("SAF",), "{⇕(w0,r0,w1,r1)}", "w0i, r0i, w1i, r1i", [NO_SHORTER],
     "MATS (4n)"),
    (("SAF", "TF"), "{⇕(w1,w0,r0,w1,r1)}", "w1i, w0i, r0i, w1i, r1i",
     [NO_SHORTER], None),
    (("SAF", "TF", "ADF"), "{⇕(w1); ⇓(r1,w0); ⇑(r0,w1,r1)}",
     "w1i, w1j, w0j, r1i, w0i, w1i, r0j, w0i, r0i, w1i, r1i", [],
     "MATS++ (6n)"),
    (("SAF", "TF", "ADF", "CFIN"), "{⇑(w1,w0); ⇓(r0,w1); ⇑(r1,w0)}",
     "w0i, w1i, r1i, w0j, w0i, r0j, w1j, r0i, w0j, r0i, w1i, r0j, w1j,"
     " r1i, w0i, r0i", [], "MarchX (6n)"),
    (("SAF", "TF", "ADF", "CFIN", "CFID"),
     "{⇕(w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇑(r0,w1); ⇕(r1)}",
     "w1i, w1j, w0j, r1i, w1j, r1i, w0i, r1j, w0j, r0i, w1i, r0j, w0i,"
     " r0j, w1j, r0i, w1i, r1j, w0i, r0i, w1i, r1i", [], "MarchC- (10n)"),
    (("CFIN",), "{⇕(w1); ⇕(r1,w0,w1); ⇕(r1)}",
     "w1i, w1j, w0j, r1i, w1j, w0i, r1j, w0j, w1j, r0i, w0j, w1i, r0j",
     [], None),
]


@pytest.mark.parametrize(
    "names,test,gts,notes,equivalent", TABLE3_OUTPUTS,
    ids=["+".join(row[0]) for row in TABLE3_OUTPUTS],
)
def test_table3_outputs_are_pinned(names, test, gts, notes, equivalent):
    report = generate(*names)
    assert str(report.test) == test
    assert str(report.gts) == gts
    assert report.notes == notes
    assert report.verified is True
    assert report.non_redundant is True
    assert report.equivalent_known == equivalent


class TestReportInvariants:
    def test_generated_test_detects_its_fault_list(self):
        faults = FaultList.from_names("SAF", "TF")
        report = MarchTestGenerator().generate(faults)
        assert KERNEL.simulate_fault_list(report.test, faults, 3).complete

    def test_non_redundancy_reported(self):
        report = generate("SAF")
        assert report.non_redundant is True

    def test_timings_recorded(self):
        report = generate("SAF")
        assert report.elapsed_seconds > 0
        assert report.complexity_label.endswith("n")

    def test_elapsed_covers_the_finalize_checks(self, monkeypatch):
        import time

        import repro.core.generator as generator_module

        delay = 0.05
        checked = []

        def slow_redundancy_check(*args, **kwargs):
            time.sleep(delay)
            checked.append(True)
            return True

        monkeypatch.setattr(
            generator_module, "is_non_redundant", slow_redundancy_check
        )
        report = generate("SAF")
        assert checked and report.non_redundant is True
        assert report.elapsed_seconds >= delay

    def test_summary_renders(self):
        report = generate("SAF")
        text = report.summary()
        assert "march test" in text and "4n" in text

    def test_selection_space_tracked(self):
        report = generate("SAF")
        assert report.selection_space >= report.selections_explored >= 1
        assert report.tpg_size >= 1


class TestConfigurations:
    def test_without_equivalence_enumeration(self):
        report = generate("SAF", selection_limit=1)
        assert report.verified
        assert report.selections_explored == 1

    def test_without_start_preference(self):
        report = generate("SAF", "TF", prefer_uniform_start=False)
        assert report.verified
        assert report.complexity <= 6

    def test_without_tighten(self):
        report = generate("SAF", tighten=False, polish=False)
        assert report.verified  # possibly longer, still correct

    def test_without_polish(self):
        report = generate("CFIN", polish=False)
        assert report.verified

    def test_redundancy_check_optional(self):
        report = generate("SAF", check_redundancy=False)
        assert report.non_redundant is None


class TestFurtherFaultModels:
    @pytest.mark.parametrize(
        "names, max_complexity",
        [
            (("RDF",), 4),
            (("IRF",), 4),
            (("WDF",), 6),
            (("DRDF",), 8),
            (("SOF",), 4),
            (("CFST",), 8),
        ],
    )
    def test_single_model_generation(self, names, max_complexity):
        report = generate(*names)
        assert report.verified
        assert report.complexity <= max_complexity

    def test_retention_fault_needs_delay(self):
        report = generate("DRF")
        assert report.verified
        from repro.march.element import DelayElement

        assert any(
            isinstance(e, DelayElement) for e in report.test.elements
        )


class TestErrors:
    def test_empty_fault_list(self):
        with pytest.raises(GenerationError):
            MarchTestGenerator().generate(FaultList([]))

    def test_fault_without_instances(self):
        from repro.faults import BFEClass, delta_bfe
        from repro.memory.operations import write
        from repro.memory.state import MemoryState

        bfe = delta_bfe(
            MemoryState.parse("0-"), write("i", 1), MemoryState.parse("0-")
        )
        model = UserDefinedFault(
            "NOSIM", [BFEClass("c", (bfe,), cell_symmetric=True)]
        )
        with pytest.raises(GenerationError):
            MarchTestGenerator().generate(FaultList([model]))


HASH_SEED_PROBE = """
from repro.core import MarchTestGenerator
from repro.faults import FaultList
for names in (("SAF", "TF", "ADF"), ("CFIN",)):
    generator = MarchTestGenerator()
    report = generator.generate(FaultList.from_names(*names))
    print(report.test, report.notes)
    print(generator.kernel.verify_stats)
"""


def test_generation_does_not_depend_on_the_hash_seed():
    """Two Table 3 rows whose verify counts once followed the string
    hash seed (the merge moves were drawn from a set of orders)."""
    src = Path(repro.__file__).resolve().parents[1]

    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE],
            env=env, check=True, capture_output=True, text=True,
        ).stdout

    first = run(2)
    assert "verify:" in first
    assert run(5) == first
