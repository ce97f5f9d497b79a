"""Tests for the generation report object."""

from repro.core.report import GenerationReport
from repro.march.catalog import MATS, MARCH_C_MINUS
from repro.sequence.gts import GlobalTestSequence


def make(**overrides):
    defaults = dict(
        test=MATS,
        fault_names=("SAF",),
        elapsed_seconds=0.5,
        verified=True,
    )
    defaults.update(overrides)
    return GenerationReport(**defaults)


class TestReport:
    def test_complexity_delegates(self):
        report = make(test=MARCH_C_MINUS)
        assert report.complexity == 10
        assert report.complexity_label == "10n"

    def test_summary_core_fields(self):
        text = make().summary()
        assert "SAF" in text
        assert "4n" in text
        assert "wall time  : 0.500s" in text
        assert "verified   : True" in text

    def test_summary_optional_fields(self):
        report = make(
            non_redundant=True,
            equivalent_known="MATS (4n)",
            tpg_size=2,
            selections_explored=3,
            selection_space=4,
            used_repair=True,
        )
        text = report.summary()
        assert "non-redundant : True" in text
        assert "MATS (4n)" in text
        assert "selections 3/4" in text
        assert "repair fallback" in text

    def test_notes_appended(self):
        report = make()
        report.notes.append("something noteworthy")
        assert "something noteworthy" in report.summary()

    def test_gts_provenance(self):
        report = make(gts=GlobalTestSequence([]), tour=(0, 1))
        assert report.gts is not None
        assert report.tour == (0, 1)
